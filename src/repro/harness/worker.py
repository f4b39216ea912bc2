"""The ``repro worker`` process — executes sweep points for a sweep service.

A worker serves ``repro serve`` or the private service a ``--backend
distributed`` coordinator starts
(:class:`~repro.harness.backends.DistributedBackend`)::

    repro worker --connect HOST:PORT --jobs 8

It dials the service (retrying while the service is still coming up, so
workers and coordinator can be launched in any order), sends a ``hello``
frame advertising how many execution *slots* it has, reads the
``welcome`` — or the ``error`` frame of a service that refuses its
protocol version, which it logs before exiting non-zero — then serves
points.  With one slot (``--jobs 1``) the worker executes each point
in-process before reading the next frame; with more, it fans points out
over a local ``multiprocessing`` pool and replies **out of order** as they
finish — the service matches replies to points by ``task_id`` and never
keeps more than ``slots`` points outstanding on the connection.

``--jobs`` defaults to ``$REPRO_WORKER_JOBS``, else the machine's CPU
count, so a 32-core host contributes 32 cores to a sweep out of the box.

A point whose function raises is reported as ``ok: false`` — the *worker*
stays up; only a ``shutdown`` frame or a closed connection ends it.

The worker never touches the result cache; caching is coordinator-side.
"""

from __future__ import annotations

import os
import queue
import socket
import sys
import threading
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, Optional

from repro.harness.spec import execute_point
from repro.harness.wire import (
    PROTOCOL_VERSION,
    decode_point,
    enable_keepalive,
    encode_result,
    parse_address,
    recv_frame,
    send_frame,
)

#: Environment variable naming the default ``repro worker --jobs`` value.
WORKER_JOBS_ENV = "REPRO_WORKER_JOBS"


def default_worker_jobs() -> int:
    """Execution slots a worker offers unless ``--jobs`` says otherwise.

    ``$REPRO_WORKER_JOBS`` wins when set; otherwise every CPU the host
    has, so a many-core worker host is saturated by default.
    """
    env = os.environ.get(WORKER_JOBS_ENV)
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKER_JOBS_ENV} must be an integer, got {env!r}") from None
        if jobs < 1:
            raise ValueError(f"{WORKER_JOBS_ENV} must be >= 1, got {jobs}")
        return jobs
    return max(1, os.cpu_count() or 1)


def _log(message: str) -> None:
    print(f"repro worker[{os.getpid()}]: {message}", file=sys.stderr, flush=True)


def _connect(host: str, port: int, retry_seconds: float) -> socket.socket:
    """Dial the coordinator, retrying until ``retry_seconds`` elapse."""
    deadline = time.monotonic() + retry_seconds
    delay = 0.05
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as error:
            if time.monotonic() >= deadline:
                raise ConnectionError(
                    f"could not reach coordinator at {host}:{port} "
                    f"within {retry_seconds:.0f}s: {error}") from error
            time.sleep(delay)
            delay = min(delay * 2, 1.0)


def execute_task(task_id: object, blob: str) -> Dict[str, object]:
    """Run one encoded point and build its ``result`` reply.

    A raising point function — or a result that cannot be pickled back,
    which would equally fail the ``multiprocessing`` backend — becomes an
    ``ok: false`` reply; the worker itself stays up.  Module-level so pool
    children can run it; everything in the reply is JSON-safe, so it also
    travels back from a pool child without a second pickling contract.
    """
    try:
        point = decode_point(blob)
        result = execute_point(point)
        return {"type": "result", "task_id": task_id, "ok": True,
                "result": encode_result(result)}
    except Exception:  # noqa: BLE001 - reported to the coordinator per point
        return {"type": "result", "task_id": task_id, "ok": False,
                "error": traceback.format_exc(limit=8)}


def _serve_inline(sock: socket.socket) -> int:
    """One-slot service: execute each point before reading the next frame."""
    served = 0
    while True:
        frame = recv_frame(sock)
        if frame is None:
            _log(f"coordinator closed the connection after {served} points")
            return 0
        kind = frame.get("type")
        if kind == "shutdown":
            _log(f"shutdown after {served} points")
            return 0
        if kind != "point":
            _log(f"ignoring unexpected {kind!r} frame")
            continue
        # frame.get, not frame[...]: a point frame missing its payload must
        # become an ok:false reply (execute_task fails to decode it), not a
        # worker crash — only shutdown or a closed connection ends a worker.
        send_frame(sock, execute_task(frame.get("task_id"),
                                      str(frame.get("point"))))
        served += 1


def _serve_pooled(sock: socket.socket, jobs: int) -> int:
    """Multi-slot service: points run on a local process pool.

    The receive loop stays dedicated to the socket so up to ``jobs``
    points are in flight at once; finished results are sent back from a
    single sender thread (only ever one writer per socket) in completion
    order, not dispatch order.

    ``execute_task`` converts every point-level failure into an
    ``ok: false`` reply, so a future carrying an *exception* means the
    pool infrastructure itself broke — a child killed outright by the OS
    (OOM, segfault) takes its sibling tasks' futures down with it via
    ``BrokenProcessPool``.  No trustworthy per-point reply is possible
    then, so the worker drops the connection instead: the coordinator
    requeues every in-flight point onto the surviving workers, the same
    recovery a crash of a whole single-slot worker process gets.
    """
    from repro.harness.backends import pool_context

    replies: "queue.Queue[Optional[Dict[str, object]]]" = queue.Queue()
    broken = threading.Event()

    def _on_done(future: "Future[Dict[str, object]]", task_id: object) -> None:
        error = future.exception()
        if error is None:
            replies.put(future.result())
            return
        _log(f"pool task {task_id!r} lost ({type(error).__name__}: {error}); "
             f"dropping the connection so in-flight points retry elsewhere")
        broken.set()
        try:
            sock.shutdown(socket.SHUT_RDWR)  # unblock the recv loop
        except OSError:
            pass

    # Created before the sender thread exists so the first forked children
    # inherit as few live threads as possible.
    executor = ProcessPoolExecutor(max_workers=jobs, mp_context=pool_context())

    def _send_loop() -> None:
        while True:
            reply = replies.get()
            if reply is None:
                return
            try:
                send_frame(sock, reply)
            except OSError:
                return  # recv loop sees the same dead socket and exits

    sender = threading.Thread(target=_send_loop, name="repro-worker-send",
                              daemon=True)
    sender.start()
    served = 0
    try:
        while True:
            frame = recv_frame(sock)
            if broken.is_set():
                raise ConnectionError(
                    "worker pool broke; abandoning the connection so "
                    "in-flight points are retried elsewhere")
            if frame is None:
                _log(f"coordinator closed the connection after {served} points")
                return 0
            kind = frame.get("type")
            if kind == "shutdown":
                # Points still in flight belong to jobs the stopping
                # service gave up on; tear the pool down fast.
                _log(f"shutdown after {served} points")
                return 0
            if kind != "point":
                _log(f"ignoring unexpected {kind!r} frame")
                continue
            task_id = frame.get("task_id")
            try:
                # frame.get, not frame[...]: a payload-less point frame is
                # the point's problem (execute_task replies ok:false), not
                # grounds to treat the pool as broken.
                future = executor.submit(execute_task, task_id,
                                         str(frame.get("point")))
            except Exception as error:  # noqa: BLE001 - BrokenProcessPool
                raise ConnectionError(
                    f"worker pool broke: {error}") from error
            future.add_done_callback(
                lambda done, task_id=task_id: _on_done(done, task_id))
            served += 1
    finally:
        replies.put(None)
        sender.join(timeout=5)
        executor.shutdown(wait=False, cancel_futures=True)


def run_worker(connect: str, retry_seconds: float = 30.0,
               jobs: Optional[int] = None) -> int:
    """Serve sweep points from the service at ``connect`` until shutdown.

    ``jobs`` is the slot count advertised to the service (defaults to
    :func:`default_worker_jobs`).  Returns a process exit code: 0 on an
    orderly shutdown, 2 when the service refuses this worker.
    """
    if jobs is None:
        jobs = default_worker_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    host, port = parse_address(connect)
    sock = _connect(host, port, retry_seconds)
    try:
        # Symmetric with the service: if the service *host* vanishes
        # without a FIN, keepalive turns the silent hang into an error.
        enable_keepalive(sock)
        send_frame(sock, {"type": "hello", "pid": os.getpid(),
                          "proto": PROTOCOL_VERSION, "slots": jobs,
                          "python": sys.version.split()[0]})
        welcome = recv_frame(sock)  # under the connect timeout
        if not welcome or welcome.get("type") != "welcome":
            reason = welcome.get("error", welcome) if welcome \
                else "the connection closed"
            _log(f"{host}:{port} refused this worker: {reason}")
            return 2
        sock.settimeout(None)
        _log(f"connected to {host}:{port} with {jobs} slot(s)")
        if jobs == 1:
            return _serve_inline(sock)
        return _serve_pooled(sock, jobs)
    finally:
        sock.close()
