"""The sweep service: ``repro serve`` and the ``--backend distributed`` fleet.

One asyncio event loop owns everything: the listening socket, one
connection handler per peer, the worker fleet and the
:class:`~repro.service.jobs.JobQueue`.  Peers self-identify by their first
frame — workers send ``hello``, clients send ``client_hello`` — and get a
``welcome`` back, or an ``error`` frame and a closed connection when the
greeting speaks another protocol version (see :mod:`repro.harness.wire`).

Per worker the server runs a *dispatch* task and a *receive* task.
Dispatch pulls assignments from the queue (priority + fair share, see
:mod:`repro.service.jobs`), keeps at most ``slots`` points outstanding
(credit-based pipelining) and tags each
``point`` frame with a job-scoped ``"<job>/<index>"`` task id.  Receive
matches ``result`` frames back by task id, settles the point and streams
a ``point_result`` event to every watcher of that job.  When a worker
connection drops, its in-flight points are requeued for the survivors —
a killed worker never loses a point.

Shutdown is two-tier: SIGTERM *drains* (refuse new submissions, finish
every accepted job, then exit) while SIGINT *stops* (cancel unfinished
jobs and exit now).  Both end with ``shutdown`` frames to the fleet so
workers exit cleanly.

:class:`ServiceThread` serves a service on its own event-loop thread, for
callers that are not themselves asyncio programs.
:class:`PrivateSweepService` is the service ``--backend distributed``
runs that way inside the coordinator's process (see
:class:`~repro.harness.backends.DistributedBackend`).
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from typing import Coroutine, Dict, List, Optional, Tuple, TypeVar

from repro.api import JobSpec
from repro.harness.backends import WorkerRunStats
from repro.harness.runner import point_seed
from repro.harness.spec import point_func_ref
from repro.harness.wire import (
    PROTOCOL_VERSION,
    decode_point,
    decode_result,
    enable_keepalive,
    hello_refusal,
    make_task_id,
    parse_address,
    read_frame_async,
    write_frame_async,
)
from repro.service.jobs import JobQueue, ServiceError, ServiceJob
from repro.store import (
    FileStore,
    Provenance,
    ResultStore,
    StoreEntry,
    kwargs_digest,
    point_cache_key,
)

#: How long a new connection has to identify itself before being dropped.
HELLO_TIMEOUT = 10.0


class _WorkerLink:
    """Server-side state of one connected worker."""

    def __init__(self, key: int, label: str, slots: int,
                 writer: asyncio.StreamWriter) -> None:
        self.key = key
        self.label = label
        self.slots = slots
        self.writer = writer
        self.credits = slots
        #: task id -> (job_id, point index, dispatch instant) for points
        #: on this connection
        self.inflight: Dict[str, Tuple[str, int, float]] = {}
        self.points_done = 0
        #: summed dispatch-to-result seconds of the points it returned (a
        #: multi-slot worker accrues more busy seconds than wall seconds)
        self.busy_s = 0.0
        self.joined_at = time.monotonic()
        self.closed = False
        self.wake = asyncio.Event()

    def stats(self, since: float, until: float, points: int = 0,
              busy_s: float = 0.0) -> WorkerRunStats:
        """Throughput over ``since``..``until``, less a baseline's counters."""
        return WorkerRunStats(worker=self.label, slots=self.slots,
                              points=self.points_done - points,
                              busy_s=self.busy_s - busy_s,
                              wall_s=until - max(since, self.joined_at))


class SweepService:
    """The ``repro serve`` server.  Construct, then ``await serve()``."""

    def __init__(self, bind: str = "127.0.0.1:0", max_retries: int = 3,
                 quiet: bool = False,
                 store: Optional[ResultStore] = None) -> None:
        self.bind = bind
        self.queue = JobQueue(max_retries=max_retries)
        self.quiet = quiet
        #: Result store every successful point is recorded to (with its
        #: job id, submitter and worker in the provenance), so the fleet's
        #: output survives the job — a coordinator that later runs the
        #: same points against this store gets them all from cache.
        self.store = store
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: Dict[int, _WorkerLink] = {}
        self._next_worker_key = 0
        #: per-job event queues of connected ``watch`` streams
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        #: per-job "reached a terminal state" latches (``result`` waits here)
        self._finished: Dict[str, asyncio.Event] = {}
        self._closing: Optional[asyncio.Event] = None
        #: live connection-handler tasks -> their writers, for clean shutdown
        self._connections: Dict["asyncio.Task", asyncio.StreamWriter] = {}

    # -- lifecycle --------------------------------------------------------- #
    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound ``(host, port)``."""
        self._closing = asyncio.Event()
        host, port = parse_address(self.bind)
        self._server = await asyncio.start_server(self._handle_connection,
                                                  host, port)
        bound = self._server.sockets[0].getsockname()
        self.address = (host, bound[1])
        self._log(f"listening on {host}:{bound[1]} "
                  f"(protocol v{PROTOCOL_VERSION})")
        return self.address

    async def serve(self) -> None:
        """Serve until a drain completes or :meth:`request_stop` fires."""
        if self._server is None:
            await self.start()
        assert self._closing is not None
        await self._closing.wait()
        await self._shutdown()

    def request_drain(self) -> None:
        """SIGTERM: refuse new submissions, finish accepted jobs, exit.

        Loop-thread only (signal handler or ``call_soon_threadsafe``).
        """
        if self.queue.draining:
            return
        self.queue.draining = True
        self._log(f"draining: refusing new submissions, "
                  f"{self.queue.unfinished()} job(s) still unfinished")
        self._maybe_finish_drain()

    def request_stop(self) -> None:
        """SIGINT: cancel unfinished jobs and exit now.  Loop-thread only."""
        self.queue.draining = True
        for job in list(self.queue.jobs.values()):
            if self.queue.cancel(job.job_id) is not None:
                self._notify_terminal(job)
        self._log("stopping")
        if self._closing is not None:
            self._closing.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            # Not followed by wait_closed(): from Python 3.12.1 that waits
            # for every connection to close, which happens further down.
            self._server.close()
        for link in list(self._workers.values()):
            link.closed = True
            link.wake.set()
            try:
                await write_frame_async(link.writer, {"type": "shutdown"})
            except (OSError, ConnectionError):
                pass
        # Closing every connection EOFs the handlers out of their reads, so
        # they finish *normally* (requeue bookkeeping and all) instead of
        # being cancelled mid-await when the event loop is torn down.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=5.0)
        for task in list(self._connections):
            if not task.done():  # e.g. a watch of a job that never ends
                task.cancel()
        self._log("stopped")

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"repro serve: {message}", file=sys.stderr, flush=True)

    # -- connection intake ------------------------------------------------- #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                enable_keepalive(sock)
            try:
                first = await asyncio.wait_for(read_frame_async(reader),
                                               timeout=HELLO_TIMEOUT)
            except (asyncio.TimeoutError, ConnectionError, OSError,
                    ValueError):
                return
            if first is None:
                return
            refusal = hello_refusal(first)
            if refusal is not None:
                self._log(refusal)
                await write_frame_async(writer, {"type": "error",
                                                 "error": refusal})
            elif first.get("type") == "hello":
                await self._serve_worker(first, reader, writer)
            else:
                await self._serve_client(reader, writer)
        except (OSError, ConnectionError, ValueError):
            pass  # a dropped peer is routine fleet churn, not a server error
        finally:
            if task is not None:
                self._connections.pop(task, None)
            try:
                writer.close()
            except OSError:
                pass

    # -- workers ----------------------------------------------------------- #
    async def _serve_worker(self, hello: Dict[str, object],
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        slots = int(hello["slots"])  # validated by hello_refusal
        peer = writer.get_extra_info("peername") or ("?", 0)
        label = f"{peer[0]}:{peer[1]}/pid={hello.get('pid', '?')}"
        self._next_worker_key += 1
        link = _WorkerLink(self._next_worker_key, label, slots, writer)
        self._workers[link.key] = link
        self._log(f"worker {label} joined: {slots} slot(s)")
        try:
            await write_frame_async(writer, {"type": "welcome",
                                             "proto": PROTOCOL_VERSION,
                                             "role": "worker"})
            receive = asyncio.ensure_future(self._worker_receive(link, reader))
            dispatch = asyncio.ensure_future(self._worker_dispatch(link))
            done, pending = await asyncio.wait(
                {receive, dispatch}, return_when=asyncio.FIRST_COMPLETED)
            link.closed = True
            link.wake.set()
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            for task in done:
                task.exception()  # retrieve, so nothing logs as unhandled
        finally:
            self._worker_left(link)

    def _worker_left(self, link: _WorkerLink) -> None:
        """Drop a closed worker from the fleet and requeue its points."""
        link.closed = True
        self._workers.pop(link.key, None)
        requeued = len(link.inflight)
        for job, index, payload in self.queue.requeue_worker(link.key):
            self._emit_point(job, index, payload)
            requeued -= 1
        self._log(f"worker {link.label} left after {link.points_done} "
                  f"point(s); requeued {max(requeued, 0)} in-flight")
        self._kick_all()

    async def _worker_dispatch(self, link: _WorkerLink) -> None:
        """Push assignments to one worker, ``slots`` at a time."""
        while True:
            link.wake.clear()
            if link.closed:
                return
            while link.credits > 0 and not link.closed:
                assignment = self.queue.next_assignment(link.key)
                if assignment is None:
                    break
                job, index = assignment
                task_id = make_task_id(job.job_id, index)
                link.credits -= 1
                link.inflight[task_id] = (job.job_id, index, time.monotonic())
                entry = job.spec.points[index]
                await write_frame_async(
                    link.writer,
                    {"type": "point", "task_id": task_id,
                     "point": entry["point"]})
            await link.wake.wait()

    async def _worker_receive(self, link: _WorkerLink,
                              reader: asyncio.StreamReader) -> None:
        """Settle results from one worker until its connection ends."""
        while True:
            try:
                frame = await read_frame_async(reader)
            except (ConnectionError, OSError, ValueError):
                return
            if frame is None:
                return
            if frame.get("type") != "result":
                continue
            task_id = frame.get("task_id")
            entry = link.inflight.pop(task_id, None) \
                if isinstance(task_id, str) else None
            if entry is None:
                continue  # stale or fabricated task id
            job_id, index, started = entry
            duration_s = time.monotonic() - started
            link.credits += 1
            job = self.queue.get(job_id)
            if job is not None:
                if frame.get("ok"):
                    payload: Dict[str, object] = {
                        "ok": True, "result": str(frame.get("result", "")),
                        "worker": link.label}
                else:
                    payload = {"ok": False,
                               "error": str(frame.get("error",
                                                      "unknown worker error"))}
                # Only a reply that settles its point counts toward the
                # worker's totals: a late reply for a cancelled job or a
                # duplicate would otherwise land in the next run's stats.
                if self.queue.complete(job, index, payload):
                    link.points_done += 1
                    link.busy_s += duration_s
                    if payload["ok"]:
                        self._store_result(
                            job, index, str(payload["result"]),
                            worker=link.label,
                            duration_s=round(duration_s, 6))
                    self._emit_point(job, index, payload)
            link.wake.set()  # a credit came back; dispatch may proceed

    def _kick_all(self) -> None:
        for link in self._workers.values():
            link.wake.set()

    def _store_result(self, job: ServiceJob, index: int, blob: str,
                      worker: str, duration_s: Optional[float]) -> None:
        """Record one successful point in the service's result store.

        Best-effort: a store failure (full disk, unpicklable payload from
        a hostile worker) is logged and the job proceeds — durability is
        an amenity of the service, not a correctness requirement.
        """
        if self.store is None:
            return
        try:
            point = decode_point(str(job.spec.points[index]["point"]))
            result = decode_result(blob)
            provenance = Provenance.collect(
                spec=point.spec, point_id=point.point_id,
                func=point_func_ref(point),
                kwargs_digest=kwargs_digest(point.kwargs),
                seed=point_seed(point), backend="service", worker=worker,
                duration_s=duration_s, job_id=job.job_id,
                submitter=job.spec.submitter)
            entry = StoreEntry(point_id=point.point_id, rows=result.rows,
                               stats=result.stats, provenance=provenance)
            self.store.store(point.spec, point_cache_key(point), entry)
        except Exception as error:  # noqa: BLE001 - never take the job down
            self._log(f"store write failed for {job.job_id}[{index}]: "
                      f"{type(error).__name__}: {error}")

    # -- event fan-out ----------------------------------------------------- #
    def _emit_point(self, job: ServiceJob, index: int,
                    payload: Dict[str, object]) -> None:
        event = {"type": "point_result", "job_id": job.job_id,
                 "index": index}
        event.update(payload)
        for watcher in self._watchers.get(job.job_id, []):
            watcher.put_nowait(event)
        if job.state.terminal:
            self._notify_terminal(job)

    def _notify_terminal(self, job: ServiceJob) -> None:
        event = {"type": "job_end", "job_id": job.job_id,
                 "state": job.state.value, "error": job.error}
        for watcher in self._watchers.get(job.job_id, []):
            watcher.put_nowait(event)
        self._finished.setdefault(job.job_id, asyncio.Event()).set()
        self._log(f"job {job.job_id} ({job.spec.name}) {job.state.value}: "
                  f"{job.completed}/{job.total} ok, {job.failed} failed")
        self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if self.queue.draining and not self.queue.unfinished() \
                and self._closing is not None:
            self._closing.set()

    # -- clients ----------------------------------------------------------- #
    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        await write_frame_async(writer, {"type": "welcome",
                                         "proto": PROTOCOL_VERSION,
                                         "role": "client"})
        while True:
            frame = await read_frame_async(reader)
            if frame is None:
                return
            kind = frame.get("type")
            try:
                if kind == "submit":
                    await self._client_submit(frame, writer)
                elif kind == "status":
                    await self._client_status(frame, writer)
                elif kind == "result":
                    await self._client_result(frame, writer)
                elif kind == "watch":
                    await self._client_watch(frame, writer)
                elif kind == "cancel":
                    await self._client_cancel(frame, writer)
                else:
                    raise ServiceError(f"unknown request type {kind!r}")
            except (ServiceError, ValueError) as error:
                await write_frame_async(writer, {"type": "error",
                                                 "error": str(error)})

    async def _client_submit(self, frame: Dict[str, object],
                             writer: asyncio.StreamWriter) -> None:
        spec = JobSpec.from_json(frame.get("job"))  # ValueError -> error frame
        job = self.queue.submit(spec)               # ServiceError while draining
        self._finished.setdefault(job.job_id, asyncio.Event())
        self._log(f"job {job.job_id} ({spec.name}) submitted by "
                  f"{spec.submitter}: {job.total} point(s), "
                  f"priority {spec.priority}")
        if job.state.terminal:
            self._notify_terminal(job)  # an empty job finishes at submission
        self._kick_all()
        await write_frame_async(writer, {"type": "submitted",
                                         "job_id": job.job_id,
                                         "status": job.status().to_json()})

    async def _client_status(self, frame: Dict[str, object],
                             writer: asyncio.StreamWriter) -> None:
        target = frame.get("job")
        statuses = self.queue.statuses(
            str(target) if target is not None else None)
        now = time.monotonic()
        workers = [{"label": link.label, "slots": link.slots,
                    "inflight": len(link.inflight),
                    "points_done": link.points_done, "busy_s": link.busy_s,
                    "points_per_s": link.stats(link.joined_at,
                                               now).points_per_s}
                   for link in self._workers.values()]
        await write_frame_async(
            writer, {"type": "status", "draining": self.queue.draining,
                     "jobs": [status.to_json() for status in statuses],
                     "workers": workers})

    async def _client_result(self, frame: Dict[str, object],
                             writer: asyncio.StreamWriter) -> None:
        job_id = str(frame.get("job"))
        job = self.queue.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if not job.state.terminal:
            await self._finished.setdefault(job_id, asyncio.Event()).wait()
        points = []
        for index, entry in enumerate(job.spec.points):
            payload = job.results[index] or {
                "ok": False, "error": "point was cancelled before it ran"}
            record = {"index": index, "spec": entry.get("spec"),
                      "point_id": entry.get("point_id"),
                      "group": entry.get("group")}
            record.update(payload)
            points.append(record)
        await write_frame_async(
            writer, {"type": "result", "job_id": job.job_id,
                     "state": job.state.value, "error": job.error,
                     "meta": dict(job.spec.meta), "points": points})

    async def _client_watch(self, frame: Dict[str, object],
                            writer: asyncio.StreamWriter) -> None:
        """Stream a job's events; the reply sequence ends with ``job_end``."""
        job_id = str(frame.get("job"))
        job = self.queue.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        # Snapshot already-settled points and register the live queue in the
        # same loop step, so nothing falls between backlog and stream; the
        # `sent` set drops the duplicates that overlap produces.
        events: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(job_id, []).append(events)
        backlog = [(index, payload)
                   for index, payload in enumerate(job.results)
                   if payload is not None]
        ended_already = job.state.terminal
        sent = set()
        try:
            for index, payload in backlog:
                sent.add(index)
                event = {"type": "point_result", "job_id": job_id,
                         "index": index}
                event.update(payload)
                await write_frame_async(writer, event)
            if ended_already:
                await write_frame_async(
                    writer, {"type": "job_end", "job_id": job_id,
                             "state": job.state.value, "error": job.error})
                return
            while True:
                event = await events.get()
                if event.get("type") == "point_result" \
                        and event.get("index") in sent:
                    continue
                await write_frame_async(writer, event)
                if event.get("type") == "job_end":
                    return
        finally:
            watchers = self._watchers.get(job_id, [])
            if events in watchers:
                watchers.remove(events)

    async def _client_cancel(self, frame: Dict[str, object],
                             writer: asyncio.StreamWriter) -> None:
        job_id = str(frame.get("job"))
        job = self.queue.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        cancelled = self.queue.cancel(job_id)
        if cancelled is not None:
            self._log(f"job {job_id} cancelled by client")
            self._notify_terminal(cancelled)
        await write_frame_async(writer, {"type": "cancelled",
                                         "job_id": job_id,
                                         "status": job.status().to_json()})


_T = TypeVar("_T")


class ServiceThread:
    """A :class:`SweepService` served on its own event-loop thread.

    For callers that are not asyncio programs: the ``--backend
    distributed`` coordinator and the tests.  :meth:`call` runs a
    coroutine on the service's loop, the only thread that may touch the
    service's state; :meth:`stop` is what SIGINT is to ``repro serve``.
    """

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.thread = threading.Thread(target=self._run, name="repro-serve",
                                       daemon=True)
        self._started = threading.Event()
        self._error: Optional[Exception] = None

    @property
    def address(self) -> str:
        """The ``HOST:PORT`` workers and clients dial."""
        host, port = self.service.address
        return f"{host}:{port}"

    def start(self) -> Tuple[str, int]:
        """Bind (raising what binding raised) and serve; returns the address."""
        self.thread.start()
        self._started.wait()
        if self._error is not None:
            raise self._error
        return self.service.address

    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self.loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except Exception as error:  # noqa: BLE001 - start() re-raises it
            self._error = error
            return
        finally:
            self._started.set()
        await self.service.serve()

    def call(self, coroutine: Coroutine[object, object, _T]) -> _T:
        """Run ``coroutine`` on the service's loop; block for its result."""
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def stop(self) -> None:
        """Cancel unfinished jobs, shut the fleet down, join the thread."""
        try:
            self.loop.call_soon_threadsafe(self.service.request_stop)
        except RuntimeError:
            pass  # the loop already ended: a drain completed on its own
        self.thread.join(10.0)


class PrivateSweepService(SweepService):
    """The sweep service ``--backend distributed`` runs in-process.

    It serves one coordinator's runs, one job at a time, and adds the
    rules of a per-sweep fleet: a run waits for its workers
    (:meth:`begin_run`); with no worker left, at submission or when the
    last one leaves, a run's unsettled points fail at once where ``repro
    serve`` would wait for a late worker; each run reports per-worker
    throughput (:meth:`finish_run`).  No result store, no log lines.
    """

    def __init__(self, bind: str, max_retries: int) -> None:
        super().__init__(bind=bind, max_retries=max_retries, quiet=True)
        self._run_started = time.monotonic()
        #: worker key -> (points_done, busy_s) when the current run began
        self._baseline: Dict[int, Tuple[int, float]] = {}
        #: workers that left during the current run, and when
        self._departed: List[Tuple[_WorkerLink, float]] = []

    async def begin_run(self, min_workers: int, timeout: float) -> int:
        """Wait up to ``timeout`` s for ``min_workers``; baseline counters.

        Returns how many workers are connected.
        """
        deadline = time.monotonic() + timeout
        while len(self._workers) < min_workers \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        self._run_started = time.monotonic()
        self._baseline = {key: (link.points_done, link.busy_s)
                          for key, link in self._workers.items()}
        self._departed = []
        return len(self._workers)

    async def finish_run(self) -> List[WorkerRunStats]:
        """Throughput of every worker seen since :meth:`begin_run`, in join
        order; forgets settled jobs."""
        now = time.monotonic()
        links = self._departed + [(link, now)
                                  for link in self._workers.values()]
        stats = [link.stats(self._run_started, until,
                            *self._baseline.get(link.key, (0, 0.0)))
                 for link, until in sorted(links, key=lambda e: e[0].key)]
        for job_id in [job_id for job_id, job in self.queue.jobs.items()
                       if job.state.terminal]:
            del self.queue.jobs[job_id]
            self._finished.pop(job_id, None)
        return stats

    def _worker_left(self, link: _WorkerLink) -> None:
        super()._worker_left(link)
        self._departed.append((link, time.monotonic()))
        if not self._workers:
            self._fail_unsettled()

    async def _client_submit(self, frame: Dict[str, object],
                             writer: asyncio.StreamWriter) -> None:
        await super()._client_submit(frame, writer)
        if not self._workers:
            self._fail_unsettled()

    def _fail_unsettled(self) -> None:
        for job in list(self.queue.jobs.values()):
            for index in range(job.total):
                payload: Dict[str, object] = {
                    "ok": False,
                    "error": "all workers disconnected before the point ran"}
                if self.queue.complete(job, index, payload):
                    self._emit_point(job, index, payload)


def run_service(bind: str, max_retries: int = 3, quiet: bool = False,
                ready_line: bool = True,
                cache_dir: Optional[str] = None) -> int:
    """Run a :class:`SweepService` until it drains or is stopped.

    The blocking entry point behind ``repro serve``: installs SIGTERM →
    drain and SIGINT → stop handlers (where the platform supports them)
    and prints a parseable ``listening on HOST:PORT`` line to stdout so
    scripts can discover an ephemeral port.  With ``cache_dir`` the
    service records every successful point into that result store.
    """
    import contextlib
    import signal

    store = FileStore(cache_dir) if cache_dir else None
    service = SweepService(bind=bind, max_retries=max_retries, quiet=quiet,
                           store=store)

    async def _main() -> None:
        host, port = await service.start()
        if ready_line:
            print(f"listening on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signal.SIGTERM, service.request_drain)
            loop.add_signal_handler(signal.SIGINT, service.request_stop)
        await service.serve()

    asyncio.run(_main())
    return 0
