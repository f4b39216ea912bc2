"""Tests for the pluggable execution backends (serial / process / distributed).

The distributed tests run real TCP traffic, but keep everything on
localhost: the coordinator binds an ephemeral port and the workers are
threads running the same ``run_worker`` loop the ``repro worker``
subcommand runs.
"""

import socket
import sys
import threading
import time

import pytest

from repro.harness import (
    DistributedBackend,
    HarnessError,
    PointFailure,
    PointResult,
    ProcessPoolBackend,
    SerialBackend,
    SweepPoint,
    SweepRunner,
    create_backend,
    get_spec,
    run_worker,
)
from repro.harness.backends import ExecutionBackend
from repro.harness.wire import (
    PROTOCOL_VERSION,
    decode_point,
    encode_point,
    hello_refusal,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.harness.worker import default_worker_jobs, execute_task
from repro.service import ServiceClient


# --------------------------------------------------------------------------- #
# Module-level point functions (picklable across process boundaries)
# --------------------------------------------------------------------------- #
def square_point(value):
    return PointResult(rows=[{"value": value, "square": value * value}],
                       stats={"points.computed": 1})


def failing_point(value):
    raise RuntimeError(f"boom at {value}")


def tuple_row_point(value):
    # Tuples don't survive a JSON round trip (they come back as lists), so
    # this guards the pickle transport of results on the distributed backend.
    return PointResult(rows=[{"value": value, "pair": (value, value + 1)}])


def hard_exit_point(value):
    import os
    os._exit(17)  # simulates a pool child killed outright (OOM, segfault)


def _points(values, func=square_point):
    return [SweepPoint(spec="test", point_id=f"value={v}", func=func,
                       kwargs={"value": v}) for v in values]


def _start_worker_thread(host, port, jobs=1):
    thread = threading.Thread(target=run_worker, args=(f"{host}:{port}",),
                              kwargs={"retry_seconds": 10.0, "jobs": jobs},
                              daemon=True)
    thread.start()
    return thread


def _flaky_worker(host, port):
    """A worker that dies after receiving (and dropping) one point."""
    sock = _connect_fake_worker(host, port, slots=1)
    recv_frame(sock)  # accept one point frame ...
    sock.close()      # ... and vanish without replying


def _settled(backend):
    """Points of the backend's current run settled so far (status request)."""
    host, port = backend.listen()
    with ServiceClient(f"{host}:{port}") as client:
        return sum(status.settled for status in client.status())


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestWire:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, {"type": "hello", "pid": 1})
            send_frame(left, {"type": "shutdown"})
            assert recv_frame(right) == {"type": "hello", "pid": 1}
            assert recv_frame(right) == {"type": "shutdown"}
            left.close()
            assert recv_frame(right) is None  # clean EOF between frames
        finally:
            right.close()

    def test_point_survives_encoding(self):
        (point,) = _points([3])
        decoded = decode_point(encode_point(point))
        assert decoded == point
        assert decoded.func is square_point

    def test_decode_rejects_non_points(self):
        import base64
        import pickle
        blob = base64.b64encode(pickle.dumps("not a point")).decode("ascii")
        with pytest.raises(ConnectionError):
            decode_point(blob)

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7421") == ("127.0.0.1", 7421)
        with pytest.raises(ValueError):
            parse_address("7421")

    def test_hello_slots_parsing(self):
        hello = {"type": "hello", "proto": PROTOCOL_VERSION}
        assert hello_refusal({**hello, "slots": 4}) is None
        # A hello without slots, or with a malformed advert, is refused.
        for slots in (None, 0, -3, "8", True):
            advert = dict(hello) if slots is None else {**hello,
                                                        "slots": slots}
            assert f"slots={slots!r}" in hello_refusal(advert)


# --------------------------------------------------------------------------- #
# Serial and process backends
# --------------------------------------------------------------------------- #
class TestLocalBackends:
    def test_serial_preserves_order(self):
        results = SerialBackend().run(_points([4, 2, 3]))
        assert [r.rows[0]["value"] for r in results] == [4, 2, 3]

    def test_process_matches_serial(self):
        points = _points(list(range(8)))
        serial = SerialBackend().run(points)
        pooled = ProcessPoolBackend(jobs=4).run(points)
        assert [r.rows for r in pooled] == [r.rows for r in serial]

    def test_process_single_point_runs_inline(self):
        results = ProcessPoolBackend(jobs=4).run(_points([5]))
        assert results[0].rows == [{"value": 5, "square": 25}]

    def test_failures_become_point_failures(self):
        for backend in (SerialBackend(), ProcessPoolBackend(jobs=2)):
            results = backend.run(_points([1, 2], func=failing_point))
            assert all(isinstance(r, PointFailure) for r in results)
            assert "boom at 1" in results[0].error

    def test_runner_raises_harness_error_naming_failed_point(self):
        with pytest.raises(HarnessError, match=r"test:value=1 failed"):
            SweepRunner().run_points(_points([1], func=failing_point))

    def test_runner_rejects_malformed_backend_results(self):
        class ShortBackend(ExecutionBackend):
            name = "short"

            def run(self, points):
                return []

        class NoneBackend(ExecutionBackend):
            name = "none"

            def run(self, points):
                return [None] * len(points)

        with pytest.raises(HarnessError, match="0 results for 1 points"):
            SweepRunner(backend=ShortBackend()).run_points(_points([1]))
        with pytest.raises(HarnessError, match="expected PointResult"):
            SweepRunner(backend=NoneBackend()).run_points(_points([1]))

    def test_partial_failure_still_caches_completed_points(self, tmp_path):
        class HalfBackend(ExecutionBackend):
            name = "half"

            def run(self, points):
                done = SerialBackend().run(points)
                done[0] = PointFailure(spec=points[0].spec,
                                       point_id=points[0].point_id,
                                       error="synthetic loss")
                return done

        cache = str(tmp_path / "cache")
        with pytest.raises(HarnessError, match="synthetic loss"):
            SweepRunner(cache_dir=cache,
                        backend=HalfBackend()).run_points(_points([1, 2, 3]))
        # The two completed points were cached before the raise, so the
        # retry on a healthy backend only recomputes the failed one.
        outcome = SweepRunner(cache_dir=cache).run_points(_points([1, 2, 3]))
        assert outcome.points_from_cache == 2

    def test_create_backend(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("process", jobs=3), ProcessPoolBackend)
        assert isinstance(create_backend("distributed", bind="127.0.0.1:0"),
                          DistributedBackend)
        with pytest.raises(HarnessError, match="unknown backend"):
            create_backend("carrier-pigeon")

    def test_create_backend_rejects_bad_jobs_like_constructors_do(self):
        # The factory must not silently clamp what ProcessPoolBackend's
        # constructor rejects: both entry points raise the same ValueError.
        for name in ("serial", "process", "distributed"):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                create_backend(name, jobs=0)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ProcessPoolBackend(jobs=0)


# --------------------------------------------------------------------------- #
# The streaming backend API: run_iter + cancel
# --------------------------------------------------------------------------- #
class TestRunIterAndCancel:
    def test_serial_run_iter_streams_in_order(self):
        pairs = list(SerialBackend().run_iter(_points([4, 2, 3])))
        assert [index for index, _ in pairs] == [0, 1, 2]
        assert [r.rows[0]["value"] for _, r in pairs] == [4, 2, 3]

    def test_process_run_iter_yields_every_index_once(self):
        points = _points(list(range(8)))
        pairs = list(ProcessPoolBackend(jobs=4).run_iter(points))
        assert sorted(index for index, _ in pairs) == list(range(8))
        for index, result in pairs:
            assert result.rows[0]["square"] == index * index

    def test_legacy_run_only_backend_still_streams(self):
        class LegacyBackend(ExecutionBackend):
            name = "legacy"

            def run(self, points):
                return SerialBackend().run(points)

        pairs = list(LegacyBackend().run_iter(_points([1, 2])))
        assert [index for index, _ in pairs] == [0, 1]
        # ... and the runner consumes it through the same streaming path
        outcome = SweepRunner(backend=LegacyBackend()).run_points(_points([3]))
        assert outcome.rows == [{"value": 3, "square": 9}]

    def test_iter_only_backend_gets_run_shim_in_declaration_order(self):
        class IterBackend(ExecutionBackend):
            name = "iter-only"

            def run_iter(self, points):
                # completion order reversed on purpose
                for index in reversed(range(len(points))):
                    yield index, square_point(points[index].kwargs["value"])

        results = IterBackend().run(_points([5, 6]))
        assert [r.rows[0]["value"] for r in results] == [5, 6]

    def test_run_shim_marks_unyielded_points_as_cancelled(self):
        class PartialBackend(ExecutionBackend):
            name = "partial"

            def run_iter(self, points):
                yield 0, square_point(points[0].kwargs["value"])

        results = PartialBackend().run(_points([1, 2]))
        assert isinstance(results[0], PointResult)
        assert isinstance(results[1], PointFailure)
        assert "cancelled" in results[1].error

    def test_neither_hook_implemented_is_an_error(self):
        class EmptyBackend(ExecutionBackend):
            name = "empty"

        with pytest.raises(NotImplementedError, match="neither"):
            list(EmptyBackend().run_iter(_points([1])))

    def test_serial_cancel_stops_at_the_next_point_boundary(self):
        backend = SerialBackend()
        iterator = backend.run_iter(_points([1, 2, 3]))
        assert next(iterator)[0] == 0
        backend.cancel()
        assert backend.cancelled
        assert list(iterator) == []

    def test_process_cancel_stops_the_stream(self):
        backend = ProcessPoolBackend(jobs=2)
        iterator = backend.run_iter(_points(list(range(6))))
        next(iterator)
        backend.cancel()
        assert len(list(iterator)) < 5  # the tail was abandoned

    def test_runner_reports_cancelled_sweeps_and_keeps_cache(self, tmp_path):
        class CancelAfterOne(ExecutionBackend):
            name = "cancel-after-one"

            def run_iter(self, points):
                yield 0, square_point(points[0].kwargs["value"])
                self.cancel()

        cache = str(tmp_path / "cache")
        backend = CancelAfterOne()
        with pytest.raises(HarnessError, match="cancelled after 1 of 3"):
            SweepRunner(cache_dir=cache,
                        backend=backend).run_points(_points([1, 2, 3]))
        # the completed point was cached before the cancel surfaced
        outcome = SweepRunner(cache_dir=cache).run_points(_points([1]))
        assert outcome.points_from_cache == 1

    def test_distributed_cancel_abandons_in_flight_points(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=10.0)
        host, port = backend.listen()
        _start_worker_thread(host, port)
        with backend:
            iterator = backend.run_iter(_points(list(range(4))))
            assert next(iterator) is not None
            backend.cancel()
            leftovers = list(iterator)
        # nothing after the cancel is a real result: the distributed
        # stream only reports already-received completions, never blocks
        # on the abandoned tail
        assert all(isinstance(result, (PointResult, PointFailure))
                   for _, result in leftovers)
        assert len(leftovers) < 4


# --------------------------------------------------------------------------- #
# Distributed backend
# --------------------------------------------------------------------------- #
class TestDistributedBackend:
    def test_two_workers_match_serial(self):
        points = _points(list(range(6)))
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2,
                                     start_timeout=20.0)
        host, port = backend.listen()
        threads = [_start_worker_thread(host, port) for _ in range(2)]
        with backend:
            results = backend.run(points)
        for thread in threads:
            thread.join(timeout=10)
        assert [r.rows for r in results] == \
            [r.rows for r in SerialBackend().run(points)]

    def test_worker_loss_retries_on_survivor(self):
        points = _points(list(range(6)))
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2,
                                     start_timeout=20.0)
        host, port = backend.listen()
        flaky = threading.Thread(target=_flaky_worker, args=(host, port),
                                 daemon=True)
        flaky.start()
        survivor = _start_worker_thread(host, port)
        with backend:
            results = backend.run(points)
        flaky.join(timeout=10)
        survivor.join(timeout=10)
        assert [r.rows[0]["square"] for r in results] == \
            [v * v for v in range(6)]

    def test_all_workers_lost_raises_with_point_name(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0, max_retries=2)
        host, port = backend.listen()
        flaky = threading.Thread(target=_flaky_worker, args=(host, port),
                                 daemon=True)
        flaky.start()
        with backend, pytest.raises(HarnessError, match=r"test:value="):
            SweepRunner(backend=backend).run_points(_points([1, 2]))
        flaky.join(timeout=10)

    def test_point_exception_reported_not_retried(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        thread = _start_worker_thread(host, port)
        with backend:
            results = backend.run(_points([7], func=failing_point))
        thread.join(timeout=10)
        assert isinstance(results[0], PointFailure)
        assert "boom at 7" in results[0].error

    def test_no_workers_times_out(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=0.2)
        with backend, pytest.raises(HarnessError, match="workers connected"):
            backend.run(_points([1]))

    def test_tuple_rows_survive_transport(self):
        points = _points([1, 2], func=tuple_row_point)
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        thread = _start_worker_thread(host, port)
        with backend:
            results = backend.run(points)
        thread.join(timeout=10)
        assert [r.rows for r in results] == \
            [r.rows for r in SerialBackend().run(points)]
        assert results[0].rows[0]["pair"] == (1, 2)

    def test_unpicklable_point_fails_without_hanging(self):
        bad = SweepPoint(spec="test", point_id="bad", func=square_point,
                         kwargs={"value": lambda: 1})  # lambdas don't pickle
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        thread = _start_worker_thread(host, port)
        with backend:
            results = backend.run([bad] + _points([5]))
        thread.join(timeout=10)
        assert isinstance(results[0], PointFailure)
        assert results[1].rows == [{"value": 5, "square": 25}]

    def test_replacement_worker_admitted_mid_run(self):
        """A worker that connects while a run is in flight gets dispatched,
        and can absorb the points of a worker that later dies."""
        got_point = threading.Event()
        release = threading.Event()

        def holding_flaky(host, port):
            sock = _connect_fake_worker(host, port, slots=1)
            recv_frame(sock)            # take one point and sit on it
            got_point.set()
            release.wait(timeout=30)
            sock.close()                # die without ever replying

        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        flaky = threading.Thread(target=holding_flaky, args=(host, port),
                                 daemon=True)
        flaky.start()

        points = _points(list(range(4)))
        box = {}
        coordinator = threading.Thread(
            target=lambda: box.update(results=backend.run(points)),
            daemon=True)
        coordinator.start()
        assert got_point.wait(timeout=20)

        replacement = _start_worker_thread(host, port)
        # Wait until the replacement, admitted mid-run, has drained every
        # point except the one the flaky worker is sitting on.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if _settled(backend) == len(points) - 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("replacement worker was never dispatched mid-run")

        release.set()  # flaky dies; its point is requeued to the replacement
        coordinator.join(timeout=30)
        backend.close()
        flaky.join(timeout=10)
        replacement.join(timeout=10)
        assert [r.rows[0]["square"] for r in box["results"]] == \
            [v * v for v in range(4)]

    def test_close_stops_the_service_and_its_workers(self):
        """close() ends the service thread, sends every connected worker
        ``shutdown`` (and real workers exit on it), and frees the port."""
        backend = DistributedBackend(bind="127.0.0.1:0")
        host, port = backend.listen()
        worker = _start_worker_thread(host, port)
        fake = _connect_fake_worker(host, port, slots=1)
        service_thread = backend._fleet.thread
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            with ServiceClient(f"{host}:{port}") as client:
                if len(client.status_payload()["workers"]) == 2:
                    break
            time.sleep(0.01)
        else:
            pytest.fail("the worker never joined")
        backend.close()
        assert not service_thread.is_alive()
        assert recv_frame(fake) == {"type": "shutdown"}
        fake.close()
        worker.join(timeout=10)
        assert not worker.is_alive()
        socket.create_server((host, port)).close()  # the port is free again

    def test_more_workers_than_cores_under_switch_stress(self):
        # Worker threads outnumber the cores and threads switch every
        # 10 us: every point still settles once, in declaration order,
        # and the run's per-worker stats account for every point (a lost
        # counter update would not).
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            points = _points(list(range(40)))
            backend = DistributedBackend(bind="127.0.0.1:0", min_workers=4,
                                         start_timeout=20.0)
            host, port = backend.listen()
            threads = [_start_worker_thread(host, port) for _ in range(4)]
            with backend:
                results = backend.run(points)
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [r.rows for r in results] == \
            [r.rows for r in SerialBackend().run(points)]
        assert sum(entry.points
                   for entry in backend.last_run_worker_stats) == len(points)

    def test_workers_survive_across_runs(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2,
                                     start_timeout=20.0)
        host, port = backend.listen()
        threads = [_start_worker_thread(host, port) for _ in range(2)]
        with backend:
            first = backend.run(_points([1, 2, 3]))
            second = backend.run(_points([4, 5, 6]))
        for thread in threads:
            thread.join(timeout=10)
        assert [r.rows[0]["value"] for r in first] == [1, 2, 3]
        assert [r.rows[0]["value"] for r in second] == [4, 5, 6]


# --------------------------------------------------------------------------- #
# Multi-slot workers and credit-based pipelining
# --------------------------------------------------------------------------- #
def _connect_fake_worker(host, port, slots):
    """Open a coordinator connection the test drives by hand."""
    sock = socket.create_connection((host, port), timeout=10.0)
    send_frame(sock, {"type": "hello", "pid": 0, "proto": PROTOCOL_VERSION,
                      "slots": slots})
    assert recv_frame(sock)["type"] == "welcome"
    sock.settimeout(10.0)
    return sock


def _reply(sock, frame):
    """Execute a received ``point`` frame and send back its result."""
    send_frame(sock, execute_task(frame["task_id"], str(frame["point"])))


def _run_in_thread(backend, points):
    """Drive ``backend.run`` from a thread; returns (thread, result box)."""
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(results=backend.run(points)), daemon=True)
    thread.start()
    return thread, box


class TestMultiSlotProtocol:
    def test_worker_hello_advertises_slots(self):
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        thread = threading.Thread(target=run_worker, args=(f"{host}:{port}",),
                                  kwargs={"retry_seconds": 10.0, "jobs": 2},
                                  daemon=True)
        thread.start()
        try:
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            hello = recv_frame(conn)
            assert hello["type"] == "hello"
            assert hello["proto"] == PROTOCOL_VERSION
            assert hello["slots"] == 2
            send_frame(conn, {"type": "welcome", "proto": PROTOCOL_VERSION})
            send_frame(conn, {"type": "shutdown"})
            thread.join(timeout=15)
            assert not thread.is_alive()
            conn.close()
        finally:
            listener.close()

    def test_payload_less_point_frame_gets_error_reply_worker_stays_up(self):
        # A point frame missing its payload must come back ok:false like
        # any other per-point failure; only shutdown or a closed
        # connection ends a worker.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        thread = threading.Thread(target=run_worker, args=(f"{host}:{port}",),
                                  kwargs={"retry_seconds": 10.0, "jobs": 1},
                                  daemon=True)
        thread.start()
        try:
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            recv_frame(conn)  # hello
            send_frame(conn, {"type": "welcome", "proto": PROTOCOL_VERSION})
            send_frame(conn, {"type": "point", "task_id": 9})
            reply = recv_frame(conn)
            assert reply["task_id"] == 9
            assert reply["ok"] is False
            (point,) = _points([6])
            send_frame(conn, {"type": "point", "task_id": 10,
                              "point": encode_point(point)})
            reply = recv_frame(conn)
            assert reply["task_id"] == 10
            assert reply["ok"] is True
            send_frame(conn, {"type": "shutdown"})
            thread.join(timeout=10)
            assert not thread.is_alive()
            conn.close()
        finally:
            listener.close()

    def test_out_of_order_replies_merge_in_declaration_order(self):
        points = _points([3, 1, 2])
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        runner, box = _run_in_thread(backend, points)
        sock = _connect_fake_worker(host, port, slots=2)
        try:
            first = recv_frame(sock)
            second = recv_frame(sock)
            _reply(sock, second)          # answer the later point first
            _reply(sock, first)
            _reply(sock, recv_frame(sock))
            runner.join(timeout=20)
            assert not runner.is_alive()
        finally:
            backend.close()
            sock.close()
        assert [r.rows[0]["value"] for r in box["results"]] == [3, 1, 2]

    def test_credit_exhaustion_applies_backpressure(self):
        points = _points(list(range(5)))
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        runner, box = _run_in_thread(backend, points)
        sock = _connect_fake_worker(host, port, slots=2)
        try:
            outstanding = [recv_frame(sock), recv_frame(sock)]
            # Both credits are spent: the coordinator must not send a third
            # point until a result hands one back.
            sock.settimeout(0.3)
            with pytest.raises(socket.timeout):
                recv_frame(sock)
            sock.settimeout(10.0)
            replied = 0
            while replied < len(points):
                _reply(sock, outstanding.pop(0))
                replied += 1
                if replied <= len(points) - 2:
                    outstanding.append(recv_frame(sock))  # freed credit
            runner.join(timeout=20)
            assert not runner.is_alive()
        finally:
            backend.close()
            sock.close()
        assert [r.rows[0]["square"] for r in box["results"]] == \
            [v * v for v in range(5)]

    def test_worker_death_with_multiple_inflight_retried_on_survivor(self):
        points = _points(list(range(6)))
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        runner, box = _run_in_thread(backend, points)
        sock = _connect_fake_worker(host, port, slots=3)
        try:
            # Take three points and sit on them while a healthy worker joins
            # mid-run and drains the other three.
            frames = [recv_frame(sock) for _ in range(3)]
            assert len({f["task_id"] for f in frames}) == 3
            survivor = _start_worker_thread(host, port)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if _settled(backend) == 3:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("survivor never drained the free points")
        finally:
            sock.close()  # die with all three points still in flight
        runner.join(timeout=30)
        assert not runner.is_alive()
        backend.close()
        survivor.join(timeout=10)
        assert [r.rows[0]["square"] for r in box["results"]] == \
            [v * v for v in range(6)]

    def test_mixed_slot_workers_match_serial(self):
        points = _points(list(range(10)))
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2,
                                     start_timeout=20.0)
        host, port = backend.listen()
        threads = [_start_worker_thread(host, port, jobs=1),
                   _start_worker_thread(host, port, jobs=4)]
        with backend:
            results = backend.run(points)
        for thread in threads:
            thread.join(timeout=15)
        assert [r.rows for r in results] == \
            [r.rows for r in SerialBackend().run(points)]

    def test_pooled_worker_executes_and_reports_failures(self):
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        thread = _start_worker_thread(host, port, jobs=2)
        with backend:
            results = backend.run(_points([1, 2, 3]) +
                                  _points([4], func=failing_point))
        thread.join(timeout=15)
        assert [r.rows[0]["square"] for r in results[:3]] == [1, 4, 9]
        assert isinstance(results[3], PointFailure)
        assert "boom at 4" in results[3].error

    def test_pool_child_killed_hard_does_not_hang_the_sweep(self):
        # A point whose pool child dies outright never produces a result
        # frame; the worker must drop the connection (so the coordinator's
        # requeue/orphan handling runs) rather than strand the task_id's
        # credit and hang the run forever.
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0, max_retries=1)
        host, port = backend.listen()

        def quiet_worker():
            try:
                run_worker(f"{host}:{port}", retry_seconds=10.0, jobs=2)
            except (ConnectionError, OSError):
                pass  # the deliberate broken-pool abort

        thread = threading.Thread(target=quiet_worker, daemon=True)
        thread.start()
        with backend:
            results = backend.run(_points([1], func=hard_exit_point))
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert isinstance(results[0], PointFailure)

    def test_refused_worker_logs_and_exits_nonzero(self, capsys):
        # A service that refuses the worker's hello answers with an error
        # frame; the worker logs the refusal and exits non-zero instead of
        # serving.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        box = {}
        thread = threading.Thread(
            target=lambda: box.update(code=run_worker(
                f"{host}:{port}", retry_seconds=10.0, jobs=1)),
            daemon=True)
        thread.start()
        try:
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            assert recv_frame(conn)["type"] == "hello"
            send_frame(conn, {"type": "error",
                              "error": "refused hello: protocol version 2"})
            thread.join(timeout=10)
            assert not thread.is_alive()
            conn.close()
        finally:
            listener.close()
        assert box["code"] != 0
        assert "refused this worker: refused hello: protocol version 2" in \
            capsys.readouterr().err


class TestWorkerJobs:
    def test_default_worker_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_JOBS", "5")
        assert default_worker_jobs() == 5
        monkeypatch.delenv("REPRO_WORKER_JOBS")
        assert default_worker_jobs() >= 1

    def test_default_worker_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKER_JOBS"):
            default_worker_jobs()
        monkeypatch.setenv("REPRO_WORKER_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKER_JOBS"):
            default_worker_jobs()

    def test_run_worker_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_worker("127.0.0.1:1", jobs=0)


# --------------------------------------------------------------------------- #
# Backend equivalence on a real experiment
# --------------------------------------------------------------------------- #
class TestBackendEquivalence:
    def test_table2_byte_identical_across_backends(self):
        spec = get_spec("table2")
        rendered = {}
        rendered["serial"] = spec.render(
            SweepRunner(backend=SerialBackend()).run("table2").result)
        rendered["process"] = spec.render(
            SweepRunner(backend=ProcessPoolBackend(jobs=2)).run("table2").result)

        # Two workers with two slots each: four points in flight at once,
        # replies racing out of order — the rendered bytes must not move.
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=2,
                                     start_timeout=20.0)
        host, port = backend.listen()
        threads = [_start_worker_thread(host, port, jobs=2) for _ in range(2)]
        with backend:
            rendered["distributed"] = spec.render(
                SweepRunner(backend=backend).run("table2").result)
        for thread in threads:
            thread.join(timeout=10)

        assert rendered["process"] == rendered["serial"]
        assert rendered["distributed"] == rendered["serial"]
