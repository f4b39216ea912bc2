"""Integration tests for ``repro serve``: real sockets, real workers.

Each test boots a :class:`~repro.service.server.SweepService` on an
ephemeral localhost port with :class:`~repro.service.server.ServiceThread`,
the same event-loop-thread runner ``--backend distributed`` uses; workers
are threads running the same ``run_worker`` loop the ``repro worker``
subcommand runs, so the full wire path (hello -> welcome or refusal,
job-scoped task ids, credit flow, requeue) is exercised end to end.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import JobSpec, JobState
from repro.harness import (
    PointFailure,
    PointResult,
    SerialBackend,
    SweepPoint,
    SweepRunner,
    run_worker,
)
from repro.harness.cli import main as cli_main
from repro.harness.wire import (
    PROTOCOL_VERSION,
    decode_result,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.harness.worker import execute_task
from repro.service import (
    ServiceBackend,
    ServiceClient,
    ServiceError,
    ServiceThread,
    SweepService,
)
from repro.service.server import PrivateSweepService


def square_point(value):
    return PointResult(rows=[{"value": value, "square": value * value}],
                       stats={"points.computed": 1})


def slow_square_point(value):
    time.sleep(0.2)
    return square_point(value)


def _points(values, spec="svc", func=square_point):
    return [SweepPoint(spec=spec, point_id=f"value={v}", func=func,
                       kwargs={"value": v}) for v in values]


def _job(values, *, name="svc", submitter="tester", priority=0):
    return JobSpec.from_points(_points(values), name=name,
                               submitter=submitter, priority=priority)


def _live_service():
    """A started SweepService on an ephemeral localhost port."""
    harness = ServiceThread(SweepService(bind="127.0.0.1:0", quiet=True))
    harness.start()
    return harness


@pytest.fixture()
def live():
    harness = _live_service()
    yield harness
    harness.stop()


def _start_worker(address, jobs=1):
    thread = threading.Thread(target=run_worker, args=(address,),
                              kwargs={"retry_seconds": 10.0, "jobs": jobs},
                              daemon=True)
    thread.start()
    return thread


# --------------------------------------------------------------------------- #
# Wire protocol: one version, job-scoped task ids
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_worker_echoes_job_scoped_task_ids(self, live):
        # A hand-rolled worker: hello in, welcome out, then a point whose
        # task id is the job-scoped string — which the worker echoes back
        # opaquely, exactly like the real ones do.
        sock = socket.create_connection(parse_address(live.address),
                                        timeout=10.0)
        try:
            send_frame(sock, {"type": "hello", "pid": 1,
                              "proto": PROTOCOL_VERSION, "slots": 1})
            assert recv_frame(sock) == {"type": "welcome",
                                        "proto": PROTOCOL_VERSION,
                                        "role": "worker"}
            with ServiceClient(live.address) as client:
                job_id = client.submit(_job([3]))
                frame = recv_frame(sock)
                assert frame["type"] == "point"
                assert frame["task_id"] == f"{job_id}/0"
                send_frame(sock, execute_task(frame["task_id"],
                                              str(frame["point"])))
                reply = client.result(job_id)
            assert reply["state"] == "done"
            result = decode_result(reply["points"][0]["result"])
            assert result.rows == [{"value": 3, "square": 9}]
        finally:
            sock.close()

    @pytest.mark.parametrize("hello", [
        {"type": "hello", "pid": 1, "proto": 2, "slots": 1},
        {"type": "hello", "pid": 1},
        {"type": "hello", "pid": 1, "proto": PROTOCOL_VERSION},
        {"type": "hello", "pid": 1, "proto": PROTOCOL_VERSION, "slots": 0},
        {"type": "client_hello", "pid": 1, "proto": 2},
    ])
    def test_other_versions_are_refused_and_never_join(self, live, hello):
        sock = socket.create_connection(parse_address(live.address),
                                        timeout=10.0)
        try:
            send_frame(sock, hello)
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            # the refusal names both versions ...
            assert f"protocol version {hello.get('proto')!r}" in \
                reply["error"]
            assert f"protocol version {PROTOCOL_VERSION}" in reply["error"]
            assert recv_frame(sock) is None  # ... and closes the connection
        finally:
            sock.close()
        with ServiceClient(live.address) as client:
            assert client.status_payload()["workers"] == []

    def test_non_worker_garbage_is_rejected(self, live):
        sock = socket.create_connection(parse_address(live.address),
                                        timeout=10.0)
        try:
            send_frame(sock, {"type": "gibberish"})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
        finally:
            sock.close()


# --------------------------------------------------------------------------- #
# Concurrent submitters over one fleet
# --------------------------------------------------------------------------- #
class TestConcurrentSweeps:
    def test_two_submitters_byte_identical_to_serial(self, live):
        _start_worker(live.address)
        _start_worker(live.address)
        points_a = _points(range(6), spec="sweep-a")
        points_b = _points(range(100, 108), spec="sweep-b")

        outcomes = {}

        def _submit(key, points):
            backend = ServiceBackend(connect=live.address, submitter=key)
            runner = SweepRunner(backend=backend)
            outcomes[key] = runner.run_points(list(points), spec_name=key)

        threads = [threading.Thread(target=_submit, args=("a", points_a)),
                   threading.Thread(target=_submit, args=("b", points_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert set(outcomes) == {"a", "b"}

        serial = SweepRunner(backend=SerialBackend())
        ref_a = serial.run_points(list(points_a), spec_name="a")
        ref_b = serial.run_points(list(points_b), spec_name="b")
        assert outcomes["a"].result == ref_a.result
        assert outcomes["b"].result == ref_b.result
        assert outcomes["a"].stats.to_dict() == ref_a.stats.to_dict()
        assert outcomes["b"].stats.to_dict() == ref_b.stats.to_dict()

    def test_service_backend_fills_and_uses_the_point_cache(self, live,
                                                           tmp_path):
        _start_worker(live.address)
        cache_dir = str(tmp_path / "cache")
        points = _points(range(4), spec="svc-cached")
        service_runner = SweepRunner(
            cache_dir=cache_dir, backend=ServiceBackend(connect=live.address))
        first = service_runner.run_points(list(points), spec_name="svc-cached")
        assert first.points_from_cache == 0
        # a later *serial* run is served entirely from the cache the
        # service-backed run wrote — the cache contract is backend-agnostic
        serial_runner = SweepRunner(cache_dir=cache_dir,
                                    backend=SerialBackend())
        second = serial_runner.run_points(list(points),
                                         spec_name="svc-cached")
        assert second.points_from_cache == 4
        assert second.result == first.result
        # The coordinator-side store attributes each point to the worker
        # the service reported in its point_result frame.
        from repro.store import FileStore, point_cache_key

        store = FileStore(cache_dir)
        assert store.verify().ok
        for point in points:
            record = store.load("svc-cached",
                                point_cache_key(point)).provenance
            assert record.backend == "service"
            assert record.worker and "pid=" in record.worker

    def test_service_records_provenance_in_its_own_store(self, live,
                                                         tmp_path):
        from repro.store import FileStore, point_cache_key

        store = FileStore(str(tmp_path / "serve-store"))
        live.service.store = store
        _start_worker(live.address)
        points = _points(range(3), spec="svc-stored")
        spec = JobSpec.from_points(points, name="svc-stored",
                                   submitter="alice@laptop")
        with ServiceClient(live.address) as client:
            job_id = client.submit(spec)
            reply = client.result(job_id)
        assert reply.get("state") == "done"
        # Every point is in the service's store, attributed to the job.
        assert store.verify().ok
        for point in points:
            entry = store.load("svc-stored", point_cache_key(point))
            record = entry.provenance
            assert record.job_id == job_id
            assert record.submitter == "alice@laptop"
            assert record.backend == "service"
            assert record.worker and "pid=" in record.worker
            assert record.duration_s is not None
        # A coordinator pointed at the same store re-runs for free.
        outcome = SweepRunner(store=store).run_points(list(points),
                                                      spec_name="svc-stored")
        assert outcome.points_from_cache == 3


# --------------------------------------------------------------------------- #
# Fleet churn and shutdown
# --------------------------------------------------------------------------- #
class TestResilience:
    def test_killed_worker_mid_job_loses_no_points(self, live):
        # A saboteur "worker" accepts one point and vanishes without a
        # reply; the job must still finish completely once a real worker
        # joins, via requeue of the lost point.
        saboteur = socket.create_connection(parse_address(live.address),
                                            timeout=10.0)
        send_frame(saboteur, {"type": "hello", "pid": 666, "proto": 3,
                              "slots": 1})
        recv_frame(saboteur)  # welcome
        with ServiceClient(live.address) as client:
            job_id = client.submit(_job([1, 2, 3, 4]))
            taken = recv_frame(saboteur)
            assert taken["type"] == "point"
            saboteur.close()  # dies mid-job, holding one point
            _start_worker(live.address)
            reply = client.result(job_id)
        assert reply["state"] == "done"
        values = sorted(decode_result(entry["result"]).rows[0]["square"]
                        for entry in reply["points"])
        assert values == [1, 4, 9, 16]

    def test_backend_cancel_mid_run_iter_is_clean_and_resettable(self, live):
        # The DSE early-stop contract on the service backend: results
        # yielded before cancel() are real and correctly indexed, the
        # stream ends without yielding the abandoned tail, and reset()
        # re-arms the same backend for a complete, correct rerun.
        _start_worker(live.address)
        values = list(range(6))
        backend = ServiceBackend(connect=live.address, submitter="dse")
        points = _points(values, func=slow_square_point)
        iterator = backend.run_iter(points)
        pairs = [next(iterator)]
        backend.cancel()
        pairs.extend(iterator)
        assert len(pairs) < len(values)  # the tail was abandoned
        for index, result in pairs:
            assert isinstance(result, PointResult)
            assert result.rows == [{"value": values[index],
                                    "square": values[index] ** 2}]
        backend.reset()
        replay = backend.run(points)
        assert [r.rows for r in replay] == \
            [r.rows for r in SerialBackend().run(points)]

    def test_unpicklable_point_fails_without_hanging(self, live):
        # One point whose kwargs cannot be encoded fails alone; the rest of
        # the sweep still runs on the fleet.
        _start_worker(live.address)
        bad = SweepPoint(spec="svc", point_id="bad", func=square_point,
                         kwargs={"value": lambda: 1})  # lambdas don't pickle
        results = ServiceBackend(connect=live.address).run(
            [bad] + _points([5]))
        assert isinstance(results[0], PointFailure)
        assert results[1].rows == [{"value": 5, "square": 25}]

    def test_private_service_fails_a_job_submitted_to_an_empty_fleet(self):
        # The rule --backend distributed adds on top of repro serve: with
        # no worker connected, a job fails at once instead of waiting for
        # a late worker.
        harness = ServiceThread(PrivateSweepService("127.0.0.1:0",
                                                    max_retries=3))
        harness.start()
        try:
            with ServiceClient(harness.address) as client:
                job_id = client.submit(_job([1, 2]))
                # no result() wait: a regression would block it forever
                assert client.status(job_id)[0].state is JobState.FAILED
                reply = client.result(job_id)
        finally:
            harness.stop()
        assert all("all workers disconnected" in entry["error"]
                   for entry in reply["points"])

    def test_backend_cancel_stops_the_stream_at_once(self, live):
        # Results already streamed to the client when cancel() lands are
        # not yielded either: the iterator stops at cancel(), not at the
        # job's end (the race a fast fleet hits on every DSE early stop).
        _start_worker(live.address)
        backend = ServiceBackend(connect=live.address)
        iterator = backend.run_iter(_points([1, 2, 3]))
        next(iterator)
        with ServiceClient(live.address) as client:
            deadline = time.monotonic() + 20
            while client.status()[0].state is not JobState.DONE:
                assert time.monotonic() < deadline, "the job never finished"
                time.sleep(0.01)
        backend.cancel()
        assert list(iterator) == []

    def test_cancel_settles_job_without_workers(self, live):
        with ServiceClient(live.address) as client:
            job_id = client.submit(_job([1, 2, 3]))
            assert client.status(job_id)[0].state is JobState.QUEUED
            status = client.cancel(job_id)
            assert status.state is JobState.CANCELLED
            reply = client.result(job_id)  # already terminal: no blocking
        assert reply["state"] == "cancelled"
        assert all(not entry["ok"] for entry in reply["points"])
        assert "cancelled before it ran" in reply["points"][0]["error"]

    def test_unknown_job_is_an_error(self, live):
        with ServiceClient(live.address) as client:
            with pytest.raises(ServiceError, match="unknown job"):
                client.result("job-404")

    def test_drain_refuses_submissions_finishes_jobs_then_exits(self):
        harness = _live_service()
        try:
            client = ServiceClient(harness.address)
            job_id = client.submit(_job([5, 6]))  # queued; no workers yet
            # the SIGTERM path
            harness.loop.call_soon_threadsafe(harness.service.request_drain)
            with pytest.raises(ServiceError, match="draining"):
                client.submit(_job([7]))
            assert client.status_payload().get("draining") is True
            client.close()
            # Ask for the result before any worker exists: the completed
            # drain closes every connection, so a request the service only
            # reads after the job settled would never be answered.
            waiter = socket.create_connection(
                parse_address(harness.address), timeout=10.0)
            send_frame(waiter, {"type": "client_hello",
                                "proto": PROTOCOL_VERSION})
            assert recv_frame(waiter)["type"] == "welcome"
            send_frame(waiter, {"type": "result", "job": job_id})
            # the accepted job still runs to completion on a late worker ...
            _start_worker(harness.address)
            reply = recv_frame(waiter)
            waiter.close()
            assert reply["state"] == "done"
            # ... and with every job settled the drain completes by itself
            harness.thread.join(15)
            assert not harness.thread.is_alive()
        finally:
            harness.stop()


# --------------------------------------------------------------------------- #
# CLI wiring: submit / status / result against a live service
# --------------------------------------------------------------------------- #
class TestServiceCli:
    def test_submit_status_result_matches_local_sweep(self, live, capsys):
        _start_worker(live.address)
        base = ["--connect", live.address]
        assert cli_main(["submit", "matmul", "--system", "cpu",
                         "--grid", "size=4", *base]) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("job-")

        assert cli_main(["result", job_id, *base]) == 0
        service_out = capsys.readouterr().out
        # the same scenario swept locally renders byte-identically
        assert cli_main(["sweep", "matmul", "--system", "cpu",
                         "--grid", "size=4", "--no-cache"]) == 0
        assert capsys.readouterr().out == service_out

        assert cli_main(["status", "--json", *base]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"][0]["state"] == "done"
        assert payload["jobs"][0]["total"] == 1
        assert payload["workers"], "the worker fleet should be listed"

        assert cli_main(["status", *base]) == 0
        assert job_id in capsys.readouterr().out

    def test_status_json_reports_worker_throughput(self, live, capsys):
        _start_worker(live.address)
        with ServiceClient(live.address) as client:
            job_id = client.submit(_job([1, 2, 3]))
            assert client.result(job_id)["state"] == "done"
        assert cli_main(["status", "--json", "--connect", live.address]) == 0
        (worker,) = json.loads(capsys.readouterr().out)["workers"]
        assert worker["points_done"] == 3
        assert worker["busy_s"] > 0
        assert worker["points_per_s"] > 0

    def test_result_of_failed_job_names_the_point(self, live, capsys):
        _start_worker(live.address)
        spec = JobSpec.from_points(
            [SweepPoint(spec="bad", point_id="p0",
                        func="tests_no_such_module:missing", kwargs={})],
            name="bad", submitter="cli-test")
        with ServiceClient(live.address) as client:
            job_id = client.submit(spec)
        assert cli_main(["result", job_id, "--connect", live.address]) == 2
        err = capsys.readouterr().err
        assert "bad:p0" in err and "failed" in err
