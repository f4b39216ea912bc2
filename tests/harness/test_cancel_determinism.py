"""Cancel-mid-``run_iter`` determinism, per backend.

Successive halving (``repro.dse``) relies on a precise contract from
every execution backend:

1. results yielded *before* a ``cancel()`` are real, correct, and
   attributed to the right point index — never torn or duplicated;
2. after ``cancel()`` the stream terminates without yielding the
   abandoned tail (no failure placeholders for cancelled points);
3. ``reset()`` re-arms a deliberately cancelled backend, and the next
   run on the same backend produces exactly the same results a fresh
   backend would.

The serial backend additionally guarantees *exactly* deterministic
cancellation (the stream stops at the next point boundary); the
concurrent backends guarantee the weaker — but sufficient — property
that whatever did arrive is correct and the replay after ``reset()`` is
complete and byte-identical.  The service-backend version of this
contract lives with the service fixtures in
``tests/service/test_service.py``.
"""

import threading

from repro.harness import (
    DistributedBackend,
    PointFailure,
    PointResult,
    ProcessPoolBackend,
    SerialBackend,
    SweepPoint,
    run_worker,
)


def square_point(value):
    return PointResult(rows=[{"value": value, "square": value * value}])


#: Hold-point handshake: the held point signals ``HELD`` once it runs and
#: returns only after ``RELEASE`` is set (the inline worker runs points on
#: its own thread in this process, so events reach it).
HELD = threading.Event()
RELEASE = threading.Event()


def held_point(value):
    HELD.set()
    RELEASE.wait(20.0)
    return square_point(value)


def _points(values):
    return [SweepPoint(spec="cancel-det", point_id=f"value={v}",
                       func=square_point, kwargs={"value": v})
            for v in values]


def _start_worker_thread(host, port, jobs=1):
    thread = threading.Thread(target=run_worker, args=(f"{host}:{port}",),
                              kwargs={"retry_seconds": 10.0, "jobs": jobs},
                              daemon=True)
    thread.start()
    return thread


def _assert_correct(pairs, values):
    """Every yielded pair is a real result for the right point, once."""
    seen = set()
    for index, result in pairs:
        assert 0 <= index < len(values)
        assert index not in seen
        seen.add(index)
        assert isinstance(result, PointResult)
        assert result.rows == [{"value": values[index],
                                "square": values[index] ** 2}]
    return seen


class TestSerialCancelDeterminism:
    def test_cancel_after_n_is_exactly_deterministic(self):
        values = [3, 1, 4, 1, 5]
        for cutoff in range(1, len(values)):
            backend = SerialBackend()
            iterator = backend.run_iter(_points(values))
            pairs = []
            for _ in range(cutoff):
                pairs.append(next(iterator))
            backend.cancel()
            assert list(iterator) == []
            # exactly the first `cutoff` points, in declaration order
            assert _assert_correct(pairs, values) == set(range(cutoff))

    def test_reset_rearms_for_an_identical_full_run(self):
        values = [2, 7, 1]
        backend = SerialBackend()
        iterator = backend.run_iter(_points(values))
        next(iterator)
        backend.cancel()
        assert list(iterator) == []
        assert backend.cancelled
        backend.reset()
        assert not backend.cancelled
        replay = list(backend.run_iter(_points(values)))
        fresh = list(SerialBackend().run_iter(_points(values)))
        assert replay == fresh
        assert _assert_correct(replay, values) == set(range(len(values)))

    def test_cancel_without_reset_poisons_the_next_run(self):
        backend = SerialBackend()
        backend.cancel()
        assert list(backend.run_iter(_points([1, 2]))) == []


class TestProcessCancelDeterminism:
    def test_pre_cancel_results_are_correct_and_unique(self):
        values = list(range(8))
        backend = ProcessPoolBackend(jobs=2)
        iterator = backend.run_iter(_points(values))
        pairs = [next(iterator)]
        backend.cancel()
        pairs.extend(iterator)
        assert len(pairs) < len(values)  # the tail was abandoned...
        _assert_correct(pairs, values)   # ...and the head is untorn

    def test_reset_rearms_for_an_identical_full_run(self):
        values = [5, 6, 7, 8]
        backend = ProcessPoolBackend(jobs=2)
        iterator = backend.run_iter(_points(values))
        next(iterator)
        backend.cancel()
        list(iterator)
        backend.reset()
        # run() reassembles in declaration order: byte-identical to serial
        replay = backend.run(_points(values))
        assert [r.rows for r in replay] == \
            [r.rows for r in SerialBackend().run(_points(values))]


class TestDistributedCancelDeterminism:
    def test_pre_cancel_results_are_correct_and_reset_replays(self):
        values = list(range(6))
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        _start_worker_thread(host, port, jobs=1)
        with backend:
            iterator = backend.run_iter(_points(values))
            pairs = [next(iterator)]
            backend.cancel()
            pairs.extend(iterator)
            # whatever arrived before the cancel is real and untorn; the
            # abandoned tail is absent, not reported as failures
            assert len(pairs) < len(values)
            _assert_correct(pairs, values)
            assert not any(isinstance(result, PointFailure)
                           for _, result in pairs)
            backend.reset()
            replay = backend.run(_points(values))
            assert [r.rows for r in replay] == \
                [r.rows for r in SerialBackend().run(_points(values))]

    def test_late_reply_after_cancel_stays_out_of_the_next_runs_stats(self):
        # One single-slot worker: point 1 is still running when the run is
        # cancelled, so its reply can only arrive during the next run.
        # That reply settles nothing and must not count toward the next
        # run's per-worker totals.
        HELD.clear()
        RELEASE.clear()
        first = _points([0]) + [
            SweepPoint(spec="cancel-det", point_id="held", func=held_point,
                       kwargs={"value": 1})]
        second = _points([4, 5, 6])
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     start_timeout=20.0)
        host, port = backend.listen()
        _start_worker_thread(host, port, jobs=1)
        with backend:
            iterator = backend.run_iter(first)
            assert _assert_correct([next(iterator)], [0, 1]) == {0}
            assert HELD.wait(20.0)
            backend.cancel()
            assert list(iterator) == []
            backend.reset()
            release = threading.Timer(0.3, RELEASE.set)
            release.start()
            try:
                results = backend.run(second)
            finally:
                release.cancel()
                RELEASE.set()
        assert [r.rows[0]["value"] for r in results] == [4, 5, 6]
        assert sum(entry.points
                   for entry in backend.last_run_worker_stats) == len(second)
