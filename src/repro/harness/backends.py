"""Pluggable execution backends for the sweep harness.

A backend executes :class:`~repro.harness.spec.SweepPoint` s.  The core
API is :meth:`ExecutionBackend.run_iter`, which yields ``(index, result)``
pairs **as points complete** (in whatever order the backend finishes
them), plus :meth:`ExecutionBackend.cancel`, which abandons whatever has
not completed yet; :meth:`ExecutionBackend.run` is a shim over
``run_iter`` that reassembles the results **in declaration order** — that
ordering contract is what keeps rendered tables byte-identical across
backends and worker counts.  Four implementations ship:

- :class:`SerialBackend` — in-process, one point at a time.  The library
  and unit-test default.
- :class:`ProcessPoolBackend` — a ``multiprocessing`` pool with
  as-completed dispatch (one task per point, no ``map`` chunking), so a
  single slow point no longer straggles the whole sweep behind it.
- :class:`~repro.service.client.ServiceBackend` (``--backend service``) —
  submits the points as one job to an always-on ``repro serve`` fleet and
  streams the per-point results back (see :mod:`repro.service`).
- :class:`DistributedBackend` — a private ``repro serve`` started in this
  process, fed by workers started with ``repro worker --connect
  HOST:PORT`` (possibly on other hosts); each run is one job on it
  through a ``ServiceBackend``, so there is one coordinator
  implementation for both.

A point whose *function* raises does not tear the sweep down from inside a
worker: every backend returns a :class:`PointFailure` in that point's slot
and :class:`~repro.harness.runner.SweepRunner` raises a
:class:`~repro.harness.spec.HarnessError` naming the point.

Backends only execute; cache lookups and stores stay on the coordinator
side (in the runner), so remote workers never touch ``.repro-cache/``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.harness.spec import HarnessError, PointResult, SweepPoint, execute_point

#: Environment variable naming the CLI's default backend.
BACKEND_ENV = "REPRO_BACKEND"
#: Environment variable naming the CLI's default coordinator address.
BIND_ENV = "REPRO_BIND"
#: Environment variable naming the sweep-service address clients dial.
SERVICE_ENV = "REPRO_SERVICE"
#: The coordinator/service address the CLI uses unless told otherwise.
DEFAULT_BIND = "127.0.0.1:7421"

BACKEND_NAMES = ("serial", "process", "distributed", "service")


@dataclass
class PointFailure:
    """A point a backend could not produce a result for.

    Carried in the result list in the failed point's slot so declaration
    order survives even partial sweeps; the runner turns it into a
    :class:`~repro.harness.spec.HarnessError` naming the point.
    """

    spec: str
    point_id: str
    error: str

    @classmethod
    def from_exception(cls, point: SweepPoint,
                       error: BaseException) -> "PointFailure":
        """The failure of ``point`` to ``error``, named by exception type."""
        return cls(spec=point.spec, point_id=point.point_id,
                   error=f"{type(error).__name__}: {error}")


BackendResult = Union[PointResult, PointFailure]


@dataclass
class WorkerRunStats:
    """Coordinator-side throughput record of one worker connection's run.

    ``busy_s`` sums the dispatch-to-result duration of every point the
    connection completed (a multi-slot worker can accumulate more busy
    task-seconds than wall-seconds); ``wall_s`` is how long the connection
    served the run.  Exposed per run as
    :attr:`DistributedBackend.last_run_worker_stats` and printed by the
    CLI under ``--stats``.
    """

    worker: str
    slots: int
    points: int
    busy_s: float
    wall_s: float

    @property
    def points_per_s(self) -> float:
        """Completed points per wall-clock second of connection service."""
        return self.points / self.wall_s if self.wall_s > 0 else 0.0


class ExecutionBackend:
    """Protocol for sweep-point executors.

    Subclasses implement :meth:`run_iter` (preferred — results stream out
    as points complete, which is what lets the runner write cache entries
    incrementally and lets callers stop early via :meth:`cancel`) or the
    legacy :meth:`run`; each has a default implementation in terms of the
    other, so implementing either one is enough.  ``name`` appears in
    error messages and the CLI's per-sweep summary line.
    """

    name = "abstract"
    _cancelled = False

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        """Yield ``(index, result)`` pairs as points complete.

        ``index`` is the point's position in ``points``; yield order is
        *completion* order, which backends make no promises about.  After
        :meth:`cancel`, the iterator stops yielding — points still in
        flight are abandoned (their eventual results dropped) and points
        never dispatched are simply not run.
        """
        if type(self).run is ExecutionBackend.run:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither run() nor "
                f"run_iter()")
        # Legacy subclass: only run() is overridden.  Declaration order
        # doubles as completion order.
        yield from enumerate(self.run(points))

    def run(self, points: List[SweepPoint]) -> List[BackendResult]:
        """Execute every point; results in declaration order.

        A shim over :meth:`run_iter`.  Points the iterator never yielded
        (a :meth:`cancel` mid-run, or a buggy backend) come back as
        :class:`PointFailure` s so the list always matches ``points``
        slot-for-slot.
        """
        results: List[Optional[BackendResult]] = [None] * len(points)
        for index, result in self.run_iter(points):
            if 0 <= index < len(results):
                results[index] = result
        for index, result in enumerate(results):
            if result is None:
                point = points[index]
                results[index] = PointFailure(
                    spec=point.spec, point_id=point.point_id,
                    error="point was cancelled before it completed")
        return results  # type: ignore[return-value]

    def cancel(self) -> None:
        """Abandon the sweep: stop dispatching, drop in-flight points.

        Takes effect at the current :meth:`run_iter` iteration's next
        check; already-yielded results are unaffected.  Safe to call from
        another thread (the design point: an early-stopping search or a
        client disconnect cancels a sweep its consumer is blocked on).
        """
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been requested on this backend."""
        return self._cancelled

    def reset(self) -> None:
        """Re-arm the backend after a :meth:`cancel`, for another run.

        :meth:`cancel` deliberately poisons the backend — every subsequent
        :meth:`run_iter` stops immediately — so a late cancel racing the
        end of one sweep cannot silently leak into an unrelated one.  A
        caller that cancels *on purpose* and intends to keep using the
        backend (the successive-halving search drops a rung's losers, then
        dispatches the next rung on the same worker fleet) calls ``reset``
        between runs.  Must not be called while a ``run_iter`` is being
        consumed.
        """
        self._cancelled = False

    def close(self) -> None:
        """Release any long-lived resources (workers, sockets)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _run_serially(backend: ExecutionBackend, points: List[SweepPoint]
                  ) -> Iterator[Tuple[int, BackendResult]]:
    """In-process point loop shared by the serial and one-job pool paths.

    Checks ``backend``'s cancel flag between points, so cancelling an
    in-process sweep stops it at the next point boundary.
    """
    for index, point in enumerate(points):
        if backend.cancelled:
            return
        try:
            yield index, execute_point(point)
        except Exception as error:  # noqa: BLE001 - reported per point
            yield index, PointFailure.from_exception(point, error)


class SerialBackend(ExecutionBackend):
    """Execute every point in the calling process, one after another."""

    name = "serial"

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        return _run_serially(self, points)


def pool_context() -> "multiprocessing.context.BaseContext":
    """The ``multiprocessing`` context local point pools run on.

    Shared by :class:`ProcessPoolBackend` and the worker's ``--jobs`` pool
    so both prefer ``fork`` where the platform offers it (points and their
    kwargs are already in memory; no re-import needed) and fall back to
    the platform default elsewhere.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class ProcessPoolBackend(ExecutionBackend):
    """Fan points out over a local ``multiprocessing`` pool.

    Each point is submitted as its own task (``apply_async``), so idle
    workers pull the next pending point as soon as they finish — unlike
    ``pool.map``, whose chunked dispatch can leave one worker grinding
    through a chunk of slow points while the rest of the pool sits idle.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        if self.jobs == 1 or len(points) <= 1:
            yield from _run_serially(self, points)
            return
        context = pool_context()
        workers = min(self.jobs, len(points))
        # Completion-order delivery: every task posts its (index, payload)
        # to this queue from the pool's result-handler thread, so results
        # stream out as they finish instead of in declaration order.
        completions: "queue.Queue[Tuple[int, object]]" = queue.Queue()
        with context.Pool(processes=workers) as pool:
            for index, point in enumerate(points):
                pool.apply_async(
                    execute_point, (point,),
                    callback=lambda result, index=index:
                        completions.put((index, result)),
                    error_callback=lambda error, index=index:
                        completions.put((index, error)))
            received = 0
            while received < len(points):
                if self.cancelled:
                    return  # the with-block terminates the pool's children
                try:
                    index, payload = completions.get(timeout=0.05)
                except queue.Empty:
                    continue
                received += 1
                if isinstance(payload, BaseException):
                    yield index, PointFailure.from_exception(points[index], payload)
                else:
                    yield index, payload  # type: ignore[misc]


# --------------------------------------------------------------------------- #
# Distributed backend
# --------------------------------------------------------------------------- #
class DistributedBackend(ExecutionBackend):
    """Stream sweep points over TCP to ``repro worker`` processes.

    :meth:`listen` starts a private sweep service
    (:class:`~repro.service.server.PrivateSweepService`) on its own
    event-loop thread at ``bind`` (``HOST:PORT``; port ``0`` picks a free
    port — read it back from :meth:`listen`).  Workers are separate
    processes, usually on other hosts, started with::

        repro worker --connect HOST:PORT --jobs N

    Each run is one job on that service, submitted and streamed back by a
    :class:`~repro.service.client.ServiceBackend`, so fleet admission,
    credit pipelining, worker-loss requeue (up to ``max_retries`` times
    per point) and cancel are those of ``repro serve``.  A run first waits
    for ``min_workers`` workers; when the last worker leaves, the run's
    unsettled points fail at once.  Workers stay connected between runs,
    so ``repro run all --backend distributed`` reuses one fleet for every
    sweep; :meth:`close` sends them ``shutdown``.

    Parameters
    ----------
    bind:
        ``HOST:PORT`` to listen on (default ``127.0.0.1:0``).
    min_workers:
        How many workers to wait for before dispatching the first point.
    start_timeout:
        Seconds to wait for ``min_workers`` connections before failing.
    max_retries:
        Per-point retry budget for worker-loss requeues.
    """

    name = "distributed"

    def __init__(self, bind: str = "127.0.0.1:0", min_workers: int = 1,
                 start_timeout: float = 30.0, max_retries: int = 3) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        self.bind = bind
        self.min_workers = min_workers
        self.start_timeout = start_timeout
        self.max_retries = max_retries
        self.address: Optional[Tuple[str, int]] = None
        self._fleet = None   # ServiceThread running the private service
        self._client = None  # ServiceBackend submitting each run to it
        #: Per-worker throughput of the most recent :meth:`run`, in join
        #: order (see :class:`WorkerRunStats`).
        self.last_run_worker_stats: List[WorkerRunStats] = []

    @property
    def last_point_workers(self) -> Dict[int, str]:
        """run_iter index -> worker label, for provenance (see SweepRunner)."""
        if self._client is None:
            return {}
        return self._client.last_point_workers

    def listen(self) -> Tuple[str, int]:
        """Start the private service and return its ``(host, port)``.

        Idempotent: subsequent calls return the existing address.
        """
        if self._fleet is None:
            # Imported lazily: repro.service depends on this module.
            from repro.service.client import ServiceBackend
            from repro.service.server import PrivateSweepService, ServiceThread

            fleet = ServiceThread(PrivateSweepService(self.bind,
                                                      self.max_retries))
            self.address = fleet.start()
            self._fleet = fleet
            self._client = ServiceBackend(connect=fleet.address)
        return self.address

    def run_iter(self, points: List[SweepPoint]
                 ) -> Iterator[Tuple[int, BackendResult]]:
        if not points or self.cancelled:
            return
        host, port = self.listen()
        fleet = self._fleet
        connected = fleet.call(fleet.service.begin_run(self.min_workers,
                                                       self.start_timeout))
        if connected < self.min_workers:
            raise HarnessError(
                f"distributed backend: only {connected} of "
                f"{self.min_workers} workers connected to {host}:{port} "
                f"within {self.start_timeout:.0f}s — start them with "
                f"'repro worker --connect HOST:PORT'")
        yield from self._client.run_iter(points)
        self.last_run_worker_stats = fleet.call(fleet.service.finish_run())

    def cancel(self) -> None:
        super().cancel()
        if self._client is not None:
            self._client.cancel()

    def reset(self) -> None:
        super().reset()
        if self._client is not None:
            self._client.reset()

    def close(self) -> None:
        """Send the workers ``shutdown``, stop the service, free the port."""
        if self._fleet is not None:
            self._fleet.stop()
            self._fleet = None


# --------------------------------------------------------------------------- #
# Factory
# --------------------------------------------------------------------------- #
def default_bind() -> str:
    """The coordinator address the CLI uses unless told otherwise."""
    return os.environ.get(BIND_ENV, DEFAULT_BIND)


def default_service_address() -> str:
    """The ``repro serve`` address service clients dial unless told otherwise."""
    return os.environ.get(SERVICE_ENV, DEFAULT_BIND)


def create_backend(name: str, jobs: int = 1, bind: Optional[str] = None,
                   min_workers: int = 1, start_timeout: float = 30.0,
                   connect: Optional[str] = None) -> ExecutionBackend:
    """Build a backend from CLI-shaped arguments.

    ``name`` is one of ``serial``, ``process``, ``distributed`` or
    ``service`` (see ``BACKEND_NAMES``); the CLI defaults it from
    ``$REPRO_BACKEND``.  ``connect`` is the ``service`` backend's
    ``HOST:PORT`` of a running ``repro serve`` (default:
    ``$REPRO_SERVICE``, else the standard localhost address).

    ``jobs`` is validated here with the same ``ValueError`` the backend
    constructors raise, rather than silently clamped, so a bad ``--jobs``
    surfaces identically no matter which entry point it came through.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(jobs=jobs)
    if name == "distributed":
        return DistributedBackend(bind=bind or default_bind(),
                                  min_workers=min_workers,
                                  start_timeout=start_timeout)
    if name == "service":
        # Imported lazily: repro.service.client depends on this module.
        from repro.service.client import ServiceBackend

        return ServiceBackend(connect=connect or default_service_address())
    known = ", ".join(BACKEND_NAMES)
    raise HarnessError(f"unknown backend {name!r}; known backends: {known}")
