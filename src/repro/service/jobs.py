"""The sweep service's job queue: priorities, fair share, requeue.

:class:`JobQueue` is deliberately plain single-threaded Python with no
asyncio (or locking) in it — the server drives it from one event loop,
and the unit tests drive it directly.  It owns every scheduling policy
decision so the server stays a thin I/O shell:

- **priority first**: a runnable point of a higher-priority job is always
  dispatched before any point of a lower-priority one.  Priorities
  preempt the *queue*, never running points — work already on a worker
  finishes.
- **fair share within a priority**: the queue tracks cumulative points
  dispatched per submitter and always serves the least-served submitter
  next, so two clients sweeping concurrently interleave roughly
  point-for-point instead of first-come-first-served job ordering.
  Cumulative (not instantaneous in-flight) counts make the policy
  deterministic: A, B, A, B, ... regardless of how fast results return.
- **worker-loss requeue**: a point in flight on a connection that drops
  goes back to the *front* of its job (it was next in line once already).
  After ``max_retries`` losses the point settles as failed — a point
  that kills every worker it lands on must not recirculate forever.

A point whose *function* fails settles as failed immediately (no retry):
deterministic sweeps fail deterministically, so a retry would just burn a
worker slot to reproduce the same traceback.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.api import JobSpec, JobState, JobStatus
from repro.errors import ReproError


class ServiceError(ReproError):
    """The sweep service (or a client talking to it) was misused."""


class ServiceJob:
    """One submitted job's scheduling state inside the service."""

    def __init__(self, job_id: str, seq: int, spec: JobSpec,
                 max_retries: int) -> None:
        self.job_id = job_id
        self.seq = seq                      #: submission order, ties fair share
        self.spec = spec
        self.max_retries = max_retries
        self.state = JobState.QUEUED
        #: undispatched point indices, in declaration order
        self.pending: Deque[int] = deque(range(len(spec.points)))
        #: point index -> worker key, for points currently on a worker
        self.inflight: Dict[int, object] = {}
        #: per-point dispatch-loss count (function failures never retry)
        self.losses: Dict[int, int] = {}
        #: per-point final outcome payloads, declaration-indexed
        self.results: List[Optional[Dict[str, object]]] = \
            [None] * len(spec.points)
        self.completed = 0
        self.failed = 0
        self.error: Optional[str] = None
        if not spec.points:
            self.state = JobState.DONE  # an empty job is trivially finished

    @property
    def total(self) -> int:
        return len(self.spec.points)

    def status(self) -> JobStatus:
        return JobStatus(job_id=self.job_id, name=self.spec.name,
                         submitter=self.spec.submitter,
                         priority=self.spec.priority, state=self.state,
                         total=self.total, completed=self.completed,
                         failed=self.failed, error=self.error)


class JobQueue:
    """All jobs the service has accepted, plus the scheduling policy."""

    def __init__(self, max_retries: int = 3) -> None:
        self.max_retries = max_retries
        self.jobs: Dict[str, ServiceJob] = {}
        self.draining = False
        self._seq = 0
        #: cumulative points dispatched per submitter (fair-share metric)
        self._served: Dict[str, int] = {}

    # -- intake ------------------------------------------------------------ #
    def submit(self, spec: JobSpec) -> ServiceJob:
        """Accept a job; raises :class:`ServiceError` while draining."""
        if self.draining:
            raise ServiceError(
                "service is draining and refuses new submissions")
        self._seq += 1
        job = ServiceJob(f"job-{self._seq}", self._seq, spec,
                         self.max_retries)
        self.jobs[job.job_id] = job
        return job

    def get(self, job_id: object) -> Optional[ServiceJob]:
        if not isinstance(job_id, str):
            return None
        return self.jobs.get(job_id)

    # -- scheduling -------------------------------------------------------- #
    def next_assignment(self, worker: object) -> Optional[Tuple[ServiceJob, int]]:
        """Pick and dispatch the next point for ``worker``.

        Policy: highest priority first; within a priority the submitter
        with the fewest cumulative dispatched points; submission order
        breaks remaining ties.  Returns ``None`` when nothing is runnable.
        """
        runnable = [job for job in self.jobs.values()
                    if job.pending and not job.state.terminal]
        if not runnable:
            return None
        top = max(job.spec.priority for job in runnable)
        job = min((j for j in runnable if j.spec.priority == top),
                  key=lambda j: (self._served.get(j.spec.submitter, 0), j.seq))
        index = job.pending.popleft()
        job.inflight[index] = worker
        if job.state is JobState.QUEUED:
            job.state = JobState.RUNNING
        submitter = job.spec.submitter
        self._served[submitter] = self._served.get(submitter, 0) + 1
        return job, index

    # -- settlement -------------------------------------------------------- #
    def complete(self, job: ServiceJob, index: int,
                 payload: Dict[str, object]) -> bool:
        """Record one point's final outcome.

        ``payload`` is ``{"ok": True, "result": blob}`` or ``{"ok": False,
        "error": text}``.  Returns ``False`` when the outcome was dropped —
        the point already settled (a duplicate or post-requeue straggler
        reply) or the job is already terminal (a late reply after cancel).
        """
        if not 0 <= index < job.total:
            return False
        if job.state.terminal or job.results[index] is not None:
            return False
        job.inflight.pop(index, None)
        job.results[index] = payload
        if payload.get("ok"):
            job.completed += 1
        else:
            job.failed += 1
            if job.error is None:
                entry = job.spec.points[index]
                job.error = (f"{entry.get('spec')}:{entry.get('point_id')}: "
                             f"{payload.get('error')}")
        if job.completed + job.failed == job.total:
            job.state = JobState.FAILED if job.failed else JobState.DONE
        return True

    def requeue_worker(self, worker: object
                       ) -> List[Tuple[ServiceJob, int, Dict[str, object]]]:
        """A worker connection dropped: recover its in-flight points.

        Each lost point is requeued at the front of its job, unless it has
        now been lost more than ``max_retries`` times — then it settles as
        failed.  Returns the ``(job, index, payload)`` settlements so the
        server can notify watchers (requeued points produce no events).
        """
        settled = []
        for job in self.jobs.values():
            if job.state.terminal:
                continue
            lost = sorted(index for index, key in job.inflight.items()
                          if key == worker)
            for index in reversed(lost):  # appendleft keeps ascending order
                del job.inflight[index]
                job.losses[index] = job.losses.get(index, 0) + 1
                if job.losses[index] > job.max_retries:
                    payload = {
                        "ok": False,
                        "error": (f"worker connection lost "
                                  f"{job.losses[index]} times running this "
                                  f"point; giving up"),
                    }
                    if self.complete(job, index, payload):
                        settled.append((job, index, payload))
                else:
                    job.pending.appendleft(index)
        return settled

    def cancel(self, job_id: object) -> Optional[ServiceJob]:
        """Cancel a job; ``None`` if unknown or already terminal.

        Undispatched points never run; in-flight results arriving later
        are dropped by :meth:`complete`'s terminal-state check.
        """
        job = self.get(job_id)
        if job is None or job.state.terminal:
            return None
        job.pending.clear()
        job.state = JobState.CANCELLED
        return job

    # -- introspection ----------------------------------------------------- #
    def unfinished(self) -> int:
        """Jobs not yet in a terminal state (what a drain waits on)."""
        return sum(1 for job in self.jobs.values() if not job.state.terminal)

    def statuses(self, job_id: Optional[str] = None) -> List[JobStatus]:
        """Status snapshots, in submission order (or just one job's)."""
        if job_id is not None:
            job = self.get(job_id)
            if job is None:
                raise ServiceError(f"unknown job {job_id!r}")
            return [job.status()]
        return [job.status()
                for job in sorted(self.jobs.values(), key=lambda j: j.seq)]
