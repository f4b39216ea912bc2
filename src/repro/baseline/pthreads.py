"""pthreads execution on the APU's CPU cores.

Figure 7 compares CCSVM/xthreads Barnes-Hut against both a single AMD CPU
core and the pthreads version running on the APU's four CPU cores.  The
pthreads model runs programs in *phases*: a sequential phase runs one
program on the main core; a parallel phase runs one program per thread on
separate cores simultaneously (each with its own private cache hierarchy)
and its duration is the slowest thread's, plus the pthread barrier/join
overhead.  Cross-thread cache coherence effects are not modelled — all
sharing costs are absorbed by the per-phase synchronisation overheads —
which slightly favours the pthreads baseline, i.e. is conservative for the
paper's claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.baseline.cpu import BaselineCPUCore, BaselineRunResult
from repro.cores.interpreter import ThreadProgram
from repro.errors import RuntimeModelError
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry


@dataclass(frozen=True)
class PThreadsPhaseResult:
    """Outcome of one parallel phase."""

    time_ps: int
    per_thread_ps: tuple

    @property
    def slowest_thread_ps(self) -> int:
        """Duration of the slowest thread (excluding barrier overhead)."""
        return max(self.per_thread_ps) if self.per_thread_ps else 0


@dataclass
class PThreadsMachine:
    """A pthreads process pinned to the APU's CPU cores."""

    cores: List[BaselineCPUCore]
    spawn_us: float = 12.0
    join_us: float = 6.0
    barrier_us: float = 3.0
    stats: Optional[StatsRegistry] = None
    total_time_ps: int = 0
    _spawned: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if not self.cores:
            raise RuntimeModelError("a pthreads machine needs at least one CPU core")
        if self.stats is None:
            self.stats = StatsRegistry()

    @property
    def num_threads(self) -> int:
        """Number of worker threads (one per core)."""
        return len(self.cores)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def spawn(self) -> None:
        """Charge pthread_create for every worker thread (once per process)."""
        if self._spawned:
            return
        self.total_time_ps += ns_to_ps(self.spawn_us * 1e3) * max(0, self.num_threads - 1)
        self._spawned = True
        self.stats.add("pthreads.spawns", self.num_threads - 1)

    def run_sequential(self, program: ThreadProgram) -> BaselineRunResult:
        """Run a sequential phase on the main core; add its time."""
        result = self.cores[0].run(program)
        self.total_time_ps += result.time_ps
        self.stats.add("pthreads.sequential_phases")
        return result

    def run_parallel(self, programs: Sequence[ThreadProgram]) -> PThreadsPhaseResult:
        """Run one program per thread in parallel; add the phase time.

        The phase costs the slowest thread plus one barrier (all threads
        synchronise before the next phase starts).
        """
        if len(programs) > len(self.cores):
            raise RuntimeModelError(
                f"{len(programs)} thread programs exceed {len(self.cores)} cores"
            )
        self.spawn()
        per_thread: List[int] = []
        for core, program in zip(self.cores, programs):
            per_thread.append(core.run(program).time_ps)
        barrier_ps = ns_to_ps(self.barrier_us * 1e3)
        phase_ps = (max(per_thread) if per_thread else 0) + barrier_ps
        self.total_time_ps += phase_ps
        self.stats.add("pthreads.parallel_phases")
        return PThreadsPhaseResult(time_ps=phase_ps, per_thread_ps=tuple(per_thread))

    def join(self) -> None:
        """Charge pthread_join for every worker thread."""
        if not self._spawned:
            return
        self.total_time_ps += ns_to_ps(self.join_us * 1e3) * max(0, self.num_threads - 1)
        self.stats.add("pthreads.joins", self.num_threads - 1)
