"""Event-ordered simulation engine.

The engine owns a set of :class:`Agent` objects (CPU cores, MTTOP cores, DMA
engines, ...).  Each agent keeps a *local clock* in picoseconds.  The engine
repeatedly picks the runnable agent with the smallest local clock and asks it
to perform one step of work (typically: execute one instruction or one warp
instruction, including any memory-system latency it incurs).

Because exactly one agent steps at a time and agents are always stepped in
global time order, the interleaving of memory operations is a total order
that respects each agent's program order — i.e. the execution is sequentially
consistent by construction, matching the consistency model the paper's
strawman CCSVM design provides (Section 3.2.3).

Scheduling
----------

The ready queue is an indexed min-heap keyed on ``(local_time_ps,
registration_index)``.  Agents notify the engine whenever their scheduling
state changes (clock movement, block, wake, finish) through property setters
on :class:`Agent`, so the engine never rescans the agent list per step.
Heap entries carry a per-agent version number and are invalidated lazily: a
popped entry whose version no longer matches the agent's current version is
simply discarded.  Ties on ``local_time_ps`` break by registration order,
which is exactly the order the historical linear scan produced, so the two
schedulers are step-for-step equivalent (``Engine(scheduler="linear")``
keeps the O(n) scan around for equivalence tests and benchmarks).
"""

from __future__ import annotations

import enum
import heapq
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError


class StepOutcome(enum.Enum):
    """What an agent did when it was stepped."""

    RAN = "ran"          #: performed work and advanced its clock
    BLOCKED = "blocked"  #: cannot progress until another agent wakes it
    FINISHED = "finished"  #: has no more work, permanently


class Agent(ABC):
    """A schedulable actor with its own local clock.

    Subclasses implement :meth:`step`, which must either perform one unit of
    work (advancing :attr:`local_time_ps` by a positive amount), declare the
    agent blocked, or declare it finished.

    ``local_time_ps``, ``blocked`` and ``finished`` are properties whose
    setters notify the owning engine, keeping its ready queue current without
    per-step rescans.  External code (tests, cores, the MIFD) may keep
    assigning them directly.
    """

    def __init__(self, name: str) -> None:
        self._engine: Optional["Engine"] = None
        self._reg_index: int = -1
        self._sched_version: int = 0
        self.name = name
        self._local_time_ps: int = 0
        self._blocked: bool = False
        self._finished: bool = False

    @abstractmethod
    def step(self) -> StepOutcome:
        """Perform one unit of work.  Called only when runnable."""

    # ------------------------------------------------------------------ #
    # Scheduling state (engine-notifying properties)
    # ------------------------------------------------------------------ #
    @property
    def local_time_ps(self) -> int:
        """The agent's local clock in picoseconds."""
        return self._local_time_ps

    @local_time_ps.setter
    def local_time_ps(self, value: int) -> None:
        self._local_time_ps = value
        if self._engine is not None:
            self._engine._on_agent_state_change(self)

    @property
    def blocked(self) -> bool:
        """True while the agent waits for another agent to wake it."""
        return self._blocked

    @blocked.setter
    def blocked(self, value: bool) -> None:
        self._blocked = value
        if self._engine is not None:
            self._engine._on_agent_state_change(self)

    @property
    def finished(self) -> bool:
        """True once the agent has permanently run out of work."""
        return self._finished

    @finished.setter
    def finished(self, value: bool) -> None:
        self._finished = value
        if self._engine is not None:
            self._engine._on_agent_state_change(self)

    # ------------------------------------------------------------------ #
    # State helpers used by other components
    # ------------------------------------------------------------------ #
    @property
    def runnable(self) -> bool:
        """True when the engine may step this agent."""
        return not self._blocked and not self._finished

    def block(self) -> StepOutcome:
        """Mark this agent blocked and return the corresponding outcome."""
        self.blocked = True
        return StepOutcome.BLOCKED

    def finish(self) -> StepOutcome:
        """Mark this agent permanently finished."""
        self.finished = True
        return StepOutcome.FINISHED

    def wake(self, at_time_ps: int) -> None:
        """Unblock the agent, ensuring its clock is at least ``at_time_ps``.

        Waking never moves a clock backwards: an agent that was busy past
        ``at_time_ps`` simply resumes at its own (later) time.
        """
        self.blocked = False
        if at_time_ps > self._local_time_ps:
            self.local_time_ps = at_time_ps

    def advance(self, duration_ps: int) -> None:
        """Advance the local clock by ``duration_ps`` (must be >= 0)."""
        if duration_ps < 0:
            raise SimulationError(f"agent {self.name} tried to advance time by {duration_ps}")
        self.local_time_ps = self._local_time_ps + duration_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._finished else ("blocked" if self._blocked else "runnable")
        return f"<{type(self).__name__} {self.name} t={self._local_time_ps}ps {state}>"


class Engine:
    """Steps agents in global-time order until everything finishes.

    Parameters
    ----------
    max_steps:
        Safety limit on the total number of agent steps; exceeded limits
        raise :class:`SimulationError` rather than hanging a test run.
    scheduler:
        ``"heap"`` (default) uses the indexed min-heap ready queue;
        ``"linear"`` keeps the historical O(n) scan per step.  Both produce
        the identical deterministic step order; ``"linear"`` is kept only
        as the reference ``tests/sim/test_engine.py`` and
        ``benchmarks/test_engine_scheduling.py`` compare the heap against.
    """

    def __init__(self, max_steps: int = 200_000_000,
                 scheduler: str = "heap") -> None:
        if scheduler not in ("heap", "linear"):
            raise SimulationError(f"unknown scheduler {scheduler!r}")
        self._agents: List[Agent] = []
        self._names: Dict[str, Agent] = {}
        self.max_steps = max_steps
        self.scheduler = scheduler
        self.steps_executed = 0
        self.now_ps = 0
        #: Ready-queue entries: (local_time_ps, registration_index, version).
        self._heap: List[Tuple[int, int, int]] = []
        #: The agent currently inside step(); its own notifications are
        #: deferred until the step returns.
        self._stepping: Optional[Agent] = None

    # ------------------------------------------------------------------ #
    # Agent management
    # ------------------------------------------------------------------ #
    def add_agent(self, agent: Agent) -> Agent:
        """Register ``agent`` with the engine and return it."""
        if agent.name in self._names:
            raise SimulationError(f"duplicate agent name {agent.name!r}")
        agent._reg_index = len(self._agents)
        self._agents.append(agent)
        self._names[agent.name] = agent
        agent._engine = self
        self._reschedule(agent)
        return agent

    def agent(self, name: str) -> Agent:
        """Look up a registered agent by name."""
        try:
            return self._names[name]
        except KeyError:
            raise SimulationError(f"no agent named {name!r}") from None

    @property
    def agents(self) -> List[Agent]:
        """The registered agents, in registration order."""
        return list(self._agents)

    # ------------------------------------------------------------------ #
    # Ready queue maintenance
    # ------------------------------------------------------------------ #
    def _reschedule(self, agent: Agent) -> None:
        """Invalidate the agent's old heap entries and enqueue its current state."""
        agent._sched_version += 1
        if self.scheduler != "heap":
            return  # the linear scan never reads the heap; don't grow it
        if not agent._blocked and not agent._finished:
            heapq.heappush(
                self._heap,
                (agent._local_time_ps, agent._reg_index, agent._sched_version))

    def _on_agent_state_change(self, agent: Agent) -> None:
        """Callback from Agent property setters (block/wake/finish/clock)."""
        if agent is self._stepping:
            # The stepping agent is re-enqueued once its step completes;
            # intermediate clock movements would only pile up stale entries.
            return
        self._reschedule(agent)

    def _next_runnable(self) -> Optional[Agent]:
        if self.scheduler == "linear":
            best: Optional[Agent] = None
            for agent in self._agents:
                if not agent.runnable:
                    continue
                if best is None or agent.local_time_ps < best.local_time_ps:
                    best = agent
            return best

        heap = self._heap
        agents = self._agents
        while heap:
            _, reg_index, version = heap[0]
            agent = agents[reg_index]
            if (version != agent._sched_version
                    or agent._blocked or agent._finished):
                heapq.heappop(heap)  # stale entry; drop and keep looking
                continue
            return agent
        return None

    def _step_agent(self, agent: Agent) -> StepOutcome:
        """Step ``agent`` once, enforcing clock monotonicity for RAN outcomes."""
        self.steps_executed += 1
        if self.scheduler == "heap":
            heapq.heappop(self._heap)  # the (validated) entry for `agent`
        self._stepping = agent
        before = agent._local_time_ps
        try:
            outcome = agent.step()
        finally:
            self._stepping = None
        if outcome is StepOutcome.RAN and agent._local_time_ps <= before:
            # Zero-time steps are allowed only when the agent changed
            # state (blocked/finished); otherwise the engine could loop
            # forever at a single timestamp.
            agent._local_time_ps = before + 1
        if self.scheduler == "heap":
            self._reschedule(agent)
        if agent._local_time_ps > self.now_ps:
            self.now_ps = agent._local_time_ps
        return outcome

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, until_ps: Optional[int] = None) -> int:
        """Run until every agent is finished (or blocked forever).

        Returns the final global time in picoseconds (the maximum local
        clock over all agents that did any work).  Raises
        :class:`DeadlockError` if unfinished agents remain but none are
        runnable, and :class:`SimulationError` if the step limit is hit.
        """
        while True:
            agent = self._next_runnable()
            if agent is None:
                unfinished = [a.name for a in self._agents if not a.finished]
                if unfinished:
                    raise DeadlockError(
                        "no runnable agents but these never finished: "
                        + ", ".join(sorted(unfinished))
                    )
                break
            if until_ps is not None and agent.local_time_ps >= until_ps:
                break
            if self.steps_executed >= self.max_steps:
                raise SimulationError(
                    f"exceeded max_steps={self.max_steps}; likely livelock "
                    f"(last agent: {agent.name})"
                )
            self._step_agent(agent)
        return self.now_ps

    def run_step(self) -> Optional[Agent]:
        """Step exactly one agent (the earliest runnable one), if any.

        Returns the agent that was stepped, or ``None`` when nothing is
        runnable.  Intended for tests that need fine-grained control.
        Applies the same zero-time-step monotonicity guard as :meth:`run`.
        """
        agent = self._next_runnable()
        if agent is None:
            return None
        self._step_agent(agent)
        return agent
