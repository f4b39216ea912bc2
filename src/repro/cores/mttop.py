"""SIMT MTTOP (GPU-like) core model.

Each MTTOP core of the CCSVM chip (Table 2) runs at 600 MHz, holds 128
hardware thread contexts and issues 8 threads simultaneously — one warp (in
NVIDIA terms) or wavefront (AMD terms) per cycle.  The model executes warps
in lockstep: every step, the next ready warp executes one operation per
unfinished lane; the warp's latency is one issue cycle plus the slowest
lane's memory latency (lanes access memory in parallel).

A core with no assigned warps *blocks* rather than finishes, because the
MIFD may assign it more tasks later; the chip requests a halt once the host
process has completed, at which point idle cores finish.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cores.interpreter import (
    OpOutcome,
    RuntimeHandler,
    ThreadContext,
    batch_outcome,
    batch_request,
    execute_memory_operation,
)
from repro.cores.isa import COMPUTE, Operation
from repro.errors import KernelProgramError, MIFDError
from repro.sim.clock import ClockDomain
from repro.sim.engine import Agent, StepOutcome
from repro.sim.stats import StatsRegistry


class Warp:
    """A SIMD-width chunk of threads executing in lockstep on one core.

    ``active`` holds the lanes that still have work, in lane order, and
    ``finished`` is True once none has; the core updates both when a
    lane's program ends (:meth:`drop_finished`).
    """

    __slots__ = ("warp_id", "lanes", "active", "finished")

    def __init__(self, warp_id: int, lanes: List[ThreadContext]) -> None:
        self.warp_id = warp_id
        self.lanes = lanes
        self.active = list(lanes)
        self.finished = False

    def drop_finished(self) -> None:
        """Forget the lanes whose programs have ended."""
        self.active = [lane for lane in self.active if not lane.finished]
        self.finished = not self.active


class MTTOPCore(Agent):
    """One massively-threaded throughput-oriented core."""

    def __init__(self, name: str, clock: ClockDomain, simd_width: int,
                 thread_contexts: int, memory_port,
                 runtime_handler: Optional[RuntimeHandler] = None,
                 stats: Optional[StatsRegistry] = None,
                 spin_poll_ps: int = 200_000) -> None:
        super().__init__(name)
        self.clock = clock
        self.simd_width = simd_width
        self.thread_contexts = thread_contexts
        self.memory_port = memory_port
        self.runtime_handler = runtime_handler
        self.stats = stats if stats is not None else StatsRegistry()
        self.spin_poll_ps = spin_poll_ps
        self._issue_ps = clock.period_ps
        self._lane_stat = f"{name}.lane_instructions"
        self._warp_stat = f"{name}.warp_instructions"
        self._retired_stat = f"{name}.warps_retired"
        self._assigned_stat = f"{name}.warps_assigned"
        self._warps: List[Warp] = []
        self._next_warp_index = 0
        self._next_warp_id = 0
        self._contexts_in_use = 0
        self._halt_requested = False
        # New cores have nothing to run; they must not stall the engine.
        self.blocked = True

    # ------------------------------------------------------------------ #
    # Task assignment (called by the MIFD)
    # ------------------------------------------------------------------ #
    @property
    def free_contexts(self) -> int:
        """Number of hardware thread contexts currently unassigned."""
        return self.thread_contexts - self._contexts_in_use

    @property
    def busy_contexts(self) -> int:
        """Number of hardware thread contexts currently assigned."""
        return self._contexts_in_use

    def assign_warp(self, lanes: List[ThreadContext], at_time_ps: int) -> Warp:
        """Install a SIMD-width chunk of threads as a new warp.

        The MIFD calls this after checking :attr:`free_contexts`; assigning
        more lanes than fit raises :class:`MIFDError`.
        """
        if not lanes:
            raise MIFDError(f"{self.name}: cannot assign an empty warp")
        if len(lanes) > self.simd_width:
            raise MIFDError(
                f"{self.name}: warp of {len(lanes)} lanes exceeds SIMD width "
                f"{self.simd_width}"
            )
        if len(lanes) > self.free_contexts:
            raise MIFDError(f"{self.name}: not enough free thread contexts")
        warp = Warp(warp_id=self._next_warp_id, lanes=list(lanes))
        self._next_warp_id += 1
        self._warps.append(warp)
        self._contexts_in_use += len(lanes)
        self.stats.add(self._assigned_stat)
        self.finished = False
        self.wake(at_time_ps)
        return warp

    def request_halt(self, at_time_ps: int) -> None:
        """Ask the core to finish once it has no more warps to run."""
        self._halt_requested = True
        if self.blocked:
            self.wake(at_time_ps)

    # ------------------------------------------------------------------ #
    # Agent protocol
    # ------------------------------------------------------------------ #
    def _select_warp(self) -> Optional[Warp]:
        if not self._warps:
            return None
        count = len(self._warps)
        for offset in range(count):
            index = (self._next_warp_index + offset) % count
            warp = self._warps[index]
            if not warp.finished:
                self._next_warp_index = (index + 1) % count
                return warp
        return None

    def _retire(self, warp: Warp) -> None:
        self._contexts_in_use -= len(warp.lanes)
        self._warps.remove(warp)
        self.stats.add(self._retired_stat)
        if self._next_warp_index >= max(1, len(self._warps)):
            self._next_warp_index = 0

    def step(self) -> StepOutcome:
        # Warps retire as soon as the step that ends their last lane is
        # done, so every listed warp is unfinished here.
        warp = self._select_warp()
        if warp is None:
            if self._halt_requested:
                return self.finish()
            return self.block()

        if getattr(self.memory_port, "batch_enabled", False):
            worst_latency, warp_issues = self._run_lanes_batched(warp)
        else:
            worst_latency = 0
            warp_issues = 1
            ended = False
            for lane in warp.active:
                operation = lane.next_operation()
                if operation is None:
                    ended = True
                    continue
                outcome = self._execute(lane, operation)
                lane.complete(operation, outcome)
                worst_latency = max(worst_latency, outcome.latency_ps)
                warp_issues = max(warp_issues, outcome.ops)
                self.stats.add(self._lane_stat, outcome.ops)
            if ended:
                warp.drop_finished()

        self.advance(self._issue_ps + worst_latency)
        # A vector op stands for N back-to-back warp issues.
        self.stats.add(self._warp_stat, warp_issues)
        if warp.finished:
            self._retire(warp)
        return StepOutcome.RAN

    def _run_lanes_batched(self, warp: Warp) -> Tuple[int, int]:
        """One warp step with the lanes' memory operations batched.

        Lanes execute in lane order exactly as in the scalar loop, but
        consecutive plain memory operations are collected and handed to
        the port as one batch.  Any operation that may itself touch the
        memory port (runtime services) or is not batchable flushes the
        pending batch first, so the port observes the identical global
        operation order — which is what makes results bit-for-bit equal.
        """
        self.memory_port.current_time_ps = self.local_time_ps
        worst = 0
        lane_ops = 0
        warp_issues = 1
        pending: List[Tuple[ThreadContext, Operation, tuple]] = []
        ended = False
        for lane in warp.active:
            operation = lane.next_operation()
            if operation is None:
                ended = True
                continue
            lane_ops += 1
            request = batch_request(operation)
            if request is not None:
                pending.append((lane, operation, request))
                continue
            worst = max(worst, self._flush_batch(pending))
            outcome = self._execute(lane, operation)
            lane.complete(operation, outcome)
            lane_ops += outcome.ops - 1
            warp_issues = max(warp_issues, outcome.ops)
            worst = max(worst, outcome.latency_ps)
        worst = max(worst, self._flush_batch(pending))
        if ended:
            warp.drop_finished()
        if lane_ops:
            self.stats.add(self._lane_stat, lane_ops)
        return worst, warp_issues

    def _flush_batch(self, pending: List[Tuple[ThreadContext, Operation, tuple]]) -> int:
        """Execute and complete the pending lane memory operations."""
        if not pending:
            return 0
        if len(pending) == 1:
            lane, operation, _request = pending[0]
            outcome = execute_memory_operation(operation, self.memory_port,
                                               self.spin_poll_ps)
            lane.complete(operation, outcome)
            pending.clear()
            return outcome.latency_ps
        values, latencies = self.memory_port.run_batch(
            [request for _, _, request in pending])
        worst = 0
        for index, (lane, operation, _request) in enumerate(pending):
            outcome = batch_outcome(operation, values[index], latencies[index],
                                    self.spin_poll_ps)
            lane.complete(operation, outcome)
            worst = max(worst, outcome.latency_ps)
        pending.clear()
        return worst

    # ------------------------------------------------------------------ #
    # Operation execution
    # ------------------------------------------------------------------ #
    def _execute(self, lane: ThreadContext, operation) -> OpOutcome:
        # current_time_ps is part of the MemoryPort protocol (defaulted by
        # every implementation), so no hasattr probe in the hot loop.
        self.memory_port.current_time_ps = self.local_time_ps
        if operation.code == COMPUTE:
            # One operation per lane per cycle; lanes run in parallel, so a
            # Compute(n) costs n extra cycles for this lane.
            return OpOutcome(self._issue_ps * max(0, operation.amount - 1))

        memory_outcome = execute_memory_operation(operation, self.memory_port,
                                                  self.spin_poll_ps)
        if memory_outcome is not None:
            if memory_outcome.ops > 1:
                # A vector op is N back-to-back lane operations: the step
                # charges one issue cycle, so add the other N - 1 here
                # (same accounting as Compute(n)).
                memory_outcome.latency_ps += \
                    self._issue_ps * (memory_outcome.ops - 1)
            return memory_outcome

        if self.runtime_handler is None:
            raise KernelProgramError(
                f"{self.name} has no runtime handler for operation {operation!r}"
            )
        return self.runtime_handler(self, lane, operation)
