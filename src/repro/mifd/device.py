"""The MIFD device model: task assignment and page-fault forwarding."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cores.cpu import CPUCore
from repro.cores.interpreter import ThreadContext, ThreadProgram
from repro.cores.mttop import MTTOPCore
from repro.errors import InsufficientThreadContextsError, MIFDError
from repro.mifd.task import TaskDescriptor
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry
from repro.vm.manager import VirtualMemoryManager


class MIFD:
    """The MTTOP InterFace Device.

    Parameters
    ----------
    mttop_cores:
        The chip's MTTOP cores, in the order the round-robin scheduler
        visits them.
    cpu_cores:
        CPU cores that may be interrupted to handle MTTOP page faults.
    vm_manager:
        OS model used to actually service forwarded faults.
    dispatch_ns:
        Scheduling cost per assigned chunk.
    fault_interrupt_ns:
        Cost of delivering the page-fault interrupt to a CPU core (on top of
        the OS handler's own cost).
    """

    def __init__(self, mttop_cores: Sequence[MTTOPCore],
                 cpu_cores: Sequence[CPUCore],
                 vm_manager: VirtualMemoryManager,
                 stats: Optional[StatsRegistry] = None,
                 dispatch_ns: float = 200.0,
                 fault_interrupt_ns: float = 1_000.0) -> None:
        if not mttop_cores:
            raise MIFDError("the MIFD needs at least one MTTOP core")
        self.mttop_cores = list(mttop_cores)
        self.cpu_cores = list(cpu_cores)
        self.vm_manager = vm_manager
        self.stats = stats if stats is not None else StatsRegistry()
        self.dispatch_ps = ns_to_ps(dispatch_ns)
        self.fault_interrupt_ps = ns_to_ps(fault_interrupt_ns)
        #: Last error code: 0 = OK, 1 = insufficient thread contexts.  The
        #: paper's MIFD "will write an error register if there are not
        #: enough MTTOP thread contexts available".
        self.error_register = 0
        self._next_core_index = 0
        self._next_fault_cpu = 0
        #: Optional hook wrapping every device thread program as it is
        #: installed: ``(task_seq, tid, program) -> program``.  Used by the
        #: trace recorder (:mod:`repro.mem.trace`) to observe the operation
        #: stream without touching execution.
        self.program_wrapper: Optional[
            Callable[[int, int, ThreadProgram], ThreadProgram]] = None
        self._task_seq = 0

    # ------------------------------------------------------------------ #
    # Capacity queries
    # ------------------------------------------------------------------ #
    @property
    def total_free_contexts(self) -> int:
        """Free hardware thread contexts across every MTTOP core."""
        return sum(core.free_contexts for core in self.mttop_cores)

    @property
    def total_thread_contexts(self) -> int:
        """All hardware thread contexts on the chip."""
        return sum(core.thread_contexts for core in self.mttop_cores)

    # ------------------------------------------------------------------ #
    # Task submission
    # ------------------------------------------------------------------ #
    def submit_task(self, task: TaskDescriptor, now_ps: int) -> int:
        """Assign a task's threads to MTTOP cores; return the MIFD latency.

        Threads are split into SIMD-width chunks and assigned round-robin to
        cores with free contexts ("Task assignment is done in a simple
        round-robin manner until there are no MTTOP thread contexts
        remaining").  If the task does not fit, the error register is set
        and :class:`InsufficientThreadContextsError` is raised — nothing is
        partially scheduled, so callers can retry later.
        """
        if task.thread_count > self.total_free_contexts:
            self.error_register = 1
            self.stats.add("mifd.rejected_tasks")
            raise InsufficientThreadContextsError(
                f"task needs {task.thread_count} thread contexts but only "
                f"{self.total_free_contexts} are free"
            )

        latency = 0
        simd_width = self.mttop_cores[0].simd_width
        task_seq = self._task_seq
        self._task_seq += 1
        wrapper = self.program_wrapper
        for chunk in task.chunks(simd_width):
            core = self._next_core_with_room(chunk.size)
            lanes = [
                ThreadContext(
                    tid=tid,
                    program=task.kernel(tid, task.args) if wrapper is None
                    else wrapper(task_seq, tid, task.kernel(tid, task.args)))
                for tid in chunk.thread_ids
            ]
            # Loading the task's CR3 into the core is part of receiving a
            # task from the MIFD (Section 4.3).
            core.memory_port.set_address_space(task.address_space)
            core.assign_warp(lanes, at_time_ps=now_ps + latency)
            latency += self.dispatch_ps
            self.stats.add("mifd.chunks_assigned")
        self.stats.add("mifd.tasks_submitted")
        self.stats.add("mifd.threads_launched", task.thread_count)
        self.error_register = 0
        return latency

    def _next_core_with_room(self, chunk_size: int) -> MTTOPCore:
        count = len(self.mttop_cores)
        for offset in range(count):
            index = (self._next_core_index + offset) % count
            core = self.mttop_cores[index]
            if core.free_contexts >= chunk_size:
                self._next_core_index = (index + 1) % count
                return core
        # submit_task pre-checks total capacity, but fragmentation across
        # cores can still leave no single core with room for a full chunk.
        self.error_register = 1
        raise InsufficientThreadContextsError(
            f"no MTTOP core has {chunk_size} contiguous free thread contexts"
        )

    # ------------------------------------------------------------------ #
    # Page-fault forwarding
    # ------------------------------------------------------------------ #
    def forward_page_fault(self, mttop_node: str, vaddr: int, cr3: int,
                           is_write: bool) -> int:
        """Forward an MTTOP page fault to a CPU core; return the latency.

        The MIFD interrupts a CPU core with the fault cause and the faulting
        CR3; the CPU's OS identifies the process by CR3 and services the
        fault (Section 3.2.1).  The returned latency — interrupt delivery
        plus the OS handler — is charged to the faulting MTTOP access, and
        the CPU core is additionally charged the handler time, since it was
        diverted from its own work.
        """
        self.stats.add("mifd.page_faults_forwarded")
        space = self.vm_manager.space_for_cr3(cr3)
        handler_ps = self.vm_manager.handle_page_fault(space, vaddr,
                                                       is_write=is_write,
                                                       from_mttop=True)
        if self.cpu_cores:
            cpu = self.cpu_cores[self._next_fault_cpu % len(self.cpu_cores)]
            self._next_fault_cpu += 1
            cpu.add_interrupt_latency(handler_ps)
        return self.fault_interrupt_ps + handler_ps


def page_fault_handler_via_mifd(mifd: MIFD):
    """Build a :class:`~repro.mem.port.CoreMemoryPort` fault handler.

    The returned callable forwards faults from an MTTOP core's memory port
    through the MIFD, as the CCSVM chip requires (MTTOP cores do not run
    the OS and cannot service their own faults).
    """
    def handler(port, vaddr: int, is_write: bool) -> int:
        return mifd.forward_page_fault(port.node, vaddr, port.cr3, is_write)

    return handler
