"""The xthreads runtime library.

The runtime is installed on every core as the handler for operations the
core cannot execute by itself: task creation, the CPU-side synchronisation
primitives, and dynamic allocation.  Its behaviour follows Section 4.3 of
the paper:

* ``create_mthread`` performs a write syscall to the MIFD driver, which
  splits the task into SIMD-width chunks and round-robins them over the
  MTTOP cores;
* ``wait`` / ``signal`` / ``cpu_mttop_barrier`` operate on condition and
  barrier arrays in coherent shared memory — the CPU genuinely spins,
  issuing a coherent load per polling interval;
* ``malloc`` on a CPU thread is a normal heap allocation;
* ``malloc`` on an MTTOP thread is the paper's ``mttop_malloc``: the request
  is shipped to a CPU thread, which performs the allocation on the MTTOP
  thread's behalf and hands the pointer back.  Requests are serviced
  serially by the CPU, which is exactly the bottleneck Figure 8 exposes as
  matrix density grows.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cores.cpu import CPUCore
from repro.cores.interpreter import OpOutcome, ThreadContext
from repro.cores.isa import FREE, MALLOC, Free, Malloc, Operation
from repro.cores.mttop import MTTOPCore
from repro.core.xthreads.api import (
    BARRIER_ARRIVED,
    CPU_MTTOP_BARRIER,
    CREATE_MTHREAD,
    SIGNAL_COND,
    WAIT_COND,
    CpuMttopBarrier,
    CreateMThread,
    SignalCond,
    WaitCond,
    cond_entry,
)
from repro.core.xthreads.toolchain import CompiledProcess, XThreadsToolchain
from repro.errors import KernelProgramError, RuntimeModelError
from repro.mifd.driver import MIFDDriver
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry
from repro.vm.manager import VirtualMemoryManager


class XThreadsRuntime:
    """Services xthreads operations for every core of one CCSVM chip."""

    def __init__(self, driver: MIFDDriver, vm_manager: VirtualMemoryManager,
                 toolchain: Optional[XThreadsToolchain] = None,
                 stats: Optional[StatsRegistry] = None,
                 spin_poll_ns: float = 200.0,
                 cpu_malloc_ns: float = 300.0,
                 mttop_malloc_service_ns: float = 1_500.0) -> None:
        self.driver = driver
        self.vm_manager = vm_manager
        self.toolchain = toolchain if toolchain is not None else XThreadsToolchain()
        self.stats = stats if stats is not None else StatsRegistry()
        self.spin_poll_ps = ns_to_ps(spin_poll_ns)
        self.cpu_malloc_ps = ns_to_ps(cpu_malloc_ns)
        self.mttop_malloc_service_ps = ns_to_ps(mttop_malloc_service_ns)
        self._process: Optional[CompiledProcess] = None
        # Incremental progress for CPU-side waits/barriers, keyed by lane id.
        self._wait_progress: Dict[int, int] = {}
        self._barrier_progress: Dict[int, int] = {}
        # Time at which the CPU-side mttop_malloc servicer next becomes free.
        self._malloc_service_free_at_ps = 0

    # ------------------------------------------------------------------ #
    # Process binding
    # ------------------------------------------------------------------ #
    def set_process(self, process: CompiledProcess) -> None:
        """Bind the compiled process image whose kernels may be launched."""
        self._process = process

    @property
    def process(self) -> CompiledProcess:
        """The currently bound process image."""
        if self._process is None:
            raise RuntimeModelError("no compiled xthreads process is bound to the runtime")
        return self._process

    # ------------------------------------------------------------------ #
    # The runtime handler installed on every core
    # ------------------------------------------------------------------ #
    def handle(self, core, lane: ThreadContext, operation: Operation) -> OpOutcome:
        """Execute one runtime operation on behalf of ``core``/``lane``."""
        code = operation.code
        if code == CREATE_MTHREAD:
            return self._create_mthread(core, operation)
        if code == WAIT_COND:
            return self._cpu_wait(core, lane, operation)
        if code == SIGNAL_COND:
            return self._cpu_signal(core, operation)
        if code == CPU_MTTOP_BARRIER:
            return self._cpu_barrier(core, lane, operation)
        if code == MALLOC:
            if isinstance(core, MTTOPCore):
                return self._mttop_malloc(core, operation)
            return self._cpu_malloc(core, operation)
        if code == FREE:
            return self._free(core, operation)
        raise KernelProgramError(
            f"xthreads runtime cannot handle operation {operation!r}"
        )

    # Make the runtime itself usable as the core's handler callable.
    __call__ = handle

    # ------------------------------------------------------------------ #
    # Task creation
    # ------------------------------------------------------------------ #
    def _create_mthread(self, core: CPUCore, operation: CreateMThread) -> OpOutcome:
        if not isinstance(core, CPUCore):
            raise RuntimeModelError("create_mthread may only be called from a CPU thread")
        kernel = self.toolchain.add_kernel(self.process, operation.kernel)
        latency = self.driver.launch(
            program_counter=kernel.program_counter,
            kernel=kernel.function,
            args=operation.args,
            first_thread=operation.first_thread,
            last_thread=operation.last_thread,
            address_space=core.memory_port.address_space,
            now_ps=core.local_time_ps,
        )
        self.stats.add("xthreads.create_mthread")
        self.stats.add("xthreads.threads_created",
                       operation.last_thread - operation.first_thread + 1)
        return OpOutcome(latency_ps=latency)

    # ------------------------------------------------------------------ #
    # CPU-side synchronisation
    # ------------------------------------------------------------------ #
    def _poll_array(self, core, lane: ThreadContext, base_vaddr: int,
                    first: int, last: int, expected: int,
                    progress: Dict[int, int]) -> tuple[int, bool]:
        """Poll condition slots ``first..last`` for ``expected``.

        Polling is incremental: slots already observed to match are not
        re-read (the CPU keeps a cursor), which is how a real spin loop over
        an array behaves once written carefully.  Returns ``(latency_ps,
        satisfied)``.
        """
        cursor = progress.get(id(lane), first)
        latency = 0
        while cursor <= last:
            value, load_ps = core.memory_port.load(cond_entry(base_vaddr, cursor))
            latency += load_ps
            if value != expected:
                break
            cursor += 1
        progress[id(lane)] = cursor
        satisfied = cursor > last
        if satisfied:
            progress.pop(id(lane), None)
        return latency, satisfied

    def _cpu_wait(self, core: CPUCore, lane: ThreadContext,
                  operation: WaitCond) -> OpOutcome:
        latency, satisfied = self._poll_array(
            core, lane, operation.condition_vaddr, operation.first_thread,
            operation.last_thread, operation.value, self._wait_progress)
        if satisfied:
            self.stats.add("xthreads.waits_completed")
            return OpOutcome(latency_ps=latency)
        self.stats.add("xthreads.wait_polls")
        return OpOutcome(latency_ps=latency + self.spin_poll_ps, retry=True)

    def _cpu_signal(self, core: CPUCore, operation: SignalCond) -> OpOutcome:
        latency = 0
        for tid in range(operation.first_thread, operation.last_thread + 1):
            latency += core.memory_port.store(
                cond_entry(operation.condition_vaddr, tid), operation.value)
        self.stats.add("xthreads.signals")
        return OpOutcome(latency_ps=latency)

    def _cpu_barrier(self, core: CPUCore, lane: ThreadContext,
                     operation: CpuMttopBarrier) -> OpOutcome:
        latency, satisfied = self._poll_array(
            core, lane, operation.barrier_vaddr, operation.first_thread,
            operation.last_thread, BARRIER_ARRIVED, self._barrier_progress)
        if not satisfied:
            self.stats.add("xthreads.barrier_polls")
            return OpOutcome(latency_ps=latency + self.spin_poll_ps, retry=True)

        # Everyone has arrived: clear the barrier slots, then flip the sense
        # word to release the spinning MTTOP threads.
        for tid in range(operation.first_thread, operation.last_thread + 1):
            latency += core.memory_port.store(
                cond_entry(operation.barrier_vaddr, tid), 0)
        sense, load_ps = core.memory_port.load(operation.sense_vaddr)
        latency += load_ps
        latency += core.memory_port.store(operation.sense_vaddr, 1 - sense)
        self.stats.add("xthreads.barriers_completed")
        return OpOutcome(latency_ps=latency)

    # ------------------------------------------------------------------ #
    # Dynamic allocation
    # ------------------------------------------------------------------ #
    def _cpu_malloc(self, core: CPUCore, operation: Malloc) -> OpOutcome:
        space = core.memory_port.address_space
        vaddr = self.vm_manager.malloc(space, operation.size)
        self.stats.add("xthreads.cpu_mallocs")
        return OpOutcome(latency_ps=self.cpu_malloc_ps, value=vaddr)

    def _mttop_malloc(self, core: MTTOPCore, operation: Malloc) -> OpOutcome:
        """The paper's ``mttop_malloc``: allocation offloaded to a CPU thread.

        The MTTOP thread signals a CPU thread, which performs the ``malloc``
        on its behalf and returns the pointer (Section 5.3.2).  Requests are
        serviced one at a time by the CPU, so concurrent allocations queue —
        this serialisation is what caps sparse-matrix-multiply speedups as
        density rises (Figure 8, right panel).
        """
        space = core.memory_port.address_space
        vaddr = self.vm_manager.malloc(space, operation.size)
        now = core.local_time_ps
        start = max(now, self._malloc_service_free_at_ps)
        finish = start + self.mttop_malloc_service_ps
        self._malloc_service_free_at_ps = finish
        self.stats.add("xthreads.mttop_mallocs")
        self.stats.add("xthreads.mttop_malloc_wait_ps", start - now)
        return OpOutcome(latency_ps=finish - now, value=vaddr)

    def _free(self, core, operation: Free) -> OpOutcome:
        space = core.memory_port.address_space
        self.vm_manager.free(space, operation.vaddr)
        self.stats.add("xthreads.frees")
        return OpOutcome(latency_ps=self.cpu_malloc_ps // 2)
