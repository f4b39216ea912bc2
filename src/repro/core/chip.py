"""Assembly of the CCSVM heterogeneous multicore chip (Figure 1).

:class:`CCSVMChip` builds the full simulated system from a
:class:`~repro.config.CCSVMSystemConfig`.  Its memory system — a private
L1, TLB and page-table walker per CPU and MTTOP core; a banked shared
inclusive L2 with the MOESI directory embedded in it; a 2D torus
interconnect; off-chip DRAM — is the
:class:`~repro.mem.assemble.CCSVMMemory` it extends, the same one
cache-only replay builds.  On top the chip adds the CPU and MTTOP cores,
the MIFD and the xthreads runtime.  A run executes one xthreads process:
its host program on a CPU core plus whatever MTTOP tasks the host
launches.  A chip runs once, and a finished run drops the cores'
references back to the engine and the MIFD, so reference counting frees
the chip as soon as its caller lets go of it.

Typical use::

    from repro import CCSVMChip, ccsvm_system
    chip = CCSVMChip(ccsvm_system())
    result = chip.run(host_program)          # a generator of Operations
    print(result.time_ns, result.dram_accesses)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.config import CCSVMSystemConfig, ccsvm_system
from repro.core.consistency import SequentialConsistencyChecker
from repro.core.xthreads.runtime import XThreadsRuntime
from repro.core.xthreads.toolchain import CompiledProcess, XThreadsToolchain
from repro.cores.cpu import CPUCore
from repro.cores.interpreter import ThreadProgram
from repro.cores.mttop import MTTOPCore
from repro.errors import SimulationError
from repro.mem.assemble import CCSVMMemory
from repro.mem.trace import active_recorder as trace_active_recorder
from repro.memory.address import WORD_SIZE
from repro.mifd.device import MIFD, page_fault_handler_via_mifd
from repro.mifd.driver import MIFDDriver
from repro.sim.clock import ns_to_ps, ps_to_ns
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.vm.manager import AddressSpace

#: A host program may be passed as a ready generator or as a zero-argument
#: generator function.
HostProgram = Union[ThreadProgram, Callable[[], ThreadProgram]]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one chip run."""

    time_ps: int
    engine_steps: int
    stats: StatsRegistry

    @property
    def time_ns(self) -> float:
        """Total simulated time in nanoseconds."""
        return ps_to_ns(self.time_ps)

    @property
    def time_ms(self) -> float:
        """Total simulated time in milliseconds."""
        return self.time_ps / 1e9

    @property
    def dram_accesses(self) -> int:
        """Off-chip DRAM accesses performed during the run (Figure 9 metric)."""
        return self.stats.get("dram.reads") + self.stats.get("dram.writes")


class CCSVMChip(CCSVMMemory):
    """The simulated CCSVM heterogeneous multicore chip.

    The memory system is the :class:`~repro.mem.assemble.CCSVMMemory`
    base; the chip adds the engine, one core per port, the MIFD and the
    xthreads runtime.  ``fast_access_path=False`` runs every access
    through the general transaction path, the reference that
    ``tests/mem/test_fast_path.py`` and ``benchmarks/test_access_path.py``
    compare the fast path against.
    """

    def __init__(self, config: Optional[CCSVMSystemConfig] = None,
                 check_sc: bool = False,
                 max_engine_steps: int = 200_000_000,
                 fast_access_path: bool = True) -> None:
        super().__init__(config if config is not None else ccsvm_system(),
                         StatsRegistry(),
                         sc_checker=(SequentialConsistencyChecker()
                                     if check_sc else None),
                         fast_path=fast_access_path)
        self.engine = Engine(max_steps=max_engine_steps)
        self._build_cores()
        self._build_mifd_and_runtime()

        self._process_space: Optional[AddressSpace] = None
        self._compiled_process: Optional[CompiledProcess] = None
        self._outstanding_host_programs = 0
        self._has_run = False
        self._trace_recorder = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _build_cores(self) -> None:
        cfg = self.config
        spin_poll_ps = ns_to_ps(cfg.spin_poll_ns)
        self.cpu_cores: List[CPUCore] = [
            CPUCore(node, self.cpu_clock,
                    cycles_per_instruction=cfg.cpu.cycles_per_instruction,
                    memory_port=self.ports[node], stats=self.stats,
                    spin_poll_ps=spin_poll_ps)
            for node in self.cpu_nodes]
        self.mttop_cores: List[MTTOPCore] = [
            MTTOPCore(node, self.mttop_clock,
                      simd_width=cfg.mttop.simd_width,
                      thread_contexts=cfg.mttop.thread_contexts,
                      memory_port=self.ports[node], stats=self.stats,
                      spin_poll_ps=spin_poll_ps)
            for node in self.mttop_nodes]
        for core in self.cpu_cores + self.mttop_cores:
            self.engine.add_agent(core)

    def _build_mifd_and_runtime(self) -> None:
        cfg = self.config
        self.mifd = MIFD(self.mttop_cores, self.cpu_cores, self.vm,
                         stats=self.stats, dispatch_ns=cfg.mifd_dispatch_ns)
        self.driver = MIFDDriver(self.mifd, syscall_ns=cfg.mifd_syscall_ns,
                                 stats=self.stats)
        self.toolchain = XThreadsToolchain()
        self.runtime = XThreadsRuntime(self.driver, self.vm,
                                       toolchain=self.toolchain, stats=self.stats,
                                       spin_poll_ns=cfg.spin_poll_ns)
        mttop_fault_handler = page_fault_handler_via_mifd(self.mifd)
        for core in self.cpu_cores:
            core.runtime_handler = self.runtime.handle
        for core in self.mttop_cores:
            core.runtime_handler = self.runtime.handle
            core.memory_port.page_fault_handler = mttop_fault_handler

    # ------------------------------------------------------------------ #
    # Running a process
    # ------------------------------------------------------------------ #
    @property
    def process_space(self) -> AddressSpace:
        """The address space of the process most recently run (or being run)."""
        if self._process_space is None:
            raise SimulationError("no process has been created on this chip yet")
        return self._process_space

    def create_process(self, name: str = "xthreads_process",
                       kernels: Optional[Sequence[Callable]] = None) -> AddressSpace:
        """Create the process address space and compile its kernels.

        Called implicitly by :meth:`run`; call it explicitly when a test or
        example wants to pre-populate memory before the run starts.
        """
        self._process_space = self.vm.create_address_space()
        self._compiled_process = self.toolchain.compile_process(
            name, host_entry=None, kernels=list(kernels or []))
        self.runtime.set_process(self._compiled_process)
        for core in self.cpu_cores:
            core.memory_port.set_address_space(self._process_space)
        return self._process_space

    def _resolve_host(self, host: HostProgram) -> ThreadProgram:
        if inspect.isgenerator(host):
            return host
        if callable(host):
            program = host()
            if not inspect.isgenerator(program):
                raise SimulationError(
                    "host program callable must return a generator of Operations"
                )
            return program
        raise SimulationError(f"cannot use {host!r} as a host program")

    def attach_trace_recorder(self, recorder) -> None:
        """Record this chip's run into ``recorder`` (a
        :class:`~repro.mem.trace.TraceRecorder`).

        Must be called before :meth:`run`.  Host programs and every MTTOP
        device thread program are transparently wrapped, so the traced run
        is bit-for-bit identical to an untraced one.
        """
        if self._has_run:
            raise SimulationError(
                "attach_trace_recorder must be called before run()"
            )
        self._trace_recorder = recorder
        self.mifd.program_wrapper = recorder.wrap_device

    def _on_host_complete(self, core: CPUCore, context) -> None:
        self._outstanding_host_programs -= 1
        if self._outstanding_host_programs <= 0:
            for mttop in self.mttop_cores:
                mttop.request_halt(core.local_time_ps)
            if self._process_space is not None:
                self.driver.release(self._process_space.pid)

    def run(self, host: HostProgram,
            extra_hosts: Optional[Sequence[HostProgram]] = None,
            process_name: str = "xthreads_process") -> RunResult:
        """Run an xthreads process to completion and return the result.

        ``host`` is the process's main thread (a generator of Operations)
        and runs on CPU core 0; ``extra_hosts`` (optional) model additional
        pthreads-style CPU threads of the same process and are placed on the
        remaining CPU cores round-robin.  A chip instance runs one process
        once; build a fresh chip for each experiment point.  When the run
        returns, the chip holds no reference cycle (see
        :meth:`_drop_back_references`): a sweep of many points frees each
        chip at once instead of piling them up for the cyclic collector.
        """
        if self._has_run:
            raise SimulationError(
                "this chip has already completed a run; create a new CCSVMChip"
            )
        self._has_run = True
        if self._trace_recorder is None:
            ambient = trace_active_recorder()
            if ambient is not None:
                self._trace_recorder = ambient
                self.mifd.program_wrapper = ambient.wrap_device
        if self._process_space is None:
            self.create_process(process_name)

        host_programs = [self._resolve_host(host)]
        for extra in extra_hosts or []:
            host_programs.append(self._resolve_host(extra))
        if self._trace_recorder is not None:
            host_programs = [self._trace_recorder.wrap_host(program)
                             for program in host_programs]
        if len(host_programs) > len(self.cpu_cores):
            raise SimulationError(
                f"{len(host_programs)} host threads exceed {len(self.cpu_cores)} CPU cores"
            )

        self._outstanding_host_programs = len(host_programs)
        for index, program in enumerate(host_programs):
            self.cpu_cores[index].run_program(program,
                                              on_complete=self._on_host_complete)

        total_time = self.engine.run()
        self._drop_back_references()
        return RunResult(time_ps=total_time, engine_steps=self.engine.steps_executed,
                         stats=self.stats)

    def _drop_back_references(self) -> None:
        """Cut the reference cycles a finished run no longer needs.

        Every core points back at the engine that lists it, and through
        the runtime handler and the MTTOP page-fault handler at the MIFD,
        which lists every core.  Left in place, those cycles keep the whole
        chip (caches, coherence, physical memory) alive until a full
        cyclic collection; cut, reference counting frees the chip as soon
        as its caller drops it.  A chip runs once, so nothing reads them
        again.  A run that raises keeps them and leaves its chip to the
        cyclic collector.
        """
        for core in self.engine.agents:
            core._engine = None
        self.mifd.mttop_cores.clear()
        self.mifd.cpu_cores.clear()

    # ------------------------------------------------------------------ #
    # Functional helpers (no timing) for tests, examples and experiments
    # ------------------------------------------------------------------ #
    def write_word(self, vaddr: int, value: int) -> None:
        """Write a 64-bit word into the process's virtual memory (no timing)."""
        translation = self.vm.translate_or_fault(self.process_space, vaddr,
                                                 is_write=True)
        self.physical_memory.write_word(translation.physical_address(vaddr), value)

    def read_word(self, vaddr: int) -> int:
        """Read a 64-bit word from the process's virtual memory (no timing)."""
        translation = self.vm.translate_or_fault(self.process_space, vaddr)
        return self.physical_memory.read_word(translation.physical_address(vaddr))

    def write_array(self, vaddr: int, values: Sequence[int]) -> None:
        """Write consecutive 64-bit words starting at ``vaddr`` (no timing)."""
        for index, value in enumerate(values):
            self.write_word(vaddr + index * WORD_SIZE, value)

    def read_array(self, vaddr: int, count: int) -> List[int]:
        """Read ``count`` consecutive 64-bit words starting at ``vaddr``."""
        return [self.read_word(vaddr + index * WORD_SIZE) for index in range(count)]

    def malloc(self, size: int) -> int:
        """Allocate process heap memory outside simulated time (for setup)."""
        return self.vm.malloc(self.process_space, size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def dram_accesses(self) -> int:
        """Total off-chip DRAM accesses so far."""
        return self.dram.total_accesses

    def stats_snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of every counter (useful for diffing)."""
        return self.stats.to_dict()
