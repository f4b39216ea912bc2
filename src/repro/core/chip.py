"""Assembly of the CCSVM heterogeneous multicore chip (Figure 1).

:class:`CCSVMChip` builds the full simulated system from a
:class:`~repro.config.CCSVMSystemConfig`: CPU cores and MTTOP cores, each
with a private L1, TLB and page-table walker; a banked shared inclusive L2
with the MOESI directory embedded in it; a 2D torus interconnect; off-chip
DRAM; the MIFD; and the xthreads runtime.  A run executes one xthreads
process: its host program on a CPU core plus whatever MTTOP tasks the host
launches.

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

from repro.coherence.protocol import CoherentMemorySystem, L2Bank
from repro.config import CCSVMSystemConfig, ConfigurationError, ccsvm_system
from repro.mem.port import CoreMemoryPort
from repro.mem.assemble import build_ccsvm_l1, build_l2_banks, build_l3_level
from repro.core.consistency import SequentialConsistencyChecker
from repro.core.xthreads.runtime import XThreadsRuntime
from repro.core.xthreads.toolchain import CompiledProcess, XThreadsToolchain
from repro.cores.cpu import CPUCore
from repro.cores.interpreter import ThreadProgram
from repro.cores.mttop import MTTOPCore
from repro.errors import SimulationError
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import Torus2DTopology
from repro.memory.dram import DRAMModel
from repro.memory.physical import FrameAllocator, PhysicalMemory
from repro.mem.trace import active_recorder as trace_active_recorder
from repro.memory.address import WORD_SIZE
from repro.mifd.device import MIFD, page_fault_handler_via_mifd
from repro.mifd.driver import MIFDDriver
from repro.sim.clock import ClockDomain, ns_to_ps, ps_to_ns
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.vm.manager import AddressSpace, VirtualMemoryManager
from repro.vm.shootdown import TLBShootdownController
from repro.vm.tlb import TLB
from repro.vm.walker import PageTableWalker

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


class CCSVMChip:
    """The simulated CCSVM heterogeneous multicore chip."""

    def __init__(self, config: Optional[CCSVMSystemConfig] = None,
                 check_sc: bool = False,
                 max_engine_steps: int = 200_000_000,
                 engine_scheduler: str = "heap",
                 fast_access_path: bool = True) -> None:
        self.config = config if config is not None else ccsvm_system()
        if self.config.mttop.write_through:
            # The config field exists (the paper discusses write-through
            # MTTOP L1s as an open challenge, Section 6.1) but every
            # modeled transaction path assumes write-back caches (Section
            # 3.2.2).  Refuse to build rather than silently simulate the
            # wrong machine.
            raise ConfigurationError(
                "mttop.write_through=true is not modeled: the simulated "
                "CCSVM chip implements write-back MTTOP L1s only (paper "
                "Section 3.2.2); write-through L1s are an unimplemented "
                "feature")
        self.fast_access_path = fast_access_path
        self.stats = StatsRegistry()
        self.engine = Engine(max_steps=max_engine_steps,
                             scheduler=engine_scheduler)
        self.check_sc = check_sc
        self.sc_checker = SequentialConsistencyChecker() if check_sc else None

        self._build_memory()
        self._build_interconnect()
        self._build_l2_and_coherence()
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
    def _build_memory(self) -> None:
        cfg = self.config
        self.physical_memory = PhysicalMemory(cfg.dram.size_bytes)
        self.frames = FrameAllocator(cfg.dram.size_bytes)
        self.vm = VirtualMemoryManager(self.physical_memory, self.frames,
                                       stats=self.stats)
        self.dram = DRAMModel(cfg.dram.latency_ns, stats=self.stats, name="dram")
        self.shootdown = TLBShootdownController(stats=self.stats)

    def _build_interconnect(self) -> None:
        cfg = self.config
        self.cpu_nodes = [f"cpu{i}" for i in range(cfg.cpu.count)]
        self.mttop_nodes = [f"mttop{i}" for i in range(cfg.mttop.count)]
        self.l2_nodes = [f"l2b{i}" for i in range(cfg.l2.banks)]
        self.memory_node = "mem0"
        all_nodes = self.cpu_nodes + self.mttop_nodes + self.l2_nodes + [self.memory_node]
        self.topology = Torus2DTopology.fit(all_nodes)
        self.network = NetworkModel(self.topology,
                                    link_bandwidth_gbps=cfg.noc.link_bandwidth_gbps,
                                    per_hop_latency_ns=cfg.noc.hop_latency_ns,
                                    stats=self.stats)

    def _build_l2_and_coherence(self) -> None:
        cfg = self.config
        self.cpu_clock = ClockDomain.from_ghz("cpu", cfg.cpu.frequency_ghz)
        self.mttop_clock = ClockDomain.from_mhz("mttop", cfg.mttop.frequency_mhz)
        l2_hit_ps = self.cpu_clock.cycles_to_ps(cfg.l2.hit_latency_cpu_cycles)

        self.l2_banks: List[L2Bank] = build_l2_banks(cfg, self.l2_nodes,
                                                     l2_hit_ps, stats=self.stats)
        self.l3_level = build_l3_level(cfg, self.cpu_clock, stats=self.stats)
        self.coherence = CoherentMemorySystem(self.network, self.dram,
                                              self.l2_banks, self.memory_node,
                                              stats=self.stats,
                                              l3=self.l3_level)
        self._l2_hit_ps = l2_hit_ps

    def _make_memory_port(self, node: str, tlb_entries: int) -> CoreMemoryPort:
        tlb: Optional[TLB] = None
        if self.config.tlb_enabled:
            tlb = TLB(entries=tlb_entries, stats=self.stats, name=f"tlb.{node}")
        hop_ps = ns_to_ps(self.config.noc.hop_latency_ns)
        walker = PageTableWalker(
            self.physical_memory,
            default_entry_latency_ps=self._l2_hit_ps + 4 * hop_ps,
            stats=self.stats, name=f"walker.{node}")
        return CoreMemoryPort(node=node, tlb=tlb, walker=walker,
                              coherence=self.coherence,
                              physical_memory=self.physical_memory,
                              vm_manager=self.vm, stats=self.stats,
                              sc_checker=self.sc_checker,
                              fast_path=self.fast_access_path,
                              batch_enabled=self.config.batch_access)

    def _build_cores(self) -> None:
        cfg = self.config
        spin_poll_ps = ns_to_ps(cfg.spin_poll_ns)

        self.cpu_cores: List[CPUCore] = []
        cpu_l1_hit_ps = self.cpu_clock.cycles_to_ps(cfg.cpu.l1_hit_cycles)
        for node in self.cpu_nodes:
            l1 = build_ccsvm_l1(node, size_bytes=cfg.cpu.l1_size_bytes,
                                associativity=cfg.cpu.l1_associativity,
                                hit_latency_ps=cpu_l1_hit_ps,
                                replacement=cfg.cpu.l1_replacement,
                                stats=self.stats)
            self.coherence.register_l1(node, l1, cpu_l1_hit_ps)
            port = self._make_memory_port(node, cfg.cpu.tlb_entries)
            if port.tlb is not None:
                self.shootdown.register_cpu_tlb(port.tlb)
            core = CPUCore(node, self.cpu_clock,
                           cycles_per_instruction=cfg.cpu.cycles_per_instruction,
                           memory_port=port, stats=self.stats,
                           spin_poll_ps=spin_poll_ps)
            self.cpu_cores.append(core)
            self.engine.add_agent(core)

        self.mttop_cores: List[MTTOPCore] = []
        mttop_l1_hit_ps = self.mttop_clock.cycles_to_ps(cfg.mttop.l1_hit_cycles)
        for node in self.mttop_nodes:
            l1 = build_ccsvm_l1(node, size_bytes=cfg.mttop.l1_size_bytes,
                                associativity=cfg.mttop.l1_associativity,
                                hit_latency_ps=mttop_l1_hit_ps,
                                replacement=cfg.mttop.l1_replacement,
                                stats=self.stats)
            self.coherence.register_l1(node, l1, mttop_l1_hit_ps)
            port = self._make_memory_port(node, cfg.mttop.tlb_entries)
            if port.tlb is not None:
                self.shootdown.register_mttop_tlb(port.tlb)
            core = MTTOPCore(node, self.mttop_clock,
                             simd_width=cfg.mttop.simd_width,
                             thread_contexts=cfg.mttop.thread_contexts,
                             memory_port=port, stats=self.stats,
                             spin_poll_ps=spin_poll_ps)
            self.mttop_cores.append(core)
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
        once; build a fresh chip for each experiment point.
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
        return RunResult(time_ps=total_time, engine_steps=self.engine.steps_executed,
                         stats=self.stats)

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
