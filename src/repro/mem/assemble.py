"""Assemble :mod:`repro.mem` levels from the ``repro.config`` shape dataclasses.

This is the one place that knows how a configuration dataclass maps onto
built memory-hierarchy parts, for *both* machines:

* :class:`CCSVMMemory` — the CCSVM chip's whole memory system: physical
  memory and the VM manager, DRAM, the torus, the banked shared L2 (with
  its directory slices), the optional memory-side L3 and, per CPU and
  MTTOP node, a private L1, TLB, page-table walker and memory port;
* :func:`build_apu_cpu_hierarchies` — the APU baseline's per-core
  private hierarchies, whose L2 level is either private per core or one
  pooled :class:`CacheLevel` shared by all of them, depending on the
  configured shape.

Three callers build from here: :class:`~repro.core.chip.CCSVMChip` and
cache-only replay's :class:`~repro.mem.replay.CCSVMReplayHierarchy` both
extend :class:`CCSVMMemory`, so replay walks exactly the hierarchy the
chip simulates; :class:`~repro.baseline.apu.AMDAPU` and the flat replay
lane share :func:`build_apu_cpu_hierarchies`.  A new hierarchy shape is a
config change — reachable by dotted-path overrides — not a new code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baseline.memory import PrivateCacheHierarchy
from repro.coherence.directory import Directory
from repro.coherence.protocol import CoherentMemorySystem, L2Bank
from repro.config import APUSystemConfig, CCSVMSystemConfig, ConfigurationError
from repro.core.consistency import SequentialConsistencyChecker
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import Torus2DTopology
from repro.mem.levels import CacheLevel, LevelSpec, build_cache
from repro.mem.port import CoreMemoryPort
from repro.memory.dram import DRAMModel
from repro.memory.physical import FrameAllocator, PhysicalMemory
from repro.sim.clock import ClockDomain, ns_to_ps
from repro.sim.stats import StatsRegistry
from repro.vm.manager import VirtualMemoryManager
from repro.vm.shootdown import TLBShootdownController
from repro.vm.tlb import TLB
from repro.vm.walker import PageTableWalker


# --------------------------------------------------------------------------- #
# CCSVM chip
# --------------------------------------------------------------------------- #
class CCSVMMemory:
    """The CCSVM chip's memory system (Figure 1) without cores or runtime.

    Builds, in order: physical memory, frames, the VM manager, DRAM and
    the shootdown controller; the node lists and the torus; the clocks,
    the L2 banks, the optional L3 and the MOESI controller; then for each
    CPU node and each MTTOP node an L1 registered with the directory, a
    TLB (when ``tlb_enabled``; registered for shootdowns), a page-table
    walker and a :class:`CoreMemoryPort`, kept in :attr:`ports` by node.

    Construction increments no counter.  Subclasses add what runs on
    the ports: the chip its cores, engine, MIFD and runtime; cache-only
    replay one shared address space.
    """

    def __init__(self, config: CCSVMSystemConfig, stats: StatsRegistry, *,
                 sc_checker: Optional[SequentialConsistencyChecker] = None,
                 fast_path: bool = True) -> None:
        cfg = config
        if cfg.mttop.write_through:
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
        self.config = cfg
        self.stats = stats
        self.sc_checker = sc_checker

        self.physical_memory = PhysicalMemory(cfg.dram.size_bytes)
        self.frames = FrameAllocator(cfg.dram.size_bytes)
        self.vm = VirtualMemoryManager(self.physical_memory, self.frames,
                                       stats=stats)
        self.dram = DRAMModel(cfg.dram.latency_ns, stats=stats, name="dram")
        self.shootdown = TLBShootdownController(stats=stats)

        self.cpu_nodes = [f"cpu{i}" for i in range(cfg.cpu.count)]
        self.mttop_nodes = [f"mttop{i}" for i in range(cfg.mttop.count)]
        self.l2_nodes = [f"l2b{i}" for i in range(cfg.l2.banks)]
        self.memory_node = "mem0"
        self.topology = Torus2DTopology.fit(
            self.cpu_nodes + self.mttop_nodes + self.l2_nodes
            + [self.memory_node])
        self.network = NetworkModel(
            self.topology, link_bandwidth_gbps=cfg.noc.link_bandwidth_gbps,
            per_hop_latency_ns=cfg.noc.hop_latency_ns, stats=stats)

        self.cpu_clock = ClockDomain.from_ghz("cpu", cfg.cpu.frequency_ghz)
        self.mttop_clock = ClockDomain.from_mhz("mttop",
                                                cfg.mttop.frequency_mhz)
        # The banked, inclusive shared L2, one directory slice per bank.
        l2_hit_ps = self.cpu_clock.cycles_to_ps(cfg.l2.hit_latency_cpu_cycles)
        l2_spec = LevelSpec(label="l2", size_bytes=cfg.l2.bank_size_bytes,
                            associativity=cfg.l2.associativity,
                            hit_latency_ps=l2_hit_ps,
                            replacement=cfg.l2.replacement)
        self.l2_banks: List[L2Bank] = [
            L2Bank(name=node,
                   cache=build_cache(l2_spec, f"l2.bank{index}", stats=stats),
                   directory=Directory(name=f"dir{index}"),
                   hit_latency_ps=l2_hit_ps)
            for index, node in enumerate(self.l2_nodes)]
        # The optional memory-side L3.
        self.l3_level: Optional[CacheLevel] = None
        if cfg.l3.enabled:
            self.l3_level = CacheLevel(LevelSpec(
                label="l3", size_bytes=cfg.l3.total_size_bytes,
                associativity=cfg.l3.associativity,
                hit_latency_ps=self.cpu_clock.cycles_to_ps(
                    cfg.l3.hit_latency_cpu_cycles),
                replacement=cfg.l3.replacement), name="l3", stats=stats)
        self.coherence = CoherentMemorySystem(self.network, self.dram,
                                              self.l2_banks, self.memory_node,
                                              stats=stats, l3=self.l3_level)

        # Each page-table entry read costs an L2 hit plus four NoC hops.
        walk_entry_ps = l2_hit_ps + 4 * ns_to_ps(cfg.noc.hop_latency_ns)
        self.ports: Dict[str, CoreMemoryPort] = {}
        for nodes, core, clock, register_tlb in (
                (self.cpu_nodes, cfg.cpu, self.cpu_clock,
                 self.shootdown.register_cpu_tlb),
                (self.mttop_nodes, cfg.mttop, self.mttop_clock,
                 self.shootdown.register_mttop_tlb)):
            l1_hit_ps = clock.cycles_to_ps(core.l1_hit_cycles)
            l1_spec = LevelSpec(label="l1", size_bytes=core.l1_size_bytes,
                                associativity=core.l1_associativity,
                                hit_latency_ps=l1_hit_ps,
                                replacement=core.l1_replacement)
            for node in nodes:
                self.coherence.register_l1(
                    node, build_cache(l1_spec, f"l1d.{node}", stats=stats),
                    l1_hit_ps)
                tlb: Optional[TLB] = None
                if cfg.tlb_enabled:
                    tlb = TLB(entries=core.tlb_entries, stats=stats,
                              name=f"tlb.{node}")
                    register_tlb(tlb)
                walker = PageTableWalker(
                    self.physical_memory,
                    default_entry_latency_ps=walk_entry_ps,
                    stats=stats, name=f"walker.{node}")
                self.ports[node] = CoreMemoryPort(
                    node=node, tlb=tlb, walker=walker,
                    coherence=self.coherence,
                    physical_memory=self.physical_memory,
                    vm_manager=self.vm, stats=stats, sc_checker=sc_checker,
                    fast_path=fast_path, batch_enabled=cfg.batch_access)


# --------------------------------------------------------------------------- #
# APU baseline
# --------------------------------------------------------------------------- #
def build_apu_cpu_hierarchies(config: APUSystemConfig, dram: DRAMModel,
                              count: int, stats: StatsRegistry
                              ) -> List[PrivateCacheHierarchy]:
    """The first ``count`` APU CPU cores' cache stacks over ``dram``.

    Each core gets a private L1 and, per the shape, either a private L2
    (Table 2) or the one pooled L2 every core stacks its L1 on (the
    ``apu-shared-l2`` preset, ``cpu.l2_shared``).
    """
    cpu = config.cpu
    shared_l2: Optional[CacheLevel] = None
    if cpu.l2_shared and cpu.l2_size_bytes:
        shared_l2 = CacheLevel(
            LevelSpec(label="l2", size_bytes=cpu.l2_size_bytes,
                      associativity=cpu.l2_associativity,
                      hit_latency_ps=ns_to_ps(cpu.l2_hit_ns),
                      replacement=cpu.l2_replacement),
            name="apu_cpu_shared.l2", stats=stats)
    return [PrivateCacheHierarchy(
                name=f"apu_cpu{index}", dram=dram,
                l1_size_bytes=cpu.l1_size_bytes,
                l1_associativity=cpu.l1_associativity,
                l1_hit_ps=ns_to_ps(cpu.l1_hit_ns),
                l2_size_bytes=cpu.l2_size_bytes,
                l2_associativity=cpu.l2_associativity,
                l2_hit_ps=ns_to_ps(cpu.l2_hit_ns),
                l1_replacement=cpu.l1_replacement,
                l2_replacement=cpu.l2_replacement,
                shared_l2=shared_l2, stats=stats)
            for index in range(count)]
