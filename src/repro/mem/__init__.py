"""``repro.mem`` — the unified, composable memory-hierarchy subsystem.

Both machines of the paper are assemblies of the same few parts:

* :class:`~repro.mem.levels.LevelSpec` — the declarative *shape* of one
  cache level (capacity, associativity, line size, latency, replacement);
* :class:`~repro.mem.levels.CacheLevel` — a built level: one
  :class:`~repro.cache.cache.SetAssociativeCache` plus its timing, ready
  to be stacked privately or shared between ports;
* :class:`~repro.mem.levels.DRAMLevel` — the hierarchy's off-chip
  terminus, wrapping a :class:`~repro.memory.dram.DRAMModel`;
* :class:`~repro.mem.private.PrivateHierarchy` — a non-coherent stack of
  levels over DRAM (the APU baseline's timing model), any depth, with
  lower levels optionally shared between cores;
* :class:`~repro.mem.port.CoreMemoryPort` — the per-core
  translate → coherence → data path of the CCSVM chip, with a combined
  TLB-hit + L1-hit fast path;
* :mod:`repro.mem.assemble` — builders that turn the ``repro.config``
  hierarchy-shape dataclasses into parts for either machine: the CCSVM
  memory system (:class:`~repro.mem.assemble.CCSVMMemory`, which both the
  chip and cache-only replay extend) and the APU's per-core CPU stacks;
* :mod:`repro.mem.replay` — cache-only replay of a captured trace
  through those same assemblies, with no cores or engine.

The MOESI directory controller itself stays in
:mod:`repro.coherence.protocol`; ``repro.mem`` composes it (registering
L1 levels, stacking an optional shared L3 between the L2 banks and DRAM)
rather than reimplementing it.
"""

from repro.mem.levels import CacheLevel, DRAMLevel, LevelSpec, build_cache
from repro.mem.port import CoreMemoryPort, MemoryPort, PageFaultHandler
from repro.mem.private import PrivateHierarchy
from repro.mem.replay import ReplayResult, replay_trace, replay_trace_flat

__all__ = [
    "CacheLevel",
    "CoreMemoryPort",
    "DRAMLevel",
    "LevelSpec",
    "MemoryPort",
    "PageFaultHandler",
    "PrivateHierarchy",
    "ReplayResult",
    "build_cache",
    "replay_trace",
    "replay_trace_flat",
]
