"""Hardware page-table walker.

Every core on the CCSVM chip — CPU and MTTOP alike — has its own page-table
walker (Section 3.2.1: the x86 CPU cores require a hardware TLB-miss
handler, and the paper adds the same structure to each MTTOP core).  On a
TLB miss the walker reads one page-table entry per level from physical
memory and charges each read a fixed ``default_entry_latency_ps`` (the
chip and cache-only replay set it to an L2 hit plus four NoC hops).

Since every entry read costs the same, a successful walk is a pure
function of the page table and the VPN: it always reads all
:data:`~repro.vm.page_table.LEVELS` entries, and its translation changes
only when a :class:`~repro.vm.page_table.PageTable` mapping method
rewrites that VPN's leaf entry — which drops the VPN from the table's
``walk_memo``.  So a repeated walk is served from the memo at exactly
the latency and counter increments of a full walk.  Faulting walks are
never memoised: how many levels they visit depends on which intermediate
nodes exist, and mapping any neighbouring page changes that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.address import PAGE_SIZE
from repro.memory.physical import PhysicalMemory
from repro.sim.stats import StatsRegistry
from repro.vm.page_table import LEVELS, PageTable, PageTableEntry, TranslationResult


@dataclass(frozen=True)
class WalkResult:
    """Outcome of one hardware page-table walk."""

    translation: Optional[TranslationResult]
    latency_ps: int
    levels_visited: int

    @property
    def page_fault(self) -> bool:
        """True when the walk ended at a non-present entry."""
        return self.translation is None


class PageTableWalker:
    """Walks a page table, charging a memory read per level visited.

    Parameters
    ----------
    memory:
        The physical memory holding page-table nodes.
    default_entry_latency_ps:
        Latency charged for reading one entry.
    """

    def __init__(self, memory: PhysicalMemory,
                 default_entry_latency_ps: int = 20_000,
                 stats: Optional[StatsRegistry] = None,
                 name: str = "walker") -> None:
        self._memory = memory
        self.default_entry_latency_ps = default_entry_latency_ps
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self._walks_stat = f"{name}.walks"
        self._levels_stat = f"{name}.levels_read"
        self._cycles_stat = f"{name}.cycles_ps"
        self._faults_stat = f"{name}.faults"

    def walk(self, page_table: PageTable, vaddr: int) -> WalkResult:
        """Walk ``page_table`` for ``vaddr``, charging one read per level."""
        stats = self.stats
        stats.add(self._walks_stat)
        vpn = vaddr // PAGE_SIZE
        translation = page_table.walk_memo.get(vpn)
        if translation is not None:
            levels = LEVELS
        else:
            entry_addresses = page_table.walk_entry_addresses(vaddr)
            levels = len(entry_addresses)
            last_entry = PageTableEntry(self._memory.read_unsigned(entry_addresses[-1]))
            if last_entry.present:
                translation = page_table.walk_memo[vpn] = TranslationResult(
                    vpn=vpn, frame_address=last_entry.frame_address,
                    writable=last_entry.writable)
        latency = levels * self.default_entry_latency_ps
        stats.add(self._levels_stat, levels)
        stats.add(self._cycles_stat, latency)
        if translation is None:
            stats.add(self._faults_stat)
        return WalkResult(translation, latency, levels)
