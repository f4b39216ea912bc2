"""Translation lookaside buffers.

Both the CPU cores and the MTTOP cores of the CCSVM chip have a private,
64-entry, fully-associative TLB (Table 2).  The paper's design keeps MTTOP
TLBs coherent conservatively: when a CPU core performs a shootdown, MTTOP
TLBs are flushed entirely rather than invalidated selectively
(Section 3.2.1); both operations are provided here so the ablation benchmark
can compare them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import TLBError
from repro.memory.address import PAGE_SIZE, is_power_of_two
from repro.sim.stats import StatsRegistry

#: One contiguous run of batch operations falling on the same page:
#: ``(first_index, one_past_last_index, vpn)``.
PageRun = Tuple[int, int, int]


@dataclass(frozen=True)
class TLBEntry:
    """A cached virtual-to-physical translation."""

    vpn: int
    frame_address: int
    writable: bool

    def physical_address(self, vaddr: int) -> int:
        """Apply the page offset of ``vaddr`` to the cached frame."""
        return self.frame_address + (vaddr % PAGE_SIZE)


class TLB:
    """A fully-associative TLB with true-LRU replacement.

    Parameters
    ----------
    entries:
        Capacity in translations (64 for every core in Table 2).
    stats / name:
        Hit/miss/flush counters are recorded as ``<name>.hits`` etc.
    """

    def __init__(self, entries: int = 64, stats: Optional[StatsRegistry] = None,
                 name: str = "tlb", page_size: int = PAGE_SIZE) -> None:
        if entries <= 0:
            raise TLBError("a TLB must have at least one entry")
        self.capacity = entries
        self.page_size = page_size
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self._entries: "OrderedDict[int, TLBEntry]" = OrderedDict()
        # Precomputed counter names: lookup() runs once per simulated memory
        # access, so per-call f-string construction is measurable.
        self._hits_stat = f"{name}.hits"
        self._misses_stat = f"{name}.misses"
        self._evictions_stat = f"{name}.evictions"
        self._fills_stat = f"{name}.fills"
        self._invalidations_stat = f"{name}.invalidations"
        self._invalidation_misses_stat = f"{name}.invalidation_misses"
        self._flushes_stat = f"{name}.flushes"
        self._flushed_entries_stat = f"{name}.flushed_entries"
        # The batch probe uses shifts for vpn extraction and delegates
        # page-offset math to TLBEntry.physical_address's PAGE_SIZE, so it
        # only engages for the standard power-of-two page geometry.
        self.batch_shift: Optional[int] = (
            page_size.bit_length() - 1
            if is_power_of_two(page_size) and page_size == PAGE_SIZE else None
        )

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #
    def lookup(self, vaddr: int) -> Optional[TLBEntry]:
        """Return the cached translation for ``vaddr``'s page, if present."""
        vpn = vaddr // self.page_size
        entry = self._entries.get(vpn)
        if entry is None:
            self.stats.add(self._misses_stat)
            return None
        self._entries.move_to_end(vpn)
        self.stats.add(self._hits_stat)
        return entry

    def insert(self, vpn: int, frame_address: int, writable: bool) -> None:
        """Install a translation, evicting the LRU entry if full."""
        if frame_address % self.page_size != 0:
            raise TLBError(f"frame address {frame_address:#x} is not page aligned")
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.add(self._evictions_stat)
        self._entries[vpn] = TLBEntry(vpn=vpn, frame_address=frame_address, writable=writable)
        self.stats.add(self._fills_stat)

    # ------------------------------------------------------------------ #
    # Batch probe (batched access engine)
    # ------------------------------------------------------------------ #
    def translate_batch(self, vaddrs: Sequence[int], lo: int,
                        hi: int) -> Tuple[int, List[PageRun], List[int]]:
        """Translate the maximal TLB-hit prefix of ``vaddrs[lo:hi]``.

        Pure gather: no LRU update and no counters — the caller commits
        exactly the prefix it ends up executing via :meth:`commit_batch`,
        and any op past the returned ``stop`` retries through the scalar
        :meth:`lookup`, which records its own hit or miss.  One pass over
        the window opens a page run whenever the vpn changes and returns
        at the first non-resident page, so a miss costs only the ops
        before it.  Returns ``(stop, page_runs, paddrs)`` where
        ``paddrs[i]`` translates ``vaddrs[lo + i]`` for
        ``lo <= lo + i < stop``.
        """
        shift = self.batch_shift
        if shift is None:
            raise TLBError(f"{self.name}: batch probe needs standard pages")
        entries = self._entries
        runs: List[PageRun] = []
        paddrs: List[int] = []
        append = paddrs.append
        vpn = None
        run_lo = lo
        delta = 0
        for index in range(lo, hi):
            vaddr = vaddrs[index]
            key = vaddr >> shift
            if key != vpn:
                if vpn is not None:
                    runs.append((run_lo, index, vpn))
                entry = entries.get(key)
                if entry is None:
                    return index, runs, paddrs
                vpn = key
                run_lo = index
                delta = entry.frame_address - (key << shift)
            append(vaddr + delta)
        if vpn is not None:
            runs.append((run_lo, hi, vpn))
        return hi, runs, paddrs

    def commit_batch(self, runs: Sequence[PageRun], lo: int, stop: int,
                     first: int = 0) -> None:
        """Apply LRU updates and hit counters for ops ``[lo, stop)``.

        One ``move_to_end`` per page run replaces the scalar path's
        per-access move; consecutive moves of the same page are idempotent
        for recency order, so the final LRU state is identical.  ``first``
        lets a caller reusing one translation across several commits skip
        runs wholly before ``lo`` (re-moving those would put pages ahead
        of ones the scalar sequence touched later).
        """
        if stop <= lo:
            return
        move = self._entries.move_to_end
        for index in range(first, len(runs)):
            run_lo, _run_hi, vpn = runs[index]
            if run_lo >= stop:
                break
            move(vpn)
        self.stats.add(self._hits_stat, stop - lo)

    # ------------------------------------------------------------------ #
    # Coherence operations
    # ------------------------------------------------------------------ #
    def invalidate(self, vaddr: int) -> bool:
        """Drop the translation for ``vaddr``'s page; return True if present.

        Only an actual drop counts as ``<name>.invalidations`` — a
        shootdown reaching a TLB that never cached the page records
        ``<name>.invalidation_misses`` instead, so shootdown accounting
        reflects entries really lost rather than pages merely signalled.
        """
        vpn = vaddr // self.page_size
        present = self._entries.pop(vpn, None) is not None
        if present:
            self.stats.add(self._invalidations_stat)
        else:
            self.stats.add(self._invalidation_misses_stat)
        return present

    def flush(self) -> int:
        """Drop every translation; return how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.add(self._flushes_stat)
        self.stats.add(self._flushed_entries_stat, dropped)
        return dropped

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vaddr: int) -> bool:
        return (vaddr // self.page_size) in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit so far (0.0 when no lookups)."""
        hits = self.stats.get(self._hits_stat)
        misses = self.stats.get(self._misses_stat)
        total = hits + misses
        return hits / total if total else 0.0
