"""Non-coherent private hierarchies: any number of levels over DRAM.

:class:`PrivateHierarchy` generalises the APU baseline's original
L1-plus-optional-L2 model to an arbitrary stack of
:class:`~repro.mem.levels.CacheLevel` s over a :class:`DRAMModel`: an
access walks down the stack paying each level's hit latency until it hits
(or reaches DRAM), fills every missed level on the way back, and writes
dirty victims back to the next level down (the deepest level's victims go
to DRAM).  For the two-level shape this reproduces the historical
``PrivateCacheHierarchy`` behaviour — and counters — exactly; deeper or
shared shapes (a pooled L2 between cores, a third level) come for free
because levels are first-class objects.

Sharing: passing the same :class:`CacheLevel` instance to several
hierarchies makes those cores contend for its capacity.  No coherence is
modelled between the private levels above a shared one — appropriate for
the APU baseline, whose cross-core sharing costs the paper's pthreads
model absorbs into its phase-synchronisation overheads.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import MemoryError_
from repro.mem.levels import CacheLevel, DRAMLevel
from repro.memory.address import CACHE_LINE_SIZE
from repro.memory.dram import DRAMModel
from repro.sim.stats import StatsRegistry


class PrivateHierarchy:
    """A write-back, write-allocate stack of cache levels over DRAM."""

    def __init__(self, name: str, dram: DRAMModel,
                 levels: Sequence[CacheLevel],
                 stats: Optional[StatsRegistry] = None,
                 line_size: int = CACHE_LINE_SIZE) -> None:
        if not levels:
            raise MemoryError_(f"hierarchy {name!r} needs at least one cache level")
        self.name = name
        self.dram = dram
        #: The hierarchy's terminus: all line fills and writebacks that
        #: fall off the deepest cache level go through this DRAM level.
        self.dram_level = DRAMLevel(dram, line_size=line_size)
        self.levels: List[CacheLevel] = list(levels)
        self.stats = stats if stats is not None else StatsRegistry()
        self.line_size = line_size
        # Precomputed per-level writeback counter names (hot path).
        self._writeback_stats = [f"{name}.{level.label}_writebacks"
                                 for level in self.levels]
        self._flush_dirty_stat = f"{name}.flush_dirty_lines"

    # ------------------------------------------------------------------ #
    # Access path
    # ------------------------------------------------------------------ #
    def access(self, address: int, is_write: bool) -> int:
        """Access ``address``; return the latency and count DRAM traffic."""
        first = self.levels[0]
        latency = first.hit_latency_ps
        block = first.cache.lookup(address)
        if block is not None:
            if is_write:
                block.dirty = True
            return latency

        # Miss in the first level: walk down until a hit (or DRAM).
        line = first.cache.line_address(address)
        hit_index = len(self.levels)
        for index in range(1, len(self.levels)):
            level = self.levels[index]
            latency += level.hit_latency_ps
            if level.cache.lookup(line) is not None:
                hit_index = index
                break
        else:
            latency += self.dram_level.read()

        # Fill every missed level from the bottom up; dirty victims write
        # back to the next level down.
        for index in range(hit_index - 1, 0, -1):
            _, victim = self.levels[index].cache.insert(line)
            if victim is not None and victim.dirty:
                self._writeback(index, victim.line_address)
        block, victim = first.cache.insert(line, dirty=is_write)
        if is_write:
            block.dirty = True
        if victim is not None and victim.dirty:
            self._writeback(0, victim.line_address)
        return latency

    def _writeback(self, index: int, line: int) -> None:
        """Write a dirty line evicted from ``levels[index]`` one level down."""
        if index + 1 >= len(self.levels):
            self.dram_level.write()
        else:
            target = self.levels[index + 1]
            block = target.cache.peek(line)
            if block is None:
                block, victim = target.cache.insert(line, dirty=True)
                if victim is not None and victim.dirty:
                    self._writeback(index + 1, victim.line_address)
            block.dirty = True
        self.stats.add(self._writeback_stats[index])

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def flush(self) -> Tuple[int, int]:
        """Write back every dirty line to DRAM; return ``(lines, dirty_lines)``.

        Flushes every level in this hierarchy's chain, shared levels
        included (a flush models coherent DMA making *all* cached data
        visible, so a pooled level must drain too; flushing it through a
        second core's hierarchy then finds it already empty).
        """
        flushed = 0
        dirty = 0
        for level in self.levels:
            for block in level.cache.flush_all():
                flushed += 1
                if block.dirty:
                    dirty += 1
                    self.dram_level.write()
        self.stats.add(self._flush_dirty_stat, dirty)
        return flushed, dirty
