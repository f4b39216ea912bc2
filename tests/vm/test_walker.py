"""Tests for the hardware page-table walker."""

import pytest

from repro.memory.address import PAGE_SIZE
from repro.sim.stats import StatsRegistry
from repro.vm.page_table import LEVELS, PageTable, PageTableEntry, TranslationResult
from repro.vm.walker import PageTableWalker, WalkResult


@pytest.fixture
def table(physical_memory, frame_allocator):
    return PageTable(physical_memory, frame_allocator)


class TestWalker:
    def test_walk_hits_mapped_page(self, physical_memory, frame_allocator, table):
        frame = frame_allocator.allocate()
        table.map(0x1000_0000, frame)
        walker = PageTableWalker(physical_memory, default_entry_latency_ps=10)
        result = walker.walk(table, 0x1000_0040)
        assert not result.page_fault
        assert result.translation.frame_address == frame
        assert result.levels_visited == LEVELS
        assert result.latency_ps == 10 * LEVELS

    def test_walk_faults_on_unmapped(self, physical_memory, table):
        walker = PageTableWalker(physical_memory, default_entry_latency_ps=10)
        result = walker.walk(table, 0x5555_0000)
        assert result.page_fault
        assert result.translation is None
        assert result.levels_visited >= 1

    def test_stats_recorded(self, physical_memory, frame_allocator, table):
        stats = StatsRegistry()
        frame = frame_allocator.allocate()
        table.map(0x3000_0000, frame)
        walker = PageTableWalker(physical_memory, stats=stats, name="w")
        walker.walk(table, 0x3000_0000)
        walker.walk(table, 0x9999_0000)
        assert stats["w.walks"] == 2
        assert stats["w.faults"] == 1


WALK_COUNTERS = ("walks", "levels_read", "cycles_ps", "faults")


def reference_walk(memory, table, vaddr, entry_ps):
    """A walk rebuilt from the entry addresses and raw entry reads, plus the
    counter deltas it must cause."""
    addresses = table.walk_entry_addresses(vaddr)
    last = PageTableEntry(memory.read_unsigned(addresses[-1]))
    latency = len(addresses) * entry_ps
    translation = None
    if last.present:
        translation = TranslationResult(vpn=vaddr // PAGE_SIZE,
                                        frame_address=last.frame_address,
                                        writable=last.writable)
    deltas = {"walks": 1, "levels_read": len(addresses), "cycles_ps": latency,
              "faults": 0 if last.present else 1}
    return WalkResult(translation, latency, len(addresses)), deltas


class TestWalkMemo:
    """Repeated walks come from the page table's memo; every step must
    still match a walk rebuilt from raw entry reads."""

    def test_memo_tracks_every_mapping_change(self, physical_memory,
                                              frame_allocator, table):
        stats = StatsRegistry()
        walkers = {10: PageTableWalker(physical_memory, default_entry_latency_ps=10,
                                       stats=stats, name="a"),
                   7: PageTableWalker(physical_memory, default_entry_latency_ps=7,
                                      stats=stats, name="b")}
        page = 0x1000_0000
        # Same leaf table as ``page``, then a page under an empty PML4 slot.
        neighbour = page + PAGE_SIZE
        remote = 0x7F00_0000_0000
        remote_neighbour = remote + PAGE_SIZE

        def check(vaddr, entry_ps=10):
            walker = walkers[entry_ps]
            expected, deltas = reference_walk(physical_memory, table, vaddr,
                                              entry_ps)
            before = {c: stats[f"{walker.name}.{c}"] for c in WALK_COUNTERS}
            result = walker.walk(table, vaddr)
            after = {c: stats[f"{walker.name}.{c}"] for c in WALK_COUNTERS}
            assert result == expected
            assert {c: after[c] - before[c] for c in WALK_COUNTERS} == deltas
            return result

        first, second = frame_allocator.allocate(), frame_allocator.allocate()
        table.map(page, first)
        assert check(page + 8).translation.frame_address == first
        assert check(page + 16).translation.frame_address == first  # memo hit

        table.map(page, second)  # remap overwrites the leaf entry
        assert check(page).translation.frame_address == second
        assert check(page).translation.frame_address == second

        table.set_writable(page, False)
        assert check(page).translation.writable is False
        assert check(page).translation.writable is False

        table.unmap(page)
        assert check(page).levels_visited == LEVELS
        assert check(page).page_fault

        # Faults stop early where an intermediate node is missing; mapping
        # a neighbour creates it, so a repeated fault walks further.
        short = check(remote)
        assert short.page_fault and short.levels_visited < LEVELS
        assert check(remote).levels_visited == short.levels_visited
        table.map(remote_neighbour, frame_allocator.allocate())
        assert check(remote).levels_visited == LEVELS
        assert check(remote).page_fault

        # A second walker on the same table charges its own entry latency.
        table.map(neighbour, frame_allocator.allocate())
        check(neighbour)
        assert check(neighbour, entry_ps=7).latency_ps == 7 * LEVELS
        assert check(neighbour).latency_ps == 10 * LEVELS
