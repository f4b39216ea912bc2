"""Tests for the DRAM timing/accounting model."""

import pytest

from repro.mem.levels import CacheLevel, LevelSpec
from repro.mem.private import PrivateHierarchy
from repro.memory.dram import DRAMModel
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry


class TestDRAMModel:
    def test_read_latency(self):
        dram = DRAMModel(latency_ns=100.0)
        assert dram.read() == 100_000

    def test_write_latency(self):
        dram = DRAMModel(latency_ns=72.0)
        assert dram.write() == 72_000

    def test_access_counts(self):
        stats = StatsRegistry()
        dram = DRAMModel(100.0, stats=stats)
        dram.read()
        dram.read()
        dram.write()
        assert stats["dram.reads"] == 2
        assert stats["dram.writes"] == 1
        assert dram.total_accesses == 3

    def test_bytes_counted(self):
        dram = DRAMModel(100.0)
        dram.read(64)
        dram.write(128)
        assert dram.total_bytes == 192

    def test_access_dispatches_on_is_write(self):
        stats = StatsRegistry()
        dram = DRAMModel(100.0, stats=stats)
        dram.access(is_write=True)
        dram.access(is_write=False)
        assert stats["dram.reads"] == 1 and stats["dram.writes"] == 1

    def test_bandwidth_adds_serialisation(self):
        slow = DRAMModel(100.0, bandwidth_bytes_per_ns=1.0)
        fast = DRAMModel(100.0)
        assert slow.read(64) == 100_000 + 64_000
        assert fast.read(64) == 100_000

    def test_write_pays_serialisation_too(self):
        dram = DRAMModel(100.0, bandwidth_bytes_per_ns=2.0)
        assert dram.write(64) == 100_000 + 32_000

    @pytest.mark.parametrize("size,expected_extra_ps", [
        (64, 128_000),     # 64 B / 0.5 B/ns = 128 ns
        (128, 256_000),
        (8, 16_000),
    ])
    def test_serialisation_scales_with_access_size(self, size,
                                                   expected_extra_ps):
        dram = DRAMModel(100.0, bandwidth_bytes_per_ns=0.5)
        assert dram.read(size) == 100_000 + expected_extra_ps

    def test_fractional_serialisation_rounds_like_the_clock(self):
        # 64 B / 12 B/ns is not integral; the model must round exactly the
        # way ns_to_ps does, not truncate.
        dram = DRAMModel(100.0, bandwidth_bytes_per_ns=12.0)
        assert dram.read(64) == 100_000 + ns_to_ps(64 / 12.0)

    @pytest.mark.parametrize("bandwidth", [None, 0, 0.0])
    def test_unset_or_zero_bandwidth_means_no_serialisation(self, bandwidth):
        dram = DRAMModel(100.0, bandwidth_bytes_per_ns=bandwidth)
        assert dram.read(1 << 20) == 100_000
        assert dram.write(1 << 20) == 100_000

    def test_access_dispatch_includes_serialisation(self):
        dram = DRAMModel(100.0, bandwidth_bytes_per_ns=1.0)
        assert dram.access(is_write=False, size_bytes=64) == 164_000
        assert dram.access(is_write=True, size_bytes=64) == 164_000

    def test_hierarchy_misses_pay_the_serialisation_term(self):
        # End to end through a repro.mem stack: a line fill from a
        # bandwidth-limited DRAM is slower by exactly size/bandwidth.
        def miss_latency(bandwidth):
            stats = StatsRegistry()
            dram = DRAMModel(100.0, stats=stats,
                             bandwidth_bytes_per_ns=bandwidth)
            level = CacheLevel(LevelSpec("l1", 4 * 64, 2, hit_latency_ps=0,
                                         line_size=64), "h.l1", stats=stats)
            hierarchy = PrivateHierarchy("h", dram, [level], stats=stats,
                                         line_size=64)
            return hierarchy.access(0x1000, is_write=False)

        assert miss_latency(1.0) - miss_latency(None) == 64_000

    def test_custom_name_isolates_counters(self):
        stats = StatsRegistry()
        a = DRAMModel(100.0, stats=stats, name="dram_a")
        b = DRAMModel(100.0, stats=stats, name="dram_b")
        a.read()
        b.write()
        assert stats["dram_a.reads"] == 1
        assert stats["dram_b.writes"] == 1
        assert stats["dram_a.writes"] == 0

    @pytest.mark.parametrize("reads,writes", [(0, 0), (0, 1), (1, 0), (16, 17)])
    def test_book_matches_one_call_per_line(self, reads, writes):
        booked, looped = StatsRegistry(), StatsRegistry()
        DRAMModel(100.0, stats=booked, name="d").book(reads, writes)
        dram = DRAMModel(100.0, stats=looped, name="d")
        for _ in range(reads):
            dram.read()
        for _ in range(writes):
            dram.write()
        # Same values and the same key set: a zero count creates no key.
        assert booked.to_dict() == looped.to_dict()
