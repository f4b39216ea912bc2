"""Cache-only replay produces the same hierarchy counters as full simulation.

The gate of the cache-only replay engine: for a host-only captured trace,
``repro.mem.replay`` must report byte-identical per-level hit/miss/
writeback/coherence counters to a full ``trace_replay`` simulation of the
same stream, on every hierarchy-shape preset.  Only the counters of the
machinery the replayer deliberately omits — cores, the sim engine, the
xthreads runtime, the scheduler — may differ.
"""

import json

import pytest

from repro.config import apply_overrides
from repro.mem.replay import replay_trace, replay_trace_flat
from repro.mem.trace import TraceError
from repro.systems import system_config
from repro.workloads.registry import get_variant
from repro.workloads.trace_replay import (
    capture_trace,
    run_replay,
    run_replay_flat,
)

#: Counter namespaces owned by the machinery cache-only replay omits.
_NON_HIERARCHY_PREFIXES = ("cpu", "mttop", "engine.", "xthreads.", "mifd.",
                           "sched")

#: Presets the equivalence gate must hold on (ISSUE acceptance list).
_CCSVM_SHAPES = ("ccsvm", "ccsvm-l3", "ccsvm-no-tlb")


def hierarchy_counters(counters):
    """Drop core/engine/runtime counters, keep every hierarchy counter."""
    return {name: value for name, value in counters.items()
            if not name.startswith(_NON_HIERARCHY_PREFIXES)}


def canonical(counters):
    return json.dumps(counters, sort_keys=True).encode()


@pytest.fixture(scope="module")
def host_trace(tmp_path_factory):
    """One captured host-only mixed reference stream, shared by the gate."""
    path = tmp_path_factory.mktemp("traces") / "mem_stream.trace.json"
    trace = capture_trace("mem_stream", seed=11, path=str(path),
                          ops=600, words=512)
    assert trace.meta["verified"]
    assert not trace.tasks
    return str(path)


@pytest.fixture(scope="module")
def device_trace(tmp_path_factory):
    """A captured trace with device (mthread) streams and barriers."""
    path = tmp_path_factory.mktemp("traces") / "vector_add.trace.json"
    capture_trace("vector_add", seed=5, size=64, path=str(path))
    return str(path)


class TestCCSVMGate:
    @pytest.mark.parametrize("preset", _CCSVM_SHAPES)
    def test_counters_match_full_simulation(self, host_trace, preset):
        config = system_config(preset)
        full = run_replay(host_trace, config=config)
        fast = replay_trace(host_trace, config)
        assert canonical(hierarchy_counters(full.counters)) == \
            canonical(hierarchy_counters(fast.stats_snapshot()))

    @pytest.mark.parametrize("preset", _CCSVM_SHAPES)
    def test_registry_variant_matches_full_simulation(self, host_trace,
                                                      preset):
        config = system_config(preset)
        full = get_variant("trace_replay", "ccsvm").func(
            config, trace=host_trace)
        fast = get_variant("cache_replay", "ccsvm").func(
            config, trace=host_trace)
        assert canonical(hierarchy_counters(full.counters)) == \
            canonical(hierarchy_counters(fast.counters))
        assert fast.verified
        assert fast.dram_accesses == full.dram_accesses

    @pytest.mark.parametrize("policy", ("plru", "random"))
    def test_evicting_shape_matches_full_simulation(self, host_trace, policy):
        # The tiny caches evict on this trace, so victim choice (and a
        # random set's generator) must agree between the two evaluators.
        config = apply_overrides(system_config("ccsvm-tiny"),
                                 {"cpu.l1_replacement": policy,
                                  "l2.replacement": policy})
        full = run_replay(host_trace, config=config)
        fast = replay_trace(host_trace, config)
        assert full.counters["l1d.cpu0.evictions"] > 0
        assert canonical(hierarchy_counters(full.counters)) == \
            canonical(hierarchy_counters(fast.stats_snapshot()))

    def test_scalar_engine_matches_batch_engine(self, host_trace):
        config = system_config("ccsvm")
        batch = replay_trace(host_trace, config, engine="batch")
        scalar = replay_trace(host_trace, config, engine="scalar")
        assert canonical(batch.stats_snapshot()) == \
            canonical(scalar.stats_snapshot())
        assert batch.time_ps == scalar.time_ps
        assert batch.operations == scalar.operations


class TestAPUGate:
    """The baseline machine's presets byte-compare through the flat lane."""

    #: The APU full sim counts per-op instruction/malloc bookkeeping the
    #: cache-only walker has no reason to replicate.
    @staticmethod
    def _filtered(counters):
        return {name: value for name, value in counters.items()
                if ".instructions" not in name and ".mallocs" not in name}

    @pytest.mark.parametrize("preset", ("apu", "apu-shared-l2"))
    def test_counters_match_full_simulation(self, host_trace, preset):
        config = system_config(preset)
        full = run_replay_flat(host_trace, config=config)
        fast = replay_trace_flat(host_trace, config)
        assert canonical(self._filtered(full.counters)) == \
            canonical(self._filtered(fast.stats_snapshot()))

    def test_registry_variant_matches_full_simulation(self, host_trace):
        config = system_config("apu-shared-l2")
        full = get_variant("trace_replay", "pthreads").func(
            config, trace=host_trace)
        fast = get_variant("cache_replay", "pthreads").func(
            config, trace=host_trace)
        assert canonical(self._filtered(full.counters)) == \
            canonical(self._filtered(fast.counters))
        assert fast.dram_accesses == full.dram_accesses

    def test_rejects_device_traces(self, device_trace):
        with pytest.raises(TraceError, match="host-only"):
            replay_trace_flat(device_trace)


class TestDeviceTraces:
    """Device streams replay deterministically; batch == scalar exactly.

    Spin-wait re-polls are recorded once, so a device replay is not
    op-count-identical to the capture run — but it is a fixed reference
    stream, and both replay engines must walk it to the same counters.
    """

    def test_batch_equals_scalar(self, device_trace):
        config = system_config("ccsvm")
        batch = replay_trace(device_trace, config, engine="batch")
        scalar = replay_trace(device_trace, config, engine="scalar")
        assert canonical(batch.stats_snapshot()) == \
            canonical(scalar.stats_snapshot())
        assert batch.time_ps == scalar.time_ps

    def test_replay_is_deterministic(self, device_trace):
        config = system_config("ccsvm-l3")
        first = replay_trace(device_trace, config)
        second = replay_trace(device_trace, config)
        assert canonical(first.stats_snapshot()) == \
            canonical(second.stats_snapshot())
        assert first.time_ps == second.time_ps
        assert first.dram_accesses == second.dram_accesses

    def test_touches_the_l3_when_enabled(self, device_trace):
        stats = replay_trace(device_trace,
                             system_config("ccsvm-l3")).stats_snapshot()
        assert any(name.startswith("l3.") and value
                   for name, value in stats.items())
