"""Macrobenchmark: cache-only replay vs full trace-replay simulation.

The DSE engine's cost per design point is one full simulation of the
workload — cores, sim engine, scheduler and all.  The cache-only replayer
(:mod:`repro.mem.replay`) walks the captured reference stream straight
through an assembled hierarchy and nothing else, producing the identical
hierarchy counters (asserted here and gated by
``tests/mem/test_replay_equivalence.py``) at a fraction of the cost.

The stream is sized like a DSE sweep point (20k ops over a 32 KiB
footprint) and the replayer is measured warm — parsed trace and compiled
replay program cached, as in a sweep's steady state.  After one warm-up
point each, the two evaluators run in :data:`PAIRS` interleaved (replay
point, full point) pairs, so a slow phase of the shared host hits both
sides of a pair, and each sample starts from a collected heap, so the
full simulation's cyclic garbage is not collected inside a replay
sample; the gate is the median of the per-pair ratios, which a single
disturbed pair cannot move.  The floor is 2x; measured is typically
2.3-4x.  The honest accounting for why it is not
more: the memory-system walk itself is shared between both evaluators
and dominates at ~1.5-2.5us/op, the engine/scheduler overhead that
replay removes is only ~2-4x of that, and hierarchy construction
(~6 ms/point, 80% per-set replacement-policy objects) is paid by both.
Raising the ratio further means attacking the walk or the build, not the
replay loop.
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import interleaved_seconds, ratio_summary, run_once

from repro.mem.replay import replay_trace
from repro.systems import system_config
from repro.workloads.trace_replay import capture_trace, run_replay

OPS = 20_000
WORDS = 4096
LOCALITY = 0.95
ATOMICS = 0.0  # atomics serialize both evaluators identically; dial out
PAIRS = 11  # interleaved (replay point, full point) timing pairs
_NON_HIERARCHY_PREFIXES = ("cpu", "mttop", "engine.", "xthreads.", "mifd.",
                           "sched")


def _point_seconds(evaluate, *args, **kwargs) -> float:
    started = time.perf_counter()
    evaluate(*args, **kwargs)
    return time.perf_counter() - started


def _hierarchy(counters):
    return {name: value for name, value in counters.items()
            if not name.startswith(_NON_HIERARCHY_PREFIXES)}


def test_cache_replay_points_per_second(benchmark, tmp_path, record_figure,
                                        record_results):
    """Cache-only replay clears 2x full-simulation points/s (typ. 2.5-4x)."""
    trace_path = str(tmp_path / "mem_stream.trace.json")
    capture_trace("mem_stream", seed=7, path=trace_path, ops=OPS,
                  words=WORDS, locality=LOCALITY, atomics=ATOMICS)
    config = system_config("ccsvm")

    full = run_replay(trace_path, config=config)
    fast = replay_trace(trace_path, config)
    assert json.dumps(_hierarchy(full.counters), sort_keys=True) == \
        json.dumps(_hierarchy(fast.stats_snapshot()), sort_keys=True), \
        "cache-only replay diverged from full simulation"

    fast_times, full_times = run_once(
        benchmark, interleaved_seconds,
        lambda: _point_seconds(replay_trace, trace_path, config),
        lambda: _point_seconds(run_replay, trace_path, config=config), PAIRS)
    ratio, ratio_min, ratio_max = ratio_summary(fast_times, full_times)
    fast_rate = 1.0 / statistics.median(fast_times)
    full_rate = 1.0 / statistics.median(full_times)
    text = (
        f"Cache-replay macrobenchmark — mem_stream trace "
        f"({OPS} ops over {WORDS} words, locality {LOCALITY}, no atomics), "
        f"ccsvm preset, {PAIRS} interleaved point pairs\n"
        f"cache-only replay (repro.mem.replay): {fast_rate:10.2f} points/s (median)\n"
        f"full simulation (trace_replay):       {full_rate:10.2f} points/s (median)\n"
        f"speedup: median {ratio:.2f}x over {PAIRS} pairs "
        f"(min {ratio_min:.2f}x, max {ratio_max:.2f}x)"
    )
    record_figure("cache_replay", text)
    record_results("cache_replay", {
        "trace_ops": OPS,
        "trace_words": WORDS,
        "locality": LOCALITY,
        "atomics": ATOMICS,
        "system": "ccsvm",
        "pairs": PAIRS,
        "cache_replay_points_per_s": fast_rate,
        "full_simulation_points_per_s": full_rate,
        "speedup": ratio,
        "speedup_min": ratio_min,
        "speedup_max": ratio_max,
    })
    print("\n" + text)
    assert ratio >= 2.0, (
        f"cache-only replay only {ratio:.2f}x full simulation in the median "
        f"of {PAIRS} pairs (floor 2x)"
    )
