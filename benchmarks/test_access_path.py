"""Microbenchmark: the combined TLB-hit + L1-hit access fast path.

Every instruction a simulated workload executes pays the per-word
translate → coherence → data path, so its Python overhead bounds the whole
simulator's throughput.  The fast path serves the overwhelmingly common
TLB-hit + L1-hit case without allocating an ``AccessResult``, without enum
dispatch and without per-access f-string counter names; this benchmark
drives a steady-state working set (everything resident in the TLB and L1)
through one CPU core's :class:`~repro.mem.port.CoreMemoryPort` with the
fast path on and off and records the accesses/second ratio to
``benchmarks/results/access_path.txt``.  Both gates here time the two
sides in :data:`PAIRS` interleaved pairs after one warm-up each and gate
the median of the per-pair ratios, recording its minimum and maximum.

The second half benchmarks the batched engine on top of the fast path:
the same access stream handed to :meth:`run_batch` in 4096-op batches,
with the batch TLB+cache hit lane on (``batch_enabled=True``) and off
(the scalar fast-path loop).  Batching amortises the per-access Python
dispatch across whole batches, which is where the next order of
magnitude comes from.

Timing, data values and statistics are bit-identical between all the
paths (asserted here on the counters, and by ``tests/mem/test_fast_path.py``
and ``tests/mem/test_batch.py`` on whole-workload and randomized streams);
only the host wall-clock differs.  Both tests also emit machine-readable
``benchmarks/results/*.json`` documents (rates, ratio, host, git sha).
"""

from __future__ import annotations

import statistics
import time

from conftest import interleaved_seconds, ratio_summary, run_once

from repro.config import small_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.batch import OP_LOAD, OP_STORE

ACCESSES = 120_000
WORKING_SET_WORDS = 256  # fits one page and a fraction of the 8 KiB L1
PAIRS = 3  # interleaved timing pairs per gate
BATCH_WORDS = 4096  # ops per run_batch call in the batched benchmark


def _build_port(fast_path: bool):
    chip = CCSVMChip(small_ccsvm_system())
    chip.create_process("access_path_bench")
    port = chip.cpu_cores[0].memory_port
    port.fast_path = fast_path
    base = chip.malloc(WORKING_SET_WORDS * 8)
    # Warm the TLB and fill the L1 so the measured loop is pure hits —
    # the steady state the fast path exists for.
    for index in range(WORKING_SET_WORDS):
        port.store(base + index * 8, index)
    return chip, port, base


def _seconds_per_access(fast_path: bool, accesses: int = ACCESSES) -> float:
    """Host seconds per access of one timed run (3 loads : 1 store, like
    real kernels)."""
    _chip, port, base = _build_port(fast_path)
    addresses = [base + (index % WORKING_SET_WORDS) * 8
                 for index in range(accesses)]
    load, store = port.load, port.store
    started = time.perf_counter()
    for index, address in enumerate(addresses):
        if index & 3:
            load(address)
        else:
            store(address, index)
    return (time.perf_counter() - started) / accesses


def _benchmark_ops(accesses: int, base: int):
    """The benchmark access stream as ``(kind, vaddr, a, b)`` batch ops."""
    ops = []
    for index in range(accesses):
        vaddr = base + (index % WORKING_SET_WORDS) * 8
        if index & 3:
            ops.append((OP_LOAD, vaddr, 0, 0))
        else:
            ops.append((OP_STORE, vaddr, index, 0))
    return ops


def _batch_seconds_per_access(batched: bool,
                              accesses: int = ACCESSES) -> float:
    """Host seconds per access of one timed run of 3:1 load/store vector
    batches.

    Homogeneous ``BATCH_WORDS``-op vectors are what the engine's callers
    emit (``LoadVector``/``StoreVector``, MTTOP warp batches).  With
    ``batched=False`` the port runs the identical call sequence as a loop
    over the scalar fast path, so the ratio is batch engine vs the
    per-op dispatch.
    """
    _chip, port, base = _build_port(True)
    port.batch_enabled = batched
    addrs = [base + (index % WORKING_SET_WORDS) * 8
             for index in range(BATCH_WORDS)]
    vals = list(range(BATCH_WORDS))
    load_batch, store_batch = port.load_batch, port.store_batch
    started = time.perf_counter()
    for chunk in range(accesses // BATCH_WORDS):
        if chunk & 3:
            load_batch(addrs)
        else:
            store_batch(addrs, vals)
    return (time.perf_counter() - started) / accesses


def test_access_fast_path_speedup(benchmark, record_figure, record_results):
    """The fast path is measurably faster at steady-state TLB+L1 hits."""
    fast_times, slow_times = run_once(
        benchmark, interleaved_seconds,
        lambda: _seconds_per_access(True),
        lambda: _seconds_per_access(False), PAIRS)
    ratio, ratio_min, ratio_max = ratio_summary(fast_times, slow_times)
    fast_rate = 1.0 / statistics.median(fast_times)
    slow_rate = 1.0 / statistics.median(slow_times)
    text = (
        f"Access-path microbenchmark — {ACCESSES} warm accesses "
        f"({WORKING_SET_WORDS}-word working set, 3:1 load:store), "
        f"{PAIRS} interleaved pairs\n"
        f"fast path (TLB-hit + L1-hit combined): {fast_rate:12,.0f} accesses/s (median)\n"
        f"legacy path (AccessResult per access): {slow_rate:12,.0f} accesses/s (median)\n"
        f"speedup: median {ratio:.2f}x over {PAIRS} pairs "
        f"(min {ratio_min:.2f}x, max {ratio_max:.2f}x)"
    )
    record_figure("access_path", text)
    record_results("access_path", {
        "accesses": ACCESSES,
        "working_set_words": WORKING_SET_WORDS,
        "pairs": PAIRS,
        "fast_path_accesses_per_s": fast_rate,
        "legacy_path_accesses_per_s": slow_rate,
        "speedup": ratio,
        "speedup_min": ratio_min,
        "speedup_max": ratio_max,
    })
    print("\n" + text)
    assert ratio >= 1.2, (
        f"access fast path only {ratio:.2f}x the legacy path in the median "
        f"of {PAIRS} pairs (floor 1.2x)"
    )


def test_batch_engine_speedup(benchmark, record_figure, record_results):
    """The batch engine is >=5x the scalar fast path (target 10x)."""
    batch_times, scalar_times = run_once(
        benchmark, interleaved_seconds,
        lambda: _batch_seconds_per_access(True),
        lambda: _batch_seconds_per_access(False), PAIRS)
    ratio, ratio_min, ratio_max = ratio_summary(batch_times, scalar_times)
    batch_rate = 1.0 / statistics.median(batch_times)
    scalar_rate = 1.0 / statistics.median(scalar_times)
    text = (
        f"Batch-engine microbenchmark — {ACCESSES} warm accesses in "
        f"{BATCH_WORDS}-op vectors ({WORKING_SET_WORDS}-word working set, "
        f"3:1 load:store vectors), {PAIRS} interleaved pairs\n"
        f"batch engine (TLB+L1 hit lane):      "
        f"{batch_rate:12,.0f} accesses/s (median)\n"
        f"scalar fast path (per-op dispatch):  "
        f"{scalar_rate:12,.0f} accesses/s (median)\n"
        f"speedup: median {ratio:.2f}x over {PAIRS} pairs "
        f"(min {ratio_min:.2f}x, max {ratio_max:.2f}x)"
    )
    record_figure("batch_engine", text)
    record_results("batch_engine", {
        "accesses": ACCESSES,
        "batch_words": BATCH_WORDS,
        "working_set_words": WORKING_SET_WORDS,
        "pairs": PAIRS,
        "batch_accesses_per_s": batch_rate,
        "scalar_accesses_per_s": scalar_rate,
        "speedup": ratio,
        "speedup_min": ratio_min,
        "speedup_max": ratio_max,
    })
    print("\n" + text)
    assert ratio >= 5.0, (
        f"batch engine only {ratio:.2f}x the scalar fast path in the median "
        f"of {PAIRS} pairs (floor 5.0x)"
    )


def test_batch_and_scalar_modes_produce_identical_results():
    """The benchmark stream retires bit-identical results in both modes."""
    outcomes = {}
    for batched in (True, False):
        chip, port, base = _build_port(True)
        port.batch_enabled = batched
        ops = _benchmark_ops(4096, base)
        checksum = 0
        total_latency = 0
        for start in range(0, len(ops), 512):
            values, latencies = port.run_batch(ops[start:start + 512])
            checksum += sum(v for v in values if v is not None)
            total_latency += sum(latencies)
        outcomes[batched] = (checksum, total_latency, chip.stats_snapshot())
    assert outcomes[True] == outcomes[False]


def test_access_paths_produce_identical_counters():
    """Both paths retire identical latencies and statistics."""
    outcomes = {}
    for fast_path in (True, False):
        chip, port, base = _build_port(fast_path)
        total_latency = 0
        checksum = 0
        for index in range(2048):
            address = base + (index % WORKING_SET_WORDS) * 8
            if index & 3:
                value, latency = port.load(address)
                checksum += value
            else:
                latency = port.store(address, index)
            total_latency += latency
        outcomes[fast_path] = (total_latency, checksum, chip.stats_snapshot())
    assert outcomes[True] == outcomes[False]
