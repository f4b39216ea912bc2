"""Microbenchmark: mixed-kind batches through the batch engine.

Real op streams mix loads, stores and atomics.  The batch engine splits
a ``(kind, vaddr, a, b)`` batch into columns with one ``zip`` transpose,
trims each resident segment to its fast-hit prefix per op, and moves the
data in op order.

This benchmark drives a steady-state 3:1 load:store mixed stream through
one CPU core's :meth:`~repro.mem.port.CoreMemoryPort.run_batch` batched
and through the scalar per-op dispatch, in :data:`PAIRS` interleaved
(batched, scalar) pairs after one warm-up each, records the rates and
the median, minimum and maximum per-pair ratio to
``benchmarks/results/mixed_batch.{txt,json}`` (plus the trajectory), and
asserts the median ratio clears a 2.0x floor.  Values, latencies and
every statistics counter are asserted bit-identical to the scalar
oracle — the speedup is pure host wall-clock.
"""

from __future__ import annotations

import statistics
import time

from conftest import interleaved_seconds, ratio_summary, run_once

from repro.config import small_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.batch import OP_ATOMIC_ADD, OP_ATOMIC_CAS, OP_LOAD, OP_STORE

ACCESSES = 120_000
WORKING_SET_WORDS = 256  # resident in one page and the 8 KiB L1
BATCH_WORDS = 4096
PAIRS = 3  # interleaved (batched, scalar) timing pairs


def _build_port():
    chip = CCSVMChip(small_ccsvm_system())
    chip.create_process("mixed_batch_bench")
    port = chip.cpu_cores[0].memory_port
    base = chip.malloc(WORKING_SET_WORDS * 8)
    for index in range(WORKING_SET_WORDS):
        port.store(base + index * 8, index)
    return chip, port, base


def _mixed_ops(count: int, base: int, atomics: bool = False):
    """A 3:1 load:store stream; optionally spiked with atomics."""
    ops = []
    for index in range(count):
        vaddr = base + (index % WORKING_SET_WORDS) * 8
        slot = index & 15
        if atomics and slot == 7:
            ops.append((OP_ATOMIC_ADD, vaddr, 1, 0))
        elif atomics and slot == 11:
            ops.append((OP_ATOMIC_CAS, vaddr, 0, index))
        elif index & 3:
            ops.append((OP_LOAD, vaddr, 0, 0))
        else:
            ops.append((OP_STORE, vaddr, index, 0))
    return ops


def _seconds_per_access(batched: bool, accesses: int = ACCESSES) -> float:
    """Host seconds per mixed op of one timed run."""
    _chip, port, base = _build_port()
    port.batch_enabled = batched
    ops = _mixed_ops(BATCH_WORDS, base)
    run_batch = port.run_batch
    started = time.perf_counter()
    for _chunk in range(accesses // BATCH_WORDS):
        run_batch(ops)
    return (time.perf_counter() - started) / accesses


def test_mixed_batch_speedup(benchmark, record_figure, record_results):
    """The batched mixed path is >=2.0x scalar dispatch."""
    batched_times, scalar_times = run_once(
        benchmark, interleaved_seconds,
        lambda: _seconds_per_access(True),
        lambda: _seconds_per_access(False), PAIRS)
    ratio, ratio_min, ratio_max = ratio_summary(batched_times, scalar_times)
    batched_rate = 1.0 / statistics.median(batched_times)
    scalar_rate = 1.0 / statistics.median(scalar_times)
    text = "\n".join([
        f"Mixed-batch microbenchmark — {ACCESSES} warm accesses in "
        f"{BATCH_WORDS}-op mixed vectors ({WORKING_SET_WORDS}-word "
        f"working set, 3:1 load:store), {PAIRS} interleaved pairs",
        f"batched:                {batched_rate:12,.0f} accesses/s (median)",
        f"scalar per-op dispatch: {scalar_rate:12,.0f} accesses/s (median)",
        f"speedup: median {ratio:.2f}x over {PAIRS} pairs "
        f"(min {ratio_min:.2f}x, max {ratio_max:.2f}x)",
    ])
    record_figure("mixed_batch", text)
    record_results("mixed_batch", {
        "accesses": ACCESSES,
        "batch_words": BATCH_WORDS,
        "working_set_words": WORKING_SET_WORDS,
        "pairs": PAIRS,
        "batched_accesses_per_s": batched_rate,
        "scalar_accesses_per_s": scalar_rate,
        "speedup": ratio,
        "speedup_min": ratio_min,
        "speedup_max": ratio_max,
    })
    print("\n" + text)
    assert ratio >= 2.0, (
        f"mixed batch path only {ratio:.2f}x the scalar dispatch in the "
        f"median of {PAIRS} pairs (floor 2.0x)"
    )


def test_mixed_batch_is_bit_identical_to_scalar():
    """Same mixed stream (atomics included): identical values, latencies
    and statistics batched and scalar."""
    outcomes = {}
    for batched in (True, False):
        chip, port, base = _build_port()
        port.batch_enabled = batched
        ops = _mixed_ops(4096, base, atomics=True)
        checksum = 0
        total_latency = 0
        for start in range(0, len(ops), 512):
            values, latencies = port.run_batch(ops[start:start + 512])
            checksum += sum(v for v in values if v is not None)
            total_latency += sum(latencies)
        outcomes[batched] = (checksum, total_latency, chip.stats_snapshot())
    assert outcomes[True] == outcomes[False]
