"""Microbenchmark: mixed-kind batches through the batch engine.

Real op streams mix loads, stores and atomics.  The batch engine splits
a ``(kind, vaddr, a, b)`` batch into columns with one ``zip`` transpose,
trims each resident segment to its fast-hit prefix per op, and moves the
data in op order.

This benchmark drives a steady-state 3:1 load:store mixed stream through
one CPU core's :meth:`~repro.mem.port.CoreMemoryPort.run_batch` batched
and through the scalar per-op dispatch, records the rates to
``benchmarks/results/mixed_batch.{txt,json}`` (plus the trajectory), and
asserts the batched path clears a 2.0x floor.  Values, latencies and
every statistics counter are asserted bit-identical to the scalar
oracle — the speedup is pure host wall-clock.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.config import small_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.batch import OP_ATOMIC_ADD, OP_ATOMIC_CAS, OP_LOAD, OP_STORE

ACCESSES = 120_000
WORKING_SET_WORDS = 256  # resident in one page and the 8 KiB L1
BATCH_WORDS = 4096
REPEATS = 3


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


def _mixed_rate(batched: bool = True, accesses: int = ACCESSES,
                repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` mixed ops/second."""
    best = 0.0
    for _ in range(repeats):
        _chip, port, base = _build_port()
        port.batch_enabled = batched
        ops = _mixed_ops(BATCH_WORDS, base)
        run_batch = port.run_batch
        started = time.perf_counter()
        for _chunk in range(accesses // BATCH_WORDS):
            run_batch(ops)
        elapsed = time.perf_counter() - started
        best = max(best, accesses / elapsed)
    return best


def test_mixed_batch_speedup(benchmark, record_figure, record_results):
    """The batched mixed path is >=2.0x scalar dispatch."""
    batched_rate = run_once(benchmark, _mixed_rate, True)
    scalar_rate = _mixed_rate(batched=False)
    ratio = batched_rate / scalar_rate
    text = "\n".join([
        f"Mixed-batch microbenchmark — {ACCESSES} warm accesses in "
        f"{BATCH_WORDS}-op mixed vectors ({WORKING_SET_WORDS}-word "
        f"working set, 3:1 load:store)",
        f"batched:                {batched_rate:12,.0f} accesses/s",
        f"scalar per-op dispatch: {scalar_rate:12,.0f} accesses/s",
        f"speedup: {ratio:.2f}x",
    ])
    record_figure("mixed_batch", text)
    record_results("mixed_batch", {
        "accesses": ACCESSES,
        "batch_words": BATCH_WORDS,
        "working_set_words": WORKING_SET_WORDS,
        "batched_accesses_per_s": batched_rate,
        "scalar_accesses_per_s": scalar_rate,
        "speedup": ratio,
    })
    print("\n" + text)
    assert ratio >= 2.0, (
        f"mixed batch path only {ratio:.2f}x the scalar dispatch "
        f"(floor 2.0x)"
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
