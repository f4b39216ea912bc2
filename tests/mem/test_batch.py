"""The batched access engine is bit-identical to the scalar MOESI path.

Every test streams the same randomized mixed operation sequence through a
batched port and a scalar port on identically-built systems, and demands
identical values, identical per-op latencies, and an identical full
statistics registry — the batch engine's contract is pure speed, zero
observable difference.
"""

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.baseline.apu import AMDAPU
from repro.config import small_ccsvm_system, tiny_caches_ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.batch import (
    OP_ATOMIC_ADD,
    OP_ATOMIC_CAS,
    OP_LOAD,
    OP_STORE,
    split_ops,
)


# --------------------------------------------------------------------------- #
# Randomized op streams
# --------------------------------------------------------------------------- #
def mixed_ops(rng, regions, count, page_bytes=4096):
    """A mixed load/store/atomic stream over several allocated regions.

    Touches cold pages (page-fault residue), revisits hot words (the
    columnar path), crosses lines and pages (run boundaries), and stores
    negative values (sign conversion).
    """
    words_per_region = page_bytes // 8
    ops = []
    for _ in range(count):
        vaddr = rng.choice(regions) + 8 * rng.randrange(words_per_region)
        roll = rng.random()
        if roll < 0.50:
            ops.append((OP_LOAD, vaddr, 0, 0))
        elif roll < 0.84:
            ops.append((OP_STORE, vaddr, rng.randrange(-2**40, 2**40), 0))
        elif roll < 0.93:
            ops.append((OP_ATOMIC_ADD, vaddr, rng.randrange(-5, 6), 0))
        else:
            ops.append((OP_ATOMIC_CAS, vaddr, 0, rng.randrange(1, 100)))
    return ops


def chunked(ops, rng):
    """Split a stream into randomly-sized run_batch calls (1..64 ops)."""
    chunks = []
    index = 0
    while index < len(ops):
        size = rng.randrange(1, 65)
        chunks.append(ops[index:index + size])
        index += size
    return chunks


# --------------------------------------------------------------------------- #
# CCSVM (MOESI + TLB) equivalence
# --------------------------------------------------------------------------- #
def _ccsvm_stream(config, batch, ops_seed, disturb):
    """Run one deterministic stream; return (values, latencies, stats)."""
    rng = random.Random(ops_seed)
    chip = CCSVMChip(config)
    chip.create_process("batch_eq")
    regions = [chip.malloc(4096) for _ in range(6)]
    port = chip.cpu_cores[0].memory_port
    port.batch_enabled = batch
    other = chip.mttop_cores[0].memory_port
    other.set_address_space(chip.process_space)

    ops = mixed_ops(rng, regions, 1500)
    values, latencies = [], []
    for number, chunk in enumerate(chunked(ops, rng)):
        if disturb and number % 7 == 3:
            # Another core pulls a line SHARED mid-stream, so batched
            # stores hit the MOESI upgrade fallback.
            other.load(chunk[0][1])
        if disturb and number % 11 == 5 and port.tlb is not None:
            # A TLB invalidation lands between gather and the next batch —
            # the shootdown race the residue path must absorb.
            port.tlb.invalidate(chunk[-1][1])
        chunk_values, chunk_latencies = port.run_batch(chunk)
        values.extend(chunk_values)
        latencies.extend(chunk_latencies)
    return values, latencies, chip.stats.to_dict()


class TestCCSVMEquivalence:
    @pytest.mark.parametrize("config_factory", [small_ccsvm_system,
                                                tiny_caches_ccsvm_system])
    @pytest.mark.parametrize("disturb", [False, True])
    def test_random_stream_bit_identical(self, config_factory, disturb):
        outcomes = {
            batch: _ccsvm_stream(config_factory(), batch, ops_seed=1234,
                                 disturb=disturb)
            for batch in (True, False)
        }
        assert outcomes[True][0] == outcomes[False][0]   # values
        assert outcomes[True][1] == outcomes[False][1]   # latencies
        assert outcomes[True][2] == outcomes[False][2]   # full stats

    def test_all_load_fast_lane_bit_identical(self):
        def run(batch):
            chip = CCSVMChip(small_ccsvm_system())
            chip.create_process("batch_eq")
            base = chip.malloc(4096)
            port = chip.cpu_cores[0].memory_port
            port.batch_enabled = batch
            port.store_batch([base + 8 * i for i in range(256)],
                             list(range(-128, 128)))
            out = port.load_batch([base + 8 * ((i * 7) % 256)
                                   for i in range(1024)])
            return out, chip.stats.to_dict()

        assert run(True) == run(False)

    def test_columnar_engages_on_hot_batches(self):
        chip = CCSVMChip(small_ccsvm_system())
        chip.create_process("batch_eq")
        base = chip.malloc(4096)
        port = chip.cpu_cores[0].memory_port
        assert port._use_columnar()
        port.load(base)  # warm TLB + L1
        tlb_misses = chip.stats.get("tlb.cpu0.misses")
        l1_misses = chip.stats.get("l1d.cpu0.misses")
        hits = chip.stats.get("l1d.cpu0.hits")
        port.load_batch([base + 8 * (i % 8) for i in range(512)])
        # A warm batch commits as pure hits: no TLB or L1 miss creeps in.
        assert chip.stats.get("tlb.cpu0.misses") == tlb_misses
        assert chip.stats.get("l1d.cpu0.misses") == l1_misses
        assert chip.stats.get("l1d.cpu0.hits") == hits + 512

    def test_disabled_by_config_flag(self):
        import dataclasses
        config = dataclasses.replace(small_ccsvm_system(),
                                     batch_access=False)
        chip = CCSVMChip(config)
        chip.create_process("batch_eq")
        port = chip.cpu_cores[0].memory_port
        assert not port.batch_enabled
        assert not port._use_columnar()


# --------------------------------------------------------------------------- #
# APU (flat memory) equivalence
# --------------------------------------------------------------------------- #
def _apu_stream(batch, ops_seed):
    rng = random.Random(ops_seed)
    apu = AMDAPU()
    regions = [apu.allocate(4096) for _ in range(4)]
    port = apu.cpu_cores[0].port
    port.batch_enabled = batch
    ops = mixed_ops(rng, regions, 1200)
    values, latencies = [], []
    for chunk in chunked(ops, rng):
        chunk_values, chunk_latencies = port.run_batch(chunk)
        values.extend(chunk_values)
        latencies.extend(chunk_latencies)
    return values, latencies, apu.stats.to_dict()


class TestAPUEquivalence:
    def test_random_stream_bit_identical(self):
        assert _apu_stream(True, ops_seed=99) == _apu_stream(False,
                                                             ops_seed=99)

    def test_raw_word_semantics_preserved(self):
        # FlatMemory stores words raw (no 64-bit wraparound); the batched
        # data phase must not silently add masking.
        def run(batch):
            apu = AMDAPU()
            base = apu.allocate(64)
            port = apu.cpu_cores[0].port
            port.batch_enabled = batch
            port.store_batch([base, base + 8], [-(2**70), 2**70])
            return port.load_batch([base, base + 8])[0]

        assert run(True) == run(False) == [-(2**70), 2**70]


# --------------------------------------------------------------------------- #
# split_ops
# --------------------------------------------------------------------------- #
class TestSplitOps:
    def test_all_loads_collapse_to_fast_lane(self):
        vaddrs, kinds, vals, vals2 = split_ops([(OP_LOAD, 8, 0, 0),
                                                (OP_LOAD, 16, 0, 0)])
        assert vaddrs == [8, 16]
        assert kinds is None and vals is None and vals2 is None

    def test_mixed_ops_keep_columns(self):
        ops = [(OP_LOAD, 8, 0, 0), (OP_STORE, 16, 5, 0),
               (OP_ATOMIC_CAS, 24, 1, 2)]
        vaddrs, kinds, vals, vals2 = split_ops(ops)
        assert vaddrs == [8, 16, 24]
        assert list(kinds) == [OP_LOAD, OP_STORE, OP_ATOMIC_CAS]
        assert vals == [0, 5, 1]
        assert vals2 == [0, 0, 2]


def test_importing_the_simulator_loads_no_numpy():
    """The batch engine is stdlib-only: importing the harness (which pulls
    in every simulator module) must not drag numpy in."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, repro.harness, repro.mem.batch; "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
