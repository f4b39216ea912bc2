"""Cache-only trace replay as a registered workload, plus ``mem_stream``.

Two workloads live here:

* ``cache_replay`` — evaluate a hierarchy shape by walking a captured
  trace through :mod:`repro.mem.replay`'s bare memory system (no cores,
  no sim engine, no scheduler).  The ``ccsvm`` variant covers every
  CCSVM-family preset (``ccsvm``, ``ccsvm-l3``, ``ccsvm-no-tlb``, sizes,
  replacement policies); the ``pthreads`` variant covers the APU presets
  (``apu-shared-l2``).  Counters equal a full ``trace_replay`` simulation
  of the same stream for host-only traces, at a fraction of the cost —
  which is what makes fixed-workload DSE sweeps near-free::

      python - <<'PY'
      from repro.workloads.trace_replay import capture_trace
      capture_trace("mem_stream", seed=1, path="ms.trace.json", ops=4000)
      PY
      python -m repro sweep cache_replay \
          --system ccsvm,ccsvm-l3,ccsvm-no-tlb --grid trace=ms.trace.json

* ``mem_stream`` — a deterministic single-host mixed reference stream
  (loads, stores, vectors, atomics, malloc/free) parameterized by op
  count, footprint and seed.  It exists to be *captured*: because it
  needs no device threads and no spin synchronisation, its traces replay
  counter-exactly on every shape, making it the equivalence gate's (and
  CI's) canonical capture subject.  It runs on both machines, so the same
  stream also byte-compares the APU presets.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from repro.config import APUSystemConfig, CCSVMSystemConfig
from repro.core.chip import CCSVMChip
from repro.cores.isa import (
    AtomicAdd,
    AtomicCAS,
    Compute,
    Free,
    Load,
    LoadVector,
    Malloc,
    Store,
    StoreVector,
)
from repro.mem.replay import (
    load_trace_cached,
    replay_trace,
    replay_trace_flat,
)
from repro.mem.trace import Trace
from repro.workloads.base import WorkloadResult
from repro.workloads.registry import register_variant

WORKLOAD = "cache_replay"
STREAM_WORKLOAD = "mem_stream"

_VECTOR_WIDTH = 16


def _stream_program(seed: int, ops: int, words: int, failures: list,
                    locality: float = 0.9, atomics: float = 0.10):
    """The deterministic mem_stream host program.

    Pure function of ``(seed, ops, words, locality)``: the identical
    operation sequence is produced on every machine (addresses are
    relative to the single ``Malloc``'s result, which flows back through
    the generator).  Loads are checked against a software shadow;
    mismatches are appended to ``failures``.

    Addresses follow a cursor that usually advances to the next word and
    occasionally (probability ``1 - locality``) jumps to a random one —
    the sequential-sweep-with-reuse shape of the paper's kernels.
    ``locality=0`` gives a uniformly random stream.  ``atomics`` is the
    fraction of ops that are atomic read-modify-writes (they serialise
    the batched engines, so benchmarks dial them down; the equivalence
    gate keeps the default).
    """

    def host():
        rng = random.Random(seed)
        shadow = {}
        cursor = 0
        # Cumulative mix thresholds: atomics (3:2 add:cas) take their
        # fraction, vectors and compute are fixed, loads:stores split the
        # rest 9:7.
        p_vec_load, p_vec_store, p_compute = 0.05, 0.04, 0.01
        scalar = 1.0 - atomics - p_vec_load - p_vec_store - p_compute
        t_load = scalar * 9 / 16
        t_store = t_load + scalar * 7 / 16
        t_add = t_store + atomics * 0.6
        t_cas = t_store + atomics
        t_vec_load = t_cas + p_vec_load
        t_vec_store = t_vec_load + p_vec_store
        base = yield Malloc(8 * words)

        def addr():
            nonlocal cursor
            if rng.random() < locality:
                cursor = (cursor + 1) % words
            else:
                cursor = rng.randrange(words)
            return base + 8 * cursor

        # Warm a slice of the footprint with vector stores.
        for start in range(0, min(words, 256), _VECTOR_WIDTH):
            vaddrs = tuple(base + 8 * (start + k)
                           for k in range(_VECTOR_WIDTH))
            values = tuple((start + k) * 3 for k in range(_VECTOR_WIDTH))
            yield StoreVector(vaddrs, values)
            shadow.update(zip(vaddrs, values))

        for _ in range(ops):
            r = rng.random()
            if r < t_load:
                a = addr()
                value = yield Load(a)
                if value != shadow.get(a, 0):
                    failures.append((a, value, shadow.get(a, 0)))
            elif r < t_store:
                a = addr()
                value = rng.randrange(1 << 32)
                yield Store(a, value)
                shadow[a] = value
            elif r < t_add:
                a = addr()
                old = yield AtomicAdd(a, 1)
                if old != shadow.get(a, 0):
                    failures.append((a, old, shadow.get(a, 0)))
                shadow[a] = shadow.get(a, 0) + 1
            elif r < t_cas:
                a = addr()
                old = yield AtomicCAS(a, shadow.get(a, 0), 7)
                if old != shadow.get(a, 0):
                    failures.append((a, old, shadow.get(a, 0)))
                shadow[a] = 7
            elif r < t_vec_load:
                vaddrs = tuple(addr() for _ in range(_VECTOR_WIDTH))
                values = yield LoadVector(vaddrs)
                for a, value in zip(vaddrs, values):
                    if value != shadow.get(a, 0):
                        failures.append((a, value, shadow.get(a, 0)))
            elif r < t_vec_store:
                vaddrs = tuple(addr() for _ in range(_VECTOR_WIDTH))
                values = tuple(rng.randrange(1 << 32)
                               for _ in range(_VECTOR_WIDTH))
                yield StoreVector(vaddrs, values)
                # Later elements overwrite earlier duplicates, like the
                # machine's in-order store sequence.
                shadow.update(zip(vaddrs, values))
            else:
                yield Compute(3)

        scratch = yield Malloc(64)
        yield Store(scratch, 1)
        yield Free(scratch)

    return host


@register_variant(STREAM_WORKLOAD, "ccsvm",
                  description="deterministic mixed reference stream on one "
                              "CCSVM CPU core (the capture subject for "
                              "cache-only replay)")
def mem_stream_ccsvm(config: Optional[CCSVMSystemConfig] = None, *,
                     seed: int = 0, ops: int = 2000, words: int = 1024,
                     locality: float = 0.9,
                     atomics: float = 0.10) -> WorkloadResult:
    failures: list = []
    chip = CCSVMChip(config)
    result = chip.run(_stream_program(seed, ops, words, failures,
                                      locality, atomics)())
    return WorkloadResult(system="ccsvm", workload=STREAM_WORKLOAD,
                          params={"ops": ops, "words": words,
                                  "locality": locality,
                                  "atomics": atomics},
                          time_ps=result.time_ps,
                          dram_accesses=result.dram_accesses,
                          verified=not failures,
                          counters=result.stats.to_dict())


@register_variant(STREAM_WORKLOAD, "pthreads",
                  description="the same deterministic reference stream on one "
                              "APU baseline CPU core")
def mem_stream_pthreads(config: Optional[APUSystemConfig] = None, *,
                        seed: int = 0, ops: int = 2000, words: int = 1024,
                        locality: float = 0.9,
                        atomics: float = 0.10) -> WorkloadResult:
    from repro.baseline.apu import AMDAPU

    failures: list = []
    machine = AMDAPU(config)
    result = machine.run_on_cpu(_stream_program(seed, ops, words, failures,
                                                locality, atomics)())
    return WorkloadResult(system="apu_pthreads", workload=STREAM_WORKLOAD,
                          params={"ops": ops, "words": words,
                                  "locality": locality,
                                  "atomics": atomics},
                          time_ps=result.time_ps,
                          dram_accesses=machine.dram.total_accesses,
                          verified=not failures,
                          counters=machine.stats.to_dict())


# --------------------------------------------------------------------------- #
# cache_replay — the near-free shape evaluator
# --------------------------------------------------------------------------- #
@register_variant(WORKLOAD, "ccsvm",
                  description="cache-only replay of a recorded trace through "
                              "a bare CCSVM hierarchy (no cores, no engine)")
def ccsvm_variant(config: Optional[CCSVMSystemConfig] = None, *,
                  seed: int = 0, trace: Union[Trace, str] = "trace.json",
                  engine: str = "batch") -> WorkloadResult:
    loaded = load_trace_cached(trace)
    result = replay_trace(loaded, config, engine=engine)
    return WorkloadResult(system="ccsvm_cache_replay", workload=WORKLOAD,
                          params={"workload": loaded.workload,
                                  **loaded.params},
                          time_ps=result.time_ps,
                          dram_accesses=result.dram_accesses,
                          verified=bool(loaded.meta.get("verified", True)),
                          counters=result.stats.to_dict())


@register_variant(WORKLOAD, "pthreads",
                  description="cache-only replay of a recorded host-only "
                              "trace through the APU cache hierarchy")
def pthreads_variant(config: Optional[APUSystemConfig] = None, *,
                     seed: int = 0, trace: Union[Trace, str] = "trace.json",
                     engine: str = "batch") -> WorkloadResult:
    loaded = load_trace_cached(trace)
    result = replay_trace_flat(loaded, config, engine=engine)
    return WorkloadResult(system="apu_cache_replay", workload=WORKLOAD,
                          params={"workload": loaded.workload,
                                  **loaded.params},
                          time_ps=result.time_ps,
                          dram_accesses=result.dram_accesses,
                          verified=bool(loaded.meta.get("verified", True)),
                          counters=result.stats.to_dict())
