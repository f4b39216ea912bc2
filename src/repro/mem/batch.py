"""The batched/columnar memory-access engine.

Every simulated memory operation normally pays a full Python call chain —
``port.load`` → TLB lookup → coherence probe → data access — and that
per-word host overhead, not the modeled hardware, bounds wall-clock time.
This engine amortizes the chain over *address vectors*: a core (or
workload) hands the port a whole batch of operations at once, and the
common case — TLB hit followed by an L1 hit with sufficient permission —
is classified and executed columnar.

Correctness argument (why results are bit-for-bit identical):

* The engine processes each batch as alternating *prefixes* and
  *residues*.  A prefix is the maximal run of ops, against the current
  TLB/cache state, that are pure fast-path hits; everything else (TLB
  miss, L1 miss, store upgrade from SHARED/OWNED, atomics) is residue and
  executes one-by-one through the *unchanged* scalar port methods.
* Within a prefix, hits never evict, invalidate, fault or downgrade:
  a load hit only touches replacement state, and a store hit's
  ``after_local_store`` transition (E→M, M→M) never *reduces* permission.
  Classifying the whole prefix against the gather-time state is therefore
  exactly equivalent to classifying op-by-op.
* The gather phases (``TLB.translate_batch``, ``cache.gather_batch``) are
  pure single passes that stop at the first non-resident page or line;
  commit applies LRU moves/touches once per same-page/same-line run
  (idempotent for recency) and counters in bulk, so the post-batch
  TLB/cache/counter state equals the scalar path's.
* Data reads/writes run in op order, so store→load forwarding inside a
  batch behaves exactly like the scalar sequence.

The engine disengages — falling back to a scalar loop over the same port
methods — when a port has no TLB, runs with ``fast_path=False``, has a
sequential-consistency checker attached, or has ``batch_enabled=False``
(the ``batch_access`` config knob).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.coherence.states import MOESIState

#: Operation kind codes used in batch columns.
OP_LOAD = 0
OP_STORE = 1
OP_ATOMIC_ADD = 2
OP_ATOMIC_CAS = 3

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_TWO_POW_64 = 1 << 64

# Enum members are singletons, so per-run permission classification is a
# couple of identity checks instead of an isinstance plus an enum property
# call (enum hashing and properties are Python-level and dominate the trim
# loop).  A non-MOESI (transient) state matches none of these, so it
# breaks the prefix exactly like the isinstance guard did.
_MODIFIED = MOESIState.MODIFIED
_OWNED = MOESIState.OWNED
_EXCLUSIVE = MOESIState.EXCLUSIVE
_SHARED = MOESIState.SHARED

#: A batch op: ``(kind, vaddr, operand_a, operand_b)``.  ``operand_a`` is
#: the stored value / atomic delta / CAS expected value; ``operand_b`` is
#: the CAS new value (0 otherwise).
BatchOp = Tuple[int, int, int, int]

#: Batch results: per-op values (None for stores) and latencies.
BatchResult = Tuple[List[object], List[int]]

# Shared zero column handed out by _zeros(): residue dispatch indexes the
# operand columns unconditionally instead of re-testing ``is not None`` per
# op.  Read-only by contract; grown on demand.
_ZEROS: List[int] = [0] * 1024

#: Adaptive bounds on the ops gathered per Phase B probe.  The gather
#: itself stops at the first L1 miss, but a trim stop (permission or
#: atomic) restarts one op later and re-scans what the window gathered
#: past it, so restart-heavy streams want it small; the fixed cost per
#: probe means clean streams want it large.  The span quarters on every
#: restart and doubles on every completed window.
_GATHER_SPAN_MIN = 32
_GATHER_SPAN_MAX = 1024


def _zeros(n: int) -> List[int]:
    """A shared all-zero column of length >= n (never mutated by callers)."""
    global _ZEROS
    if len(_ZEROS) < n:
        _ZEROS = [0] * n
    return _ZEROS


def _trim_mixed(kinds: Sequence[int], line_runs, i: int, l1_stop: int):
    """Per-op prefix trim for mixed-kind segments.

    Returns ``(stop, store_count, store_runs)`` — the fast-hit prefix end,
    the number of stores inside it, and the line runs containing stores.
    """
    stop = l1_stop
    store_count = 0
    store_runs = []
    broke = False
    for run in line_runs:
        run_lo, run_hi = run[0] + i, run[1] + i
        if run_lo >= stop:
            break
        state = run[4].state
        can_write = state is _MODIFIED or state is _EXCLUSIVE
        if not (can_write or state is _SHARED or state is _OWNED):
            stop = run_lo
            break
        has_store = False
        for j in range(run_lo, min(run_hi, stop)):
            k = kinds[j]
            if k == OP_LOAD:
                continue
            if k == OP_STORE and can_write:
                has_store = True
                store_count += 1
                continue
            stop = j
            broke = True
            break
        if has_store:
            store_runs.append(run)
        if broke:
            break
    return stop, store_count, store_runs


def _scalar_op(port, kind: int, vaddr: int, a: int, b: int):
    """Execute one op through the unchanged scalar port methods."""
    if kind == OP_LOAD:
        return port.load(vaddr)
    if kind == OP_STORE:
        return None, port.store(vaddr, a)
    if kind == OP_ATOMIC_ADD:
        return port.atomic_add(vaddr, a)
    if kind == OP_ATOMIC_CAS:
        return port.atomic_cas(vaddr, a, b)
    raise ValueError(f"unknown batch op kind {kind!r}")


def scalar_run_batch(port, vaddrs: Sequence[int],
                     kinds: Optional[Sequence[int]],
                     vals: Optional[Sequence[int]],
                     vals2: Optional[Sequence[int]]) -> BatchResult:
    """Reference implementation: a plain loop over the scalar port methods.

    Works against any :class:`~repro.mem.port.MemoryPort`; used when the
    columnar engine is disengaged and as the equivalence-test oracle.
    """
    n = len(vaddrs)
    values: List[object] = [None] * n
    lats = [0] * n
    if kinds is None:
        load = port.load
        for i in range(n):
            values[i], lats[i] = load(vaddrs[i])
        return values, lats
    for i in range(n):
        values[i], lats[i] = _scalar_op(
            port, kinds[i], vaddrs[i],
            vals[i] if vals is not None else 0,
            vals2[i] if vals2 is not None else 0)
    return values, lats


# --------------------------------------------------------------------------- #
# CCSVM coherent port engine
# --------------------------------------------------------------------------- #
def run_ccsvm_batch(port, vaddrs: Sequence[int],
                    kinds: Optional[Sequence[int]],
                    vals: Optional[Sequence[int]],
                    vals2: Optional[Sequence[int]]) -> BatchResult:
    """Run a batch against a :class:`~repro.mem.port.CoreMemoryPort`.

    ``kinds is None`` means every op is a load (the ``load_batch`` fast
    lane).  The caller guarantees the port is batch-eligible (TLB present
    with standard pages, fast path on, no SC checker).
    """
    n = len(vaddrs)
    values: List[object] = [None] * n
    lats = [0] * n
    if n == 0:
        return values, lats

    tlb = port.tlb
    coherence = port.coherence
    info = coherence._l1s.get(port.node)
    if info is None:
        # Match the scalar path's error for an unregistered node.
        return scalar_run_batch(port, vaddrs, kinds, vals, vals2)
    cache = info.cache
    hit_ps = info.hit_latency_ps
    stats = coherence.stats
    words = port.physical_memory._words

    if kinds is not None:
        # Pre-slice the operand columns once so residue dispatch indexes
        # them directly instead of re-testing ``is not None`` per op.
        if vals is None:
            vals = _zeros(n)
        if vals2 is None:
            vals2 = _zeros(n)

    # Cached Phase A translation for ops [tr_base, tr_stop).  A residue
    # op inside the span has a mapped page, so its scalar retry is a TLB
    # *hit* — an LRU touch, never a fill or eviction — which keeps the
    # span valid across mid-segment stops.  Entries only change on the
    # miss path, where ``i`` has reached ``tr_stop`` and the next
    # iteration re-translates anyway.
    tr_base = 0
    tr_stop = 0
    tr_runs: List = []
    tr_paddrs: Sequence[int] = []
    tr_ptr = 0
    span = _GATHER_SPAN_MAX

    i = 0
    while i < n:
        kind = kinds[i] if kinds is not None else OP_LOAD
        if kind == OP_ATOMIC_ADD or kind == OP_ATOMIC_CAS:
            # Atomics are always residue: the scalar path handles both the
            # L1-hit and the transaction case identically either way.
            values[i], lats[i] = _scalar_op(
                port, kind, vaddrs[i], vals[i], vals2[i])
            i += 1
            continue

        # Phase A: pure TLB gather, reused across restarts (see above).
        if i >= tr_stop:
            tr_base = i
            tr_stop, tr_runs, tr_paddrs = tlb.translate_batch(vaddrs, i, n)
            tr_ptr = 0
            if tr_stop == i:
                # TLB miss: the scalar retry records the miss and walks.
                values[i], lats[i] = _scalar_op(
                    port, kind, vaddrs[i],
                    vals[i] if vals is not None else 0, 0)
                i += 1
                continue

        # Phase B: pure L1 gather over a bounded window of the cached
        # physical addresses.  The window cap keeps a mid-segment stop
        # from making the next iteration re-scan the whole span; hitting
        # the cap just continues the loop from there (no residue op).
        seg_end = tr_stop if tr_stop <= i + span else i + span
        rel = i - tr_base
        paddrs = tr_paddrs[rel:rel + (seg_end - i)]
        l1_stop, line_runs = cache.gather_batch(paddrs, 0, seg_end - i)
        l1_stop += i

        # Phase C: trim to the fast-hit prefix (MOESI permission and op
        # kind), using gather-time state — sound because hit transitions
        # never reduce permission.
        stop = l1_stop
        store_count = 0
        store_runs = []
        if kinds is None:
            for run in line_runs:
                state = run[4].state
                if not (state is _MODIFIED or state is _EXCLUSIVE
                        or state is _SHARED or state is _OWNED):
                    stop = run[0] + i
                    break
        else:
            stop, store_count, store_runs = _trim_mixed(
                kinds, line_runs, i, l1_stop)

        if stop > i:
            count = stop - i
            # Commit: LRU/touches + hit counters for exactly [i, stop).
            # ``tr_ptr`` (monotonic — ``i`` only advances) skips cached
            # page runs wholly behind ``i``, whose LRU moves were already
            # committed with earlier segments.
            while tr_runs[tr_ptr][1] <= i:
                tr_ptr += 1
            tlb.commit_batch(tr_runs, i, stop, first=tr_ptr)
            cache.commit_batch(line_runs, 0, stop - i)
            stats.add("coherence.l1_hits", count)
            if store_count:
                stats.add("coherence.accesses.store", store_count)
            if count - store_count:
                stats.add("coherence.accesses.load", count - store_count)
            for run in store_runs:
                block = run[4]
                # Phase C verified write permission, and after_local_store
                # is MODIFIED from every writable state.
                block.state = MOESIState.MODIFIED
                block.dirty = True
            # Data movement; latency is the constant L1 hit.
            lats[i:stop] = [hit_ps] * count
            get = words.get
            if kinds is None or store_count == 0:
                values[i:stop] = [
                    word - _TWO_POW_64
                    if (word := get(pa & ~7, 0)) >= _SIGN_BIT else word
                    for pa in (paddrs if count == len(paddrs)
                               else paddrs[:count])
                ]
            else:
                for j, pa in zip(range(i, stop), paddrs):
                    pa &= ~7
                    if kinds[j] == OP_LOAD:
                        word = get(pa, 0)
                        values[j] = word - _TWO_POW_64 if word >= _SIGN_BIT \
                            else word
                    else:
                        words[pa] = vals[j] & _WORD_MASK

        if stop < seg_end:
            # L1 miss / upgrade / non-MOESI state: the scalar retry redoes
            # the TLB lookup (one hit, like the scalar sequence would
            # record) and takes the identical slow path.
            if span > _GATHER_SPAN_MIN:
                shrunk = span >> 2
                span = shrunk if shrunk > _GATHER_SPAN_MIN \
                    else _GATHER_SPAN_MIN
            k = kinds[stop] if kinds is not None else OP_LOAD
            values[stop], lats[stop] = _scalar_op(
                port, k, vaddrs[stop],
                vals[stop] if vals is not None else 0,
                vals2[stop] if vals2 is not None else 0)
            i = stop + 1
        else:
            if span < _GATHER_SPAN_MAX:
                span <<= 1
            i = seg_end
    return values, lats


# --------------------------------------------------------------------------- #
# APU flat-memory port engine
# --------------------------------------------------------------------------- #
def run_flat_batch(port, vaddrs: Sequence[int],
                   kinds: Optional[Sequence[int]],
                   vals: Optional[Sequence[int]],
                   vals2: Optional[Sequence[int]]) -> BatchResult:
    """Run a batch against a :class:`~repro.baseline.cpu.BaselineCPUPort`.

    The APU hierarchy has no translation and no coherence permissions: the
    fast prefix is simply "line resident in the first level", with the
    level's hit latency and a dirty bit for stores — exactly what
    :meth:`~repro.mem.private.PrivateHierarchy.access` does on a hit.
    Misses and atomics drop to the scalar port methods.
    """
    n = len(vaddrs)
    values: List[object] = [None] * n
    lats = [0] * n
    if n == 0:
        return values, lats

    first = port.hierarchy.levels[0]
    cache = first.cache
    hit_ps = first.hit_latency_ps
    words = port.memory._words

    if kinds is not None:
        if vals is None:
            vals = _zeros(n)
        if vals2 is None:
            vals2 = _zeros(n)

    span = _GATHER_SPAN_MAX
    i = 0
    while i < n:
        kind = kinds[i] if kinds is not None else OP_LOAD
        if kind == OP_ATOMIC_ADD or kind == OP_ATOMIC_CAS:
            values[i], lats[i] = _scalar_op(
                port, kind, vaddrs[i], vals[i], vals2[i])
            i += 1
            continue

        # Adaptive gather window, as in the CCSVM engine: restarts shrink
        # it so they re-scan little, completed windows grow it back so
        # clean streams amortize the per-probe cost.  Hitting the cap
        # just continues the loop from there.
        hi = n if n <= i + span else i + span
        stop, line_runs = cache.gather_batch(vaddrs, i, hi)
        if kinds is not None:
            # The gather is kind-blind; an atomic inside the resident
            # prefix must still drop to the scalar port, so trim to it.
            for j in range(i, stop):
                k = kinds[j]
                if k != OP_LOAD and k != OP_STORE:
                    stop = j
                    break
        if stop > i:
            cache.commit_batch(line_runs, i, stop)
            get = words.get
            if kinds is None:
                lats[i:stop] = [hit_ps] * (stop - i)
                values[i:stop] = [get(va & ~7, 0) for va in vaddrs[i:stop]]
            else:
                for run_lo, run_hi, _si, _way, block in line_runs:
                    run_hi = min(run_hi, stop)
                    if run_lo >= stop:
                        break
                    for j in range(run_lo, run_hi):
                        if kinds[j] == OP_LOAD:
                            values[j] = get(vaddrs[j] & ~7, 0)
                        else:
                            words[vaddrs[j] & ~7] = vals[j]
                            block.dirty = True
                        lats[j] = hit_ps
        if stop < hi:
            if span > _GATHER_SPAN_MIN:
                shrunk = span >> 2
                span = shrunk if shrunk > _GATHER_SPAN_MIN \
                    else _GATHER_SPAN_MIN
            if kinds is None:
                values[stop], lats[stop] = port.load(vaddrs[stop])
            else:
                values[stop], lats[stop] = _scalar_op(
                    port, kinds[stop], vaddrs[stop], vals[stop], vals2[stop])
            i = stop + 1
        else:
            if span < _GATHER_SPAN_MAX:
                span <<= 1
            i = stop
    return values, lats


# --------------------------------------------------------------------------- #
# Tuple-batch convenience (MemoryPort.run_batch)
# --------------------------------------------------------------------------- #
def split_ops(ops: Sequence[BatchOp]):
    """Split ``(kind, vaddr, a, b)`` tuples into columns.

    Returns ``(vaddrs, kinds, vals, vals2)`` with ``kinds`` collapsed to
    ``None`` when every op is a load.
    """
    if not ops:
        return [], None, None, None
    kinds, vaddrs, vals, vals2 = map(list, zip(*ops))
    if not any(kinds):
        return vaddrs, None, None, None
    return vaddrs, kinds, vals, vals2
