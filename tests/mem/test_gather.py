"""The batch engine's pure gathers against a per-op reference.

``TLB.translate_batch`` and ``SetAssociativeCache.gather_batch`` make one
pass over a window ``[lo, hi)`` of addresses, group consecutive ops on the
same page / line into runs, and stop at the first non-resident one.  Each
property below checks them against a plain per-op loop over the scalar
probes (``TLB._entries.get`` / ``cache.peek``) on randomly populated
structures, and checks that a gather changes nothing: LRU order,
replacement state and every counter are as they were.
"""

import pickle

from hypothesis import example, given, settings, strategies as st

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.memory.address import PAGE_SIZE
from repro.sim.stats import StatsRegistry
from repro.vm.tlb import TLB

#: Pages / lines a window draws from; only some of them are resident.
PAGES = 10
LINES = 24
LINE = 64

_window = st.lists(st.tuples(st.integers(0, PAGES - 1),
                             st.lists(st.integers(0, PAGE_SIZE - 1),
                                      min_size=1, max_size=4)),
                   max_size=8)
_edges = st.lists(st.integers(0, PAGES * PAGE_SIZE - 1), max_size=3)


def _expand(runs, unit):
    """``[(slot, [offsets])]`` -> one address per offset, slot-major."""
    return [slot * unit + offset % unit for slot, offsets in runs
            for offset in offsets]


# --------------------------------------------------------------------------- #
# TLB
# --------------------------------------------------------------------------- #
def _populated_tlb(resident, touches):
    stats = StatsRegistry()
    tlb = TLB(entries=PAGES, stats=stats, name="t")
    for vpn in resident:
        tlb.insert(vpn, (vpn * 7 + 3) * PAGE_SIZE, writable=vpn % 2 == 0)
    for vpn in touches:
        tlb.lookup(vpn * PAGE_SIZE)
    return tlb, stats


def _reference_translate(tlb, vaddrs, lo, hi):
    runs, paddrs = [], []
    for index in range(lo, hi):
        vpn = vaddrs[index] // PAGE_SIZE
        entry = tlb._entries.get(vpn)
        if entry is None:
            return index, runs, paddrs
        if runs and runs[-1][2] == vpn:
            runs[-1] = (runs[-1][0], index + 1, vpn)
        else:
            runs.append((index, index + 1, vpn))
        paddrs.append(entry.physical_address(vaddrs[index]))
    return hi, runs, paddrs


_TLB_RESIDENT = [0, 1, 3, 4, 7]


@settings(max_examples=150, deadline=None)
@given(resident=st.sets(st.integers(0, PAGES - 1)),
       touches=st.lists(st.integers(0, PAGES - 1), max_size=6),
       prefix=_edges, body=_window, suffix=_edges)
@example(resident=_TLB_RESIDENT, touches=[], prefix=[], body=[], suffix=[])
@example(resident=_TLB_RESIDENT, touches=[], prefix=[5], body=[(3, [9])],
         suffix=[])
@example(resident=_TLB_RESIDENT, touches=[1], prefix=[],
         body=[(2, [0]), (0, [8, 16])], suffix=[])
@example(resident=_TLB_RESIDENT, touches=[0], prefix=[PAGE_SIZE],
         body=[(0, [1, 2]), (1, [3]), (5, [4, 5]), (3, [6])],
         suffix=[4 * PAGE_SIZE])
@example(resident=_TLB_RESIDENT, touches=[4, 1], prefix=[],
         body=[(0, [10, 20]), (4, [30]), (0, [40]), (7, [50, 60, 70])],
         suffix=[])
def test_translate_batch_matches_per_op_reference(resident, touches, prefix,
                                                  body, suffix):
    tlb, stats = _populated_tlb(sorted(resident), touches)
    vaddrs = prefix + _expand(body, PAGE_SIZE) + suffix
    lo, hi = len(prefix), len(vaddrs) - len(suffix)
    lru_before = list(tlb._entries.items())
    stats_before = stats.to_dict()

    stop, runs, paddrs = tlb.translate_batch(vaddrs, lo, hi)

    assert (stop, runs, list(paddrs)) == \
        _reference_translate(tlb, vaddrs, lo, hi)
    assert list(tlb._entries.items()) == lru_before
    assert stats.to_dict() == stats_before


# --------------------------------------------------------------------------- #
# L1 tag store
# --------------------------------------------------------------------------- #
def _populated_cache(policy, lines, touches):
    stats = StatsRegistry()
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=1024, associativity=2, line_size=LINE,
                    replacement=policy, name="c"), stats=stats)
    for line in lines:
        if cache.peek(line * LINE) is None:
            cache.insert(line * LINE, state=line % 3)
    for line in touches:
        cache.lookup(line * LINE)
    return cache, stats


def _reference_gather(cache, addresses, lo, hi):
    runs = []
    for index in range(lo, hi):
        block = cache.peek(addresses[index])
        if block is None:
            return index, runs
        if runs and runs[-1][4] is block:
            runs[-1] = runs[-1][:1] + (index + 1,) + runs[-1][2:]
            continue
        set_index = cache.set_index(block.line_address)
        ways = cache._sets[set_index]
        way = next(w for w, resident in ways.items() if resident is block)
        runs.append((index, index + 1, set_index, way, block))
    return hi, runs


def _replacement_state(cache):
    return pickle.dumps(cache._policies)


_CACHE_LINES = [0, 1, 2, 3, 4, 5, 9, 12]


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(["lru", "plru", "random"]),
       lines=st.lists(st.integers(0, LINES - 1), max_size=16),
       touches=st.lists(st.integers(0, LINES - 1), max_size=6),
       prefix=st.lists(st.integers(0, LINES * LINE - 1), max_size=3),
       body=st.lists(st.tuples(st.integers(0, LINES - 1),
                               st.lists(st.integers(0, LINE - 1),
                                        min_size=1, max_size=4)),
                     max_size=8),
       suffix=st.lists(st.integers(0, LINES * LINE - 1), max_size=3))
@example(policy="lru", lines=_CACHE_LINES, touches=[], prefix=[], body=[],
         suffix=[])
@example(policy="plru", lines=_CACHE_LINES, touches=[], prefix=[LINE],
         body=[(12, [8])], suffix=[])
@example(policy="lru", lines=_CACHE_LINES, touches=[3], prefix=[],
         body=[(20, [0]), (1, [8, 16])], suffix=[])
@example(policy="lru", lines=_CACHE_LINES, touches=[0, 4], prefix=[2 * LINE],
         body=[(0, [1, 2]), (1, [3]), (17, [4, 5]), (2, [6])],
         suffix=[3 * LINE])
@example(policy="plru", lines=_CACHE_LINES, touches=[9], prefix=[],
         body=[(0, [10, 20]), (4, [30]), (0, [40]), (9, [50, 60, 7])],
         suffix=[])
def test_gather_batch_matches_per_op_reference(policy, lines, touches, prefix,
                                               body, suffix):
    cache, stats = _populated_cache(policy, lines, touches)
    addresses = prefix + _expand(body, LINE) + suffix
    lo, hi = len(prefix), len(addresses) - len(suffix)
    where_before = dict(cache._where)
    replacement_before = _replacement_state(cache)
    stats_before = stats.to_dict()

    stop, runs = cache.gather_batch(addresses, lo, hi)

    assert (stop, runs) == _reference_gather(cache, addresses, lo, hi)
    assert cache._where == where_before
    assert _replacement_state(cache) == replacement_before
    assert stats.to_dict() == stats_before
