"""Lazy per-set state behaves exactly like eagerly built sets.

``SetAssociativeCache`` creates a set's way dict and replacement policy at
the set's first fill.  This differential test drives it and an eager
shadow model -- every set's dict and policy built up front, one policy
object per set for the cache's lifetime -- with the same random sequences
of fills, lookups, probes, batch hits, evictions, flushes and refills, and
requires the same victims, the same returned blocks, the same resident
blocks in the same order and the same counters after every step.

It fails if sets share one policy, if ``flush_all`` re-creates a set's
policy (a ``random`` set's generator would restart) or drops a set's dict.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.block import CacheBlock
from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.replacement import make_replacement_policy
from repro.errors import CacheError
from repro.sim.stats import StatsRegistry

LINE = 64


class EagerCache:
    """Shadow tag store that builds every set's dict and policy up front."""

    def __init__(self, config: CacheConfig, stats: StatsRegistry) -> None:
        self.config = config
        self.stats = stats
        self.sets = [{} for _ in range(config.num_sets)]
        self.policies = [make_replacement_policy(config.replacement,
                                                 config.associativity)
                         for _ in range(config.num_sets)]
        self.where = {}

    def _count(self, event: str, amount: int = 1) -> None:
        self.stats.add(f"{self.config.name}.{event}", amount)

    def _set_index(self, line: int) -> int:
        return (line // self.config.line_size) % self.config.num_sets

    def lookup(self, address: int, record_miss: bool = True):
        where = self.where.get(address - address % self.config.line_size)
        if where is None:
            if record_miss:
                self._count("misses")
            return None
        set_index, way = where
        self.policies[set_index].touch(way)
        self._count("hits")
        return self.sets[set_index][way]

    def insert(self, address: int, state, dirty: bool):
        line = address - address % self.config.line_size
        if line in self.where:
            raise CacheError("inserted twice")
        set_index = self._set_index(line)
        ways = self.sets[set_index]
        policy = self.policies[set_index]
        way = policy.victim(list(ways))
        victim = None
        if len(ways) >= self.config.associativity:
            victim = ways.pop(way)
            del self.where[victim.line_address]
            self._count("evictions")
        block = CacheBlock(line_address=line, state=state, dirty=dirty)
        ways[way] = block
        self.where[line] = (set_index, way)
        policy.touch(way)
        self._count("fills")
        return block, victim

    def evict(self, address: int):
        where = self.where.pop(address - address % self.config.line_size, None)
        if where is None:
            return None
        set_index, way = where
        self._count("invalidations")
        return self.sets[set_index].pop(way)

    def blocks(self):
        return [block for ways in self.sets for block in ways.values()]

    def flush_all(self):
        blocks = self.blocks()
        for ways in self.sets:
            ways.clear()
        self.where.clear()
        self._count("flushes")
        return blocks


def _key(block):
    if block is None:
        return None
    return (block.line_address, block.state, block.dirty)


def _keys(blocks):
    return [_key(block) for block in blocks]


def _batch_hits(cache: SetAssociativeCache, addresses):
    """Gather the resident prefix of ``addresses`` and commit all of it."""
    stop, runs = cache.gather_batch(addresses, 0, len(addresses))
    cache.commit_batch(runs, 0, stop)
    return stop


def _shadow_batch_hits(shadow: EagerCache, addresses):
    """Per-access equivalent: hits up to the first miss, which records nothing."""
    for index, address in enumerate(addresses):
        if shadow.lookup(address, record_miss=False) is None:
            return index
    return len(addresses)


#: Op kinds, fills weighted up so that sets overflow and evict often.
_KINDS = ["insert"] * 4 + ["lookup", "probe", "evict", "batch", "flush",
                           "refill"]


@st.composite
def scenarios(draw):
    """A small geometry and an op sequence over three times its capacity."""
    policy = draw(st.sampled_from(["lru", "plru", "random"]))
    ways = draw(st.sampled_from([1, 2, 4] if policy == "plru" else [1, 2, 3, 4]))
    sets = draw(st.sampled_from([1, 2, 4]))
    line = st.integers(0, 3 * sets * ways - 1)
    ops = []
    for kind in draw(st.lists(st.sampled_from(_KINDS), min_size=20,
                              max_size=80)):
        if kind == "insert":
            ops.append((kind, draw(line), draw(st.sampled_from(["S", "M"])),
                        draw(st.booleans())))
        elif kind == "batch":
            ops.append((kind, draw(st.lists(line, min_size=1, max_size=5))))
        elif kind in ("flush", "refill"):
            ops.append((kind,))
        else:
            ops.append((kind, draw(line)))
    return (policy, sets, ways), ops


#: Fill two sets past capacity, flush, refill, then overflow both again:
#: random victims differ if the sets share a generator or if a flush
#: restarts one.
_OVERFLOW = [("insert", line, "S", False) for line in range(8)]
_MUTATION_EXAMPLE = (_OVERFLOW + [("flush",), ("refill",)]
                     + [("insert", line, "M", True) for line in range(8, 16)])


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
@example(scenario=(("random", 2, 2), _MUTATION_EXAMPLE))
@example(scenario=(("lru", 2, 2), _MUTATION_EXAMPLE))
@example(scenario=(("plru", 2, 2), _MUTATION_EXAMPLE))
def test_lazy_sets_match_eager_sets(scenario):
    (policy, sets, ways), ops = scenario
    config = CacheConfig(size_bytes=sets * ways * LINE, associativity=ways,
                         line_size=LINE, replacement=policy, name="c")
    lazy_stats, eager_stats = StatsRegistry(), StatsRegistry()
    cache = SetAssociativeCache(config, stats=lazy_stats)
    shadow = EagerCache(config, eager_stats)
    flushed = []

    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, index, state, dirty = op
            address = index * LINE
            if address in shadow.where:
                with pytest.raises(CacheError):
                    cache.insert(address, state=state, dirty=dirty)
                continue
            block, victim = cache.insert(address, state=state, dirty=dirty)
            expected_block, expected_victim = shadow.insert(address, state, dirty)
            assert (_key(block), _key(victim)) == \
                (_key(expected_block), _key(expected_victim))
        elif kind == "lookup":
            assert _key(cache.lookup(op[1] * LINE)) == \
                _key(shadow.lookup(op[1] * LINE))
        elif kind == "probe":
            address = op[1] * LINE
            expected = shadow.lookup(address, record_miss=False)
            assert _key(cache.probe(address)) == _key(expected)
        elif kind == "evict":
            assert _key(cache.evict(op[1] * LINE)) == \
                _key(shadow.evict(op[1] * LINE))
        elif kind == "batch":
            addresses = [index * LINE for index in op[1]]
            assert _batch_hits(cache, addresses) == \
                _shadow_batch_hits(shadow, addresses)
        elif kind == "flush":
            flushed = cache.flush_all()
            assert _keys(flushed) == _keys(shadow.flush_all())
        else:  # refill: bring back what the last flush wrote out
            for block in flushed:
                if block.line_address in shadow.where:
                    continue
                _, victim = cache.insert(block.line_address, state=block.state,
                                         dirty=block.dirty)
                _, expected = shadow.insert(block.line_address, block.state,
                                            block.dirty)
                assert _key(victim) == _key(expected)
        assert _keys(cache.blocks()) == _keys(shadow.blocks())
        assert len(cache) == len(shadow.where)
        assert list(lazy_stats.to_dict().items()) == \
            list(eager_stats.to_dict().items())
