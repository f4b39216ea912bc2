"""Tests for cache replacement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.replacement import (
    LRUReplacement,
    PseudoLRUReplacement,
    RandomReplacement,
    make_replacement_policy,
)
from repro.errors import CacheError


class TestFactory:
    def test_builds_each_policy(self):
        assert isinstance(make_replacement_policy("lru", 4), LRUReplacement)
        assert isinstance(make_replacement_policy("plru", 4), PseudoLRUReplacement)
        assert isinstance(make_replacement_policy("random", 4), RandomReplacement)

    def test_case_insensitive(self):
        assert isinstance(make_replacement_policy("LRU", 4), LRUReplacement)

    def test_unknown_rejected(self):
        with pytest.raises(CacheError):
            make_replacement_policy("fifo", 4)

    def test_bad_associativity_rejected(self):
        with pytest.raises(CacheError):
            LRUReplacement(0)


class TestLRU:
    def test_prefers_empty_way(self):
        policy = LRUReplacement(4)
        policy.touch(0)
        assert policy.victim([0]) in {1, 2, 3}

    def test_evicts_least_recently_touched(self):
        policy = LRUReplacement(2)
        policy.touch(0)
        policy.touch(1)
        policy.touch(0)
        assert policy.victim([0, 1]) == 1

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=50))
    def test_victim_is_always_a_valid_way(self, touches):
        policy = LRUReplacement(4)
        for way in touches:
            policy.touch(way)
        assert policy.victim([0, 1, 2, 3]) in {0, 1, 2, 3}

    @given(st.lists(st.integers(0, 7), min_size=8, max_size=60))
    def test_most_recently_touched_never_evicted(self, touches):
        policy = LRUReplacement(8)
        for way in touches:
            policy.touch(way)
        assert policy.victim(list(range(8))) != touches[-1]


class TestPseudoLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(CacheError):
            PseudoLRUReplacement(3)

    def test_prefers_empty_way(self):
        policy = PseudoLRUReplacement(4)
        assert policy.victim([0, 1]) in {2, 3}

    def test_most_recently_touched_not_immediately_evicted(self):
        policy = PseudoLRUReplacement(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        policy.touch(2)
        assert policy.victim([0, 1, 2, 3]) != 2

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    def test_victim_valid(self, touches):
        policy = PseudoLRUReplacement(4)
        for way in touches:
            policy.touch(way)
        assert policy.victim([0, 1, 2, 3]) in {0, 1, 2, 3}


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomReplacement(4, seed=1)
        b = RandomReplacement(4, seed=1)
        occupied = [0, 1, 2, 3]
        assert [a.victim(occupied) for _ in range(10)] == \
            [b.victim(occupied) for _ in range(10)]

    def test_prefers_empty_way(self):
        assert RandomReplacement(4).victim([0]) in {1, 2, 3}

    def test_victim_from_occupied(self):
        policy = RandomReplacement(2)
        assert policy.victim([0, 1]) in {0, 1}
