"""Replacement policies for set-associative caches.

The paper's configuration does not name a replacement policy, so the default
everywhere is true LRU; tree-based pseudo-LRU and random are provided both
for ablations and because they are cheap to support once the policy is an
object the cache delegates to.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List

from repro.errors import CacheError


class ReplacementPolicy(ABC):
    """Chooses a victim way within one cache set.

    One policy instance manages one set of ``associativity`` ways.  The
    cache calls :meth:`touch` on every hit/fill and :meth:`victim` when it
    needs to evict.
    """

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise CacheError("associativity must be positive")
        self.associativity = associativity

    @abstractmethod
    def touch(self, way: int) -> None:
        """Record a reference to ``way``."""

    @abstractmethod
    def victim(self, occupied_ways: List[int]) -> int:
        """Choose the way to evict.  ``occupied_ways`` lists valid ways."""


class LRUReplacement(ReplacementPolicy):
    """True least-recently-used replacement."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._timestamps: Dict[int, int] = {}
        self._clock = 0

    def touch(self, way: int) -> None:
        self._clock += 1
        self._timestamps[way] = self._clock

    def victim(self, occupied_ways: List[int]) -> int:
        if len(occupied_ways) < self.associativity:
            # Prefer an empty way before evicting anything.
            for way in range(self.associativity):
                if way not in occupied_ways:
                    return way
        return min(occupied_ways, key=lambda way: self._timestamps.get(way, 0))


class PseudoLRUReplacement(ReplacementPolicy):
    """Tree-based pseudo-LRU (the policy most real L1s implement).

    Requires power-of-two associativity.  Maintains a binary tree of
    "direction" bits; a touch flips bits away from the touched way and a
    victim lookup follows the bits.
    """

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        if associativity & (associativity - 1):
            raise CacheError("pseudo-LRU requires power-of-two associativity")
        self._bits = [False] * max(1, associativity - 1)

    def touch(self, way: int) -> None:
        node = 0
        span = self.associativity
        while span > 1:
            half = span // 2
            go_right = way >= half
            self._bits[node] = not go_right
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                way -= half
            span = half

    def victim(self, occupied_ways: List[int]) -> int:
        if len(occupied_ways) < self.associativity:
            for way in range(self.associativity):
                if way not in occupied_ways:
                    return way
        node = 0
        way = 0
        span = self.associativity
        while span > 1:
            half = span // 2
            go_right = self._bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                way += half
            span = half
        return way


class RandomReplacement(ReplacementPolicy):
    """Random replacement with a seeded generator for reproducibility."""

    def __init__(self, associativity: int, seed: int = 0xC0FFEE) -> None:
        super().__init__(associativity)
        self._rng = random.Random(seed)

    def touch(self, way: int) -> None:
        # Random replacement keeps no recency state.
        return None

    def victim(self, occupied_ways: List[int]) -> int:
        if len(occupied_ways) < self.associativity:
            for way in range(self.associativity):
                if way not in occupied_ways:
                    return way
        return self._rng.choice(occupied_ways)


_POLICIES = {
    "lru": LRUReplacement,
    "plru": PseudoLRUReplacement,
    "random": RandomReplacement,
}


def make_replacement_policy(name: str, associativity: int) -> ReplacementPolicy:
    """Build a replacement policy by name (``"lru"``, ``"plru"``, ``"random"``)."""
    try:
        factory = _POLICIES[name.lower()]
    except KeyError:
        raise CacheError(
            f"unknown replacement policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
    return factory(associativity)
