"""Replacement policies for set-associative caches.

A policy manages the victim choice within one set.  Policies are small
objects holding only per-set ordering metadata; the tags themselves live
in :class:`~repro.caches.set_associative.SetAssociativeCache`.
"""

from __future__ import annotations

import abc
import random
from typing import List


class ReplacementPolicy(abc.ABC):
    """Victim selection and use-tracking for one cache set."""

    def __init__(self, ways: int) -> None:
        self.ways = ways

    @abc.abstractmethod
    def touch(self, way: int) -> None:
        """Record a hit on ``way``."""

    @abc.abstractmethod
    def fill(self, way: int) -> None:
        """Record that ``way`` was just filled."""

    @abc.abstractmethod
    def victim(self) -> int:
        """Choose the way to evict (called only when the set is full)."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used, tracked with an explicit recency list.

    ``_order[0]`` is the least recently used way.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._order: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        order = self._order
        order.remove(way)
        order.append(way)

    def fill(self, way: int) -> None:
        self.touch(way)

    def victim(self) -> int:
        return self._order[0]

    def recency_order(self) -> List[int]:
        """LRU-to-MRU way order (exposed for tests)."""
        return list(self._order)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: evict the oldest fill; hits do not reorder."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._next = 0

    def touch(self, way: int) -> None:
        pass

    def fill(self, way: int) -> None:
        if way == self._next:
            self._next = (self._next + 1) % self.ways

    def victim(self) -> int:
        return self._next


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim, with a per-policy deterministic stream."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = random.Random(seed)

    def touch(self, way: int) -> None:
        pass

    def fill(self, way: int) -> None:
        pass

    def victim(self) -> int:
        return self._rng.randrange(self.ways)


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def policy_class(name: str) -> type:
    """The policy class for ``name``; ``ValueError`` if unknown."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None


def make_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Create a policy by name: ``lru``, ``fifo``, or ``random``."""
    cls = policy_class(name)
    if cls is RandomPolicy:
        return RandomPolicy(ways, seed=seed)
    return cls(ways)
