"""N-way set-associative cache (the organisation the paper compares
direct-mapped caches against)."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..trace.reference import RefKind
from .base import AccessResult, Cache
from .geometry import CacheGeometry
from .replacement import ReplacementPolicy, make_policy, policy_class

_HIT = AccessResult(hit=True)
_COLD_MISS = AccessResult(hit=False)


class SetAssociativeCache(Cache):
    """Set-associative cache with a pluggable replacement policy.

    Parameters
    ----------
    geometry:
        Must have ``associativity >= 1``.  With associativity 1 this
        behaves exactly like :class:`DirectMappedCache` (useful for
        cross-checking).
    policy:
        ``"lru"`` (default), ``"fifo"``, or ``"random"``.
    seed:
        Seed for the random policy.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: str = "lru",
        seed: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(geometry, name=name or f"{geometry.associativity}-way-{policy}")
        policy_class(policy)  # reject an unknown name here, not at first access
        self._policy_name = policy
        self._seed = seed
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.num_sets - 1
        # Set index -> (tags, policy), materialised on first touch so
        # building even a 32k-set cache costs O(1).
        self._sets: Dict[int, Tuple[List[Optional[int]], ReplacementPolicy]] = {}

    def _materialise(self, index: int) -> Tuple[List[Optional[int]], ReplacementPolicy]:
        ways = self.geometry.associativity
        entry = self._sets[index] = (
            [None] * ways,
            make_policy(self._policy_name, ways, seed=self._seed + index),
        )
        return entry

    def _reset_state(self) -> None:
        self._sets = {}

    @property
    def policy_name(self) -> str:
        """The replacement policy name this cache was built with."""
        return self._policy_name

    def is_empty(self) -> bool:
        # A set is only materialised by a miss that fills one of its ways.
        return not self._sets

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        index = line & self._index_mask
        stats = self.stats
        stats.accesses += 1
        try:
            tags, policy = self._sets[index]
        except KeyError:
            tags, policy = self._materialise(index)
        try:
            way = tags.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            stats.hits += 1
            policy.touch(way)
            return _HIT
        stats.misses += 1
        try:
            empty_way = tags.index(None)
        except ValueError:
            empty_way = -1
        if empty_way >= 0:
            tags[empty_way] = line
            policy.fill(empty_way)
            stats.cold_misses += 1
            return _COLD_MISS
        victim_way = policy.victim()
        evicted = tags[victim_way]
        tags[victim_way] = line
        policy.fill(victim_way)
        stats.evictions += 1
        return AccessResult(hit=False, evicted_line=evicted)

    def contains(self, addr: int) -> bool:
        # O(ways) override of the base-class full scan.
        line = addr >> self._offset_bits
        entry = self._sets.get(line & self._index_mask)
        return entry is not None and line in entry[0]

    def resident_lines(self) -> FrozenSet[int]:
        return frozenset(
            tag for tags, _ in self._sets.values() for tag in tags if tag is not None
        )


class FullyAssociativeCache(SetAssociativeCache):
    """A single-set LRU cache (used for capacity-miss classification)."""

    def __init__(self, size: int, line_size: int, policy: str = "lru", name: str = "") -> None:
        geometry = CacheGeometry.fully_associative(size, line_size)
        super().__init__(geometry, policy=policy, name=name or f"fully-associative-{policy}")
