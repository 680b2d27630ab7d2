"""Dynamic exclusion for set-associative caches (extension).

The paper develops dynamic exclusion for direct-mapped caches; this
module provides the natural generalisation the paper's conclusion
gestures at: combine LRU victim selection with the sticky / hit-last
gate.  Each way carries its own sticky counter and hit-last copy; on a
miss the LRU way is the candidate victim, and the FSM decides whether
the incoming word is worth displacing it:

* incoming word's ``h`` bit set  -> replace the LRU way;
* LRU way unsticky               -> replace it (and optimistically mark
  the incoming word hit-last, the paper's ``A,!s -> B,s`` transition);
* otherwise                      -> bypass and decrement the LRU way's
  sticky counter.

With ``associativity == 1`` this reduces *exactly* to
:class:`~repro.core.exclusion_cache.DynamicExclusionCache` (the test
suite checks this differentially), so the class is a strict superset of
the paper's design.  Where it helps beyond LRU: cyclic patterns over
``ways + 1`` conflicting words, the set-associative analogue of the
paper's ``(ab)^n`` — plain LRU misses everything, exclusion pins
``ways`` of them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..caches.base import AccessResult, Cache
from ..caches.geometry import CacheGeometry
from ..trace.reference import RefKind
from .hitlast import HitLastStore, IdealHitLastStore

_HIT = AccessResult(hit=True)
_COLD_MISS = AccessResult(hit=False)
_BYPASS = AccessResult(hit=False, bypassed=True)


class _ExclusionSet:
    """One set: tags, per-way sticky/hit-last, LRU order."""

    __slots__ = ("tags", "sticky", "hl", "order")

    def __init__(self, ways: int) -> None:
        self.tags: List[Optional[int]] = [None] * ways
        self.sticky: List[int] = [0] * ways
        self.hl: List[bool] = [False] * ways
        # LRU-first list of way indices.
        self.order: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        self.order.remove(way)
        self.order.append(way)


class SetAssociativeExclusionCache(Cache):
    """LRU set-associative cache with the dynamic-exclusion gate."""

    def __init__(
        self,
        geometry: CacheGeometry,
        store: Optional[HitLastStore] = None,
        sticky_levels: int = 1,
        name: str = "",
    ) -> None:
        if sticky_levels < 1:
            raise ValueError("sticky_levels must be at least 1")
        super().__init__(
            geometry, name=name or f"exclusion-{geometry.associativity}-way"
        )
        self.store = store if store is not None else IdealHitLastStore()
        self.sticky_levels = sticky_levels
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.num_sets - 1
        # Set index -> state, materialised on first touch so building
        # even a 32k-set cache costs O(1).
        self._sets: Dict[int, _ExclusionSet] = {}

    def _reset_state(self) -> None:
        self._sets = {}
        self.store.reset()

    def is_empty(self) -> bool:
        # A set is only materialised by a miss that fills one of its ways.
        return not self._sets

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        index = line & self._index_mask
        stats = self.stats
        stats.accesses += 1
        try:
            cache_set = self._sets[index]
        except KeyError:
            cache_set = self._sets[index] = _ExclusionSet(self.geometry.associativity)
        tags = cache_set.tags
        try:
            way = tags.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            stats.hits += 1
            cache_set.touch(way)
            cache_set.sticky[way] = self.sticky_levels
            cache_set.hl[way] = True
            return _HIT
        stats.misses += 1
        try:
            empty = tags.index(None)
        except ValueError:
            empty = -1
        if empty >= 0:
            tags[empty] = line
            cache_set.sticky[empty] = self.sticky_levels
            cache_set.hl[empty] = True
            cache_set.touch(empty)
            stats.cold_misses += 1
            return _COLD_MISS
        victim = cache_set.order[0]
        victim_tag = tags[victim]
        store = self.store
        # FSM row order matters (see repro.core.fsm): an unsticky victim
        # is replaced with the incoming hl copy *set*, whereas the
        # hit-last gate loads with the copy *clear*.
        if cache_set.sticky[victim] == 0:
            store.update(victim_tag, cache_set.hl[victim])
            tags[victim] = line
            cache_set.sticky[victim] = self.sticky_levels
            cache_set.hl[victim] = True
            cache_set.touch(victim)
            stats.evictions += 1
            return AccessResult(hit=False, evicted_line=victim_tag)
        if store.lookup(line):
            # Hit-last gate: load despite stickiness; fresh copy clear.
            store.update(victim_tag, cache_set.hl[victim])
            tags[victim] = line
            cache_set.sticky[victim] = self.sticky_levels
            cache_set.hl[victim] = False
            cache_set.touch(victim)
            stats.evictions += 1
            return AccessResult(hit=False, evicted_line=victim_tag)
        cache_set.sticky[victim] -= 1
        stats.bypasses += 1
        return _BYPASS

    def contains(self, addr: int) -> bool:
        # O(ways) override of the base-class full scan.
        line = addr >> self._offset_bits
        cache_set = self._sets.get(line & self._index_mask)
        return cache_set is not None and line in cache_set.tags

    def resident_lines(self) -> FrozenSet[int]:
        return frozenset(
            tag
            for cache_set in self._sets.values()
            for tag in cache_set.tags
            if tag is not None
        )
