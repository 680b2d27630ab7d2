"""A conventional direct-mapped cache (the paper's baseline)."""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from ..trace.reference import RefKind
from ..trace.trace import Trace
from .base import AccessResult, Cache
from .geometry import CacheGeometry
from .stats import CacheStats

_HIT = AccessResult(hit=True)
_COLD_MISS = AccessResult(hit=False)


class DirectMappedCache(Cache):
    """Direct-mapped cache with always-allocate replacement.

    Every miss stores the fetched line, displacing whatever was resident
    (the behaviour dynamic exclusion improves on).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        allocate_on_miss: bool = True,
        name: str = "",
    ) -> None:
        if geometry.associativity != 1:
            raise ValueError("DirectMappedCache requires associativity 1")
        super().__init__(geometry, name=name or "direct-mapped")
        #: Whether a miss stores the fetched line.  The two-level
        #: hierarchy sets this False on the L2 of an exclusive design
        #: (paper Section 5): lines then enter L2 only via
        #: :meth:`install_line` (L1 victims and bypassed words).
        self.allocate_on_miss = allocate_on_miss
        self._tags: List[Optional[int]] = [None] * geometry.num_sets
        self._index_mask = geometry.num_sets - 1
        self._offset_bits = geometry.offset_bits

    def _reset_state(self) -> None:
        self._tags = [None] * self.geometry.num_sets

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        index = line & self._index_mask
        stats = self.stats
        stats.accesses += 1
        tags = self._tags
        resident = tags[index]
        if resident == line:
            stats.hits += 1
            return _HIT
        stats.misses += 1
        if not self.allocate_on_miss:
            stats.bypasses += 1
            return AccessResult(hit=False, bypassed=True)
        tags[index] = line
        if resident is None:
            stats.cold_misses += 1
            return _COLD_MISS
        stats.evictions += 1
        return AccessResult(hit=False, evicted_line=resident)

    def simulate(self, trace: Trace) -> CacheStats:
        """Stats-only fast path over :meth:`access`.

        Same state transitions and counters, but no per-reference
        :class:`AccessResult` allocation (``simulate`` callers never see
        the per-access results).  Subclasses that override ``access``
        keep the generic base-class loop.
        """
        if type(self) is not DirectMappedCache:
            return super().simulate(trace)
        tags = self._tags
        mask = self._index_mask
        shift = self._offset_bits
        hits = cold = evictions = bypasses = 0
        if self.allocate_on_miss:
            for addr in trace.addrs.tolist():
                line = addr >> shift
                index = line & mask
                resident = tags[index]
                if resident == line:
                    hits += 1
                elif resident is None:
                    cold += 1
                    tags[index] = line
                else:
                    evictions += 1
                    tags[index] = line
        else:
            for addr in trace.addrs.tolist():
                line = addr >> shift
                if tags[line & mask] == line:
                    hits += 1
                else:
                    bypasses += 1
        accesses = len(trace)
        stats = self.stats
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += accesses - hits
        stats.cold_misses += cold
        stats.evictions += evictions
        stats.bypasses += bypasses
        return stats

    def install_line(self, line: int) -> Optional[int]:
        """Place ``line`` (a line address) without counting an access.

        Returns the displaced line address, if any.  Used by the
        hierarchy for victim transfers into an exclusive L2.
        """
        index = line & self._index_mask
        displaced = self._tags[index]
        self._tags[index] = line
        if displaced == line:
            return None
        return displaced

    def contains(self, addr: int) -> bool:
        # O(1) override of the base-class set construction: the two-level
        # hierarchy probes L2 residency on every L1 miss.
        line = addr >> self._offset_bits
        return self._tags[line & self._index_mask] == line

    def contains_line(self, line: int) -> bool:
        """O(1) residency check by line address."""
        return self._tags[line & self._index_mask] == line

    def resident_lines(self) -> FrozenSet[int]:
        return frozenset(tag for tag in self._tags if tag is not None)

    def is_empty(self) -> bool:
        tags = self._tags
        return tags.count(None) == len(tags)
