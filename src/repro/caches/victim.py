"""Victim cache (Jouppi 1990), the related-work comparison point.

A direct-mapped L1 backed by a small fully-associative buffer that holds
recently evicted lines.  A reference that misses L1 but hits the victim
buffer swaps the two lines and is counted as a hit (``buffer_hits``
records how many hits came from the buffer).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, List, Optional

from ..trace.reference import RefKind
from .base import AccessResult, Cache
from .geometry import CacheGeometry

_HIT = AccessResult(hit=True)
_COLD_MISS = AccessResult(hit=False)


class VictimCache(Cache):
    """Direct-mapped cache plus an ``entries``-deep victim buffer."""

    def __init__(self, geometry: CacheGeometry, entries: int = 4, name: str = "") -> None:
        if geometry.associativity != 1:
            raise ValueError("VictimCache requires a direct-mapped geometry")
        if entries < 1:
            raise ValueError("victim buffer needs at least one entry")
        super().__init__(geometry, name=name or f"victim-{entries}")
        self.entries = entries
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.num_sets - 1
        self._tags: List[Optional[int]] = [None] * geometry.num_sets
        # line -> None, ordered LRU-first.
        self._buffer: "OrderedDict[int, None]" = OrderedDict()

    def _reset_state(self) -> None:
        self._tags = [None] * self.geometry.num_sets
        self._buffer = OrderedDict()

    def _buffer_insert(self, line: int) -> None:
        buffer = self._buffer
        if line in buffer:
            buffer.move_to_end(line)
            return
        if len(buffer) >= self.entries:
            buffer.popitem(last=False)
        buffer[line] = None

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
        buffer = self._buffer
        if line in buffer:
            # Swap: the victim-buffer line moves into L1, the displaced
            # L1 line takes its place in the buffer.
            stats.hits += 1
            stats.buffer_hits += 1
            del buffer[line]
            tags[index] = line
            if resident is not None:
                self._buffer_insert(resident)
            return _HIT
        stats.misses += 1
        tags[index] = line
        if resident is None:
            stats.cold_misses += 1
            return _COLD_MISS
        stats.evictions += 1
        self._buffer_insert(resident)
        return AccessResult(hit=False, evicted_line=resident)

    def resident_lines(self) -> FrozenSet[int]:
        resident = {tag for tag in self._tags if tag is not None}
        resident.update(self._buffer)
        return frozenset(resident)

    def is_empty(self) -> bool:
        tags = self._tags
        return not self._buffer and tags.count(None) == len(tags)
