"""Belady-optimal caches with bypass.

The paper's "optimal direct-mapped cache" stores lines in the same
locations a direct-mapped cache would, but on each miss chooses between
replacing the resident line and *bypassing* (forwarding the word to the
CPU without storing it), retaining whichever line will be used sooner.
With next-use times known, the greedy rule — keep the line whose next
reference comes first — is optimal for each set independently (standard
exchange argument; sets do not interact in a direct-mapped cache).

:class:`OptimalCache` generalises the rule to any associativity: evict
the way with the farthest next use, but only if the incoming line's next
use is sooner than that.
"""

from __future__ import annotations

import sys
from typing import Dict, List

import numpy as np

from ..trace.trace import Trace
from .base import OfflineCache, simulate_line_events
from .geometry import CacheGeometry
from .stats import CacheStats

#: Sentinel next-use time for "never referenced again".
NEVER = sys.maxsize


def next_use_times(line_addrs: "np.ndarray | List[int]") -> List[int]:
    """For each position, the index of the next reference to the same
    line (:data:`NEVER` if there is none).  O(n) reverse scan."""
    if isinstance(line_addrs, np.ndarray):
        lines = line_addrs.tolist()
    else:
        lines = list(line_addrs)
    n = len(lines)
    next_use: List[int] = [NEVER] * n
    last_seen: Dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        line = lines[i]
        next_use[i] = last_seen.get(line, NEVER)
        last_seen[line] = i
    return next_use


class OptimalCache(OfflineCache):
    """Belady replacement with bypass, any associativity."""

    def __init__(self, geometry: CacheGeometry, name: str = "") -> None:
        super().__init__(geometry, name=name or f"optimal-{geometry.associativity}-way")

    def simulate(self, trace: Trace) -> CacheStats:
        geometry = self.geometry
        shift = np.uint64(geometry.offset_bits)
        lines = (trace.addrs >> shift).tolist()
        future = next_use_times(lines)
        mask = geometry.num_sets - 1
        ways = geometry.associativity

        if ways == 1:
            return self._simulate_direct_mapped(lines, future, mask)
        return self._simulate_associative(lines, future, mask, ways)

    def _simulate_direct_mapped(
        self, lines: List[int], future: List[int], mask: int
    ) -> CacheStats:
        stats = CacheStats()
        resident: Dict[int, int] = {}
        resident_next: Dict[int, int] = {}
        for i, line in enumerate(lines):
            index = line & mask
            stats.accesses += 1
            current = resident.get(index)
            if current == line:
                stats.hits += 1
                resident_next[index] = future[i]
                continue
            stats.misses += 1
            if current is None:
                stats.cold_misses += 1
                resident[index] = line
                resident_next[index] = future[i]
            elif future[i] < resident_next[index]:
                stats.evictions += 1
                resident[index] = line
                resident_next[index] = future[i]
            else:
                stats.bypasses += 1
        return stats

    def _simulate_associative(
        self, lines: List[int], future: List[int], mask: int, ways: int
    ) -> CacheStats:
        stats = CacheStats()
        # Per set: dict line -> next-use time of that resident line.
        sets: Dict[int, Dict[int, int]] = {}
        for i, line in enumerate(lines):
            index = line & mask
            stats.accesses += 1
            content = sets.setdefault(index, {})
            if line in content:
                stats.hits += 1
                content[line] = future[i]
                continue
            stats.misses += 1
            if len(content) < ways:
                stats.cold_misses += 1
                content[line] = future[i]
                continue
            victim = max(content, key=content.__getitem__)
            if future[i] < content[victim]:
                del content[victim]
                content[line] = future[i]
                stats.evictions += 1
            else:
                stats.bypasses += 1
        return stats


class OptimalDirectMappedCache(OptimalCache):
    """The paper's optimal direct-mapped comparison point."""

    def __init__(self, geometry: CacheGeometry, name: str = "") -> None:
        if geometry.associativity != 1:
            raise ValueError("OptimalDirectMappedCache requires associativity 1")
        super().__init__(geometry, name=name or "optimal-direct-mapped")


class OptimalLastLineCache(OfflineCache):
    """Optimal replacement-with-bypass over *line-reference events*.

    With multi-word lines, a naive Belady-with-bypass never bypasses:
    the sequential word that follows a fetch makes the new line's next
    use "immediate", so it always displaces the resident line.  The
    paper's Section 6 treats all consecutive references to one line as a
    single event (the last-line buffer serves the rest), and the optimal
    comparison point must be computed the same way.  This model runs
    :class:`OptimalCache` on the collapsed line-event stream; buffer
    hits (the collapsed-away references) are counted as hits.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "") -> None:
        super().__init__(geometry, name=name or "optimal-last-line")

    def simulate(self, trace: Trace) -> CacheStats:
        return simulate_line_events(
            trace, self.geometry.line_size, OptimalCache(self.geometry).simulate
        )
