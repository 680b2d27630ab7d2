"""Hybrid: dynamic exclusion plus a victim buffer (extension).

The paper argues victim caches and dynamic exclusion attack different
conflict populations — small hot conflict sets vs the long tail of
instruction conflicts.  The obvious question is whether combining them
stacks the benefits: let the FSM keep the sticky winner resident *and*
catch its evicted rival in a small fully-associative buffer.

The composition is: a :class:`DynamicExclusionCache` whose evictions
fall into an LRU victim buffer; a reference that misses the main array
but hits the buffer swaps in (a hit, as in Jouppi's design) and counts
as a buffer hit.  Bypassed words are *not* placed in the buffer — the
FSM just decided they are not worth SRAM, which is exactly the filter a
victim buffer otherwise lacks.

``benchmarks/bench_ablation_victim.py`` compares the hybrid against
each mechanism alone.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, Optional

from ..caches.base import AccessResult, Cache
from ..caches.geometry import CacheGeometry
from ..caches.stats import ExclusionEvents
from ..trace.reference import RefKind
from .exclusion_cache import DynamicExclusionCache
from .hitlast import HitLastStore

_HIT = AccessResult(hit=True)


class ExclusionVictimCache(Cache):
    """Dynamic exclusion backed by an ``entries``-deep victim buffer."""

    def __init__(
        self,
        geometry: CacheGeometry,
        entries: int = 4,
        store: Optional[HitLastStore] = None,
        sticky_levels: int = 1,
        name: str = "",
    ) -> None:
        if entries < 1:
            raise ValueError("victim buffer needs at least one entry")
        super().__init__(geometry, name=name or f"exclusion+victim-{entries}")
        self.inner = DynamicExclusionCache(
            geometry, store=store, sticky_levels=sticky_levels
        )
        self.entries = entries
        self._offset_bits = geometry.offset_bits
        # line -> None, ordered LRU-first.
        self._buffer: "OrderedDict[int, None]" = OrderedDict()

    @property
    def events(self) -> Optional[ExclusionEvents]:
        return self.inner.events

    def _reset_state(self) -> None:
        self.inner.reset()
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
        stats = self.stats
        if self.inner.contains(addr):
            stats.accesses += 1
            stats.hits += 1
            self.inner.access(addr, kind)  # keep FSM/LRU state exact
            return _HIT
        if line in self._buffer:
            # Victim hit: swap into the main array through the FSM.  The
            # line was recently resident, so we re-install it directly
            # (the swap of Jouppi's design) rather than re-running the
            # bypass decision; whatever it displaces enters the buffer.
            stats.accesses += 1
            stats.hits += 1
            stats.buffer_hits += 1
            del self._buffer[line]
            result = self.inner.access(addr, kind)
            if result.miss and result.bypassed:
                # FSM kept it out; it stays the most recent victim.
                self._buffer_insert(line)
            elif result.evicted_line is not None:
                self._buffer_insert(result.evicted_line)
            return _HIT
        stats.accesses += 1
        result = self.inner.access(addr, kind)
        stats.misses += 1
        if result.bypassed:
            stats.bypasses += 1
        elif result.evicted_line is not None:
            stats.evictions += 1
            self._buffer_insert(result.evicted_line)
        elif result.miss:
            stats.cold_misses += 1
        return result

    def resident_lines(self) -> FrozenSet[int]:
        resident = set(self.inner.resident_lines())
        resident.update(self._buffer)
        return frozenset(resident)
