"""The dynamic-exclusion direct-mapped cache (the paper's contribution).

This is the reference model, the oracle that the compiled kernel
(:func:`repro.perf.kernels.simulate_dynamic_exclusion`, which the fast
engine runs) is differentially tested against: a direct-mapped cache
whose replacement decisions follow the FSM of :mod:`repro.core.fsm`.
``access`` writes the FSM's transitions out instead of calling
:meth:`repro.core.fsm.DynamicExclusionFSM.step`;
``tests/core/test_exclusion_cache.py`` checks this implementation
reference-by-reference against the readable FSM.

Each geometry *line* is one exclusion unit.  With ``line_size=4`` every
line is a single instruction — the paper's Sections 3-5 configuration.
For longer lines, wrap this cache in
:class:`repro.core.long_lines.LastLineBufferCache` (Section 6).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from ..caches.base import AccessResult, Cache
from ..caches.geometry import CacheGeometry
from ..caches.stats import CacheStats, ExclusionEvents
from ..trace.reference import RefKind
from ..trace.trace import Trace
from .fsm import LineState
from .hitlast import HitLastStore, IdealHitLastStore

_HIT = AccessResult(hit=True)
_COLD_MISS = AccessResult(hit=False)
_BYPASS = AccessResult(hit=False, bypassed=True)


class DynamicExclusionCache(Cache):
    """Direct-mapped cache with the dynamic-exclusion replacement policy.

    Parameters
    ----------
    geometry:
        Must be direct-mapped (associativity 1).
    store:
        Hit-last backing store; defaults to a fresh
        :class:`~repro.core.hitlast.IdealHitLastStore`.
    sticky_levels:
        1 for the paper's single sticky bit; more for the multi-sticky
        extension.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        store: Optional[HitLastStore] = None,
        sticky_levels: int = 1,
        name: str = "",
    ) -> None:
        if geometry.associativity != 1:
            raise ValueError("DynamicExclusionCache requires associativity 1")
        if sticky_levels < 1:
            raise ValueError("sticky_levels must be at least 1")
        super().__init__(geometry, name=name or "dynamic-exclusion")
        self.store = store if store is not None else IdealHitLastStore()
        self.sticky_levels = sticky_levels
        #: Paper-mechanism event counts (FSM rows 4/5 and store flips);
        #: accumulated alongside ``stats``, cleared by :meth:`reset`.
        self.events = ExclusionEvents()
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.num_sets - 1
        sets = geometry.num_sets
        self._tags: List[Optional[int]] = [None] * sets
        self._sticky: List[int] = [0] * sets
        self._hl: List[bool] = [False] * sets

    def _reset_state(self) -> None:
        sets = self.geometry.num_sets
        self._tags = [None] * sets
        self._sticky = [0] * sets
        self._hl = [False] * sets
        self.store.reset()
        self.events = ExclusionEvents()

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        index = line & self._index_mask
        stats = self.stats
        stats.accesses += 1
        tags = self._tags
        resident = tags[index]
        if resident == line:
            stats.hits += 1
            self._sticky[index] = self.sticky_levels
            self._hl[index] = True
            return _HIT
        stats.misses += 1
        if resident is None:
            stats.cold_misses += 1
            tags[index] = line
            self._sticky[index] = self.sticky_levels
            self._hl[index] = True
            return _COLD_MISS
        store = self.store
        events = self.events
        if self._sticky[index] == 0:
            # Unsticky resident: replace, and optimistically mark the
            # incoming word hit-last (paper's A,!s -> B,s transition).
            # (``lookup`` is a pure read on every store, so the flip
            # check cannot perturb the simulation.)
            if store.lookup(resident) != self._hl[index]:
                events.exclusion_flips += 1
            store.update(resident, self._hl[index])
            tags[index] = line
            self._sticky[index] = self.sticky_levels
            self._hl[index] = True
            stats.evictions += 1
            return AccessResult(hit=False, evicted_line=resident)
        if store.lookup(line):
            # Sticky resident, but the incoming word hit last time it
            # was cached: load it anyway.  Its fresh hl copy starts at 0
            # so that if it leaves without hitting, its bit is reset.
            events.hit_last_loads += 1
            if store.lookup(resident) != self._hl[index]:
                events.exclusion_flips += 1
            store.update(resident, self._hl[index])
            tags[index] = line
            self._sticky[index] = self.sticky_levels
            self._hl[index] = False
            stats.evictions += 1
            return AccessResult(hit=False, evicted_line=resident)
        # Sticky resident wins: bypass the incoming word.
        self._sticky[index] -= 1
        stats.bypasses += 1
        events.sticky_saves += 1
        return _BYPASS

    def simulate(self, trace: Trace) -> CacheStats:
        """Stats-only fast path over :meth:`access`.

        Identical FSM transitions and store traffic, but no per-reference
        :class:`AccessResult` allocation and no method-call overhead per
        reference.  Subclasses that override ``access`` keep the generic
        base-class loop.
        """
        if type(self) is not DynamicExclusionCache:
            return super().simulate(trace)
        tags = self._tags
        sticky = self._sticky
        hl = self._hl
        store = self.store
        lookup = store.lookup
        update = store.update
        mask = self._index_mask
        shift = self._offset_bits
        sticky_max = self.sticky_levels
        hits = cold = evictions = bypasses = 0
        hit_last_loads = flips = 0
        for addr in trace.addrs.tolist():
            line = addr >> shift
            index = line & mask
            resident = tags[index]
            if resident == line:
                hits += 1
                sticky[index] = sticky_max
                hl[index] = True
            elif resident is None:
                cold += 1
                tags[index] = line
                sticky[index] = sticky_max
                hl[index] = True
            elif sticky[index] == 0:
                if lookup(resident) != hl[index]:
                    flips += 1
                update(resident, hl[index])
                tags[index] = line
                sticky[index] = sticky_max
                hl[index] = True
                evictions += 1
            elif lookup(line):
                hit_last_loads += 1
                if lookup(resident) != hl[index]:
                    flips += 1
                update(resident, hl[index])
                tags[index] = line
                sticky[index] = sticky_max
                hl[index] = False
                evictions += 1
            else:
                sticky[index] -= 1
                bypasses += 1
        accesses = len(trace)
        stats = self.stats
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += accesses - hits
        stats.cold_misses += cold
        stats.evictions += evictions
        stats.bypasses += bypasses
        events = self.events
        events.sticky_saves += bypasses
        events.hit_last_loads += hit_last_loads
        events.exclusion_flips += flips
        ExclusionEvents(
            sticky_saves=bypasses,
            hit_last_loads=hit_last_loads,
            exclusion_flips=flips,
        ).publish(trace.name, engine="reference")
        return stats

    def contains(self, addr: int) -> bool:
        # O(1) override; wrappers (write policies, hierarchies) probe
        # residency on hot paths.
        line = addr >> self._offset_bits
        return self._tags[line & self._index_mask] == line

    def resident_lines(self) -> FrozenSet[int]:
        return frozenset(tag for tag in self._tags if tag is not None)

    def is_empty(self) -> bool:
        tags = self._tags
        return tags.count(None) == len(tags)

    # -- introspection (tests, hierarchy) ----------------------------------

    def line_state(self, index: int) -> LineState:
        """Snapshot of one line's FSM state."""
        return LineState(
            tag=self._tags[index],
            sticky=self._sticky[index],
            hit_last=self._hl[index],
        )

    def flush_hitlast(self) -> None:
        """Write every resident line's hl copy back to the store.

        Models draining the L1 copies (for example at a context switch);
        used by tests to observe the store's view of resident words.
        """
        for index, tag in enumerate(self._tags):
            if tag is not None:
                self.store.update(tag, self._hl[index])
