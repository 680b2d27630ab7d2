"""Two-level cache hierarchies with dynamic exclusion (paper Section 5).

The L1 is a direct-mapped cache — conventional or dynamic-exclusion —
and the L2 is a larger direct-mapped cache.  The interesting design
question is where the hit-last bits live and what to assume when a word
misses in L2:

* ``assume-hit``  — bits travel with L2 lines; an L2 miss is treated as
  ``h = 1``.  The hierarchy stays *inclusive*.
* ``assume-miss`` — as above but an L2 miss is treated as ``h = 0``.
  Lines stored in L1 are **not** stored in L2 (exclusive content); L2 is
  filled by L1 victims and by bypassed words.
* ``hashed``      — bits live in a small untagged table inside L1
  (``hashed_bits_per_line`` per L1 line); content is exclusive like
  assume-miss.
* ``ideal``       — the unbounded per-word table of Figures 3-5
  (inclusive), for reference.
* ``direct-mapped`` — the conventional baseline: no exclusion at all.

These reproduce Figures 7, 8, and 9.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..caches.direct_mapped import DirectMappedCache
from ..caches.geometry import CacheGeometry
from ..caches.stats import CacheStats
from ..core.exclusion_cache import DynamicExclusionCache
from ..core.hitlast import (
    HashedHitLastStore,
    HitLastStore,
    IdealHitLastStore,
    L2BackedHitLastStore,
)
from ..trace.reference import RefKind
from ..trace.trace import Trace


class Strategy(str, enum.Enum):
    """L1 policy plus hit-last storage choice."""

    DIRECT_MAPPED = "direct-mapped"
    IDEAL = "ideal"
    ASSUME_HIT = "assume-hit"
    ASSUME_MISS = "assume-miss"
    HASHED = "hashed"

    @property
    def uses_exclusion(self) -> bool:
        return self is not Strategy.DIRECT_MAPPED

    @property
    def exclusive_l2(self) -> bool:
        """Whether L1-stored lines stay out of L2."""
        return self in (Strategy.ASSUME_MISS, Strategy.HASHED)


@dataclass
class TwoLevelResult:
    """Per-level statistics from one hierarchy simulation."""

    strategy: Strategy
    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.miss_rate

    @property
    def l2_local_miss_rate(self) -> float:
        """L2 misses per L2 access."""
        return self.l2.miss_rate

    @property
    def l2_global_miss_rate(self) -> float:
        """L2 misses per CPU reference (what Figure 8 plots)."""
        if self.l1.accesses == 0:
            return 0.0
        return self.l2.misses / self.l1.accesses


class TwoLevelCache:
    """An L1 (+ optional dynamic exclusion) backed by a direct-mapped L2.

    The levels (``l1``, ``l2``) and the hit-last ``store`` are built on
    first attribute access, so constructing a hierarchy allocates
    nothing whatever the L2 size; the fast engine's kernel never builds
    them at all.

    Parameters
    ----------
    l1_geometry, l2_geometry:
        Both direct-mapped; ``l2.line_size >= l1.line_size`` and
        ``l2.size >= l1.size``.
    strategy:
        One of :class:`Strategy` (or its string value).
    hashed_bits_per_line:
        Size of the hashed hit-last table, in bits per L1 line.
    sticky_levels:
        Sticky depth for the exclusion FSM.
    """

    def __init__(
        self,
        l1_geometry: CacheGeometry,
        l2_geometry: CacheGeometry,
        strategy: "Strategy | str" = Strategy.ASSUME_HIT,
        hashed_bits_per_line: int = 4,
        sticky_levels: int = 1,
    ) -> None:
        strategy = Strategy(strategy)
        if l1_geometry.associativity != 1 or l2_geometry.associativity != 1:
            raise ValueError("both levels must be direct-mapped")
        if l2_geometry.line_size < l1_geometry.line_size:
            raise ValueError("L2 line size must be >= L1 line size")
        if l2_geometry.size < l1_geometry.size:
            raise ValueError("L2 must be at least as large as L1")
        # Reject what the lazily built levels would, here rather than at
        # the first access.
        if strategy.uses_exclusion and sticky_levels < 1:
            raise ValueError("sticky_levels must be at least 1")
        if strategy is Strategy.HASHED:
            HashedHitLastStore.validate(l1_geometry.num_lines * hashed_bits_per_line)
        self.strategy = strategy
        self.l1_geometry = l1_geometry
        self.l2_geometry = l2_geometry
        self.hashed_bits_per_line = hashed_bits_per_line
        self.sticky_levels = sticky_levels
        # How many bits separate an L1 line address from its L2 line.
        self._l2_shift = l2_geometry.offset_bits - l1_geometry.offset_bits

    @cached_property
    def l2(self) -> DirectMappedCache:
        return DirectMappedCache(
            self.l2_geometry,
            allocate_on_miss=not self.strategy.exclusive_l2,
            name="L2",
        )

    @cached_property
    def store(self) -> Optional[HitLastStore]:
        strategy = self.strategy
        if strategy is Strategy.DIRECT_MAPPED:
            return None
        if strategy is Strategy.IDEAL:
            return IdealHitLastStore()
        if strategy is Strategy.HASHED:
            return HashedHitLastStore(
                num_bits=self.l1_geometry.num_lines * self.hashed_bits_per_line
            )
        # The callables reach L2 without closing over the hierarchy, so
        # no reference cycle keeps a dropped model (and its L2 tag
        # list) alive until a full garbage collection.
        shift = self._l2_shift
        return L2BackedHitLastStore(
            resident=self.l2.contains_line,
            l2_line_of=lambda word: word >> shift,
            assume_hit=strategy is Strategy.ASSUME_HIT,
            record_when_absent=strategy.exclusive_l2,
        )

    @cached_property
    def l1(self) -> "DirectMappedCache | DynamicExclusionCache":
        if self.strategy.uses_exclusion:
            return DynamicExclusionCache(
                self.l1_geometry,
                store=self.store,
                sticky_levels=self.sticky_levels,
                name="L1-DE",
            )
        return DirectMappedCache(self.l1_geometry, name="L1-DM")

    def is_cold(self) -> bool:
        """Whether no level has been built yet.

        Every access builds the levels first, so an unbuilt model has
        simulated nothing.  This is the fast engine's cold check; it is
        conservative, since a model whose levels were only inspected
        counts as warm.
        """
        return not {"l1", "l2", "store"} & self.__dict__.keys()

    # -- L2 bookkeeping ----------------------------------------------------

    def _l2_line_of(self, l1_line: int) -> int:
        return l1_line >> self._l2_shift

    def _drop_hitlast_for(self, l2_line: int) -> None:
        if not isinstance(self.store, L2BackedHitLastStore):
            return
        span = 1 << self._l2_shift
        base = l2_line << self._l2_shift
        self.store.invalidate(l2_line, words=set(range(base, base + span)))

    def _l2_install(self, l1_line: int) -> None:
        """Victim/bypass transfer of an L1 line into an exclusive L2."""
        displaced = self.l2.install_line(self._l2_line_of(l1_line))
        if displaced is not None:
            self._drop_hitlast_for(displaced)

    # -- simulation ----------------------------------------------------------

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> None:
        """Simulate one CPU reference through both levels."""
        l1_result = self.l1.access(addr, kind)
        if l1_result.hit:
            return
        l2_result = self.l2.access(addr, kind)
        if l2_result.evicted_line is not None:
            self._drop_hitlast_for(l2_result.evicted_line)
        if self.strategy.exclusive_l2:
            if l1_result.bypassed:
                # The word lives nowhere in L1; keep it in L2.
                self._l2_install(self.l1_geometry.line_address(addr))
            if l1_result.evicted_line is not None:
                self._l2_install(l1_result.evicted_line)

    def simulate(self, trace: Trace) -> TwoLevelResult:
        """Run a whole trace and return both levels' statistics."""
        access = self.access
        for addr, kind in trace.pairs():
            access(addr, kind)  # type: ignore[arg-type]
        return TwoLevelResult(strategy=self.strategy, l1=self.l1.stats, l2=self.l2.stats)
