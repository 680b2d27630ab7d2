"""The cache simulator interface.

Every cache model is a :class:`Cache`: a functional (timing-free)
simulator that is fed one reference at a time through :meth:`Cache.access`
and keeps :class:`~repro.caches.stats.CacheStats`.  Models that need the
whole trace in advance (the Belady-optimal cache) implement
:class:`OfflineCache` instead and are driven through :meth:`simulate`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Callable, FrozenSet, Optional

from ..trace.reference import RefKind
from ..trace.trace import Trace
from ..trace.transforms import collapse_sequential_lines
from .geometry import CacheGeometry
from .stats import CacheStats, ExclusionEvents


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    ``evicted_line`` is the line address displaced by this access, if
    any.  ``bypassed`` means the access missed and the fetched line was
    deliberately not stored.
    """

    hit: bool
    bypassed: bool = False
    evicted_line: Optional[int] = None

    @property
    def miss(self) -> bool:
        return not self.hit


def count_miss(stats: CacheStats, result: AccessResult) -> None:
    """Count, for a wrapper, a reference its inner cache missed, with the
    inner's bypass, eviction or cold fill."""
    stats.misses += 1
    if result.bypassed:
        stats.bypasses += 1
    elif result.evicted_line is not None:
        stats.evictions += 1
    else:
        stats.cold_misses += 1


class Cache(abc.ABC):
    """Abstract online cache simulator."""

    #: The dynamic-exclusion FSM events this model counts (its own, or
    #: its inner cache's for a wrapper); None for a model without them.
    events: Optional[ExclusionEvents] = None

    def __init__(self, geometry: CacheGeometry, name: str = "") -> None:
        self.geometry = geometry
        self.name = name or type(self).__name__
        self.stats = CacheStats()

    @abc.abstractmethod
    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        """Simulate one reference and update the stats."""

    @abc.abstractmethod
    def resident_lines(self) -> FrozenSet[int]:
        """Line addresses currently stored (for tests and invariants)."""

    def contains(self, addr: int) -> bool:
        """Whether the line holding byte address ``addr`` is resident."""
        return self.geometry.line_address(addr) in self.resident_lines()

    def is_empty(self) -> bool:
        """Whether no line is resident (models override with a cheap check)."""
        return not self.resident_lines()

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        self._reset_state()

    @abc.abstractmethod
    def _reset_state(self) -> None:
        """Clear the cache arrays (subclass hook for :meth:`reset`)."""

    def simulate(self, trace: Trace) -> CacheStats:
        """Run an entire trace through the cache and return the stats.

        A model with FSM :attr:`events` publishes the ones this run
        counted, as the dynamic-exclusion cache's own loop does.
        """
        events = self.events
        before = replace(events) if events is not None else None
        access = self.access
        # ``kind`` is passed as a raw int (RefKind is an IntEnum) to keep
        # this hot loop cheap; no simulator branches on enum identity.
        for addr, kind in trace.pairs():
            access(addr, kind)  # type: ignore[arg-type]
        if events is not None:
            events.since(before).publish(trace.name, engine="reference")
        return self.stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name} {self.geometry}>"


class OfflineCache(abc.ABC):
    """A cache model that requires the full trace in advance."""

    def __init__(self, geometry: CacheGeometry, name: str = "") -> None:
        self.geometry = geometry
        self.name = name or type(self).__name__

    @abc.abstractmethod
    def simulate(self, trace: Trace) -> CacheStats:
        """Run the whole trace and return the stats."""


def simulate_line_events(
    trace: Trace, line_size: int, simulate: Callable[[Trace], CacheStats]
) -> CacheStats:
    """The stats of a last-line buffer in front of a cold cache.

    ``simulate`` runs the cache on the trace's line-reference events
    (each run of consecutive references to one line collapsed into its
    first, paper Section 6); the collapsed references are the buffer's
    hits.  The cache's misses, bypasses, evictions and cold misses are
    the wrapper's.
    """
    collapsed = collapse_sequential_lines(trace, line_size)
    inner = simulate(collapsed)
    buffer_hits = len(trace) - len(collapsed)
    stats = CacheStats(
        accesses=len(trace),
        hits=inner.hits + buffer_hits,
        misses=inner.misses,
        bypasses=inner.bypasses,
        evictions=inner.evictions,
        buffer_hits=buffer_hits,
        cold_misses=inner.cold_misses,
    )
    stats.check()
    return stats
