"""The cache simulator interface.

Every cache model is a :class:`Cache`: a functional (timing-free)
simulator that is fed one reference at a time through :meth:`Cache.access`
and keeps :class:`~repro.caches.stats.CacheStats`.  Models that need the
whole trace in advance (the Belady-optimal cache) implement
:class:`OfflineCache` instead and are driven through :meth:`simulate`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..trace.reference import RefKind
from ..trace.trace import Trace
from .geometry import CacheGeometry
from .stats import CacheStats


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


class Cache(abc.ABC):
    """Abstract online cache simulator."""

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
        """Run an entire trace through the cache and return the stats."""
        access = self.access
        # ``kind`` is passed as a raw int (RefKind is an IntEnum) to keep
        # this hot loop cheap; no simulator branches on enum identity.
        for addr, kind in trace.pairs():
            access(addr, kind)  # type: ignore[arg-type]
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
