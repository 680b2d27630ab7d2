"""Write policies and memory-traffic accounting.

The paper's miss-rate studies ignore writes, but a deployable cache
library cannot: combined caches (Section 7) see stores, and the
two-level results (Section 5) ultimately matter because of the traffic
they remove.  This module adds write semantics as a *wrapper* around
any cache model, so exclusion caches get them for free:

* **write-back, write-allocate** (default): stores dirty the resident
  line; evicting a dirty line costs one line of write traffic;
* **write-through, no-write-allocate**: every store goes to memory;
  store misses do not allocate.

The wrapper tracks traffic in a :class:`TrafficStats` alongside the
inner cache's hit/miss stats.  Dirty state is keyed by line address and
synchronised with the inner cache through the
:class:`~repro.caches.base.AccessResult` eviction reports, which is why
every model in this package reports its evictions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Set

from ..trace.reference import RefKind
from .base import AccessResult, Cache, count_miss
from .stats import ExclusionEvents


class WritePolicy(enum.Enum):
    """How stores interact with the cache and memory."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


@dataclass
class TrafficStats:
    """Line-granular traffic between this cache and the next level."""

    lines_fetched: int = 0
    lines_written_back: int = 0
    words_written_through: int = 0

    def bytes_fetched(self, line_size: int) -> int:
        return self.lines_fetched * line_size

    def bytes_written(self, line_size: int, word_size: int = 4) -> int:
        return (
            self.lines_written_back * line_size
            + self.words_written_through * word_size
        )

    def total_bytes(self, line_size: int, word_size: int = 4) -> int:
        return self.bytes_fetched(line_size) + self.bytes_written(line_size, word_size)


class WritePolicyCache(Cache):
    """Write semantics around any inner cache model."""

    def __init__(
        self,
        inner: Cache,
        policy: WritePolicy = WritePolicy.WRITE_BACK,
        name: str = "",
    ) -> None:
        super().__init__(inner.geometry, name=name or f"{policy.value}+{inner.name}")
        self.inner = inner
        self.policy = policy
        self.traffic = TrafficStats()
        self._offset_bits = inner.geometry.offset_bits
        self._dirty: Set[int] = set()

    @property
    def events(self) -> Optional[ExclusionEvents]:
        return self.inner.events

    def _reset_state(self) -> None:
        self.inner.reset()
        self.traffic = TrafficStats()
        self._dirty = set()

    def _note_eviction(self, line: int) -> None:
        if line in self._dirty:
            self._dirty.discard(line)
            self.traffic.lines_written_back += 1

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        is_store = kind == RefKind.STORE
        stats = self.stats
        stats.accesses += 1

        if self.policy is WritePolicy.WRITE_THROUGH and is_store:
            self.traffic.words_written_through += 1
            # No-write-allocate: a store miss bypasses the cache; a
            # store hit updates the (clean, written-through) line.  The
            # inner cache must not allocate, so probe via contains().
            if self.inner.contains(addr):
                result = self.inner.access(addr, kind)
                stats.hits += 1
                return result
            stats.misses += 1
            stats.bypasses += 1
            return AccessResult(hit=False, bypassed=True)

        result = self.inner.access(addr, kind)
        if result.evicted_line is not None:
            self._note_eviction(result.evicted_line)
        if result.hit:
            stats.hits += 1
        else:
            count_miss(stats, result)
            # Exclusion avoids *storing* the line, not fetching it: a
            # bypassed load/ifetch still transfers the line (the word
            # goes to the CPU, long lines to the side buffer).  A
            # bypassed store writes its word instead.
            if result.bypassed and is_store:
                self.traffic.words_written_through += 1
            else:
                self.traffic.lines_fetched += 1
        if is_store and self.policy is WritePolicy.WRITE_BACK:
            if result.hit or not result.bypassed:
                self._dirty.add(line)
        return result

    def flush(self) -> int:
        """Write back every dirty line (e.g. at program end); returns
        how many lines were written."""
        written = len(self._dirty)
        self.traffic.lines_written_back += written
        self._dirty.clear()
        return written

    def dirty_lines(self) -> FrozenSet[int]:
        return frozenset(self._dirty)

    def resident_lines(self) -> FrozenSet[int]:
        return self.inner.resident_lines()
