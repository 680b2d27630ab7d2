"""Dynamic exclusion with multi-word cache lines (paper Section 6).

With lines longer than one instruction, two problems appear: sequential
references within a line would confuse the FSM (a line would almost
never look excludable), and excluding a whole line would charge one miss
per word.  The fix is to treat all consecutive references to one line as
a single *line-reference event*, and to keep the most recently fetched
line in a small side buffer so an excluded line still costs only one
miss for its sequential words.

The paper offers three equivalent structures (instruction register,
last-line buffer, stream buffer); this module implements the second —
a ``last-tag``/``last-line`` register in front of the cache (paper
Figure 10) — as a wrapper usable around *any* inner cache model, so the
baselines can be wrapped identically when a like-for-like comparison is
wanted.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from ..caches.base import AccessResult, Cache, count_miss
from ..caches.geometry import CacheGeometry
from ..caches.stats import CacheStats, ExclusionEvents
from ..trace.reference import RefKind
from .exclusion_cache import DynamicExclusionCache
from .hitlast import HitLastStore

_BUFFER_HIT = AccessResult(hit=True)


class LastLineBufferCache(Cache):
    """A one-line buffer in front of an inner cache.

    A reference to the same line as the immediately preceding reference
    is served by the buffer: it is a hit and does **not** touch the
    inner cache's state (the paper: "the dynamic exclusion state is only
    changed when the current instruction address does not match
    last-tag").  Every line-change event is forwarded to the inner
    cache, whose replacement policy decides whether the line is stored.

    The wrapper's stats cover all references; the inner cache's own
    stats count only line-reference events.  Its misses, bypasses,
    evictions and cold misses are the inner cache's.
    """

    def __init__(self, inner: Cache, name: str = "") -> None:
        super().__init__(inner.geometry, name=name or f"last-line+{inner.name}")
        self.inner = inner
        self._offset_bits = inner.geometry.offset_bits
        self._last_line: Optional[int] = None

    @property
    def events(self) -> Optional[ExclusionEvents]:
        return self.inner.events

    def _reset_state(self) -> None:
        self.inner.reset()
        self._last_line = None

    def is_empty(self) -> bool:
        return self._last_line is None and self.inner.is_empty()

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        stats = self.stats
        stats.accesses += 1
        if line == self._last_line:
            stats.hits += 1
            stats.buffer_hits += 1
            return _BUFFER_HIT
        self._last_line = line
        result = self.inner.access(addr, kind)
        if result.hit:
            stats.hits += 1
        else:
            count_miss(stats, result)
        return result

    def resident_lines(self) -> FrozenSet[int]:
        resident = set(self.inner.resident_lines())
        if self._last_line is not None:
            resident.add(self._last_line)
        return frozenset(resident)


def make_long_line_exclusion_cache(
    geometry: CacheGeometry,
    store: Optional[HitLastStore] = None,
    sticky_levels: int = 1,
    name: str = "",
) -> LastLineBufferCache:
    """The paper's Section 6 design: DE cache plus last-line buffer."""
    inner = DynamicExclusionCache(geometry, store=store, sticky_levels=sticky_levels)
    return LastLineBufferCache(inner, name=name or f"dynamic-exclusion/{geometry.line_size}B")


class ExclusionStreamBufferCache(Cache):
    """Section 6, scheme 3: leave excluded lines in a stream buffer.

    A ``depth``-line sequential stream buffer fronts the exclusion
    cache.  A reference to the most recent line is served directly
    (as in the last-line scheme); a reference that matches the stream
    head is a *prefetch* hit — the line is offered to the FSM (which
    may store or exclude it) but costs no memory miss, and the stream
    extends by one line.  Anything else is a miss that restarts the
    stream.  This composes the paper's two Jouppi-inspired mechanisms:
    exclusion removes conflict misses, the stream hides sequential ones.
    """

    def __init__(self, inner: Cache, depth: int = 4, name: str = "") -> None:
        if depth < 1:
            raise ValueError("stream depth must be at least 1")
        super().__init__(inner.geometry, name=name or f"stream+{inner.name}")
        self.inner = inner
        self.depth = depth
        self._offset_bits = inner.geometry.offset_bits
        self._last_line: Optional[int] = None
        self._stream: List[int] = []

    def _reset_state(self) -> None:
        self.inner.reset()
        self._last_line = None
        self._stream = []

    def _restart_stream(self, miss_line: int) -> None:
        self._stream = [miss_line + offset for offset in range(1, self.depth + 1)]

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        stats = self.stats
        stats.accesses += 1
        if line == self._last_line:
            stats.hits += 1
            stats.buffer_hits += 1
            return _BUFFER_HIT
        self._last_line = line
        if self._stream and self._stream[0] == line:
            # Prefetch hit: the line arrived from the next level before
            # it was needed.  The FSM still decides whether it is worth
            # a cache frame, but no miss is charged; a line it displaces
            # is still an eviction.
            stats.hits += 1
            stats.buffer_hits += 1
            self._stream.pop(0)
            self._stream.append(line + self.depth)
            if self.inner.access(addr, kind).evicted_line is not None:
                stats.evictions += 1
            return _BUFFER_HIT
        result = self.inner.access(addr, kind)
        if result.hit:
            stats.hits += 1
            return result
        count_miss(stats, result)
        self._restart_stream(line)
        return result

    def resident_lines(self) -> FrozenSet[int]:
        resident = set(self.inner.resident_lines())
        if self._last_line is not None:
            resident.add(self._last_line)
        return frozenset(resident)


class InstructionRegisterCache(Cache):
    """Section 6, scheme 1: a line-wide instruction register.

    Functionally this is the same as the last-line buffer for a single
    reference stream; it is kept as a distinct model because its stats
    separate *register* hits (sequential words of the current line) from
    cache hits, which the efficiency table uses.  For interleaved I/D
    traces the register only captures instruction-side runs.
    """

    def __init__(self, inner: Cache, name: str = "") -> None:
        super().__init__(inner.geometry, name=name or f"iregister+{inner.name}")
        self.inner = inner
        self._offset_bits = inner.geometry.offset_bits
        self._register_line: Optional[int] = None

    def _reset_state(self) -> None:
        self.inner.reset()
        self._register_line = None

    def access(self, addr: int, kind: RefKind = RefKind.IFETCH) -> AccessResult:
        line = addr >> self._offset_bits
        stats = self.stats
        stats.accesses += 1
        if kind == RefKind.IFETCH and line == self._register_line:
            stats.hits += 1
            stats.buffer_hits += 1
            return _BUFFER_HIT
        if kind == RefKind.IFETCH:
            self._register_line = line
        result = self.inner.access(addr, kind)
        if result.hit:
            stats.hits += 1
        else:
            count_miss(stats, result)
        return result

    def resident_lines(self) -> FrozenSet[int]:
        resident = set(self.inner.resident_lines())
        if self._register_line is not None:
            resident.add(self._register_line)
        return frozenset(resident)
