"""Tests for the Cache / OfflineCache interface layer."""

import pytest

from repro.caches.base import AccessResult, Cache, OfflineCache
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.victim import VictimCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.set_assoc_exclusion import SetAssociativeExclusionCache
from repro.trace.reference import RefKind
from repro.trace.trace import Trace


class _MinimalCache(Cache):
    """Smallest possible Cache subclass: a single-entry cache that uses
    only the base-class helpers (default contains())."""

    def __init__(self):
        super().__init__(CacheGeometry(4, 4), name="minimal")
        self._line = None

    def access(self, addr, kind=RefKind.IFETCH):
        self.stats.accesses += 1
        line = self.geometry.line_address(addr)
        if self._line == line:
            self.stats.hits += 1
            return AccessResult(hit=True)
        self.stats.misses += 1
        evicted = self._line
        self._line = line
        return AccessResult(hit=False, evicted_line=evicted)

    def resident_lines(self):
        return frozenset() if self._line is None else frozenset([self._line])

    def _reset_state(self):
        self._line = None


class TestAccessResult:
    def test_miss_is_not_hit(self):
        assert AccessResult(hit=False).miss
        assert not AccessResult(hit=True).miss

    def test_defaults(self):
        result = AccessResult(hit=False)
        assert result.bypassed is False
        assert result.evicted_line is None

    def test_frozen(self):
        with pytest.raises(Exception):
            AccessResult(hit=True).hit = False


class TestCacheBase:
    def test_default_contains_uses_resident_lines(self):
        cache = _MinimalCache()
        cache.access(16)
        assert cache.contains(16)
        assert not cache.contains(32)

    def test_simulate_drives_access(self):
        cache = _MinimalCache()
        stats = cache.simulate(Trace([0, 0, 4], [0, 0, 0]))
        assert stats.accesses == 3
        assert stats.hits == 1

    def test_reset_calls_subclass_hook(self):
        cache = _MinimalCache()
        cache.access(0)
        cache.reset()
        assert cache.resident_lines() == frozenset()
        assert cache.stats.accesses == 0

    def test_name_defaults_to_class_name(self):
        cache = DirectMappedCache(CacheGeometry(64, 4), name="")
        assert cache.name  # never empty

    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Cache(CacheGeometry(64, 4))  # type: ignore[abstract]
        with pytest.raises(TypeError):
            OfflineCache(CacheGeometry(64, 4))  # type: ignore[abstract]


@pytest.mark.parametrize(
    "build",
    [
        _MinimalCache,
        lambda: DirectMappedCache(CacheGeometry(64, 4)),
        lambda: DynamicExclusionCache(CacheGeometry(64, 4)),
        lambda: VictimCache(CacheGeometry(64, 4)),
        lambda: SetAssociativeCache(CacheGeometry(64, 4, associativity=2)),
        lambda: SetAssociativeExclusionCache(CacheGeometry(64, 4, associativity=2)),
    ],
)
def test_is_empty_agrees_with_resident_lines(build):
    cache = build()
    assert cache.is_empty() and not cache.resident_lines()
    for addr in (0, 64, 128, 0):
        cache.access(addr)
        assert cache.is_empty() == (not cache.resident_lines())
        assert not cache.is_empty()
    cache.reset()
    assert cache.is_empty() and not cache.resident_lines()
