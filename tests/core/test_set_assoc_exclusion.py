"""Tests for the set-associative dynamic-exclusion extension."""

import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.caches.geometry import CacheGeometry
from repro.caches.optimal import OptimalCache
from repro.caches.set_associative import SetAssociativeCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import IdealHitLastStore
from repro.core.set_assoc_exclusion import SetAssociativeExclusionCache
from repro.trace.trace import Trace


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


class TestBasics:
    def test_requires_positive_sticky(self):
        with pytest.raises(ValueError):
            SetAssociativeExclusionCache(CacheGeometry(64, 4), sticky_levels=0)

    def test_hit_after_fill(self):
        cache = SetAssociativeExclusionCache(CacheGeometry(64, 4, associativity=2))
        cache.access(0)
        assert cache.access(0).hit

    def test_two_conflicting_lines_coexist(self):
        cache = SetAssociativeExclusionCache(CacheGeometry(64, 4, associativity=2))
        cache.access(0)
        cache.access(64)
        assert cache.access(0).hit
        assert cache.access(64).hit

    def test_bypass_when_lru_way_sticky(self):
        cache = SetAssociativeExclusionCache(
            CacheGeometry(8, 4, associativity=2),
            store=IdealHitLastStore(default=False),
        )
        cache.access(0)
        cache.access(4)
        result = cache.access(8)  # both ways sticky, h[8]=0
        assert result.miss and result.bypassed
        assert cache.access(0).hit

    def test_second_conflict_replaces_lru(self):
        cache = SetAssociativeExclusionCache(
            CacheGeometry(8, 4, associativity=2),
            store=IdealHitLastStore(default=False),
        )
        cache.access(0)
        cache.access(4)
        cache.access(8)   # bypass; LRU way (holding 0) loses a life
        result = cache.access(8)  # now replaces the LRU way
        assert result.miss and not result.bypassed
        assert result.evicted_line == 0

    def test_hitlast_gate_overrides_sticky(self):
        store = IdealHitLastStore(default=False)
        store.update(2, True)  # line address of 8 with 4B lines
        cache = SetAssociativeExclusionCache(
            CacheGeometry(8, 4, associativity=2), store=store
        )
        cache.access(0)
        cache.access(4)
        result = cache.access(8)
        assert result.miss and not result.bypassed

    def test_reset(self):
        cache = SetAssociativeExclusionCache(CacheGeometry(64, 4, associativity=2))
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_lines() == frozenset()


class TestReducesToDirectMapped:
    @pytest.mark.parametrize("default", [True, False])
    @pytest.mark.parametrize("sticky_levels", [1, 2])
    def test_one_way_matches_exclusion_cache(self, default, sticky_levels):
        geometry = CacheGeometry(64, 4, associativity=1)
        assoc = SetAssociativeExclusionCache(
            geometry,
            store=IdealHitLastStore(default=default),
            sticky_levels=sticky_levels,
        )
        direct = DynamicExclusionCache(
            CacheGeometry(64, 4),
            store=IdealHitLastStore(default=default),
            sticky_levels=sticky_levels,
        )
        rng = random.Random(11)
        for _ in range(2000):
            addr = rng.randrange(64) * 4
            a = assoc.access(addr)
            b = direct.access(addr)
            assert (a.hit, a.bypassed) == (b.hit, b.bypassed)
        assert assoc.resident_lines() == direct.resident_lines()


class TestAgainstPlainLRU:
    def test_cyclic_pattern_fixed(self):
        """(a b c)^n in a 2-way set: plain LRU misses everything; the
        exclusion gate pins two of the three."""
        geometry = CacheGeometry(8, 4, associativity=2)
        addrs = [0, 4, 8] * 30
        lru = SetAssociativeCache(geometry).simulate(itrace(addrs))
        excl = SetAssociativeExclusionCache(
            geometry, store=IdealHitLastStore(default=False)
        ).simulate(itrace(addrs))
        assert lru.misses == 90
        assert excl.misses < 45

    def test_lru_friendly_pattern_not_ruined(self):
        """On a pattern LRU already handles, exclusion must stay close."""
        geometry = CacheGeometry(8, 4, associativity=2)
        addrs = [0, 4] * 50
        lru = SetAssociativeCache(geometry).simulate(itrace(addrs))
        excl = SetAssociativeExclusionCache(geometry).simulate(itrace(addrs))
        assert excl.misses <= lru.misses + 2


addresses = st.lists(
    st.integers(min_value=0, max_value=127).map(lambda s: s * 4),
    min_size=1,
    max_size=200,
)


@given(addrs=addresses, default=st.booleans(), ways=st.sampled_from([1, 2, 4]))
@settings(max_examples=50, deadline=None)
def test_stats_consistent(addrs, default, ways):
    geometry = CacheGeometry(64, 4, associativity=ways)
    cache = SetAssociativeExclusionCache(
        geometry, store=IdealHitLastStore(default=default)
    )
    stats = cache.simulate(itrace(addrs))
    stats.check()
    assert stats.accesses == len(addrs)


@given(addrs=addresses, default=st.booleans())
@settings(max_examples=50, deadline=None)
def test_optimal_is_still_a_lower_bound(addrs, default):
    geometry = CacheGeometry(64, 4, associativity=2)
    trace = itrace(addrs)
    excl = SetAssociativeExclusionCache(
        geometry, store=IdealHitLastStore(default=default)
    ).simulate(trace)
    optimal = OptimalCache(geometry).simulate(trace)
    assert excl.misses >= optimal.misses


@given(addrs=addresses)
@settings(max_examples=50, deadline=None)
def test_hits_require_prior_access(addrs):
    geometry = CacheGeometry(64, 4, associativity=2)
    cache = SetAssociativeExclusionCache(geometry)
    seen = set()
    for addr in addrs:
        line = geometry.line_address(addr)
        if cache.access(addr).hit:
            assert line in seen
        seen.add(line)


class TestLazySets:
    GEOMETRY = CacheGeometry(256 * 1024, 4, associativity=2)  # 32,768 sets

    def test_construction_materialises_nothing(self):
        assert self.GEOMETRY.num_sets == 32768
        SetAssociativeExclusionCache(self.GEOMETRY)  # warm imports
        tracemalloc.start()
        try:
            cache = SetAssociativeExclusionCache(self.GEOMETRY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not cache._sets
        assert cache.is_empty()
        assert peak < 64 * 1024

    def test_untouched_set_not_contained(self):
        cache = SetAssociativeExclusionCache(self.GEOMETRY)
        cache.access(0)
        assert cache.contains(0)
        assert not cache.contains(4)
        assert len(cache._sets) == 1

    def test_reset_drops_materialised_sets(self):
        cache = SetAssociativeExclusionCache(self.GEOMETRY)
        for addr in range(0, 4096, 4):
            cache.access(addr)
        assert len(cache._sets) == 1024
        cache.reset()
        assert not cache._sets
        assert cache.is_empty()
        assert not cache.contains(0)
