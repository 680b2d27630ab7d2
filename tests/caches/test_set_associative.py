"""Tests for the set-associative cache."""

import tracemalloc

import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.set_associative import FullyAssociativeCache, SetAssociativeCache
from repro.trace.trace import Trace


def two_way(size=128, line=4):
    return SetAssociativeCache(CacheGeometry(size, line, associativity=2))


class TestBasics:
    def test_two_conflicting_lines_coexist(self):
        cache = two_way(size=128)  # 16 sets of 2
        a, b = 0, 128  # same set in a direct-mapped 128B cache... and here
        cache.access(a)
        cache.access(b)
        assert cache.access(a).hit
        assert cache.access(b).hit

    def test_third_conflicting_line_evicts_lru(self):
        cache = two_way(size=128)
        step = 16 * 4  # one set stride (16 sets, 4B lines)
        cache.access(0)
        cache.access(step)
        cache.access(0)  # 0 becomes MRU
        result = cache.access(2 * step)
        assert result.miss
        assert result.evicted_line == step // 4

    def test_cold_misses_counted(self):
        cache = two_way()
        cache.access(0)
        cache.access(4)
        assert cache.stats.cold_misses == 2

    def test_resident_lines(self):
        cache = two_way()
        cache.access(0)
        cache.access(64)
        assert cache.resident_lines() == {0, 16}

    def test_reset(self):
        cache = two_way()
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_lines() == frozenset()


class TestAgainstDirectMapped:
    def test_one_way_matches_direct_mapped(self):
        """Associativity 1 must behave exactly like DirectMappedCache."""
        geometry = CacheGeometry(256, 4)
        one_way = SetAssociativeCache(CacheGeometry(256, 4, associativity=1))
        direct = DirectMappedCache(geometry)
        addrs = [0, 4, 256, 0, 260, 4, 512, 0, 256] * 10
        trace = Trace(addrs, [0] * len(addrs))
        a = one_way.simulate(trace)
        b = direct.simulate(trace)
        assert a.misses == b.misses
        assert a.hits == b.hits

    def test_two_way_never_worse_on_thrashing_pair(self):
        geometry = CacheGeometry(128, 4)
        addrs = [0, 128] * 20
        trace = Trace(addrs, [0] * len(addrs))
        direct = DirectMappedCache(geometry).simulate(trace)
        assoc = two_way(size=128).simulate(trace)
        assert assoc.misses < direct.misses
        assert assoc.misses == 2  # two cold misses only


class TestPolicies:
    def _thrash3(self, policy):
        # Three lines rotating through a 2-way set.
        geometry = CacheGeometry(8, 4, associativity=2)  # a single set
        cache = SetAssociativeCache(geometry, policy=policy)
        addrs = [0, 4, 8] * 10
        trace = Trace(addrs, [0] * len(addrs))
        return cache.simulate(trace)

    def test_lru_on_cyclic_pattern_all_miss(self):
        # The classic LRU pathology: cyclic over capacity+1 lines.
        assert self._thrash3("lru").misses == 30

    def test_fifo_on_cyclic_pattern_all_miss(self):
        assert self._thrash3("fifo").misses == 30

    def test_random_beats_lru_on_cyclic_pattern(self):
        assert self._thrash3("random").misses < 30

    def test_random_is_deterministic_given_seed(self):
        geometry = CacheGeometry(8, 4, associativity=2)
        addrs = [0, 4, 8, 12] * 25
        trace = Trace(addrs, [0] * len(addrs))
        a = SetAssociativeCache(geometry, policy="random", seed=1).simulate(trace)
        b = SetAssociativeCache(geometry, policy="random", seed=1).simulate(trace)
        assert a.misses == b.misses


class TestFullyAssociative:
    def test_single_set(self):
        cache = FullyAssociativeCache(64, 4)
        assert cache.geometry.num_sets == 1
        assert cache.geometry.associativity == 16

    def test_lru_behaviour(self):
        cache = FullyAssociativeCache(8, 4)  # 2 lines
        cache.access(0)
        cache.access(100)
        cache.access(0)
        cache.access(200)  # evicts 100 (LRU)
        assert cache.access(0).hit
        assert cache.access(100).miss

    def test_stats_consistent(self):
        cache = FullyAssociativeCache(16, 4)
        trace = Trace(list(range(0, 400, 4)), [0] * 100)
        stats = cache.simulate(trace)
        stats.check()
        assert stats.misses == 100  # pure streaming never hits


def lcg_trace(refs=600, lines=40):
    """Pseudo-random references over ``lines`` 4-byte lines."""
    addrs, x = [], 1
    for _ in range(refs):
        x = (x * 1103515245 + 12345) % (1 << 31)
        addrs.append(((x >> 8) % lines) * 4)
    return Trace(addrs, [0] * len(addrs))


class TestPolicyStreams:
    """Exact counts over 8 sets of 2 ways, five lines per set.

    Each set's policy is seeded with ``seed + index``; seeding every set
    alike or shifting the index changes these counts.
    """

    GEOMETRY = CacheGeometry(64, 4, associativity=2)

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({"policy": "random", "seed": 3}, (245, 355, 339)),
            ({"policy": "fifo"}, (245, 355, 339)),
            ({"policy": "lru"}, (244, 356, 340)),
        ],
    )
    def test_pinned_counts(self, kwargs, expected):
        stats = SetAssociativeCache(self.GEOMETRY, **kwargs).simulate(lcg_trace())
        assert (stats.hits, stats.misses, stats.evictions) == expected


class TestLazySets:
    GEOMETRY = CacheGeometry(256 * 1024, 4, associativity=2)  # 32,768 sets

    def test_construction_materialises_nothing(self):
        assert self.GEOMETRY.num_sets == 32768
        SetAssociativeCache(self.GEOMETRY, policy="random")  # warm imports
        tracemalloc.start()
        try:
            cache = SetAssociativeCache(self.GEOMETRY, policy="random")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not cache._sets
        assert cache.is_empty()
        assert peak < 64 * 1024

    def test_unknown_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="plru"):
            SetAssociativeCache(self.GEOMETRY, policy="plru")

    def test_untouched_set_not_contained(self):
        cache = SetAssociativeCache(self.GEOMETRY)
        cache.access(0)
        assert cache.contains(0)
        assert not cache.contains(4)
        assert len(cache._sets) == 1

    def test_reset_drops_materialised_sets(self):
        cache = SetAssociativeCache(self.GEOMETRY)
        for addr in range(0, 4096, 4):
            cache.access(addr)
        assert len(cache._sets) == 1024
        cache.reset()
        assert not cache._sets
        assert cache.is_empty()
        assert not cache.contains(0)
