"""Tests for the Belady-with-bypass optimal caches."""

import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.optimal import (
    NEVER,
    OptimalCache,
    OptimalDirectMappedCache,
    OptimalLastLineCache,
    next_use_times,
)
from repro.trace.trace import Trace


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


class TestNextUseTimes:
    def test_no_repeats(self):
        assert next_use_times([1, 2, 3]) == [NEVER, NEVER, NEVER]

    def test_simple_repeat(self):
        assert next_use_times([7, 8, 7]) == [2, NEVER, NEVER]

    def test_chained_repeats(self):
        assert next_use_times([5, 5, 5]) == [1, 2, NEVER]

    def test_empty(self):
        assert next_use_times([]) == []


class TestOptimalDirectMapped:
    def test_requires_direct_mapped(self):
        with pytest.raises(ValueError):
            OptimalDirectMappedCache(CacheGeometry(64, 4, associativity=2))

    def test_keeps_sooner_used_line(self):
        # a b a: keeping a (bypassing b) is optimal.
        geometry = CacheGeometry(64, 4)
        stats = OptimalDirectMappedCache(geometry).simulate(itrace([0, 64, 0]))
        assert stats.misses == 2
        assert stats.bypasses == 1
        assert stats.hits == 1

    def test_thrashing_pair_halved(self):
        geometry = CacheGeometry(64, 4)
        trace = itrace([0, 64] * 10)
        stats = OptimalDirectMappedCache(geometry).simulate(trace)
        assert stats.misses == 11  # a_m b_m (a_h b_m)^9

    def test_never_worse_than_direct_mapped(self):
        geometry = CacheGeometry(64, 4)
        import random
        rng = random.Random(0)
        addrs = [rng.randrange(64) * 4 for _ in range(500)]
        trace = itrace(addrs)
        optimal = OptimalDirectMappedCache(geometry).simulate(trace)
        direct = DirectMappedCache(geometry).simulate(trace)
        assert optimal.misses <= direct.misses

    def test_stats_consistent(self):
        geometry = CacheGeometry(64, 4)
        stats = OptimalDirectMappedCache(geometry).simulate(itrace([0, 64, 0, 128, 64]))
        stats.check()

    def test_tie_prefers_resident(self):
        # Both lines never used again: keep the resident (no eviction).
        geometry = CacheGeometry(64, 4)
        stats = OptimalDirectMappedCache(geometry).simulate(itrace([0, 64]))
        assert stats.bypasses == 1
        assert stats.evictions == 0


class TestOptimalAssociative:
    def test_belady_classic(self):
        # 2-way single set, pattern where LRU fails but OPT keeps the
        # right pair: 0 4 8 0 4 8 ...
        geometry = CacheGeometry(8, 4, associativity=2)
        trace = itrace([0, 4, 8] * 10)
        optimal = OptimalCache(geometry).simulate(trace)
        # OPT keeps two of the three and bypasses the third:
        # misses = 3 cold + 9 repeats of the sacrificed line ... actually
        # OPT achieves one miss per trip after warmup.
        assert optimal.misses <= 12
        from repro.caches.set_associative import SetAssociativeCache
        lru = SetAssociativeCache(geometry).simulate(trace)
        assert optimal.misses < lru.misses

    def test_hits_update_next_use(self):
        geometry = CacheGeometry(8, 4, associativity=2)
        trace = itrace([0, 4, 0, 4, 8, 0, 4])
        stats = OptimalCache(geometry).simulate(trace)
        stats.check()
        assert stats.misses <= 3 + 1

    def test_cold_fill_uses_empty_ways(self):
        geometry = CacheGeometry(8, 4, associativity=2)
        stats = OptimalCache(geometry).simulate(itrace([0, 4]))
        assert stats.cold_misses == 2
        assert stats.evictions == 0


class TestOptimalLastLine:
    def test_sequential_run_costs_one_miss(self):
        geometry = CacheGeometry(64, 16)
        stats = OptimalLastLineCache(geometry).simulate(itrace([0, 4, 8, 12]))
        assert stats.misses == 1
        assert stats.buffer_hits == 3

    def test_bypass_possible_with_long_lines(self):
        # Lines of 8B; conflict pair with sequential words inside.
        geometry = CacheGeometry(64, 8)
        # a-line words (0,4), b-line words (64,68), alternating runs.
        addrs = []
        for _ in range(10):
            addrs.extend([0, 4, 64, 68])
        stats = OptimalLastLineCache(geometry).simulate(itrace(addrs))
        # Collapsed events: (A B)^10 -> optimal keeps one: 11 misses.
        assert stats.misses == 11

    def test_naive_optimal_cannot_bypass_here(self):
        geometry = CacheGeometry(64, 8)
        addrs = []
        for _ in range(10):
            addrs.extend([0, 4, 64, 68])
        naive = OptimalCache(geometry).simulate(itrace(addrs))
        collapsed = OptimalLastLineCache(geometry).simulate(itrace(addrs))
        # The immediate sequential next-use forces the naive model to
        # always replace, so the collapsed model strictly wins.
        assert collapsed.misses < naive.misses

    def test_stats_consistent(self):
        geometry = CacheGeometry(64, 16)
        stats = OptimalLastLineCache(geometry).simulate(itrace([0, 4, 64, 0, 4]))
        stats.check()
