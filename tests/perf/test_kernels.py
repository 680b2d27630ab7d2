"""Unit tests for the set-partitioned kernels on hand-checkable traces."""

import numpy as np
import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.stats import CacheStats
from repro.caches.victim import VictimCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import HashedHitLastStore, IdealHitLastStore
from repro.perf.kernels import (
    simulate_direct_mapped,
    simulate_dynamic_exclusion,
    simulate_set_associative_exclusion,
    simulate_victim,
)
from repro.trace.trace import Trace


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


GEOMETRY = CacheGeometry(64, 4)  # 16 lines, so 64 aliases with 0


class TestDirectMappedKernel:
    def test_empty_trace(self):
        assert simulate_direct_mapped(Trace.empty(), GEOMETRY) == CacheStats()

    def test_requires_direct_mapped_geometry(self):
        with pytest.raises(ValueError):
            simulate_direct_mapped(itrace([0]), CacheGeometry(64, 4, associativity=2))

    def test_thrashing_pair(self):
        # 0 and 64 alias in the same set: every access past the first
        # fill misses and evicts; only the initial fill is cold.
        stats = simulate_direct_mapped(itrace([0, 64] * 10), GEOMETRY)
        assert stats.accesses == 20
        assert stats.misses == 20
        assert stats.cold_misses == 1
        assert stats.evictions == 19
        assert stats == DirectMappedCache(GEOMETRY).simulate(itrace([0, 64] * 10))

    def test_pure_hits_after_cold(self):
        stats = simulate_direct_mapped(itrace([0, 0, 0, 4, 4]), GEOMETRY)
        assert stats.hits == 3
        assert stats.cold_misses == 2
        assert stats.evictions == 0

    def test_matches_reference_on_interleaved_sets(self):
        # Two sets active at once: partitioning must keep per-set order.
        addrs = [0, 4, 64, 68, 0, 4, 64, 68, 128, 132]
        trace = itrace(addrs)
        assert simulate_direct_mapped(trace, GEOMETRY) == DirectMappedCache(
            GEOMETRY
        ).simulate(trace)


class TestDynamicExclusionKernel:
    def test_empty_trace(self):
        assert simulate_dynamic_exclusion(Trace.empty(), GEOMETRY) == CacheStats()

    def test_requires_direct_mapped_geometry(self):
        with pytest.raises(ValueError):
            simulate_dynamic_exclusion(
                itrace([0]), CacheGeometry(64, 4, associativity=2)
            )

    def test_single_conflict_pair_learns_to_exclude(self):
        # (a b)^10 in one set: the FSM settles into keeping one word.
        trace = itrace([0, 64] * 10)
        reference = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=True)
        ).simulate(trace)
        assert simulate_dynamic_exclusion(trace, GEOMETRY) == reference
        # DE must beat the 100% miss rate of the direct-mapped cache.
        assert reference.hits > 0

    @pytest.mark.parametrize("default", [True, False])
    def test_cold_polarity_matches_reference(self, default):
        trace = itrace([0, 64, 0, 64, 4, 68, 4, 68, 0, 64])
        reference = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=default)
        ).simulate(trace)
        fast = simulate_dynamic_exclusion(trace, GEOMETRY, default_hit_last=default)
        assert fast == reference

    def test_run_compression_boundaries(self):
        # Runs of every length through every FSM edge: repeated words,
        # single bypasses, bypass-then-reload, cold runs.
        addrs = [0, 0, 64, 64, 64, 0, 64, 0, 0, 64, 64, 4, 4, 4, 68, 68]
        trace = itrace(addrs)
        reference = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=True)
        ).simulate(trace)
        assert simulate_dynamic_exclusion(trace, GEOMETRY) == reference

    def test_seeded_random_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 2000))
            addrs = (rng.integers(0, 256, size=n) * 4).tolist()
            trace = itrace(addrs)
            for default in (True, False):
                reference = DynamicExclusionCache(
                    GEOMETRY, store=IdealHitLastStore(default=default)
                ).simulate(trace)
                fast = simulate_dynamic_exclusion(
                    trace, GEOMETRY, default_hit_last=default
                )
                assert fast == reference


def runs_trace(seed, words=256):
    """Runs of one to three references to ``words`` random words."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 1500))
    repeats = rng.integers(1, 4, size=n)
    return itrace((np.repeat(rng.integers(0, words, size=n), repeats) * 4).tolist())


class TestHashedDynamicExclusionKernel:
    def test_shared_bit_matches_reference(self):
        # 16 sets, 16 bits: 0 and 64 share set 0 *and* bit 0, so the
        # bit 64 writes back is the one 0 reads.
        trace = itrace([0, 64, 0, 64, 128, 0, 64, 64, 0] * 5)
        for default in (True, False):
            reference = DynamicExclusionCache(
                GEOMETRY, store=HashedHitLastStore(16, default=default)
            ).simulate(trace)
            fast = simulate_dynamic_exclusion(
                trace, GEOMETRY, default_hit_last=default, num_bits=16
            )
            assert fast == reference

    @pytest.mark.parametrize("num_bits", [8, 24])
    def test_rejects_tables_sets_would_share(self, num_bits):
        # Fewer bits than sets, or not a power of two.
        with pytest.raises(ValueError):
            simulate_dynamic_exclusion(itrace([0]), GEOMETRY, num_bits=num_bits)


class TestSetAssociativeExclusionKernel:
    @pytest.mark.parametrize("default", [True, False])
    def test_one_way_equals_dynamic_exclusion(self, default):
        # The model's contract: at associativity 1 it is exactly DE.
        for seed in range(10):
            trace = runs_trace(seed)
            assert simulate_set_associative_exclusion(
                trace, GEOMETRY, default_hit_last=default
            ) == simulate_dynamic_exclusion(trace, GEOMETRY, default_hit_last=default)

    def test_cyclic_pattern_pins_ways(self):
        # (a b c)^n over one 2-way set: LRU misses everything, the
        # exclusion gate keeps two of the three words.
        geometry = CacheGeometry(64, 4, associativity=2)  # 8 sets
        stats = simulate_set_associative_exclusion(
            itrace([0, 32, 64] * 20), geometry
        )
        assert stats.accesses == 60
        assert stats.cold_misses == 2
        assert stats.hits > 0
        assert stats.bypasses > 0


class TestVictimKernel:
    def test_swap_pair_hits_in_the_buffer(self):
        # 0 and 64 alias in L1: after the two cold-ish misses every
        # reference swaps the pair through the one-entry buffer.
        trace = itrace([0, 64] * 10)
        stats = simulate_victim(trace, GEOMETRY, entries=1)
        assert stats.cold_misses == 1
        assert stats.evictions == 1
        assert stats.buffer_hits == 18
        assert stats == VictimCache(GEOMETRY, entries=1).simulate(trace)

    @pytest.mark.parametrize("entries", [1, 2, 4])
    def test_seeded_random_traces(self, entries):
        for seed in range(10):
            trace = runs_trace(seed)
            assert simulate_victim(trace, GEOMETRY, entries) == VictimCache(
                GEOMETRY, entries=entries
            ).simulate(trace)

    def test_empty_trace(self):
        assert simulate_victim(Trace.empty(), GEOMETRY, 4) == CacheStats()
