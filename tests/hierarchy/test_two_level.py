"""Tests for the two-level hierarchy (paper Section 5)."""

import gc
import tracemalloc
import weakref

import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import (
    HashedHitLastStore,
    IdealHitLastStore,
    L2BackedHitLastStore,
)
from repro.hierarchy.two_level import Strategy, TwoLevelCache
from repro.trace.trace import Trace

L1 = CacheGeometry(64, 4)
L2 = CacheGeometry(256, 4)


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


class TestConstruction:
    def test_strategy_from_string(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="assume-miss")
        assert hierarchy.strategy is Strategy.ASSUME_MISS

    def test_rejects_set_associative_levels(self):
        with pytest.raises(ValueError):
            TwoLevelCache(CacheGeometry(64, 4, associativity=2), L2)

    def test_rejects_l2_smaller_than_l1(self):
        with pytest.raises(ValueError):
            TwoLevelCache(L2, L1)

    def test_rejects_l2_line_smaller_than_l1_line(self):
        with pytest.raises(ValueError):
            TwoLevelCache(CacheGeometry(64, 16), CacheGeometry(256, 4))

    def test_direct_mapped_strategy_uses_plain_l1(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="direct-mapped")
        assert not isinstance(hierarchy.l1, DynamicExclusionCache)
        assert hierarchy.store is None

    def test_exclusion_strategies_use_de_l1(self):
        for strategy in ["ideal", "assume-hit", "assume-miss", "hashed"]:
            hierarchy = TwoLevelCache(L1, L2, strategy=strategy)
            assert isinstance(hierarchy.l1, DynamicExclusionCache)

    def test_exclusive_l2_does_not_allocate_on_miss(self):
        assert TwoLevelCache(L1, L2, strategy="assume-miss").l2.allocate_on_miss is False
        assert TwoLevelCache(L1, L2, strategy="hashed").l2.allocate_on_miss is False
        assert TwoLevelCache(L1, L2, strategy="assume-hit").l2.allocate_on_miss is True


class TestStrategyEnum:
    def test_uses_exclusion(self):
        assert not Strategy.DIRECT_MAPPED.uses_exclusion
        assert Strategy.HASHED.uses_exclusion

    def test_exclusive_l2(self):
        assert Strategy.ASSUME_MISS.exclusive_l2
        assert Strategy.HASHED.exclusive_l2
        assert not Strategy.ASSUME_HIT.exclusive_l2
        assert not Strategy.IDEAL.exclusive_l2


class TestInclusiveFlow:
    def test_l2_sees_only_l1_misses(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="direct-mapped")
        hierarchy.simulate(itrace([0, 0, 0, 4]))
        assert hierarchy.l1.stats.accesses == 4
        assert hierarchy.l2.stats.accesses == 2  # the two L1 misses

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="direct-mapped")
        hierarchy.simulate(itrace([0, 64, 0]))
        # Final access: L1 miss (0 evicted by 64) but L2 still holds 0.
        assert hierarchy.l2.stats.hits == 1

    def test_inclusive_l2_contains_fetched_lines(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="assume-hit")
        hierarchy.simulate(itrace([0, 4, 8]))
        assert hierarchy.l2.contains(0)
        assert hierarchy.l2.contains(4)


class TestExclusiveFlow:
    def test_l1_stored_lines_stay_out_of_l2(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="assume-miss")
        hierarchy.simulate(itrace([0]))
        assert hierarchy.l1.contains(0)
        assert not hierarchy.l2.contains(0)

    def test_l1_victim_moves_to_l2(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="assume-miss")
        # 0 loads; 64 bypasses (assume-miss => h=0); second 64 replaces.
        hierarchy.simulate(itrace([0, 64, 64]))
        assert hierarchy.l1.contains(64)
        assert hierarchy.l2.contains(0)

    def test_bypassed_line_is_kept_in_l2(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="assume-miss")
        hierarchy.simulate(itrace([0, 64]))  # 64 bypassed in L1
        assert not hierarchy.l1.contains(64)
        assert hierarchy.l2.contains(64)

    def test_bypassed_line_hits_l2_next_time(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="assume-miss")
        hierarchy.simulate(itrace([0, 64]))
        l2_hits = hierarchy.l2.stats.hits
        hierarchy.access(64)
        assert hierarchy.l2.stats.hits == l2_hits + 1


class TestHitLastMigration:
    def test_assume_hit_at_equal_sizes_degenerates_to_direct_mapped(self):
        """The paper's observation: if L2 == L1, every L1 miss is an L2
        miss, so the hit-last bit is always assumed set and the cache
        replaces on every miss — conventional behaviour."""
        trace = itrace([0, 64, 4, 68, 0, 64, 4, 68] * 10)
        same = TwoLevelCache(L1, CacheGeometry(64, 4), strategy="assume-hit")
        plain = TwoLevelCache(L1, CacheGeometry(64, 4), strategy="direct-mapped")
        a = same.simulate(trace)
        b = plain.simulate(trace)
        assert a.l1.misses == b.l1.misses

    def test_large_l2_assume_hit_approaches_ideal(self):
        trace = itrace(([0, 64] * 8 + [4, 68] * 8) * 20)
        big_l2 = CacheGeometry(4096, 4)
        assume_hit = TwoLevelCache(L1, big_l2, strategy="assume-hit").simulate(trace)
        ideal = TwoLevelCache(L1, big_l2, strategy="ideal").simulate(trace)
        assert assume_hit.l1.misses <= ideal.l1.misses + 8

    def test_l2_eviction_drops_hitlast_bits(self):
        hierarchy = TwoLevelCache(L1, CacheGeometry(128, 4), strategy="assume-hit")
        store = hierarchy.store
        assert isinstance(store, L2BackedHitLastStore)
        # Fill L2 set 0 with line 0, write a bit for it, then evict by
        # touching the conflicting L2 line 32 (128B cache = 32 lines).
        hierarchy.access(0)
        store.update(0, False)
        assert store.lookup(0) is False
        hierarchy.access(64)   # L1 conflict -> L2 access
        hierarchy.access(4 * 32)  # maps to L2 set 0, evicts line 0
        assert store.lookup(0) is True  # back to the assume-hit default


class TestResults:
    def test_result_rates(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="direct-mapped")
        result = hierarchy.simulate(itrace([0, 64, 0, 64]))
        assert result.l1_miss_rate == 1.0
        assert result.l2_local_miss_rate == pytest.approx(0.5)
        assert result.l2_global_miss_rate == pytest.approx(0.5)

    def test_empty_trace(self):
        hierarchy = TwoLevelCache(L1, L2)
        result = hierarchy.simulate(Trace.empty())
        assert result.l1_miss_rate == 0.0
        assert result.l2_global_miss_rate == 0.0

    def test_stats_consistent(self):
        import random
        rng = random.Random(5)
        addrs = [rng.randrange(128) * 4 for _ in range(400)]
        for strategy in Strategy:
            hierarchy = TwoLevelCache(L1, L2, strategy=strategy)
            result = hierarchy.simulate(itrace(addrs))
            result.l1.check()
            result.l2.check()


class TestDifferentLineSizes:
    def test_l2_with_longer_lines(self):
        hierarchy = TwoLevelCache(
            CacheGeometry(64, 4), CacheGeometry(512, 16), strategy="assume-hit"
        )
        hierarchy.simulate(itrace([0, 4, 8, 12]))
        # All four words share one 16B L2 line: one L2 miss, then hits.
        assert hierarchy.l2.stats.misses == 1


class TestLazyLevels:
    L1_BIG = CacheGeometry(32 * 1024, 4)
    L2_BIG = CacheGeometry(2 * 1024 * 1024, 4)  # 524,288 L2 lines

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_construction_builds_no_level(self, strategy):
        TwoLevelCache(self.L1_BIG, self.L2_BIG, strategy=strategy)  # warm imports
        tracemalloc.start()
        try:
            hierarchy = TwoLevelCache(self.L1_BIG, self.L2_BIG, strategy=strategy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert not {"l1", "l2", "store"} & vars(hierarchy).keys()
        assert hierarchy.is_cold()

    @pytest.mark.parametrize(
        "strategy, l1_type, store_type",
        [
            ("direct-mapped", DirectMappedCache, type(None)),
            ("ideal", DynamicExclusionCache, IdealHitLastStore),
            ("assume-hit", DynamicExclusionCache, L2BackedHitLastStore),
            ("assume-miss", DynamicExclusionCache, L2BackedHitLastStore),
            ("hashed", DynamicExclusionCache, HashedHitLastStore),
        ],
    )
    def test_levels_appear_on_first_access(self, strategy, l1_type, store_type):
        hierarchy = TwoLevelCache(L1, L2, strategy=strategy, sticky_levels=2)
        assert type(hierarchy.l1) is l1_type
        assert type(hierarchy.store) is store_type
        assert hierarchy.l2.allocate_on_miss is not hierarchy.strategy.exclusive_l2
        assert hierarchy.l2.geometry == L2
        assert not hierarchy.is_cold()
        if l1_type is DynamicExclusionCache:
            assert hierarchy.l1.store is hierarchy.store
            assert hierarchy.l1.sticky_levels == 2
        # Built once: later lookups return the same objects.
        assert hierarchy.l1 is hierarchy.l1 and hierarchy.l2 is hierarchy.l2

    def test_hashed_table_size_from_bits_per_line(self):
        hierarchy = TwoLevelCache(L1, L2, strategy="hashed", hashed_bits_per_line=8)
        assert hierarchy.hashed_bits_per_line == 8
        assert hierarchy.store.num_bits == L1.num_lines * 8

    def test_invalid_configurations_rejected_at_construction(self):
        with pytest.raises(ValueError):
            TwoLevelCache(L1, L2, strategy="hashed", hashed_bits_per_line=3)
        with pytest.raises(ValueError):
            TwoLevelCache(L1, L2, strategy="ideal", sticky_levels=0)


class TestNoReferenceCycle:
    """A dropped hierarchy is freed by reference counting alone, so its
    L2 tag list does not wait for a full garbage collection."""

    @pytest.mark.parametrize("accesses", [0, 4], ids=["fresh", "accessed"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_freed_without_gc(self, strategy, accesses):
        gc.disable()
        try:
            hierarchy = TwoLevelCache(L1, L2, strategy=strategy)
            for addr in [0, 64, 64, 128][:accesses]:
                hierarchy.access(addr)
            ref = weakref.ref(hierarchy)
            del hierarchy
            assert ref() is None
        finally:
            gc.enable()
