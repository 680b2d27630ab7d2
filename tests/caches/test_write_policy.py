"""Tests for write policies and traffic accounting."""

import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.write_policy import TrafficStats, WritePolicy, WritePolicyCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import IdealHitLastStore
from repro.trace.reference import RefKind
from repro.trace.trace import Trace
from repro.workloads.registry import mixed_trace

GEOMETRY = CacheGeometry(64, 16)


def wb_cache(inner=None):
    inner = inner or DirectMappedCache(GEOMETRY)
    return WritePolicyCache(inner, WritePolicy.WRITE_BACK)


def wt_cache(inner=None):
    inner = inner or DirectMappedCache(GEOMETRY)
    return WritePolicyCache(inner, WritePolicy.WRITE_THROUGH)


class TestWriteBack:
    def test_load_miss_fetches_line(self):
        cache = wb_cache()
        cache.access(0, RefKind.LOAD)
        assert cache.traffic.lines_fetched == 1
        assert cache.traffic.lines_written_back == 0

    def test_store_dirties_line(self):
        cache = wb_cache()
        cache.access(0, RefKind.STORE)
        assert cache.dirty_lines() == {0}

    def test_clean_eviction_costs_nothing(self):
        cache = wb_cache()
        cache.access(0, RefKind.LOAD)
        cache.access(64, RefKind.LOAD)  # evicts clean line 0
        assert cache.traffic.lines_written_back == 0

    def test_dirty_eviction_writes_back(self):
        cache = wb_cache()
        cache.access(0, RefKind.STORE)
        cache.access(64, RefKind.LOAD)  # evicts dirty line 0
        assert cache.traffic.lines_written_back == 1
        assert cache.dirty_lines() == frozenset()

    def test_repeated_stores_one_writeback(self):
        cache = wb_cache()
        for _ in range(5):
            cache.access(0, RefKind.STORE)
        cache.access(64, RefKind.LOAD)
        assert cache.traffic.lines_written_back == 1

    def test_flush_writes_all_dirty_lines(self):
        cache = wb_cache()
        cache.access(0, RefKind.STORE)
        cache.access(16, RefKind.STORE)
        assert cache.flush() == 2
        assert cache.traffic.lines_written_back == 2
        assert cache.dirty_lines() == frozenset()

    def test_ifetch_never_dirties(self):
        cache = wb_cache()
        cache.access(0, RefKind.IFETCH)
        assert cache.dirty_lines() == frozenset()

    def test_wrapper_stats_mirror_inner(self):
        cache = wb_cache()
        trace = Trace([0, 64, 0, 64], [2, 1, 2, 1])
        stats = cache.simulate(trace)
        stats.check()
        assert stats.misses == cache.inner.stats.misses


@pytest.mark.parametrize("policy", list(WritePolicy))
def test_counts_inner_evictions_and_cold_fills(policy):
    # A write-through store miss never reaches the inner cache, so
    # under both policies the inner cache's evictions and cold fills
    # are the wrapper's.
    cache = WritePolicyCache(DirectMappedCache(CacheGeometry(8192, 16)), policy)
    stats = cache.simulate(mixed_trace("gcc", 20_000))
    stats.check()
    assert stats.evictions == cache.inner.stats.evictions > 0
    assert stats.cold_misses == cache.inner.stats.cold_misses > 0


class TestWriteThrough:
    def test_every_store_writes_memory(self):
        cache = wt_cache()
        cache.access(0, RefKind.STORE)
        cache.access(0, RefKind.STORE)
        assert cache.traffic.words_written_through == 2

    def test_store_miss_does_not_allocate(self):
        cache = wt_cache()
        cache.access(0, RefKind.STORE)
        assert not cache.inner.contains(0)
        assert cache.stats.bypasses == 1

    def test_store_hit_touches_inner(self):
        cache = wt_cache()
        cache.access(0, RefKind.LOAD)  # allocate
        result = cache.access(0, RefKind.STORE)
        assert result.hit
        assert cache.traffic.words_written_through == 1

    def test_no_dirty_lines_ever(self):
        cache = wt_cache()
        cache.access(0, RefKind.LOAD)
        cache.access(0, RefKind.STORE)
        assert cache.dirty_lines() == frozenset()
        assert cache.flush() == 0

    def test_loads_fetch_normally(self):
        cache = wt_cache()
        cache.access(0, RefKind.LOAD)
        assert cache.traffic.lines_fetched == 1


class TestWithExclusion:
    def test_bypassed_store_goes_to_memory(self):
        inner = DynamicExclusionCache(
            CacheGeometry(64, 4), store=IdealHitLastStore(default=False)
        )
        cache = WritePolicyCache(inner, WritePolicy.WRITE_BACK)
        cache.access(0, RefKind.STORE)    # allocated, dirty
        cache.access(64, RefKind.STORE)   # bypassed by the FSM
        assert cache.traffic.words_written_through == 1
        assert cache.dirty_lines() == {0}

    def test_bypassed_load_still_fetches(self):
        """Exclusion avoids storing, not fetching: the bypassed word is
        forwarded to the CPU, so the transfer happens regardless."""
        inner = DynamicExclusionCache(
            CacheGeometry(64, 4), store=IdealHitLastStore(default=False)
        )
        cache = WritePolicyCache(inner, WritePolicy.WRITE_BACK)
        cache.access(0, RefKind.LOAD)
        fetched = cache.traffic.lines_fetched
        cache.access(64, RefKind.LOAD)  # bypassed but still transferred
        assert cache.traffic.lines_fetched == fetched + 1


class TestTrafficStats:
    def test_byte_accounting(self):
        traffic = TrafficStats(lines_fetched=3, lines_written_back=2,
                               words_written_through=5)
        assert traffic.bytes_fetched(16) == 48
        assert traffic.bytes_written(16) == 32 + 20
        assert traffic.total_bytes(16) == 100

    def test_reset(self):
        cache = wb_cache()
        cache.access(0, RefKind.STORE)
        cache.reset()
        assert cache.traffic == TrafficStats()
        assert cache.stats.accesses == 0


class TestTrafficComparison:
    def test_write_back_beats_write_through_on_hot_stores(self):
        """Repeated stores to one line: write-back coalesces them."""
        trace = Trace([0] * 50, [int(RefKind.STORE)] * 50)
        wb = wb_cache()
        wb.simulate(trace)
        wb.flush()
        wt = wt_cache()
        wt.simulate(trace)
        assert wb.traffic.total_bytes(16) < wt.traffic.total_bytes(16)
