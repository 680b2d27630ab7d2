"""Tests for Section 6 scheme 3: exclusion with a stream buffer."""

import pytest

from repro.caches.geometry import CacheGeometry
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import IdealHitLastStore
from repro.core.long_lines import (
    ExclusionStreamBufferCache,
    LastLineBufferCache,
)
from repro.trace.trace import Trace

GEOMETRY = CacheGeometry(64, 16)


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


def make_cache(depth=4, default=True):
    inner = DynamicExclusionCache(GEOMETRY, store=IdealHitLastStore(default=default))
    return ExclusionStreamBufferCache(inner, depth=depth)


class TestBasics:
    def test_depth_must_be_positive(self):
        inner = DynamicExclusionCache(GEOMETRY)
        with pytest.raises(ValueError):
            ExclusionStreamBufferCache(inner, depth=0)

    def test_within_line_run_served_without_fsm(self):
        cache = make_cache()
        cache.access(0)
        inner_events = cache.inner.stats.accesses
        cache.access(4)  # same 16B line
        assert cache.inner.stats.accesses == inner_events
        assert cache.stats.buffer_hits == 1

    def test_sequential_lines_prefetched(self):
        cache = make_cache(depth=4)
        stats = cache.simulate(itrace([0, 16, 32, 48]))
        # First line misses; the following three come from the stream.
        assert stats.misses == 1
        assert stats.buffer_hits == 3

    def test_prefetched_lines_enter_fsm(self):
        cache = make_cache(depth=4)
        cache.simulate(itrace([0, 16]))
        # Line 1 (addr 16) was a prefetch hit but the FSM stored it.
        assert cache.inner.contains(16)

    def test_non_sequential_jump_misses_and_restarts(self):
        cache = make_cache(depth=2)
        cache.access(0)
        result = cache.access(128)
        assert result.miss
        assert cache.access(144).hit  # new stream covers the next line

    def test_stream_extends_on_hits(self):
        cache = make_cache(depth=1)
        stats = cache.simulate(itrace([0, 16, 32, 48]))
        assert stats.misses == 1  # depth 1 keeps re-extending

    def test_stats_consistent(self):
        import random
        rng = random.Random(3)
        addrs = [rng.randrange(64) * 4 for _ in range(500)]
        stats = make_cache().simulate(itrace(addrs))
        stats.check()

    def test_forwards_evictions_and_cold_misses(self):
        cache = make_cache()
        # Lines 1-4 arrive as prefetch hits; line 4 displaces line 0.
        stats = cache.simulate(itrace([0, 16, 32, 48, 64, 0, 128]))
        inner = cache.inner.stats
        # Every inner eviction is the wrapper's, a prefetch hit's too,
        # but only a miss that fills an empty frame is a cold miss.
        assert stats.evictions == inner.evictions > 0
        assert stats.cold_misses == 1 < inner.cold_misses
        stats.check()

    def test_reset(self):
        cache = make_cache()
        cache.simulate(itrace([0, 16, 32]))
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.inner.stats.accesses == 0
        assert cache.resident_lines() == frozenset()


class TestAgainstLastLineScheme:
    def test_never_more_memory_misses_on_sequential_code(self):
        """The stream scheme hides sequential fetches the last-line
        scheme pays for."""
        addrs = list(range(0, 512, 4))  # straight-line code
        stream = make_cache(depth=4).simulate(itrace(addrs))
        last_line = LastLineBufferCache(
            DynamicExclusionCache(GEOMETRY, store=IdealHitLastStore())
        ).simulate(itrace(addrs))
        assert stream.misses < last_line.misses

    def test_conflict_pattern_still_excluded(self):
        """Exclusion behaviour survives the prefetcher: the loop-level
        pattern converges to keeping the hot line."""
        hot, cold = 0, 64  # same set in the 64B cache
        addrs = []
        for _ in range(10):
            addrs.extend([hot] * 5)
            addrs.append(cold)
        cache = make_cache(depth=2, default=False)
        cache.simulate(itrace(addrs))
        assert cache.inner.contains(hot)
        assert not cache.inner.contains(cold)

    def test_resident_lines_include_last_line(self):
        cache = make_cache(default=False)
        cache.access(0)
        cache.access(128)  # bypassed by the FSM but current line
        assert GEOMETRY.line_address(128) in cache.resident_lines()
