"""Tests for the Section 6 long-line support."""

import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import IdealHitLastStore
from repro.core.long_lines import (
    InstructionRegisterCache,
    LastLineBufferCache,
    make_long_line_exclusion_cache,
)
from repro.trace.reference import RefKind
from repro.trace.trace import Trace
from repro.workloads.registry import instruction_trace


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


class TestLastLineBuffer:
    def test_sequential_words_hit_in_buffer(self):
        cache = make_long_line_exclusion_cache(CacheGeometry(64, 16))
        stats = cache.simulate(itrace([0, 4, 8, 12]))
        assert stats.misses == 1
        assert stats.buffer_hits == 3

    def test_buffer_hit_does_not_touch_fsm(self):
        geometry = CacheGeometry(64, 16)
        cache = make_long_line_exclusion_cache(geometry)
        cache.access(0)
        inner_accesses = cache.inner.stats.accesses
        cache.access(4)  # same line: buffer hit
        assert cache.inner.stats.accesses == inner_accesses

    def test_line_change_is_one_fsm_event(self):
        geometry = CacheGeometry(64, 16)
        cache = make_long_line_exclusion_cache(geometry)
        cache.simulate(itrace([0, 4, 16, 20, 0]))
        assert cache.inner.stats.accesses == 3  # lines 0, 1, 0

    def test_excluded_line_still_served_sequentially(self):
        """A bypassed line costs one miss; its other words come from
        the buffer — the paper's spatial-locality rescue."""
        geometry = CacheGeometry(64, 16)
        store = IdealHitLastStore(default=False)
        cache = make_long_line_exclusion_cache(geometry, store=store)
        cache.simulate(itrace([0, 4, 8, 12]))  # line 0 resident
        stats_before = cache.stats.misses
        # Conflicting line (64 bytes later at cache size 64): bypassed.
        result_stats = cache.simulate(itrace([64, 68, 72, 76]))
        assert result_stats.misses - stats_before == 1
        assert cache.inner.contains(0)
        assert not cache.inner.contains(64)

    def test_alternating_line_pairs_behave_like_word_pairs(self):
        """With the buffer, line-granular DE sees the same (a b)^n
        pattern Section 3 analyses."""
        geometry = CacheGeometry(64, 16)
        addrs = []
        for _ in range(10):
            addrs.extend([0, 4, 64, 68])
        de = make_long_line_exclusion_cache(
            geometry, store=IdealHitLastStore(default=False)
        ).simulate(itrace(addrs))
        dm = DirectMappedCache(geometry).simulate(itrace(addrs))
        assert dm.misses == 20
        assert de.misses <= 12

    def test_resident_lines_include_buffer(self):
        cache = make_long_line_exclusion_cache(
            CacheGeometry(64, 16), store=IdealHitLastStore(default=False)
        )
        cache.access(0)
        cache.access(64)  # bypassed but in the buffer
        assert geometry_lines(cache) >= {0, 4}

    def test_reset(self):
        cache = make_long_line_exclusion_cache(CacheGeometry(64, 16))
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.inner.stats.accesses == 0

    def test_wrapper_stats_consistent(self):
        cache = make_long_line_exclusion_cache(CacheGeometry(64, 16))
        stats = cache.simulate(itrace([0, 4, 64, 68, 0, 128]))
        stats.check()

    def test_wraps_any_cache(self):
        wrapped = LastLineBufferCache(DirectMappedCache(CacheGeometry(64, 16)))
        stats = wrapped.simulate(itrace([0, 4, 8, 12]))
        assert stats.misses == 1

    def test_forwards_evictions_and_cold_misses(self):
        # Every miss of the wrapper is an inner miss, so the inner's
        # bypasses, evictions and cold fills are the wrapper's too.
        trace = instruction_trace("gcc", 20_000)
        cache = make_long_line_exclusion_cache(CacheGeometry(8 * 1024, 16))
        stats = cache.simulate(trace)
        inner = cache.inner.stats
        assert stats.evictions == inner.evictions > 0
        assert stats.cold_misses == inner.cold_misses > 0
        assert stats.bypasses == inner.bypasses > 0
        assert stats.misses == inner.misses


def geometry_lines(cache):
    return set(cache.resident_lines())


class TestInstructionRegister:
    def test_only_instruction_runs_use_register(self):
        inner = DynamicExclusionCache(CacheGeometry(64, 16))
        cache = InstructionRegisterCache(inner)
        trace = Trace(
            [0, 4, 8],
            [int(RefKind.IFETCH), int(RefKind.LOAD), int(RefKind.IFETCH)],
        )
        stats = cache.simulate(trace)
        # The load at 4 goes to the inner cache (hit: line 0 resident);
        # the ifetch at 8 hits the register.
        assert stats.buffer_hits == 1
        assert stats.misses == 1

    def test_pure_instruction_stream_matches_last_line_buffer(self):
        geometry = CacheGeometry(64, 16)
        addrs = [0, 4, 64, 68, 0, 4, 16, 20]
        register = InstructionRegisterCache(DynamicExclusionCache(geometry))
        buffer = LastLineBufferCache(DynamicExclusionCache(geometry))
        a = register.simulate(itrace(addrs))
        b = buffer.simulate(itrace(addrs))
        assert a.misses == b.misses
        assert a.buffer_hits == b.buffer_hits

    def test_reset(self):
        cache = InstructionRegisterCache(DynamicExclusionCache(CacheGeometry(64, 16)))
        cache.access(0)
        cache.reset()
        assert cache.stats.accesses == 0

    def test_forwards_evictions_and_cold_misses(self):
        cache = InstructionRegisterCache(DynamicExclusionCache(CacheGeometry(64, 16)))
        stats = cache.simulate(itrace([0, 4, 64, 68, 0, 128, 0, 192, 0]))
        inner = cache.inner.stats
        assert stats.evictions == inner.evictions > 0
        assert stats.cold_misses == inner.cold_misses == 1
        stats.check()
