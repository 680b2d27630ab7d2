"""Tests for the experiment infrastructure."""

import pytest

from repro.caches.geometry import CacheGeometry
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.long_lines import LastLineBufferCache
from repro.experiments import common
from repro.perf import trace_cache
from repro.perf.trace_cache import TraceKey, as_trace


class TestTraceScale:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SCALE", raising=False)
        assert common.trace_scale() == 1.0
        assert common.max_refs() == common.BASE_MAX_REFS

    def test_scale_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.5")
        assert common.max_refs() == common.BASE_MAX_REFS // 2

    def test_bad_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "banana")
        with pytest.raises(ValueError, match="number"):
            common.trace_scale()

    def test_non_positive_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0")
        with pytest.raises(ValueError, match="positive"):
            common.trace_scale()


class TestTraceCache:
    """all_traces materialises through the one perf.trace_cache memo."""

    def _tomcatv(self, kind="instruction"):
        traces = common.all_traces(kind)
        return traces[[t.name for t in traces].index("tomcatv")]

    def test_traces_are_memoised(self):
        a = self._tomcatv()
        assert self._tomcatv() is a
        assert as_trace(TraceKey("tomcatv", "instruction", common.max_refs())) is a

    def test_distinct_kinds_distinct_traces(self):
        assert self._tomcatv("instruction") is not self._tomcatv("data")

    def test_scale_invalidates(self, monkeypatch):
        a = self._tomcatv()
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.01")
        b = self._tomcatv()
        assert len(b) < len(a)

    def test_all_traces_order(self):
        from repro.workloads.registry import benchmark_names

        traces = common.all_traces()
        assert [t.name for t in traces] == benchmark_names()

    def test_clear(self):
        a = self._tomcatv()
        common.clear_trace_cache()
        assert self._tomcatv() is not a

    def test_memo_is_bounded_fifo(self, monkeypatch):
        """Past _TRACE_CACHE_LIMIT recipes the oldest trace is evicted,
        so flipping scales or flooding recipes cannot grow the memo."""
        monkeypatch.setattr(trace_cache, "_TRACE_CACHE_LIMIT", 3)
        common.clear_trace_cache()
        keys = [TraceKey("gcc", "instruction", 100 + n) for n in range(4)]
        first = as_trace(keys[0])
        for key in keys[1:]:
            as_trace(key)
        assert list(trace_cache._TRACE_CACHE) == keys[1:]
        assert as_trace(keys[0]) is not first
        assert list(trace_cache._TRACE_CACHE) == keys[2:] + keys[:1]


class TestFactories:
    def test_standard_factories_single_word(self):
        factories = common.standard_factories(4)
        de = factories["dynamic-exclusion"](1024)
        assert isinstance(de, DynamicExclusionCache)

    def test_standard_factories_long_lines(self):
        factories = common.standard_factories(16)
        de = factories["dynamic-exclusion"](1024)
        assert isinstance(de, LastLineBufferCache)

    def test_factories_build_fresh_instances(self):
        factories = common.standard_factories(4)
        assert factories["direct-mapped"](1024) is not factories["direct-mapped"](1024)

    def test_geometry_matches_parameter(self):
        factories = common.standard_factories(4)
        cache = factories["direct-mapped"](2048)
        assert cache.geometry == CacheGeometry(2048, 4)
