"""Observability must not perturb the science.

Two contracts pinned here:

* **neutrality** — installing the tracer and metrics registry and
  enabling a cProfile (what ``REPRO_PROFILE=1`` does) changes zero
  :class:`CacheStats` outputs on either engine
  (the parity goldens stay byte-identical with instrumentation on);
* **mechanism parity** — the FSM event counters (``fsm.sticky_saves``,
  ``fsm.hit_last_loads``, ``fsm.exclusion_flips``) published by the
  reference cache and by the fast kernels agree exactly per benchmark,
  so the kernels are checked mechanism-for-mechanism, not just
  miss-rate-for-miss-rate.
"""

import cProfile

import pytest

from repro import obs
from repro.caches.geometry import CacheGeometry
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.obs.metrics import MetricsRegistry
from repro.perf.engine import simulate
from repro.workloads.registry import trace_by_kind

REFS = 20_000
FSM_COUNTERS = ("sticky_saves", "hit_last_loads", "exclusion_flips")


@pytest.fixture(scope="module")
def gcc_trace():
    return trace_by_kind("gcc", "instruction", max_refs=REFS)


def _simulate(trace, engine):
    cache = DynamicExclusionCache(CacheGeometry(1024, 4))
    return simulate(cache, trace, engine=engine)


def _fsm_counts(registry, trace, engine):
    labels = {"benchmark": trace.name, "engine": engine}
    return {
        name: registry.value(f"fsm.{name}", **labels) for name in FSM_COUNTERS
    }


class TestInstrumentationNeutrality:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_stats_identical_with_and_without_instrumentation(
        self, engine, gcc_trace, tmp_path
    ):
        plain = _simulate(gcc_trace, engine)
        tracer = obs.install_tracer(obs.Tracer(tmp_path / engine))
        obs.install_registry(MetricsRegistry())
        profile = cProfile.Profile()
        profile.enable()
        try:
            instrumented = _simulate(gcc_trace, engine)
        finally:
            profile.disable()
            obs.uninstall_registry()
            obs.uninstall_tracer()
            tracer.close()
        assert instrumented == plain

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_simulate_span_and_counters_are_emitted(
        self, engine, gcc_trace, tmp_path
    ):
        tracer = obs.install_tracer(obs.Tracer(tmp_path / engine))
        registry = obs.install_registry(MetricsRegistry())
        try:
            _simulate(gcc_trace, engine)
        finally:
            obs.uninstall_registry()
            obs.uninstall_tracer()
            tracer.close()
        totals = tracer.aggregate()
        assert totals["simulate"]["count"] == 1
        counts = _fsm_counts(registry, gcc_trace, engine)
        assert all(value is not None for value in counts.values())


class TestFsmCounterParity:
    def test_reference_and_fast_agree_exactly(self, gcc_trace):
        counts = {}
        stats = {}
        for engine in ("reference", "fast"):
            registry = obs.install_registry(MetricsRegistry())
            try:
                stats[engine] = _simulate(gcc_trace, engine)
            finally:
                obs.uninstall_registry()
            counts[engine] = _fsm_counts(registry, gcc_trace, engine)
        # Non-trivial workload: the mechanism actually fires.
        assert counts["reference"]["sticky_saves"] > 0
        assert counts["reference"]["hit_last_loads"] > 0
        assert counts["reference"]["exclusion_flips"] > 0
        assert counts["reference"] == counts["fast"]
        assert stats["reference"] == stats["fast"]

    def test_sticky_saves_equal_stats_bypasses(self, gcc_trace):
        registry = obs.install_registry(MetricsRegistry())
        try:
            stats = _simulate(gcc_trace, "reference")
        finally:
            obs.uninstall_registry()
        counts = _fsm_counts(registry, gcc_trace, "reference")
        assert counts["sticky_saves"] == stats.bypasses

    def test_events_accumulate_on_the_cache_object(self, gcc_trace):
        cache = DynamicExclusionCache(CacheGeometry(1024, 4))
        stats = simulate(cache, gcc_trace, engine="reference")
        events = cache.events
        assert events.sticky_saves == stats.bypasses
        assert events.as_dict() == {
            "sticky_saves": events.sticky_saves,
            "hit_last_loads": events.hit_last_loads,
            "exclusion_flips": events.exclusion_flips,
        }

    def test_access_path_matches_simulate_fast_path(self, gcc_trace):
        """The per-reference ``access`` loop and the stats-only
        ``simulate`` loop count the same FSM events."""
        fast_path = DynamicExclusionCache(CacheGeometry(1024, 4))
        fast_path.simulate(gcc_trace)
        stepped = DynamicExclusionCache(CacheGeometry(1024, 4))
        for ref in gcc_trace:
            stepped.access(ref.addr, ref.kind)
        assert stepped.events == fast_path.events
        assert stepped.stats == fast_path.stats
