"""Tests for the exclusion + victim-buffer hybrid."""

import random

import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.victim import VictimCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import IdealHitLastStore
from repro.core.victim_exclusion import ExclusionVictimCache
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.perf import engine
from repro.trace.trace import Trace
from repro.workloads.registry import instruction_trace

GEOMETRY = CacheGeometry(64, 4)


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


class TestBasics:
    def test_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            ExclusionVictimCache(GEOMETRY, entries=0)

    def test_hits_pass_through(self):
        cache = ExclusionVictimCache(GEOMETRY)
        cache.access(0)
        assert cache.access(0).hit

    def test_eviction_lands_in_buffer(self):
        cache = ExclusionVictimCache(
            GEOMETRY, store=IdealHitLastStore(default=True)
        )
        cache.access(0)
        cache.access(64)  # default=True loads immediately, evicting 0
        assert 0 in cache.resident_lines()
        assert cache.access(0).hit
        assert cache.stats.buffer_hits == 1

    def test_bypassed_words_do_not_pollute_buffer(self):
        cache = ExclusionVictimCache(
            GEOMETRY, entries=1, store=IdealHitLastStore(default=False)
        )
        cache.access(0)
        cache.access(64)  # bypassed
        # The buffer is still empty: a second distinct conflicting word
        # should also miss rather than hit a polluted buffer.
        assert 16 not in cache.resident_lines()
        assert cache.stats.buffer_hits == 0

    def test_stats_consistent(self):
        rng = random.Random(4)
        cache = ExclusionVictimCache(GEOMETRY, entries=4)
        stats = cache.simulate(itrace([rng.randrange(64) * 4 for _ in range(600)]))
        stats.check()

    def test_reset(self):
        cache = ExclusionVictimCache(GEOMETRY)
        cache.access(0)
        cache.access(64)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_lines() == frozenset()


def test_publishes_the_inner_caches_fsm_events():
    cache = ExclusionVictimCache(CacheGeometry(1024, 4), entries=4)
    registry = obs_metrics.install_registry(MetricsRegistry())
    try:
        engine.simulate(cache, instruction_trace("gcc", 20_000))
    finally:
        obs_metrics.uninstall_registry()
    assert cache.events is cache.inner.events
    published = {
        name: registry.total(f"fsm.{name}", benchmark="gcc", engine="reference")
        for name in cache.inner.events.as_dict()
    }
    assert published == cache.inner.events.as_dict()
    assert published["sticky_saves"] > 0


class TestAgainstComponents:
    def test_three_way_rotation_beats_exclusion_alone(self):
        """(a b c)^n defeats the lone FSM; the buffer catches the
        rotating victims."""
        addrs = [0, 64, 128] * 30
        hybrid = ExclusionVictimCache(
            GEOMETRY, entries=2, store=IdealHitLastStore(default=True)
        ).simulate(itrace(addrs))
        exclusion = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=True)
        ).simulate(itrace(addrs))
        assert hybrid.misses < exclusion.misses

    def test_never_worse_than_direct_mapped_on_random(self):
        rng = random.Random(8)
        addrs = [rng.randrange(96) * 4 for _ in range(1500)]
        hybrid = ExclusionVictimCache(
            GEOMETRY, entries=4, store=IdealHitLastStore(default=True)
        ).simulate(itrace(addrs))
        direct = DirectMappedCache(GEOMETRY).simulate(itrace(addrs))
        assert hybrid.misses <= direct.misses

    def test_combines_both_mechanisms_on_mixed_pattern(self):
        """A stream with both a ping-pong pair (exclusion's target) and
        a 3-way rotation (the victim buffer's target): the hybrid beats
        either mechanism alone."""
        addrs = []
        for _ in range(40):
            addrs.extend([0, 64])            # set 0: ping-pong
            addrs.extend([4, 68, 132])       # set 1: rotation
        trace = itrace(addrs)
        hybrid = ExclusionVictimCache(
            GEOMETRY, entries=1, store=IdealHitLastStore(default=True)
        ).simulate(trace)
        exclusion = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=True)
        ).simulate(trace)
        victim = VictimCache(GEOMETRY, entries=1).simulate(trace)
        assert hybrid.misses < exclusion.misses
        assert hybrid.misses < victim.misses
