"""Differential tests: the fast engine must match the reference exactly.

Every supported configuration is checked for field-for-field
:class:`~repro.caches.stats.CacheStats` equality on all ten SPEC
analogue traces and on seeded random traces, across three geometries
(1KB / 32KB / 256KB at b=4) and — for the associativity-capable models
(Belady, LRU) — associativities 1, 2, and 4.  Two-level hierarchies are
checked for :class:`~repro.hierarchy.two_level.TwoLevelResult` equality
for every strategy at 1KB / 32KB L1s and L2/L1 ratios 1, 4 and 64.
Unsupported configurations must fall back to the reference engine
transparently, and the evaluators that route models through the engine
must give the results of the loops they replaced.
"""

import numpy as np
import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.optimal import (
    OptimalCache,
    OptimalDirectMappedCache,
    OptimalLastLineCache,
)
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.victim import VictimCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import HashedHitLastStore, IdealHitLastStore
from repro.experiments import ext_split
from repro.experiments.ext_split import SplitEvaluator, SplitFactory, SplitPair
from repro.experiments.ext_traffic import TrafficEvaluator, TrafficFactory
from repro.experiments.hierarchy_sweep import HierarchyEvaluator, HierarchyFactory
from repro.hierarchy.two_level import Strategy, TwoLevelCache
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.perf import engine
from repro.trace.reference import RefKind
from repro.trace.trace import Trace
from repro.workloads.registry import benchmark_names, instruction_trace, mixed_trace

GEOMETRIES = [CacheGeometry(kb * 1024, 4) for kb in (1, 32, 256)]
ASSOCIATIVITIES = [1, 2, 4]
TRACE_REFS = 20_000

_SPEC_TRACES = {}


def spec_trace(name):
    if name not in _SPEC_TRACES:
        _SPEC_TRACES[name] = instruction_trace(name, TRACE_REFS)
    return _SPEC_TRACES[name]


def geometry_id(geometry):
    return f"{geometry.size // 1024}KB"


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=geometry_id)
@pytest.mark.parametrize("name", benchmark_names())
class TestSpecEquivalence:
    def test_direct_mapped(self, name, geometry):
        trace = spec_trace(name)
        reference = DirectMappedCache(geometry).simulate(trace)
        fast = engine.simulate(DirectMappedCache(geometry), trace, engine="fast")
        assert fast == reference

    def test_dynamic_exclusion(self, name, geometry):
        trace = spec_trace(name)
        reference = DynamicExclusionCache(
            geometry, store=IdealHitLastStore(default=True)
        ).simulate(trace)
        fast = engine.simulate(
            DynamicExclusionCache(geometry, store=IdealHitLastStore(default=True)),
            trace,
            engine="fast",
        )
        assert fast == reference

    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    def test_belady(self, name, geometry, ways):
        trace = spec_trace(name)
        shaped = CacheGeometry(geometry.size, geometry.line_size, associativity=ways)
        reference = OptimalCache(shaped).simulate(trace)
        fast = engine.simulate(OptimalCache(shaped), trace, engine="fast")
        assert fast == reference

    def test_optimal_direct_mapped(self, name, geometry):
        trace = spec_trace(name)
        reference = OptimalDirectMappedCache(geometry).simulate(trace)
        fast = engine.simulate(
            OptimalDirectMappedCache(geometry), trace, engine="fast"
        )
        assert fast == reference

    def test_optimal_last_line(self, name, geometry):
        trace = spec_trace(name)
        shaped = CacheGeometry(geometry.size, 16)
        reference = OptimalLastLineCache(shaped).simulate(trace)
        fast = engine.simulate(OptimalLastLineCache(shaped), trace, engine="fast")
        assert fast == reference

    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    def test_lru(self, name, geometry, ways):
        trace = spec_trace(name)
        shaped = CacheGeometry(geometry.size, geometry.line_size, associativity=ways)
        reference = SetAssociativeCache(shaped).simulate(trace)
        fast = engine.simulate(SetAssociativeCache(shaped), trace, engine="fast")
        assert fast == reference


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=geometry_id)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestRandomEquivalence:
    def _trace(self, seed):
        rng = np.random.default_rng(seed)
        n = 5_000
        # Mix of local loops and far jumps so all three geometries see
        # hits, conflicts, and cold misses.
        addrs = (rng.integers(0, 1 << 16, size=n) * 4).tolist()
        return Trace(addrs, [0] * n)

    def test_direct_mapped(self, seed, geometry):
        trace = self._trace(seed)
        reference = DirectMappedCache(geometry).simulate(trace)
        assert (
            engine.simulate(DirectMappedCache(geometry), trace, engine="fast")
            == reference
        )

    @pytest.mark.parametrize("default", [True, False])
    def test_dynamic_exclusion(self, seed, geometry, default):
        trace = self._trace(seed)
        reference = DynamicExclusionCache(
            geometry, store=IdealHitLastStore(default=default)
        ).simulate(trace)
        fast = engine.simulate(
            DynamicExclusionCache(geometry, store=IdealHitLastStore(default=default)),
            trace,
            engine="fast",
        )
        assert fast == reference

    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    def test_belady(self, seed, geometry, ways):
        trace = self._trace(seed)
        shaped = CacheGeometry(geometry.size, geometry.line_size, associativity=ways)
        reference = OptimalCache(shaped).simulate(trace)
        assert engine.simulate(OptimalCache(shaped), trace, engine="fast") == reference

    def test_optimal_last_line(self, seed, geometry):
        trace = self._trace(seed)
        shaped = CacheGeometry(geometry.size, 16)
        reference = OptimalLastLineCache(shaped).simulate(trace)
        assert (
            engine.simulate(OptimalLastLineCache(shaped), trace, engine="fast")
            == reference
        )

    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    def test_lru(self, seed, geometry, ways):
        trace = self._trace(seed)
        shaped = CacheGeometry(geometry.size, geometry.line_size, associativity=ways)
        reference = SetAssociativeCache(shaped).simulate(trace)
        assert (
            engine.simulate(SetAssociativeCache(shaped), trace, engine="fast")
            == reference
        )


def random_trace(seed, n=5_000, words=1 << 16):
    rng = np.random.default_rng(seed)
    return Trace((rng.integers(0, words, size=n) * 4).tolist(), [0] * n)


def hierarchy(l1_kb, ratio, strategy, **kwargs):
    l1 = CacheGeometry(l1_kb * 1024, 4)
    l2 = CacheGeometry(l1_kb * 1024 * ratio, 4)
    return TwoLevelCache(l1, l2, strategy=strategy, **kwargs)


HIERARCHY_TRACES = [*benchmark_names(), "random-0", "random-1", "random-2"]


def hierarchy_trace(name):
    if name.startswith("random-"):
        # 4096 words: dense enough to conflict in a 1KB L1 and to
        # revisit lines a 64x L2 still holds.
        return random_trace(int(name[-1]), words=4096)
    return spec_trace(name)


@pytest.mark.parametrize("ratio", [1, 4, 64])
@pytest.mark.parametrize("l1_kb", [1, 32])
@pytest.mark.parametrize("name", HIERARCHY_TRACES)
def test_two_level_equivalence(name, l1_kb, ratio):
    trace = hierarchy_trace(name)
    for strategy in Strategy:
        model = hierarchy(l1_kb, ratio, strategy)
        assert engine.has_kernel(model)
        fast = engine.simulate(model, trace, engine="fast")
        reference = hierarchy(l1_kb, ratio, strategy).simulate(trace)
        assert fast == reference, strategy
        # The kernel is pure: the model is still unbuilt afterwards.
        assert model.is_cold()


class TestTwoLevelFallback:
    """Configurations outside the partition argument run the reference."""

    TRACE = random_trace(7, n=3_000, words=2048)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "build",
        [
            lambda s: hierarchy(1, 4, s, sticky_levels=2),
            lambda s: TwoLevelCache(
                CacheGeometry(1024, 4), CacheGeometry(4096, 16), strategy=s
            ),
        ],
        ids=["sticky-2", "l2-line-16"],
    )
    def test_unsupported_configuration(self, build, strategy):
        model = build(strategy)
        assert not engine.has_kernel(model)
        fast = engine.simulate(model, self.TRACE, engine="fast")
        assert fast == build(strategy).simulate(self.TRACE)
        # The fallback ran the reference loop, which builds the levels.
        assert fast.l1 is model.l1.stats

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_accessed_model(self, strategy):
        model = hierarchy(1, 4, strategy)
        model.access(0)
        assert not engine.has_kernel(model)
        expected = hierarchy(1, 4, strategy)
        expected.access(0)
        fast = engine.simulate(model, self.TRACE, engine="fast")
        assert fast == expected.simulate(self.TRACE)


SPLIT_LABELS = [label for label, _ in ext_split.SPEC.factories]


def old_split_miss_rate(model, trace):
    """The split evaluator before it went through the engine: the
    removed ``SplitPair.miss_rate`` loop, routing one reference at a
    time by kind, or a unified cache's own ``simulate``."""
    if not isinstance(model, SplitPair):
        return model.simulate(trace).miss_rate
    for addr, kind in trace.pairs():
        cache = model.icache if kind == RefKind.IFETCH else model.dcache
        cache.access(addr, kind)
    stats = model.icache.stats.merge(model.dcache.stats)
    return stats.misses / stats.accesses if stats.accesses else 0.0


@pytest.mark.parametrize("engine_name", ["reference", "fast"])
@pytest.mark.parametrize("label", SPLIT_LABELS)
@pytest.mark.parametrize("name", ["gcc", "spice"])
def test_split_routing_matches_per_reference_loop(name, label, engine_name):
    trace = mixed_trace(name, 20_000)
    factory = SplitFactory(label)
    for size in (2048, 32768):
        metrics = SplitEvaluator()(factory(size), trace, engine_name)
        assert metrics["miss_rate"] == old_split_miss_rate(factory(size), trace)


class TestEvaluatorDispatch:
    """Every evaluator cell reports the engine that actually ran."""

    @pytest.fixture
    def registry(self):
        registry = obs_metrics.install_registry(MetricsRegistry())
        yield registry
        obs_metrics.uninstall_registry()

    def dispatched(self, registry):
        return {
            (entry["labels"]["model"], entry["labels"]["engine_used"]): entry["value"]
            for entry in registry.export()
            if entry["name"] == "engine.dispatch"
        }

    @pytest.mark.parametrize("engine_name", ["reference", "fast"])
    def test_hierarchy_cells(self, registry, engine_name):
        trace = spec_trace("gcc")
        for strategy in Strategy:
            model = HierarchyFactory(strategy.value, 1024, 4)(4)
            HierarchyEvaluator()(model, trace, engine_name)
        assert self.dispatched(registry) == {("TwoLevelCache", engine_name): 5}
        # The hierarchy publishes no FSM events on either engine.
        assert not [e for e in registry.export() if e["name"].startswith("fsm.")]

    def test_split_cells(self, registry):
        trace = mixed_trace("gcc", 5_000)
        for label in SPLIT_LABELS:
            SplitEvaluator()(SplitFactory(label)(4096), trace, "fast")
        assert self.dispatched(registry) == {
            ("DirectMappedCache", "fast"): 4,
            ("DynamicExclusionCache", "fast"): 2,
        }
        # The DE cells' FSM events name the engine that ran.
        assert registry.total("fsm.sticky_saves", engine="fast") is not None
        assert registry.total("fsm.sticky_saves", engine="reference") is None

    def test_traffic_cells_fall_back(self, registry):
        trace = mixed_trace("gcc", 5_000)
        TrafficEvaluator()(TrafficFactory("direct-mapped")(4096), trace, "fast")
        assert self.dispatched(registry) == {("WritePolicyCache", "reference"): 1}


class TestKernelRegistry:
    def test_supported_configurations(self):
        geometry = CacheGeometry(1024, 4)
        assert engine.has_kernel(DirectMappedCache(geometry))
        assert engine.has_kernel(DynamicExclusionCache(geometry))
        assert engine.has_kernel(
            DynamicExclusionCache(geometry, store=IdealHitLastStore(default=False))
        )
        assert engine.has_kernel(OptimalCache(geometry))
        assert engine.has_kernel(OptimalDirectMappedCache(geometry))
        assert engine.has_kernel(OptimalLastLineCache(CacheGeometry(1024, 16)))
        assert engine.has_kernel(
            OptimalCache(CacheGeometry(1024, 4, associativity=4))
        )
        assert engine.has_kernel(SetAssociativeCache(geometry))
        assert engine.has_kernel(
            SetAssociativeCache(CacheGeometry(1024, 4, associativity=2))
        )
        for strategy in Strategy:
            assert engine.has_kernel(hierarchy(1, 64, strategy))

    def test_registered_kernel_types(self):
        assert set(engine.registered_kernel_types()) == {
            DirectMappedCache,
            DynamicExclusionCache,
            OptimalCache,
            OptimalDirectMappedCache,
            OptimalLastLineCache,
            SetAssociativeCache,
            TwoLevelCache,
        }

    def test_multi_sticky_falls_back(self):
        cache = DynamicExclusionCache(CacheGeometry(1024, 4), sticky_levels=2)
        assert not engine.has_kernel(cache)
        trace = Trace([0, 1024, 0, 1024] * 50, [0] * 200)
        fast = engine.simulate(cache, trace, engine="fast")
        reference = DynamicExclusionCache(
            CacheGeometry(1024, 4), sticky_levels=2
        ).simulate(trace)
        assert fast == reference
        # The fallback ran the reference path, which accumulates into
        # the model itself.
        assert cache.stats.accesses == 200

    def test_victim_cache_falls_back(self):
        cache = VictimCache(CacheGeometry(1024, 4), entries=4)
        assert not engine.has_kernel(cache)
        trace = Trace([0, 1024] * 20, [0] * 40)
        fast = engine.simulate(cache, trace, engine="fast")
        reference = VictimCache(CacheGeometry(1024, 4), entries=4).simulate(trace)
        assert fast == reference

    def test_non_lru_set_associative_falls_back(self):
        geometry = CacheGeometry(1024, 4, associativity=2)
        for policy in ("fifo", "random"):
            cache = SetAssociativeCache(geometry, policy=policy)
            assert not engine.has_kernel(cache)
            trace = Trace([0, 1024, 2048, 0] * 10, [0] * 40)
            fast = engine.simulate(cache, trace, engine="fast")
            reference = SetAssociativeCache(geometry, policy=policy).simulate(trace)
            assert fast == reference

    def test_warm_lru_falls_back(self):
        cache = SetAssociativeCache(CacheGeometry(1024, 4, associativity=2))
        cache.access(0)
        assert not engine.has_kernel(cache)

    def test_no_allocate_direct_mapped_falls_back(self):
        assert not engine.has_kernel(
            DirectMappedCache(CacheGeometry(1024, 4), allocate_on_miss=False)
        )

    def test_hashed_store_falls_back(self):
        assert not engine.has_kernel(
            DynamicExclusionCache(
                CacheGeometry(1024, 4), store=HashedHitLastStore(256)
            )
        )

    def test_warm_cache_falls_back(self):
        cache = DirectMappedCache(CacheGeometry(1024, 4))
        cache.access(0)
        assert not engine.has_kernel(cache)

    def test_prefilled_store_falls_back(self):
        store = IdealHitLastStore()
        store.update(7, False)
        assert not engine.has_kernel(
            DynamicExclusionCache(CacheGeometry(1024, 4), store=store)
        )

    def test_fast_path_does_not_mutate_the_model(self):
        cache = DirectMappedCache(CacheGeometry(1024, 4))
        trace = Trace([0, 4, 8], [0] * 3)
        engine.simulate(cache, trace, engine="fast")
        assert cache.stats.accesses == 0
        assert not cache.resident_lines()


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            engine.simulate(
                DirectMappedCache(CacheGeometry(64, 4)), Trace.empty(), engine="warp"
            )

    def test_reference_engine_ignores_kernels(self):
        cache = DirectMappedCache(CacheGeometry(64, 4))
        trace = Trace([0, 4, 8], [0] * 3)
        stats = engine.simulate(cache, trace, engine="reference")
        assert stats is cache.stats
        assert cache.stats.accesses == 3
        # Naming no engine is the fast engine: a kernel model returns
        # standalone stats and leaves the model untouched.
        assert engine.resolve_engine(None) == "fast"
        unnamed = DirectMappedCache(CacheGeometry(64, 4))
        fast = engine.simulate(unnamed, trace)
        assert fast is not unnamed.stats
        assert unnamed.stats.accesses == 0
        assert fast == stats
