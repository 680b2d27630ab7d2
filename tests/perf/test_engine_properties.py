"""Property tests for the engine dispatch.

Two invariants, enforced over randomly generated traces and geometries:

* for **every** registered kernel type, ``simulate(model, trace,
  engine="fast")`` equals ``engine="reference"`` field for field (the
  factory table below must cover ``engine.registered_kernel_types()``
  exactly, so registering a new kernel without extending this test
  fails loudly);
* ``has_kernel`` is False — i.e. the fallback is taken — for warm
  models and for unsupported store/policy configurations.

An empty trace, which the random traces reach only by chance, also
gets its own check: equal results and equal ``fsm.*`` series on both
engines for every registered type.  A benchmark trace checks the
series' values too.

Two-level hierarchies get their own property over all five hit-last
strategies at tiny geometries, where L1 and L2 conflicts are dense.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.long_lines import LastLineBufferCache
from repro.core.set_assoc_exclusion import SetAssociativeExclusionCache
from repro.hierarchy.two_level import Strategy, TwoLevelCache
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.perf import engine
from repro.trace.trace import Trace
from repro.workloads.registry import instruction_trace

pytestmark = pytest.mark.usefixtures("compiled_kernels")


def _direct_mapped(geometry):
    return CacheGeometry(geometry.size, geometry.line_size)


#: Model type -> factory producing a kernel-eligible instance for a
#: geometry.  Keys must match the registry exactly (checked below).
#: Direct-mapped-only models reshape the geometry to associativity 1.
FACTORIES = {
    DirectMappedCache: lambda g: DirectMappedCache(_direct_mapped(g)),
    DynamicExclusionCache: lambda g: DynamicExclusionCache(
        _direct_mapped(g), store=IdealHitLastStore(default=True)
    ),
    OptimalCache: lambda g: OptimalCache(g),
    OptimalDirectMappedCache: lambda g: OptimalDirectMappedCache(_direct_mapped(g)),
    OptimalLastLineCache: lambda g: OptimalLastLineCache(_direct_mapped(g)),
    SetAssociativeCache: lambda g: SetAssociativeCache(g, policy="lru"),
    TwoLevelCache: lambda g: TwoLevelCache(
        _direct_mapped(g),
        CacheGeometry(g.size * 4, g.line_size),
        strategy="assume-miss",
    ),
    VictimCache: lambda g: VictimCache(_direct_mapped(g), entries=2),
    SetAssociativeExclusionCache: lambda g: SetAssociativeExclusionCache(
        g, store=IdealHitLastStore(default=False)
    ),
    LastLineBufferCache: lambda g: LastLineBufferCache(
        DynamicExclusionCache(
            _direct_mapped(g),
            store=HashedHitLastStore(_direct_mapped(g).num_lines),
        )
    ),
}

#: Small geometries so random traces produce real conflict traffic.
GEOMETRIES = [
    CacheGeometry(64, 4),
    CacheGeometry(256, 4, associativity=2),
    CacheGeometry(1024, 16, associativity=4),
    CacheGeometry(512, 8),
]

traces = st.lists(
    st.integers(min_value=0, max_value=(1 << 12) - 1), min_size=0, max_size=400
).map(lambda words: Trace([w * 4 for w in words], [0] * len(words)))


def test_factory_table_covers_the_registry():
    assert set(FACTORIES) == set(engine.registered_kernel_types())


@settings(max_examples=40, deadline=None)
@given(trace=traces, index=st.integers(min_value=0, max_value=len(GEOMETRIES) - 1))
def test_fast_engine_equals_reference_for_every_kernel_type(trace, index):
    geometry = GEOMETRIES[index]
    for factory in FACTORIES.values():
        fast = engine.simulate(factory(geometry), trace, engine="fast")
        reference = engine.simulate(factory(geometry), trace, engine="reference")
        assert fast == reference


def _run_empty(model, engine_name):
    """Simulate a cold model on an empty trace; the result and the
    names of the ``fsm.*`` series it published."""
    registry = obs_metrics.install_registry(MetricsRegistry())
    try:
        result = engine.simulate(model, Trace.empty(), engine=engine_name)
    finally:
        obs_metrics.uninstall_registry()
    names = {e["name"] for e in registry.export() if e["name"].startswith("fsm.")}
    return result, names


@pytest.mark.parametrize("model_type", list(FACTORIES), ids=lambda t: t.__name__)
def test_empty_trace_is_equal_on_both_engines(model_type):
    factory = FACTORIES[model_type]
    assert engine.has_kernel(factory(GEOMETRIES[0]))
    fast = _run_empty(factory(GEOMETRIES[0]), "fast")
    reference = _run_empty(factory(GEOMETRIES[0]), "reference")
    assert fast == reference


def _run_counted(model, trace, engine_name):
    """The ``fsm.*`` counts a run published, keyed by series name and
    benchmark; the engine label is left out, so both engines compare."""
    registry = obs_metrics.install_registry(MetricsRegistry())
    try:
        engine.simulate(model, trace, engine=engine_name)
    finally:
        obs_metrics.uninstall_registry()
    counts = {}
    for entry in registry.export():
        if entry["name"].startswith("fsm."):
            assert entry["labels"]["engine"] == engine_name
            counts[entry["name"], entry["labels"]["benchmark"]] = entry["value"]
    return counts


@pytest.mark.parametrize("model_type", list(FACTORIES), ids=lambda t: t.__name__)
def test_fsm_counts_are_equal_on_both_engines(model_type):
    geometry = CacheGeometry(1024, 16, associativity=2)
    trace = instruction_trace("gcc", 20_000)
    fast = _run_counted(FACTORIES[model_type](geometry), trace, "fast")
    reference = _run_counted(FACTORIES[model_type](geometry), trace, "reference")
    assert fast == reference
    publishes = model_type in (DynamicExclusionCache, LastLineBufferCache)
    assert bool(fast) == publishes
    if publishes:
        # The mechanism fires on this trace, so equal counts say something.
        assert fast["fsm.sticky_saves", "gcc"] > 0


@settings(max_examples=20, deadline=None)
@given(trace=traces)
def test_fast_path_taken_for_every_kernel_type(trace):
    # The equality test above would pass vacuously if every model fell
    # back; make sure the kernel actually matches a fresh instance.
    for factory in FACTORIES.values():
        assert engine.has_kernel(factory(GEOMETRIES[0]))


@settings(max_examples=20, deadline=None)
@given(trace=traces)
def test_warm_models_fall_back(trace):
    for model_type, factory in FACTORIES.items():
        model = factory(GEOMETRIES[0])
        if not hasattr(model, "access"):
            continue  # offline models are stateless; nothing to warm
        model.access(0)
        assert not engine.has_kernel(model), model_type


#: Runs of one to three references to words of a 64 B L1's (16 lines)
#: first four sets, eight words per set: every set sees long conflict
#: chains, and the words spread over up to 128 L2 lines.  At least 50
#: runs, because the hit-last and L2-invalidation mistakes this must
#: catch take a dozen conflicting references in one set to show.
dense_traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=31), st.integers(1, 3)),
    min_size=50,
    max_size=300,
).map(
    lambda runs: Trace(
        [
            ((word & 3) | (word >> 2 << 4)) * 4
            for word, repeat in runs
            for _ in range(repeat)
        ],
        [0] * sum(repeat for _, repeat in runs),
    )
)


@settings(max_examples=100, deadline=None)
@given(
    trace=dense_traces,
    ratio=st.sampled_from([1, 2, 8]),
    bits_per_line=st.sampled_from([1, 4]),
)
def test_two_level_fast_equals_reference_for_every_strategy(
    trace, ratio, bits_per_line
):
    l1 = CacheGeometry(64, 4)
    l2 = CacheGeometry(64 * ratio, 4)
    for strategy in Strategy:
        def build():
            return TwoLevelCache(
                l1, l2, strategy=strategy, hashed_bits_per_line=bits_per_line
            )

        model = build()
        assert engine.has_kernel(model)
        assert engine.simulate(model, trace, engine="fast") == build().simulate(trace)


@settings(max_examples=100, deadline=None)
@given(trace=dense_traces, num_bits=st.sampled_from([1, 4, 16, 32, 64]))
def test_hashed_dynamic_exclusion_fast_equals_reference(trace, num_bits):
    # Eight words in each of 16 sets share 1-64 bits of the table:
    # collisions within every set and, below 16 bits, across sets.
    geometry = CacheGeometry(64, 4)

    def build():
        store = HashedHitLastStore(num_bits)
        return DynamicExclusionCache(geometry, store=store)

    model = build()
    assert engine.has_kernel(model)
    assert engine.simulate(model, trace, engine="fast") == build().simulate(trace)


def test_unsupported_stores_and_policies_fall_back():
    geometry = GEOMETRIES[0]
    assert not engine.has_kernel(DynamicExclusionCache(geometry, sticky_levels=2))
    assert not engine.has_kernel(
        SetAssociativeExclusionCache(geometry, store=HashedHitLastStore(64))
    )
    assert not engine.has_kernel(
        SetAssociativeExclusionCache(geometry, sticky_levels=2)
    )
    assert not engine.has_kernel(
        LastLineBufferCache(DynamicExclusionCache(geometry, sticky_levels=2))
    )
    assert not engine.has_kernel(SetAssociativeCache(geometry, policy="fifo"))
    assert not engine.has_kernel(SetAssociativeCache(geometry, policy="random"))
    assert not engine.has_kernel(
        DirectMappedCache(geometry, allocate_on_miss=False)
    )
    assert not engine.has_kernel(
        TwoLevelCache(geometry, CacheGeometry(256, 4), sticky_levels=2)
    )
    assert not engine.has_kernel(TwoLevelCache(geometry, CacheGeometry(256, 16)))
