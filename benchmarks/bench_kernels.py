"""Microbenchmarks: raw simulation throughput of each cache model.

Each model's reference ``simulate`` runs over a fixed 50k-reference
trace, so simulator performance regressions show up independently of
the figure passes.

``test_kernel_ratios_artifact`` writes
``benchmarks/results/bench_kernels.json``: each model's throughput as a
ratio of the direct-mapped baseline.  Absolute refs/sec track the host
clock, but the *relative* cost of the exclusion/optimal/two-level
models against direct-mapped is mostly a property of the simulators (a
busy neighbour on a shared host slows the memory-heavy models up to
~15% more than direct-mapped), so those ratios are what
``tools/check_bench_regression.py`` gates.  Each round
times, for every model in turn, one direct-mapped run and one run of
the model back to back, the side that goes first alternating, so both
see the same host speed; a model's ratio is the median of its
per-round ratios.  A run takes milliseconds, so the rounds visit the
models round-robin: a slow spell then moves a round or two of every
model instead of most rounds of one.
"""

import statistics
import time

from conftest import write_json_result

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.optimal import OptimalDirectMappedCache
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.victim import VictimCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import HashedHitLastStore, IdealHitLastStore
from repro.core.long_lines import make_long_line_exclusion_cache
from repro.hierarchy.two_level import TwoLevelCache
from repro.workloads.registry import instruction_trace

GEOMETRY = CacheGeometry(32 * 1024, 4)
TRACE_REFS = 50_000
ROUNDS = 9

#: label -> a fresh model of that kind; each is timed against
#: ``direct_mapped``.
MODELS = {
    "two_way": lambda: SetAssociativeCache(CacheGeometry(32 * 1024, 4, associativity=2)),
    "victim": lambda: VictimCache(GEOMETRY, entries=4),
    "exclusion_ideal": lambda: DynamicExclusionCache(GEOMETRY, store=IdealHitLastStore()),
    "exclusion_hashed": lambda: DynamicExclusionCache(
        GEOMETRY, store=HashedHitLastStore(GEOMETRY.num_lines * 4)
    ),
    "exclusion_long_lines": lambda: make_long_line_exclusion_cache(
        CacheGeometry(32 * 1024, 16)
    ),
    "optimal": lambda: OptimalDirectMappedCache(GEOMETRY),
    "two_level": lambda: TwoLevelCache(
        GEOMETRY, CacheGeometry(256 * 1024, 4), strategy="assume-miss"
    ),
}


def _seconds(make_model, trace):
    """The time to build a model and ``simulate`` the trace on it."""
    start = time.perf_counter()
    result = make_model().simulate(trace)
    seconds = time.perf_counter() - start
    assert getattr(result, "l1", result).accesses == TRACE_REFS
    return seconds


def _direct_mapped():
    return DirectMappedCache(GEOMETRY)


def test_kernel_ratios_artifact(results_dir):
    """Persist per-model throughput relative to direct-mapped.

    ``<model>_vs_direct_mapped_speedup`` is direct-mapped's time over
    the model's, the median over rounds: 1.0 means "as fast as the
    baseline", smaller means proportionally slower.  Host-independent,
    so every ratio is gated.
    """
    trace = instruction_trace("gcc", TRACE_REFS)
    _seconds(_direct_mapped, trace)  # warm the trace's memoised views
    direct_mapped_times = []
    ratios = {label: [] for label in MODELS}
    for round_index in range(ROUNDS):
        for label, make_model in MODELS.items():
            if round_index % 2 == 0:
                baseline = _seconds(_direct_mapped, trace)
                seconds = _seconds(make_model, trace)
            else:
                seconds = _seconds(make_model, trace)
                baseline = _seconds(_direct_mapped, trace)
            direct_mapped_times.append(baseline)
            ratios[label].append(baseline / seconds)
    metrics = {
        f"{label}_vs_direct_mapped_speedup": statistics.median(values)
        for label, values in ratios.items()
    }
    metrics["direct_mapped_rps"] = TRACE_REFS / statistics.median(direct_mapped_times)
    write_json_result(
        results_dir,
        "bench_kernels",
        config={
            "trace": "gcc",
            "refs": TRACE_REFS,
            "geometry": "32KB b=4B",
            "rounds": ROUNDS,
        },
        metrics=metrics,
    )


def test_throughput_trace_generation(benchmark):
    trace = benchmark(lambda: instruction_trace("espresso", 20_000))
    assert len(trace) == 20_000
