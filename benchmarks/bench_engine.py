"""Fast-engine speedup benchmark: compiled kernels vs reference.

Times both engines on the same 200k-reference gcc trace for every
kernel-backed policy family — direct-mapped, dynamic exclusion (ideal
store, and a hashed table of half a bit per line as in ext-hashed),
Belady-with-bypass (the figures' "optimal" curve, direct-mapped and
2-way), the last-line optimal variant, LRU set-associative, the victim
cache, 2-way set-associative exclusion and the assume-hit two-level
hierarchy — reports refs/sec and speedup, and persists the table to
``benchmarks/results/bench_engine.txt``.

Each round times one reference run and one fast run back to back,
the side that goes first alternating, so both see the same host
speed; a model's speedup is the median of its per-round ratios, which
a slow spell of a few seconds moves by at most a round.  The
acceptance floors are a 5x speedup on the direct-mapped and Belady
models and 2x on dynamic exclusion; the assertions below keep
regressions visible.
"""

import statistics
import time

from conftest import write_json_result

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.optimal import OptimalCache, OptimalDirectMappedCache, OptimalLastLineCache
from repro.caches.set_associative import SetAssociativeCache
from repro.caches.victim import VictimCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import HashedHitLastStore
from repro.core.set_assoc_exclusion import SetAssociativeExclusionCache
from repro.hierarchy.two_level import TwoLevelCache
from repro.perf import engine
from repro.workloads.registry import instruction_trace

GEOMETRY = CacheGeometry(32 * 1024, 4)
GEOMETRY_2WAY = CacheGeometry(32 * 1024, 4, associativity=2)
GEOMETRY_B16 = CacheGeometry(32 * 1024, 16)
TRACE_REFS = 200_000
ROUNDS = 9

#: label -> (model factory, minimum accepted speedup).
MODELS = {
    "direct-mapped": (lambda: DirectMappedCache(GEOMETRY), 5.0),
    "dynamic-exclusion": (lambda: DynamicExclusionCache(GEOMETRY), 2.0),
    "optimal": (lambda: OptimalDirectMappedCache(GEOMETRY), 5.0),
    "optimal-2way": (lambda: OptimalCache(GEOMETRY_2WAY), 2.0),
    "optimal-last-line": (lambda: OptimalLastLineCache(GEOMETRY_B16), 3.0),
    "lru-2way": (lambda: SetAssociativeCache(GEOMETRY_2WAY), 3.0),
    "victim-4": (lambda: VictimCache(GEOMETRY, entries=4), 3.0),
    "exclusion-2way": (lambda: SetAssociativeExclusionCache(GEOMETRY_2WAY), 3.0),
    "hashed-exclusion": (
        lambda: DynamicExclusionCache(
            GEOMETRY, store=HashedHitLastStore(GEOMETRY.num_lines // 2)
        ),
        2.0,
    ),
    "two-level": (
        lambda: TwoLevelCache(GEOMETRY, GEOMETRY.scaled(4), strategy="assume-hit"),
        3.0,
    ),
}


def _seconds(make_cache, trace, engine_name):
    """One timed run on a fresh model, and its result."""
    cache = make_cache()
    start = time.perf_counter()
    result = engine.simulate(cache, trace, engine=engine_name)
    return time.perf_counter() - start, result


def _measure(label, make_cache, trace):
    """Median reference and fast times and the median per-round ratio."""
    assert engine.has_kernel(make_cache()), f"{label}: no fast kernel registered"
    _seconds(make_cache, trace, "fast")  # load the library, warm the caches
    ref_times, fast_times, ratios = [], [], []
    for round_index in range(ROUNDS):
        order = ("reference", "fast") if round_index % 2 == 0 else ("fast", "reference")
        times = {}
        results = {}
        for engine_name in order:
            times[engine_name], results[engine_name] = _seconds(
                make_cache, trace, engine_name
            )
        assert results["fast"] == results["reference"], f"{label}: engines disagree"
        ref_times.append(times["reference"])
        fast_times.append(times["fast"])
        ratios.append(times["reference"] / times["fast"])
    return {
        "label": label,
        "ref_rps": len(trace) / statistics.median(ref_times),
        "fast_rps": len(trace) / statistics.median(fast_times),
        "speedup": statistics.median(ratios),
    }


def test_engine_speedup(results_dir):
    trace = instruction_trace("gcc", TRACE_REFS)
    rows = [
        _measure(label, make_cache, trace)
        for label, (make_cache, _) in MODELS.items()
    ]

    lines = [
        f"Engine speedup (gcc, {TRACE_REFS:,} refs, 32KB, b=4B "
        f"except optimal-last-line b=16B, two-level L2 128KB; "
        f"median of {ROUNDS} alternating rounds)",
        f"{'policy':<18} {'reference':>14} {'fast':>14} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['label']:<18} "
            f"{row['ref_rps'] / 1e6:>11.1f} M/s "
            f"{row['fast_rps'] / 1e6:>11.1f} M/s "
            f"{row['speedup']:>7.1f}x"
        )
    report = "\n".join(lines)
    (results_dir / "bench_engine.txt").write_text(report + "\n")
    write_json_result(
        results_dir,
        "bench_engine",
        config={"trace": "gcc", "refs": TRACE_REFS, "rounds": ROUNDS},
        metrics={
            key: row[field]
            for row in rows
            for key, field in [
                (f"{row['label']}.reference_rps", "ref_rps"),
                (f"{row['label']}.fast_rps", "fast_rps"),
                (f"{row['label']}.speedup", "speedup"),
            ]
        },
    )
    print(f"\n{report}\n")

    by_label = {row["label"]: row["speedup"] for row in rows}
    for label, (_, floor) in MODELS.items():
        assert by_label[label] >= floor, (
            f"{label}: speedup {by_label[label]:.1f}x below the {floor}x floor"
        )


def test_sweep_runner_overhead(results_dir, tmp_path):
    """The resilient envelope layer must cost ~nothing over an inline
    loop, and a warm journal must replay instead of recomputing.

    Times the same size sweep three ways — a bare inline loop, the
    envelope runner with a cold journal, and the envelope runner with a
    warm journal — asserts all three agree on every miss rate, and
    persists the comparison to ``benchmarks/results/bench_sweep_runner.txt``.
    """
    from repro.experiments.common import StandardFactory
    from repro.perf import parallel
    from repro.store import ResultStore

    trace_key = parallel.TraceKey("gcc", "instruction", TRACE_REFS)
    sizes = [kb * 1024 for kb in (1, 4, 16, 64, 256)]
    factory = StandardFactory("direct-mapped", 4)
    cells = [("direct-mapped", factory, size, trace_key) for size in sizes]

    trace_key.load()  # prime the trace memo so every variant pays zero
    start = time.perf_counter()
    inline = [
        parallel.simulate_cell(factory, size, trace_key, engine="fast")
        for size in sizes
    ]
    inline_s = time.perf_counter() - start

    start = time.perf_counter()
    cold = parallel.run_labeled_cells(
        cells, engine="fast", workers=1, journal=ResultStore(tmp_path)
    )
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = parallel.run_labeled_cells(
        cells, engine="fast", workers=1, journal=ResultStore(tmp_path)
    )
    warm_s = time.perf_counter() - start

    assert [o.miss_rate for o in cold] == inline
    assert [o.miss_rate for o in warm] == inline
    assert all(o.cached for o in warm), "warm journal run recomputed cells"

    overhead = 100.0 * (cold_s - inline_s) / inline_s
    report = "\n".join(
        [
            f"Sweep-runner overhead (gcc, {TRACE_REFS:,} refs, "
            f"{len(sizes)} sizes, fast engine, sequential)",
            f"{'variant':<24} {'seconds':>10}",
            f"{'inline loop':<24} {inline_s:>10.3f}",
            f"{'envelopes, cold journal':<24} {cold_s:>10.3f}",
            f"{'envelopes, warm journal':<24} {warm_s:>10.3f}",
            f"envelope overhead: {overhead:+.1f}% over inline",
        ]
    )
    (results_dir / "bench_sweep_runner.txt").write_text(report + "\n")
    write_json_result(
        results_dir,
        "bench_sweep_runner",
        config={"trace": "gcc", "refs": TRACE_REFS, "sizes": sizes},
        metrics={
            "inline_seconds": inline_s,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "envelope_overhead_pct": overhead,
        },
        gate=[],
    )
    print(f"\n{report}\n")

    # The warm run does no simulation at all; anything close to the
    # cold time means the journal replay is broken.
    assert warm_s < cold_s
