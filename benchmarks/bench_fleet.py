"""Fleet benchmark: full-registry sweep, fleet workers vs inline.

Runs the registry-representative grid — every SPEC trace x the three
standard curves x the Figure-4 size sweep — once with one worker
(inline) and once with two (the fleet: long-lived worker processes
speaking NDJSON, forked where fork is the platform's start method),
asserts the two runs agree on every miss rate, and records the
wall-clock ratio as the gated ``fleet_speedup``.

The fleet runs two workers, so the ratio measures parallel scale-out.
On a single-CPU host one worker can only race the inline loop and the
ratio would measure dispatch overhead instead, so the benchmark skips
there rather than record a number that means something else.  A drop
beyond ``tools/check_bench_regression.py``'s tolerance means the fleet
got slower relative to inline on the same host.  Each timed
round clears the parent's trace memo so both runs pay trace
generation: the inline run builds each trace when its first cell
needs it, and the fleet's parent builds the round's traces before it
forks the workers, which inherit them (exec'd workers would build
their own).
"""

import os
import time

import pytest
from conftest import write_json_result

from repro.experiments.common import (
    SIZE_SWEEP_KB,
    StandardFactory,
    all_trace_keys,
    clear_trace_cache,
    max_refs,
)
from repro.perf import parallel

CURVES = ["direct-mapped", "dynamic-exclusion", "optimal"]
ROUNDS = 2
WORKERS = 2


def _grid():
    """One cell per (trace, curve, size), grouped by trace so a fleet
    worker's consecutive cells reuse its per-process trace memo."""
    return [
        (f"{curve}-{key.name}-{kb}k", StandardFactory(curve, 4), kb * 1024, key)
        for key in all_trace_keys()
        for curve in CURVES
        for kb in SIZE_SWEEP_KB
    ]


def _best_seconds(cells, **kwargs):
    """Minimum wall-clock over ROUNDS cold runs of the whole grid."""
    best = float("inf")
    outcomes = None
    for _ in range(ROUNDS):
        clear_trace_cache()
        start = time.perf_counter()
        outcomes = parallel.run_labeled_cells(
            cells, engine="fast", journal=None, progress=False, **kwargs
        )
        best = min(best, time.perf_counter() - start)
        bad = [o for o in outcomes if not o.ok]
        assert not bad, f"{len(bad)} cells failed: {bad[0].error}"
    return best, outcomes


def test_fleet_speedup(results_dir):
    cpus = os.cpu_count() or 1
    if cpus < WORKERS:
        pytest.skip(
            f"fleet_speedup needs at least {WORKERS} CPUs to measure "
            f"scale-out; this host has {cpus}"
        )
    cells = _grid()
    refs = max_refs()

    inline_s, inline_out = _best_seconds(cells, workers=1)
    fleet_s, fleet_out = _best_seconds(cells, workers=WORKERS)

    assert [o.miss_rate for o in fleet_out] == [
        o.miss_rate for o in inline_out
    ], "fleet and inline runs disagree on miss rates"

    total_refs = len(cells) * refs
    speedup = inline_s / fleet_s
    report = "\n".join(
        [
            f"Fleet backend (full registry, {len(cells)} cells, "
            f"{refs:,} refs/trace, fast engine, {WORKERS} workers, "
            f"best of {ROUNDS})",
            f"{'backend':<12} {'seconds':>10} {'refs/sec':>14}",
            f"{'inline':<12} {inline_s:>10.3f} "
            f"{total_refs / inline_s / 1e6:>11.1f} M/s",
            f"{'fleet':<12} {fleet_s:>10.3f} "
            f"{total_refs / fleet_s / 1e6:>11.1f} M/s",
            f"fleet speedup: {speedup:.2f}x",
        ]
    )
    (results_dir / "bench_fleet.txt").write_text(report + "\n")
    write_json_result(
        results_dir,
        "bench_fleet",
        config={
            "cells": len(cells),
            "curves": CURVES,
            "refs": refs,
            "rounds": ROUNDS,
            "sizes_kb": SIZE_SWEEP_KB,
            "workers": WORKERS,
            "cpus": cpus,
        },
        metrics={
            "inline_rps": total_refs / inline_s,
            "fleet_rps": total_refs / fleet_s,
            "fleet_speedup": speedup,
        },
    )
    print(f"\n{report}\n")

    # A fleet run that loses badly to inline even after amortising the
    # grid means dispatch overhead is pathological, whatever the host.
    assert speedup > 0.5, (
        f"fleet backend {speedup:.2f}x vs inline — dispatch overhead "
        f"dominates even a {len(cells)}-cell grid"
    )
