"""Figure 3: per-benchmark instruction-cache miss rates at 32 KB / 4 B.

Three bars per benchmark: conventional direct-mapped, direct-mapped
with dynamic exclusion, and optimal direct-mapped.  The grid runs the
same :class:`~repro.experiments.common.StandardFactory` curves as the
size sweeps, at the single reference size, and collects per-trace
rates instead of the mean.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.report import format_table
from ..caches.stats import percent_reduction
from .common import REFERENCE_LINE, REFERENCE_SIZE, STANDARD_CURVES, standard_factories
from .spec import BenchmarkSuite, ExperimentSpec, GridResult, register

TITLE = "Figure 3: instruction cache performance per benchmark (S=32KB, b=4B)"


def _collect(grid: GridResult) -> "Dict[str, Dict[str, float]]":
    size = grid.parameters[0]
    names = grid.trace_names(size)
    results: "Dict[str, Dict[str, float]]" = {name: {} for name in names}
    for label in grid.labels:
        for name, rate in zip(names, grid.values(label, size)):
            results[name][label] = rate
    return results


def _render(results: "Dict[str, Dict[str, float]]") -> str:
    rows: List[List[object]] = []
    for name, rates in results.items():
        rows.append(
            [
                name,
                f"{100 * rates['direct-mapped']:.2f}%",
                f"{100 * rates['dynamic-exclusion']:.2f}%",
                f"{100 * rates['optimal']:.2f}%",
                f"{percent_reduction(rates['direct-mapped'], rates['dynamic-exclusion']):.1f}%",
            ]
        )
    mean = {
        policy: sum(r[policy] for r in results.values()) / len(results)
        for policy in STANDARD_CURVES
    }
    rows.append(
        [
            "MEAN",
            f"{100 * mean['direct-mapped']:.2f}%",
            f"{100 * mean['dynamic-exclusion']:.2f}%",
            f"{100 * mean['optimal']:.2f}%",
            f"{percent_reduction(mean['direct-mapped'], mean['dynamic-exclusion']):.1f}%",
        ]
    )
    return format_table(
        ["benchmark", "direct-mapped", "dynamic-exclusion", "optimal", "DE reduction"],
        rows,
        title=TITLE,
    )


SPEC = register(
    ExperimentSpec(
        id="fig03",
        title=TITLE,
        parameter_name="cache size",
        parameters=(REFERENCE_SIZE,),
        factories=tuple(standard_factories(REFERENCE_LINE).items()),
        traces=BenchmarkSuite("instruction"),
        collect=_collect,
        render=_render,
    )
)
