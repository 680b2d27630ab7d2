"""Extension: warm-up behaviour and the trace-length effect.

Two cold-start questions from the reproduction:

* the paper notes nasa7/tomcatv see a *slight* miss increase while the
  exclusion state initialises, negligible on full streams — how big is
  the training cost really, and where does it go as the trace grows?
* EXPERIMENTS.md D2 attributes our Figure 5 peak shift to short traces
  (cold misses weigh more).  Splitting each run into cold and warm
  halves shows the steady-state improvement directly.

For every benchmark this experiment reports the miss-rate reduction of
dynamic exclusion separately over the first and second halves of the
trace; the warm-half column is the better estimate of the paper's
10M-reference numbers.

Spec-wise each cell yields two metrics ("cold" and "warm" percent
reductions) and the factory returns a plain geometry — the evaluator
builds the baseline/improved pair itself, twice, for the half-trace
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.report import format_table
from ..analysis.warmup import steady_state_reduction
from ..caches.geometry import CacheGeometry
from ..trace.trace import Trace
from .common import (
    REFERENCE_LINE,
    REFERENCE_SIZE,
    direct_mapped,
    dynamic_exclusion,
)
from .spec import BenchmarkSuite, ExperimentSpec, GridResult, register

TITLE = "Extension: cold vs warm dynamic-exclusion improvement (S=32KB, b=4B)"


@dataclass(frozen=True)
class WarmupProbe:
    """The "model" is just the geometry; the evaluator does the rest."""

    line_size: int = REFERENCE_LINE

    def __call__(self, size: object) -> CacheGeometry:
        return CacheGeometry(int(size), self.line_size)  # type: ignore[call-overload]


@dataclass(frozen=True)
class WarmupEvaluator:
    """Cold- and warm-half DE reductions for one benchmark."""

    def __call__(
        self, geometry: CacheGeometry, trace: Trace, engine: Optional[str]
    ) -> Dict[str, float]:
        cold, warm = steady_state_reduction(
            lambda: direct_mapped(geometry),
            lambda: dynamic_exclusion(geometry),
            trace,
        )
        return {"cold": float(cold), "warm": float(warm)}


def _collect(grid: GridResult) -> "Dict[str, Tuple[float, float]]":
    size = grid.parameters[0]
    names = grid.trace_names(size)
    metrics = grid.cell_metrics("warmup", size)
    return {
        name: (cell["cold"], cell["warm"]) for name, cell in zip(names, metrics)
    }


def _render(results: "Dict[str, Tuple[float, float]]") -> str:
    rows = []
    for name, (cold, warm) in results.items():
        rows.append([name, f"{cold:.1f}%", f"{warm:.1f}%"])
    cold_mean, warm_mean = mean_reductions(results)
    rows.append(["MEAN", f"{cold_mean:.1f}%", f"{warm_mean:.1f}%"])
    table = format_table(
        ["benchmark", "cold-half reduction", "warm-half reduction"],
        rows,
        title=TITLE,
    )
    note = (
        "\nThe warm column approximates long-trace behaviour: training"
        "\ncosts are paid in the cold half, so warm >= cold on the"
        "\nconflict-heavy benchmarks (EXPERIMENTS.md, deviation D2)."
    )
    return table + note


SPEC = register(
    ExperimentSpec(
        id="ext-warmup",
        title=TITLE,
        parameter_name="cache size",
        parameters=(REFERENCE_SIZE,),
        factories=(("warmup", WarmupProbe()),),
        traces=BenchmarkSuite("instruction"),
        evaluator=WarmupEvaluator(),
        collect=_collect,
        render=_render,
    )
)


def mean_reductions(
    results: "Dict[str, Tuple[float, float]]",
) -> Tuple[float, float]:
    """Mean (cold-half %, warm-half %) DE reduction across benchmarks."""
    cold = sum(v[0] for v in results.values()) / len(results)
    warm = sum(v[1] for v in results.values()) / len(results)
    return cold, warm
