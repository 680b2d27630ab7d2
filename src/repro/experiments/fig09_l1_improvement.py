"""Figure 9: percent L1 miss-rate improvement vs L2 size.

Derived from the Figure 7 sweep: each strategy's L1 improvement over
the conventional direct-mapped L1, as a function of the L2 size.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.plot import ascii_chart
from ..analysis.report import format_table
from ..caches.stats import percent_reduction
from ..hierarchy.two_level import Strategy
from . import hierarchy_sweep
from .common import L2_RATIO_SWEEP, REFERENCE_SIZE
from .hierarchy_sweep import HierarchySweep
from .spec import ExperimentSpec, register

TITLE = "Figure 9: dynamic exclusion L1 improvement vs L2 size (L1=32KB, b=4B)"

CURVES = [Strategy.IDEAL, Strategy.ASSUME_HIT, Strategy.ASSUME_MISS, Strategy.HASHED]


def improvement_curves(sweep: HierarchySweep) -> "Dict[Strategy, List[float]]":
    """Percent L1 improvement per strategy, over the ratio grid."""
    curves: "Dict[Strategy, List[float]]" = {}
    for strategy in CURVES:
        improvements = []
        for ratio in sweep.ratios:
            baseline = sweep.points[(Strategy.DIRECT_MAPPED, ratio)].l1_miss_rate
            value = sweep.points[(strategy, ratio)].l1_miss_rate
            improvements.append(percent_reduction(baseline, value))
        curves[strategy] = improvements
    return curves


def _render(curves: "Dict[Strategy, List[float]]") -> str:
    # The curves carry no axis: label it from the constants the
    # hierarchy spec is built from.
    headers = ["L2 size"] + [s.value for s in CURVES]
    rows: List[List[object]] = []
    for i, ratio in enumerate(L2_RATIO_SWEEP):
        row: List[object] = [f"{REFERENCE_SIZE * ratio // 1024}KB"]
        for strategy in CURVES:
            row.append(f"{curves[strategy][i]:.1f}%")
        rows.append(row)
    table = format_table(headers, rows, title=TITLE)
    chart = ascii_chart(
        {s.value: curves[s] for s in CURVES},
        x_labels=[f"{REFERENCE_SIZE * r // 1024}K" for r in L2_RATIO_SWEEP],
        title="L1 miss-rate improvement (%)",
    )
    return f"{table}\n\n{chart}"


SPEC = register(
    ExperimentSpec(
        id="fig09",
        title=TITLE,
        base=("hierarchy",),
        derive=improvement_curves,
        render=_render,
    )
)
