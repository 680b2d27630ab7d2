"""Figure 8: L2 miss rate for the hit-last storage options vs L2 size.

The miss rate plotted is *global* (L2 misses per CPU reference), since
the options change how many references even reach the L2.  Paper
expectations: *assume-miss* and *hashed* let the L2 skip storing
L1-resident lines (exclusive content) and so miss less; *assume-hit*
tracks the conventional hierarchy exactly.
"""

from __future__ import annotations

from typing import List

from ..analysis.plot import ascii_chart
from ..analysis.report import format_table
from ..hierarchy.two_level import Strategy
from . import hierarchy_sweep
from .hierarchy_sweep import HierarchySweep
from .spec import ExperimentSpec, register

TITLE = "Figure 8: dynamic exclusion L2 performance vs L2 size (L1=32KB, b=4B)"

#: assume-hit and the conventional baseline share an L2 curve (paper:
#: "direct-mapped or dynamic exclusion (assume-hit)").
CURVES = [
    Strategy.DIRECT_MAPPED,
    Strategy.ASSUME_HIT,
    Strategy.ASSUME_MISS,
    Strategy.HASHED,
]


def _render(sweep: HierarchySweep) -> str:
    headers = ["L2 size"] + [s.value for s in CURVES]
    rows: List[List[object]] = []
    for ratio in sweep.ratios:
        size_kb = sweep.l1_size * ratio // 1024
        row: List[object] = [f"{size_kb}KB"]
        for strategy in CURVES:
            row.append(f"{100 * sweep.points[(strategy, ratio)].l2_global_miss_rate:.3f}%")
        rows.append(row)
    table = format_table(headers, rows, title=TITLE)
    chart = ascii_chart(
        {s.value: [100 * v for v in sweep.l2_curve(s)] for s in CURVES},
        x_labels=[f"{sweep.l1_size * r // 1024}K" for r in sweep.ratios],
        title="global L2 miss rate (%)",
    )
    return f"{table}\n\n{chart}"


SPEC = register(
    ExperimentSpec(
        id="fig08",
        title=TITLE,
        base=("hierarchy",),
        derive=hierarchy_sweep.same_sweep,
        render=_render,
    )
)


def exclusive_strategies_win(sweep: HierarchySweep) -> bool:
    """True if assume-miss and hashed beat assume-hit's L2 at small L2."""
    small = sweep.ratios[0]
    inclusive = sweep.points[(Strategy.ASSUME_HIT, small)].l2_global_miss_rate
    return (
        sweep.points[(Strategy.ASSUME_MISS, small)].l2_global_miss_rate < inclusive
        and sweep.points[(Strategy.HASHED, small)].l2_global_miss_rate < inclusive
    )
