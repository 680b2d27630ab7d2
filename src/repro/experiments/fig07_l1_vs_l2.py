"""Figure 7: L1 miss rate under the three hit-last storage options, as
the L2 grows from 1x to 64x the L1 size (L1=32KB, b=4B).

Paper expectations: *assume-hit* degenerates to conventional
direct-mapped behaviour when L2 == L1 and becomes the best L2-backed
option once L2 is big; all options capture most of the ideal benefit
once L2 >= 4x L1; *hashed* does not depend on the L2 at all.
"""

from __future__ import annotations

from typing import List

from ..analysis.plot import ascii_chart
from ..analysis.report import format_table
from ..hierarchy.two_level import Strategy
from . import hierarchy_sweep
from .hierarchy_sweep import HierarchySweep
from .spec import ExperimentSpec, register

TITLE = "Figure 7: dynamic exclusion L1 performance vs L2 size (L1=32KB, b=4B)"


def _render(sweep: HierarchySweep) -> str:
    headers = ["L2/L1"] + [s.value for s in hierarchy_sweep.STRATEGIES]
    rows: List[List[object]] = []
    for ratio in sweep.ratios:
        row: List[object] = [f"{ratio}x"]
        for strategy in hierarchy_sweep.STRATEGIES:
            row.append(f"{100 * sweep.points[(strategy, ratio)].l1_miss_rate:.2f}%")
        rows.append(row)
    table = format_table(headers, rows, title=TITLE)
    chart = ascii_chart(
        {
            s.value: [100 * v for v in sweep.l1_curve(s)]
            for s in hierarchy_sweep.STRATEGIES
        },
        x_labels=[f"{r}x" for r in sweep.ratios],
        title="L1 miss rate (%)",
    )
    return f"{table}\n\n{chart}"


SPEC = register(
    ExperimentSpec(
        id="fig07",
        title=TITLE,
        base=("hierarchy",),
        derive=hierarchy_sweep.same_sweep,
        render=_render,
    )
)


def assume_hit_degenerates(sweep: HierarchySweep) -> bool:
    """True if assume-hit at L2==L1 matches the conventional cache."""
    baseline = sweep.points[(Strategy.DIRECT_MAPPED, 1)].l1_miss_rate
    assume_hit = sweep.points[(Strategy.ASSUME_HIT, 1)].l1_miss_rate
    return abs(baseline - assume_hit) < 1e-12
