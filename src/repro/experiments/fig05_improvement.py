"""Figure 5: percentage miss-rate reduction vs cache size (b=4B).

Derived from Figure 4: how much dynamic exclusion and optimal
replacement improve on the conventional direct-mapped cache at each
size.  The paper's headline — the improvement *peaks* at a middle cache
size (37 % at 32 KB on 10 M-reference traces) and declines toward both
extremes — is the shape to check.
"""

from __future__ import annotations

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep
from ..analysis.sweep import SweepResult
from ..caches.stats import percent_reduction
from .spec import ExperimentSpec, register

TITLE = "Figure 5: miss-rate reduction over direct-mapped vs cache size (b=4B)"


def percent_reduction_curves(base: SweepResult) -> SweepResult:
    """DE and optimal improvement over direct-mapped, per parameter.

    The derive transform behind Figures 5 and 12: shared so both
    reductions are computed the same way from their base sweeps.
    """
    result = SweepResult(
        parameter_name=base.parameter_name, parameters=list(base.parameters)
    )
    for size in base.parameters:
        dm = base.series["direct-mapped"].points[size]
        for label in ["dynamic-exclusion", "optimal"]:
            improved = base.series[label].points[size]
            result.add(label, size, percent_reduction(dm, improved))
    return result


def _render(result: SweepResult) -> str:
    table = format_sweep(result, title=TITLE, value_format="{:.1f}%")
    chart = sweep_chart(result, title="reduction over direct-mapped (%)", percent=False)
    size, value = peak(result)
    summary = (
        f"\ndynamic exclusion peaks at {value:.1f}% reduction "
        f"({size // 1024}KB cache); the paper reports a 37% peak at 32KB "
        f"on 10M-reference traces."
    )
    return f"{table}\n\n{chart}{summary}"


SPEC = register(
    ExperimentSpec(
        id="fig05",
        title=TITLE,
        base=("fig04",),
        derive=percent_reduction_curves,
        render=_render,
    )
)


def peak(result: SweepResult) -> "tuple[int, float]":
    """(cache size, percent) where dynamic exclusion's reduction peaks."""
    series = result.series["dynamic-exclusion"]
    best_size = max(result.parameters, key=lambda s: series.points[s])
    return int(best_size), series.points[best_size]
