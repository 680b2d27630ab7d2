"""Figure 12: miss-rate improvement vs cache size at 16-byte lines.

The same sweep as Figures 4/5 but with b=16B, the configuration the
paper's abstract quotes (33% average reduction at 32KB/16B).  Derived
from the hidden ``fig04-b16`` base spec, so the b=16B grid is simulated
once per process no matter how often the rates or reductions are read.
The render prints both, so it is the one renderer that reads a spec
other than the result it is handed: its declared base, from the result
cache.
"""

from __future__ import annotations

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep
from ..analysis.sweep import SweepResult
from .fig05_improvement import percent_reduction_curves
from .spec import ExperimentSpec, register, run_spec

TITLE = "Figure 12: miss-rate reduction vs cache size (b=16B)"


def _render(result: SweepResult) -> str:
    rates = format_sweep(
        run_spec("fig04-b16"), title=TITLE + " — miss rates", value_format="{:.3%}"
    )
    table = format_sweep(result, title=TITLE, value_format="{:.1f}%")
    chart = sweep_chart(result, title="reduction over direct-mapped (%)", percent=False)
    return f"{rates}\n\n{table}\n\n{chart}"


SPEC = register(
    ExperimentSpec(
        id="fig12",
        title=TITLE,
        base=("fig04-b16",),
        derive=percent_reduction_curves,
        render=_render,
    )
)
