"""Figure 4: mean instruction-cache miss rate vs cache size (b=4B).

Sweeps the three policies over the standard size grid, averaging miss
rates across the SPEC benchmarks (as the paper does).  The module also
owns :func:`size_sweep_spec`, the grid-spec builder behind every
standard size sweep (Figures 4, 12's base, 14, 15).
"""

from __future__ import annotations

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep
from ..analysis.sweep import SweepResult
from .common import REFERENCE_LINE, SIZE_SWEEP_KB, standard_factories
from .spec import BenchmarkSuite, ExperimentSpec, register

TITLE = "Figure 4: instruction cache miss rate vs cache size (b=4B)"


def _render(result: SweepResult) -> str:
    table = format_sweep(result, title=TITLE, value_format="{:.3%}")
    chart = sweep_chart(result, title="miss rate (%)")
    return f"{table}\n\n{chart}"


def size_sweep_spec(
    spec_id: str,
    title: str,
    line_size: int = REFERENCE_LINE,
    kind: str = "instruction",
    render=None,
    hidden: bool = False,
) -> ExperimentSpec:
    """The standard three-curve size sweep as a grid spec.

    Specs built here with the same ``line_size``/``kind`` share a
    result-cache fingerprint regardless of id, so a sweep built under
    another id with ``kind="data"`` reuses the registered Figure 14
    result.
    """
    return ExperimentSpec(
        id=spec_id,
        title=title,
        parameter_name="cache size",
        parameters=tuple(kb * 1024 for kb in SIZE_SWEEP_KB),
        factories=tuple(standard_factories(line_size).items()),
        traces=BenchmarkSuite(kind),
        render=render,
        hidden=hidden,
    )


SPEC = register(size_sweep_spec("fig04", TITLE, render=_render))

#: The same grid at b=16B — the base sweep Figure 12 derives from.
SPEC_B16 = register(
    size_sweep_spec(
        "fig04-b16",
        "Figure 4 size sweep at b=16B (base for Figure 12)",
        line_size=16,
        render=_render,
        hidden=True,
    )
)
