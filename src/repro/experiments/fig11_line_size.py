"""Figure 11: instruction cache performance vs line size (S=32KB).

Dynamic exclusion uses the Section 6 last-line buffer; the optimal
comparison point is computed over collapsed line-reference events (see
:class:`repro.caches.optimal.OptimalLastLineCache`).  Paper expectation:
the percentage improvement declines as lines grow (37% at 4B down to
25% at 64B) because longer lines create additional conflicts.
"""

from __future__ import annotations

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep
from ..analysis.sweep import SweepResult
from ..caches.stats import percent_reduction
from .common import LINE_SIZE_SWEEP, REFERENCE_SIZE, line_size_factories
from .spec import BenchmarkSuite, ExperimentSpec, register

TITLE = "Figure 11: instruction cache miss rate vs line size (S=32KB)"


def _render(result: SweepResult) -> str:
    table = format_sweep(
        result, title=TITLE, value_format="{:.3%}", param_format="{}B"
    )
    chart = sweep_chart(result, title="miss rate (%)")
    reductions = improvements(result)
    trail = ", ".join(f"{b}B: {r:.1f}%" for b, r in reductions.items())
    return f"{table}\n\n{chart}\n\nDE reduction by line size: {trail}"


SPEC = register(
    ExperimentSpec(
        id="fig11",
        title=TITLE,
        parameter_name="line size",
        parameters=tuple(LINE_SIZE_SWEEP),
        factories=tuple(line_size_factories(REFERENCE_SIZE).items()),
        traces=BenchmarkSuite("instruction"),
        render=_render,
    )
)


def improvements(result: SweepResult) -> "dict[int, float]":
    """Line size -> percent miss-rate reduction from dynamic exclusion."""
    out = {}
    for b in result.parameters:
        dm = result.series["direct-mapped"].points[b]
        de = result.series["dynamic-exclusion"].points[b]
        out[int(b)] = percent_reduction(dm, de)
    return out
