"""Figure 14: dynamic exclusion on data caches vs cache size (b=4B).

Paper expectations: data reference patterns differ from instruction
patterns, a direct-mapped cache is already much closer to optimal for
data, and dynamic exclusion gives only a small improvement at small
sizes (and can be slightly worse at large ones).
"""

from __future__ import annotations

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep
from ..analysis.sweep import SweepResult
from .fig04_cache_size import size_sweep_spec
from .spec import register

TITLE = "Figure 14: data cache dynamic exclusion performance (b=4B)"


def _render(result: SweepResult) -> str:
    table = format_sweep(result, title=TITLE, value_format="{:.3%}")
    chart = sweep_chart(result, title="data cache miss rate (%)")
    return f"{table}\n\n{chart}"


SPEC = register(size_sweep_spec("fig14", TITLE, kind="data", render=_render))
