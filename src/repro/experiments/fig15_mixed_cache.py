"""Figure 15: dynamic exclusion on combined I+D caches vs cache size.

Paper expectations: for small combined caches, where instruction
references dominate the misses, the improvement is nearly as large as
for instruction caches; for large caches data misses dominate and the
improvement shrinks.
"""

from __future__ import annotations

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep
from ..analysis.sweep import SweepResult
from ..caches.stats import percent_reduction
from .fig04_cache_size import size_sweep_spec
from .spec import register

TITLE = "Figure 15: combined I+D cache dynamic exclusion performance (b=4B)"


def _render(result: SweepResult) -> str:
    table = format_sweep(result, title=TITLE, value_format="{:.3%}")
    chart = sweep_chart(result, title="combined cache miss rate (%)")
    red = reductions(result)
    trail = ", ".join(f"{s // 1024}KB: {r:.1f}%" for s, r in red.items())
    return f"{table}\n\n{chart}\n\nDE reduction by size: {trail}"


SPEC = register(size_sweep_spec("fig15", TITLE, kind="mixed", render=_render))


def reductions(result: SweepResult) -> "dict[int, float]":
    """Cache size -> percent reduction of the mixed-cache miss rate."""
    out = {}
    for size in result.parameters:
        dm = result.series["direct-mapped"].points[size]
        de = result.series["dynamic-exclusion"].points[size]
        out[int(size)] = percent_reduction(dm, de)
    return out
