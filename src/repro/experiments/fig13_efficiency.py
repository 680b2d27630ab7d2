"""Figure 13: the efficiency of dynamic exclusion vs extra capacity.

The paper's table compares, at b=16B, an 8KB direct-mapped baseline
against (a) the same cache with dynamic exclusion (hashed hit-last
strategy, four bits per line, plus a last-line buffer) and (b) a 16KB
direct-mapped cache.  Efficiency is the miss-rate reduction divided by
the SRAM growth; the paper finds DE roughly 15x more efficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import format_table
from ..caches.direct_mapped import DirectMappedCache
from ..caches.geometry import CacheGeometry
from ..core.cost import EfficiencyRow, doubling_efficiency, exclusion_efficiency
from ..core.exclusion_cache import DynamicExclusionCache
from ..core.hitlast import HashedHitLastStore
from ..core.long_lines import LastLineBufferCache
from .spec import BenchmarkSuite, ExperimentSpec, GridResult, register

TITLE = "Figure 13: dynamic exclusion efficiency (b=16B)"

BASE_SIZE = 8 * 1024
LINE_SIZE = 16
HASHED_BITS_PER_LINE = 4


@dataclass(frozen=True)
class EfficiencyResult:
    baseline_miss_rate: float
    exclusion_miss_rate: float
    doubled_miss_rate: float
    exclusion: EfficiencyRow
    doubling: EfficiencyRow

    @property
    def advantage(self) -> float:
        """How many times more efficient DE is than doubling capacity."""
        if self.doubling.efficiency == 0:
            return float("inf")
        return self.exclusion.efficiency / self.doubling.efficiency


@dataclass(frozen=True)
class Fig13Factory:
    """Picklable factory for the table's three columns, by base size."""

    column: str  # "baseline" | "exclusion" | "doubled"
    line_size: int

    def __call__(self, base_size: object):
        geometry = CacheGeometry(int(base_size), self.line_size)  # type: ignore[call-overload]
        if self.column == "baseline":
            return DirectMappedCache(geometry)
        if self.column == "doubled":
            return DirectMappedCache(geometry.scaled(2))
        if self.column == "exclusion":
            store = HashedHitLastStore(geometry.num_lines * HASHED_BITS_PER_LINE)
            return LastLineBufferCache(DynamicExclusionCache(geometry, store=store))
        raise ValueError(f"unknown Figure 13 column {self.column!r}")


@dataclass(frozen=True)
class CollectEfficiency:
    """Mean the three columns and price them with the SRAM cost model."""

    line_size: int

    def __call__(self, grid: GridResult) -> EfficiencyResult:
        base_size = int(grid.parameters[0])
        geometry = CacheGeometry(base_size, self.line_size)
        baseline = grid.mean("baseline", grid.parameters[0])
        exclusion = grid.mean("exclusion", grid.parameters[0])
        doubled_rate = grid.mean("doubled", grid.parameters[0])
        return EfficiencyResult(
            baseline_miss_rate=baseline,
            exclusion_miss_rate=exclusion,
            doubled_miss_rate=doubled_rate,
            exclusion=exclusion_efficiency(
                geometry,
                baseline,
                exclusion,
                hashed_hitlast_bits_per_line=HASHED_BITS_PER_LINE,
            ),
            doubling=doubling_efficiency(geometry, baseline, doubled_rate),
        )


def _render(result: EfficiencyResult) -> str:
    base_kb = BASE_SIZE // 1024
    rows: List[List[object]] = [
        [
            "miss rate",
            f"{100 * result.baseline_miss_rate:.2f}%",
            f"{100 * result.exclusion_miss_rate:.2f}%",
            f"{100 * result.doubled_miss_rate:.2f}%",
        ],
        ["dSize", "-", f"{result.exclusion.delta_size_percent:.1f}%",
         f"{result.doubling.delta_size_percent:.1f}%"],
        ["dMissRate", "-", f"{result.exclusion.delta_miss_percent:.1f}%",
         f"{result.doubling.delta_miss_percent:.1f}%"],
        ["dMiss/dSize", "-", f"{result.exclusion.efficiency:.2f}",
         f"{result.doubling.efficiency:.2f}"],
    ]
    table = format_table(
        ["", f"{base_kb}KB DM", f"{base_kb}KB DE", f"{2 * base_kb}KB DM"],
        rows,
        title=TITLE,
    )
    summary = (
        f"\nadding dynamic exclusion is {result.advantage:.1f}x more efficient "
        f"than doubling capacity (paper: ~15x)."
    )
    return table + summary


SPEC = register(
    ExperimentSpec(
        id="fig13",
        title=TITLE,
        parameter_name="base size",
        parameters=(BASE_SIZE,),
        factories=tuple(
            (column, Fig13Factory(column, LINE_SIZE))
            for column in ["baseline", "exclusion", "doubled"]
        ),
        traces=BenchmarkSuite("instruction"),
        collect=CollectEfficiency(LINE_SIZE),
        render=_render,
    )
)
