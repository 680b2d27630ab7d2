"""Shared two-level sweep behind Figures 7, 8, and 9.

One grid spec produces both the L1 and the L2 curves for every hit-last
storage strategy and every L2/L1 size ratio; the three figure modules
derive from this hidden ``hierarchy`` base spec, so the grid is
simulated once per process (and, unlike the pre-spec version, fans out
to workers and journals under ``--resume-dir``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..caches.geometry import CacheGeometry
from ..hierarchy.two_level import Strategy, TwoLevelCache
from ..perf import engine as engine_mod
from ..trace.trace import Trace
from .common import L2_RATIO_SWEEP, REFERENCE_LINE, REFERENCE_SIZE
from .spec import BenchmarkSuite, ExperimentSpec, GridResult, register

#: The strategies compared by the Section 5 figures.
STRATEGIES: List[Strategy] = [
    Strategy.DIRECT_MAPPED,
    Strategy.ASSUME_HIT,
    Strategy.ASSUME_MISS,
    Strategy.HASHED,
    Strategy.IDEAL,
]


@dataclass
class HierarchyPoint:
    """Mean rates for one (strategy, ratio) grid cell."""

    l1_miss_rate: float
    l2_global_miss_rate: float
    l2_local_miss_rate: float


@dataclass
class HierarchySweep:
    """The whole Figures 7-9 grid."""

    l1_size: int
    line_size: int
    ratios: List[int]
    points: "Dict[Tuple[Strategy, int], HierarchyPoint]" = field(default_factory=dict)

    def l1_curve(self, strategy: Strategy) -> List[float]:
        return [self.points[(strategy, r)].l1_miss_rate for r in self.ratios]

    def l2_curve(self, strategy: Strategy) -> List[float]:
        return [self.points[(strategy, r)].l2_global_miss_rate for r in self.ratios]


@dataclass(frozen=True)
class HierarchyFactory:
    """Picklable (strategy, L1 geometry) factory over the ratio axis."""

    strategy: str
    l1_size: int
    line_size: int

    def __call__(self, ratio: object) -> TwoLevelCache:
        l1 = CacheGeometry(self.l1_size, self.line_size)
        l2 = CacheGeometry(self.l1_size * int(ratio), self.line_size)  # type: ignore[call-overload]
        return TwoLevelCache(l1, l2, strategy=Strategy(self.strategy))


@dataclass(frozen=True)
class HierarchyEvaluator:
    """Per-cell metrics: all three rates from one hierarchy pass."""

    def __call__(self, model: TwoLevelCache, trace: Trace, engine: str) -> Dict[str, float]:
        result = engine_mod.simulate(model, trace, engine)
        return {
            "l1_miss_rate": result.l1_miss_rate,
            "l2_global_miss_rate": result.l2_global_miss_rate,
            "l2_local_miss_rate": result.l2_local_miss_rate,
        }


@dataclass(frozen=True)
class CollectHierarchy:
    """Fold the grid back into the :class:`HierarchySweep` the figures slice."""

    l1_size: int
    line_size: int

    def __call__(self, grid: GridResult) -> HierarchySweep:
        sweep = HierarchySweep(
            l1_size=self.l1_size,
            line_size=self.line_size,
            ratios=[int(r) for r in grid.parameters],
        )
        for ratio in grid.parameters:
            for label in grid.labels:
                sweep.points[(Strategy(label), int(ratio))] = HierarchyPoint(
                    l1_miss_rate=grid.mean(label, ratio, "l1_miss_rate"),
                    l2_global_miss_rate=grid.mean(label, ratio, "l2_global_miss_rate"),
                    l2_local_miss_rate=grid.mean(label, ratio, "l2_local_miss_rate"),
                )
        return sweep


SPEC = register(
    ExperimentSpec(
        id="hierarchy",
        title="Two-level hierarchy grid (base for Figures 7-9)",
        parameter_name="L2/L1 ratio",
        parameters=tuple(L2_RATIO_SWEEP),
        factories=tuple(
            (
                strategy.value,
                HierarchyFactory(strategy.value, REFERENCE_SIZE, REFERENCE_LINE),
            )
            for strategy in STRATEGIES
        ),
        traces=BenchmarkSuite("instruction"),
        evaluator=HierarchyEvaluator(),
        collect=CollectHierarchy(REFERENCE_SIZE, REFERENCE_LINE),
        hidden=True,
    )
)


def same_sweep(sweep: HierarchySweep) -> HierarchySweep:
    """Identity derive: Figures 7 and 8 present the base sweep directly
    (and share the exact cached object — tests rely on ``is``)."""
    return sweep
