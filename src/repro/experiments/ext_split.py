"""Extension: split instruction/data caches vs a unified cache.

Section 7 of the paper evaluates dynamic exclusion on combined
(unified) caches and observes that its benefit tracks the instruction
share of the misses.  The natural follow-up — which the paper leaves
implicit — is the split-vs-unified design question: with a fixed
transistor budget, is it better to run a unified cache with exclusion
or split it into I and D halves?  This experiment compares, per total
capacity:

* unified direct-mapped;
* unified + dynamic exclusion;
* split (half I / half D) direct-mapped;
* split with exclusion on the instruction half only (where Section 7
  says it pays).

The split configurations need a custom cell evaluator — the "model" is
a *pair* of caches, each fed the references of its kind — which is
exactly what the spec layer's ``evaluator`` hook exists for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep
from ..analysis.sweep import SweepResult
from ..caches.base import Cache
from ..caches.direct_mapped import DirectMappedCache
from ..caches.geometry import CacheGeometry
from ..core.exclusion_cache import DynamicExclusionCache
from ..core.hitlast import IdealHitLastStore
from ..perf import engine as engine_mod
from ..trace.trace import Trace
from ..trace.transforms import only_data, only_instructions
from .spec import BenchmarkSuite, ExperimentSpec, register

TITLE = "Extension: split I/D caches vs unified (b=4B)"

SIZES_KB = [2, 4, 8, 16, 32, 64, 128]

_LABELS = ["unified DM", "unified DE", "split DM", "split DM+DE(I)"]


class SplitPair:
    """An I-cache and a D-cache posing as one model: instruction fetches
    go to ``icache``, loads and stores to ``dcache``."""

    def __init__(self, icache: Cache, dcache: Cache) -> None:
        self.icache = icache
        self.dcache = dcache


def _unified(size: int, exclusion: bool) -> Cache:
    geometry = CacheGeometry(size, 4)
    if exclusion:
        return DynamicExclusionCache(geometry, store=IdealHitLastStore(default=True))
    return DirectMappedCache(geometry)


@dataclass(frozen=True)
class SplitFactory:
    """Build one of the four budget-matched configurations."""

    label: str

    def __call__(self, size: object):
        total = int(size)  # type: ignore[call-overload]
        if self.label == "unified DM":
            return _unified(total, exclusion=False)
        if self.label == "unified DE":
            return _unified(total, exclusion=True)
        half = CacheGeometry(total // 2, 4)
        if self.label == "split DM":
            return SplitPair(DirectMappedCache(half), DirectMappedCache(half))
        if self.label == "split DM+DE(I)":
            icache = DynamicExclusionCache(half, store=IdealHitLastStore(default=True))
            return SplitPair(icache, DirectMappedCache(half))
        raise ValueError(f"unknown configuration {self.label!r}")


@dataclass(frozen=True)
class SplitEvaluator:
    """Simulate either a plain cache or an I/D pair, pooling the pair's misses."""

    def __call__(self, model: object, trace: Trace, engine: Optional[str]) -> dict:
        if isinstance(model, SplitPair):
            # The halves never interact, so each runs alone over the
            # sub-trace of its reference kinds.
            stats = engine_mod.simulate(
                model.icache, only_instructions(trace), engine
            ).merge(engine_mod.simulate(model.dcache, only_data(trace), engine))
        else:
            stats = engine_mod.simulate(model, trace, engine)  # type: ignore[arg-type]
        return {"miss_rate": stats.miss_rate}


def _render(result: SweepResult) -> str:
    table = format_sweep(result, title=TITLE, value_format="{:.3%}")
    chart = sweep_chart(result, title="miss rate (%)")
    return f"{table}\n\n{chart}"


SPEC = register(
    ExperimentSpec(
        id="ext-split",
        title=TITLE,
        parameter_name="total size",
        parameters=tuple(kb * 1024 for kb in SIZES_KB),
        factories=tuple((label, SplitFactory(label)) for label in _LABELS),
        traces=BenchmarkSuite("mixed"),
        evaluator=SplitEvaluator(),
        render=_render,
    )
)
