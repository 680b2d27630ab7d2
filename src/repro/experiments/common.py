"""Shared infrastructure for the experiment modules.

* benchmark trace recipes (:func:`all_trace_keys`), materialised
  through the one per-process trace memo of
  :mod:`repro.perf.trace_cache`;
* the reference-budget policy (``REPRO_TRACE_SCALE`` environment
  variable scales every experiment's trace length);
* the standard cache factories used across figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..caches.direct_mapped import DirectMappedCache
from ..caches.geometry import CacheGeometry
from ..caches.optimal import OptimalDirectMappedCache, OptimalLastLineCache
from ..core.exclusion_cache import DynamicExclusionCache
from ..core.hitlast import IdealHitLastStore
from ..core.long_lines import make_long_line_exclusion_cache
from ..env import BASE_MAX_REFS, max_refs, trace_scale  # noqa: F401 (re-exported)
from ..perf.parallel import TraceKey, as_trace, clear_trace_cache as _clear_key_cache
from ..trace.trace import Trace
from ..workloads.registry import benchmark_names
# Unused here but kept importable: benchmarks/e2e/spans.py wraps
# ``common.trace_by_kind`` by attribute, and fails if it is missing.
from ..workloads.registry import trace_by_kind  # noqa: F401

#: Cache sizes swept by the size figures (Figures 4, 5, 12, 14, 15).
SIZE_SWEEP_KB = [1, 2, 4, 8, 16, 32, 64, 128, 256]

#: Line sizes swept by Figure 11.
LINE_SIZE_SWEEP = [4, 8, 16, 32, 64]

#: Relative L2 sizes swept by Figures 7-9.
L2_RATIO_SWEEP = [1, 2, 4, 8, 16, 32, 64]

#: The reference cache size of most figures (32 KB, 4 B lines).
REFERENCE_SIZE = 32 * 1024
REFERENCE_LINE = 4

#: The labels of the paper's three standard curves.  Belady with bypass
#: is a lower bound on the other two, which every grid checks.
STANDARD_CURVES = ("direct-mapped", "dynamic-exclusion", "optimal")


def all_trace_keys(kind: str = "instruction") -> List[TraceKey]:
    """One :class:`~repro.perf.parallel.TraceKey` per SPEC benchmark.

    Keys pickle as three scalars, so sweeps built on them can fan out to
    worker processes without shipping trace arrays; sequential runs
    materialise them through the same per-process memo.
    """
    budget = max_refs()
    return [TraceKey(name, kind, budget) for name in benchmark_names()]


def all_traces(kind: str = "instruction") -> List[Trace]:
    """One memoised trace per SPEC benchmark, in name order."""
    return [as_trace(key) for key in all_trace_keys(kind)]


def clear_trace_cache() -> None:
    """Drop all memoised traces and spec results (tests use this to
    control memory and to force regeneration after a scale change)."""
    _clear_key_cache()
    from .spec import clear_result_cache  # local import: spec imports common

    clear_result_cache()


# -- standard simulator factories ---------------------------------------------


def direct_mapped(geometry: CacheGeometry) -> DirectMappedCache:
    """The conventional baseline."""
    return DirectMappedCache(geometry)


def dynamic_exclusion(geometry: CacheGeometry) -> DynamicExclusionCache:
    """DE with the ideal hit-last store (Figures 3-5, 14, 15)."""
    return DynamicExclusionCache(geometry, store=IdealHitLastStore(default=True))


def dynamic_exclusion_long_lines(geometry: CacheGeometry):
    """DE with the last-line buffer (Figures 11-13)."""
    return make_long_line_exclusion_cache(
        geometry, store=IdealHitLastStore(default=True)
    )


def optimal(geometry: CacheGeometry) -> OptimalDirectMappedCache:
    """Belady-with-bypass at the geometry's own line granularity."""
    return OptimalDirectMappedCache(geometry)


def optimal_long_lines(geometry: CacheGeometry) -> OptimalLastLineCache:
    """Belady-with-bypass over collapsed line-reference events."""
    return OptimalLastLineCache(geometry)


@dataclass(frozen=True)
class StandardFactory:
    """A picklable size-sweep factory for one standard curve.

    Sweep cells cross process boundaries under ``--workers``, so the
    factories must pickle; a frozen dataclass with the curve name and
    line size replaces the closures that used to live here.  For line
    sizes above one word the DE and optimal models get the Section 6
    treatment automatically.
    """

    curve: str  # one of STANDARD_CURVES
    line_size: int

    def __call__(self, size: object):
        geometry = CacheGeometry(int(size), self.line_size)  # type: ignore[call-overload]
        if self.curve == "direct-mapped":
            return direct_mapped(geometry)
        if self.curve == "dynamic-exclusion":
            if self.line_size <= 4:
                return dynamic_exclusion(geometry)
            return dynamic_exclusion_long_lines(geometry)
        if self.curve == "optimal":
            if self.line_size <= 4:
                return optimal(geometry)
            return optimal_long_lines(geometry)
        raise ValueError(f"unknown standard curve {self.curve!r}")


def standard_factories(line_size: int) -> "Dict[str, Callable[[object], object]]":
    """The three curves of Figures 4/11/12/14/15, parameterised by size."""
    return {curve: StandardFactory(curve, line_size) for curve in STANDARD_CURVES}


@dataclass(frozen=True)
class LineSizeFactory:
    """Picklable Figure-11 factory: fixed cache size, swept line size.

    Unlike :class:`StandardFactory`, the DE and optimal curves use the
    Section 6 last-line treatment at *every* line size (including 4B) —
    Figure 11 compares the long-line designs across their whole axis.
    """

    curve: str  # as StandardFactory
    size: int

    def __call__(self, line_size: object):
        geometry = CacheGeometry(self.size, int(line_size))  # type: ignore[call-overload]
        if self.curve == "direct-mapped":
            return direct_mapped(geometry)
        if self.curve == "dynamic-exclusion":
            return dynamic_exclusion_long_lines(geometry)
        if self.curve == "optimal":
            return optimal_long_lines(geometry)
        raise ValueError(f"unknown standard curve {self.curve!r}")


def line_size_factories(size: int) -> "Dict[str, Callable[[object], object]]":
    """The three curves of Figure 11, parameterised by line size."""
    return {curve: LineSizeFactory(curve, size) for curve in STANDARD_CURVES}
