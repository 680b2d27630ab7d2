"""Trace recipes and the per-process memoised trace cache.

A figure sweep's cells parallelise trivially — except that shipping
megabyte trace arrays to worker processes would swamp the win.
Benchmark traces are deterministic functions of their ``(name, kind,
max_refs)`` key, so :class:`TraceKey` sends the *key* instead and each
worker regenerates (and memoises) the trace on first use.

Any hashable, picklable recipe exposing ``name``/``kind``/``max_refs``
attributes plus a ``load() -> Trace`` method works wherever a
:class:`TraceKey` does (the experiment-spec layer defines e.g.
timeshared and analytic-pattern recipes); :func:`as_trace` memoises
every recipe through the same per-process cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..trace.trace import Trace


@dataclass(frozen=True)
class TraceKey:
    """A deterministic recipe for a benchmark trace.

    Cheap to pickle (three scalars); :meth:`load` regenerates the trace
    through :func:`repro.workloads.registry.trace_by_kind` and memoises
    it per process, so a fleet worker builds each benchmark once no
    matter how many sweep cells it executes.
    """

    name: str
    kind: str = "instruction"
    max_refs: int = 200_000

    def load(self) -> Trace:
        return as_trace(self)  # memoised per process

    def _build(self) -> Trace:
        from ..workloads.registry import trace_by_kind

        return trace_by_kind(self.name, self.kind, max_refs=self.max_refs)


#: Anything :func:`as_trace` accepts: a materialised Trace or a recipe.
TraceLike = Union[Trace, TraceKey, object]

_TRACE_CACHE: Dict[object, Trace] = {}

#: Ten benchmarks x three kinds fit comfortably; anything past this is
#: a scale change or a synthetic flood, and old entries are evicted FIFO.
_TRACE_CACHE_LIMIT = 64


def is_trace_recipe(trace: object) -> bool:
    """Whether ``trace`` is a deterministic recipe rather than raw data."""
    return (
        not isinstance(trace, Trace)
        and hasattr(trace, "load")
        and hasattr(trace, "name")
        and hasattr(trace, "kind")
        and hasattr(trace, "max_refs")
    )


def clear_trace_cache() -> None:
    """Drop this process's memoised recipe traces."""
    _TRACE_CACHE.clear()


def as_trace(trace: TraceLike) -> Trace:
    """Materialise a trace recipe (memoised); pass a Trace through unchanged."""
    if isinstance(trace, Trace):
        return trace
    if not is_trace_recipe(trace):
        raise TypeError(
            f"expected a Trace or a trace recipe with name/kind/max_refs/load, "
            f"got {type(trace).__name__}"
        )
    cached = _TRACE_CACHE.get(trace)
    if cached is None:
        if len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            # Drop the oldest memoised trace (insertion order): the
            # cache otherwise grows without bound when sweeps mix
            # many distinct recipes.
            _TRACE_CACHE.pop(next(iter(_TRACE_CACHE)))
        # Recipes with a raw ``_build`` (TraceKey) route their public
        # ``load`` back through this memo; plain recipes just load.
        build = getattr(trace, "_build", None) or trace.load
        with obs_tracing.span(
            "trace_gen",
            trace=str(trace.name),
            trace_kind=str(trace.kind),
            refs=int(trace.max_refs),
        ):
            cached = build()
        obs_metrics.counter("trace.cache.miss")
        _TRACE_CACHE[trace] = cached
    else:
        obs_metrics.counter("trace.cache.hit")
    return cached
