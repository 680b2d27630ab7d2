"""Simulation-engine dispatch: compiled kernels with reference fallback.

:func:`simulate` is the one entry point the sweep/experiment layers go
through.  Under ``engine="fast"``, the default everywhere, it consults
the kernel registry: configurations with a compiled kernel
(:mod:`repro.perf.kernels`) — direct-mapped, victim caches, dynamic
exclusion with one sticky bit and the ideal store or a hashed table of
any size, set-associative exclusion with one sticky bit and the ideal
store, the Belady-optimal family, LRU set-associative, two-level
hierarchies of every hit-last strategy with one sticky bit and equal
L1/L2 line sizes, and a last-line buffer over any of the lone caches
among them (the inner kernel run on the line events) — run through
it.  Everything else — FIFO/random replacement, write-policy wrappers,
multi-level sticky bits, hierarchies whose L2 lines are longer than
L1's — falls back to the reference path, and so does every model when
the kernel library cannot be built (:func:`repro.perf.kernels.library`
is None), so callers never need to know which configurations are
accelerated.  ``engine="reference"``, the per-reference loops that the
kernels are tested against, is reached only through ``engine=``
parameters, never a command-line flag.  Every call names the engine
that actually ran: the ``simulate`` span's ``path`` attribute and the
``engine.dispatch{model=,engine_used=}`` counter.

Either way :func:`simulate` returns what the model's own ``simulate``
returns: a :class:`~repro.caches.stats.CacheStats`, or a
:class:`~repro.hierarchy.two_level.TwoLevelResult` for a hierarchy.
The fast path is *pure*: it requires a freshly constructed model (cold
arrays, zero stats) and does not mutate it, returning standalone
statistics.  A model that has already been touched falls back to the
reference engine, which accumulates into the model exactly as before.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Union

from ..caches.base import Cache, OfflineCache, simulate_line_events
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..caches.direct_mapped import DirectMappedCache
from ..caches.optimal import (
    OptimalCache,
    OptimalDirectMappedCache,
    OptimalLastLineCache,
)
from ..caches.set_associative import SetAssociativeCache
from ..caches.stats import CacheStats
from ..caches.victim import VictimCache
from ..core.exclusion_cache import DynamicExclusionCache
from ..core.hitlast import HashedHitLastStore, IdealHitLastStore
from ..core.long_lines import LastLineBufferCache
from ..core.set_assoc_exclusion import SetAssociativeExclusionCache
from ..hierarchy.two_level import TwoLevelCache, TwoLevelResult
from ..trace.trace import Trace
from . import kernels

#: The recognised engine names.
ENGINES = ("fast", "reference")


class KernelExecutionError(RuntimeError):
    """A fast kernel raised mid-simulation.

    Wraps the original exception (available as ``__cause__``) with the
    model type and trace identity, so a failure deep inside a compiled
    kernel during a 500-cell sweep is attributable without a debugger.
    """

Simulator = Union[Cache, OfflineCache, TwoLevelCache]
SimulationStats = Union[CacheStats, TwoLevelResult]
KernelRunner = Callable[[Trace], SimulationStats]

def _is_cold(cache: Cache) -> bool:
    """Freshly built: no accesses counted and nothing resident."""
    stats = cache.stats
    return stats.accesses == 0 and stats.misses == 0 and cache.is_empty()


def _direct_mapped_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if not cache.allocate_on_miss or not _is_cold(cache):
        return None
    geometry = cache.geometry
    return lambda trace: kernels.simulate_direct_mapped(trace, geometry)


def _victim_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if not _is_cold(cache):
        return None
    geometry = cache.geometry
    entries = cache.entries
    return lambda trace: kernels.simulate_victim(trace, geometry, entries)


def _dynamic_exclusion_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if cache.sticky_levels != 1 or not _is_cold(cache):
        return None
    geometry = cache.geometry
    store = cache.store
    if type(store) is IdealHitLastStore:
        num_bits = None
    elif type(store) is HashedHitLastStore:
        num_bits = store.num_bits
    else:
        return None
    if not store.is_cold():
        return None
    default = store.default
    return lambda trace: kernels.simulate_dynamic_exclusion(
        trace, geometry, default_hit_last=default, num_bits=num_bits
    )


def _set_associative_exclusion_kernel(cache: Simulator) -> Optional[KernelRunner]:
    store = cache.store
    if cache.sticky_levels != 1 or type(store) is not IdealHitLastStore:
        return None
    if not store.is_cold() or not _is_cold(cache):
        return None
    geometry = cache.geometry
    default = store.default
    return lambda trace: kernels.simulate_set_associative_exclusion(
        trace, geometry, default_hit_last=default
    )


def _last_line_buffer_kernel(cache: Simulator) -> Optional[KernelRunner]:
    # The inner model's kernel runs on the line events; its matcher
    # checks that the inner model is cold.
    inner = kernel_for(cache.inner)
    if inner is None or not _is_cold(cache):
        return None
    line_size = cache.geometry.line_size
    return lambda trace: simulate_line_events(trace, line_size, inner)


def _optimal_kernel(cache: Simulator) -> Optional[KernelRunner]:
    geometry = cache.geometry
    return lambda trace: kernels.simulate_belady(trace, geometry)


def _optimal_last_line_kernel(cache: Simulator) -> Optional[KernelRunner]:
    geometry = cache.geometry
    belady = functools.partial(kernels.simulate_belady, geometry=geometry)
    return lambda trace: simulate_line_events(trace, geometry.line_size, belady)


def _lru_set_associative_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if cache.policy_name != "lru" or not _is_cold(cache):
        return None
    geometry = cache.geometry
    return lambda trace: kernels.simulate_lru(trace, geometry)


def _two_level_kernel(model: Simulator) -> Optional[KernelRunner]:
    # The kernel takes an L2 line to be one L1 line.
    if model.sticky_levels != 1:
        return None
    l1, l2 = model.l1_geometry, model.l2_geometry
    if l1.line_size != l2.line_size or not model.is_cold():
        return None
    strategy = model.strategy
    bits_per_line = model.hashed_bits_per_line
    return lambda trace: kernels.simulate_two_level(
        trace, l1, l2, strategy, hashed_bits_per_line=bits_per_line
    )


#: Exact model type -> matcher: given the model *instance*, a callable
#: ``trace -> stats`` (of the type the model's own ``simulate`` returns)
#: when the instance's configuration is supported, else None.
#: OptimalDirectMappedCache only constrains the geometry; exact-type
#: matching needs it listed as well.
_KERNEL_FACTORIES: Dict[type, Callable[[Simulator], Optional[KernelRunner]]] = {
    DirectMappedCache: _direct_mapped_kernel,
    VictimCache: _victim_kernel,
    DynamicExclusionCache: _dynamic_exclusion_kernel,
    SetAssociativeExclusionCache: _set_associative_exclusion_kernel,
    LastLineBufferCache: _last_line_buffer_kernel,
    OptimalCache: _optimal_kernel,
    OptimalDirectMappedCache: _optimal_kernel,
    OptimalLastLineCache: _optimal_last_line_kernel,
    SetAssociativeCache: _lru_set_associative_kernel,
    TwoLevelCache: _two_level_kernel,
}


def registered_kernel_types() -> "tuple[type, ...]":
    """The exact model types with a registered kernel matcher."""
    return tuple(_KERNEL_FACTORIES)


def kernel_for(simulator: Simulator) -> Optional[KernelRunner]:
    """The fast kernel for this exact configuration, or ``None`` (also
    for every model when the kernel library cannot be built).  Matching
    is by exact type, so subclasses with changed behaviour never inherit
    a kernel silently."""
    matcher = _KERNEL_FACTORIES.get(type(simulator))
    if matcher is None or kernels.library() is None:
        return None
    return matcher(simulator)


def has_kernel(simulator: Simulator) -> bool:
    """Whether ``simulate(..., engine="fast")`` would avoid the fallback."""
    return kernel_for(simulator) is not None


# -- engine selection ---------------------------------------------------------

#: What every caller naming no engine gets: CLIs, daemon and library.
_DEFAULT_ENGINE = "fast"


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name, substituting the default (``fast``) for None."""
    if engine is None:
        return _DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {list(ENGINES)}")
    return engine


def simulate(
    simulator: Simulator, trace: Trace, engine: Optional[str] = None
) -> SimulationStats:
    """Run ``trace`` through ``simulator`` under the chosen engine.

    ``engine=None`` is ``fast``.  Returns what ``simulator.simulate``
    returns (:class:`CacheStats`, or a :class:`TwoLevelResult` for a
    hierarchy).
    """
    engine = resolve_engine(engine)
    model = type(simulator).__name__
    runner = kernel_for(simulator) if engine == "fast" else None
    path = "kernel" if runner is not None else "reference"
    obs_metrics.counter(
        "engine.dispatch",
        model=model,
        engine_used="fast" if runner is not None else "reference",
    )
    with obs_tracing.span(
        "simulate",
        model=model,
        trace=trace.name or "<unnamed>",
        refs=len(trace),
        engine=engine,
        path=path,
    ):
        if runner is not None:
            try:
                return runner(trace)
            except Exception as exc:
                raise KernelExecutionError(
                    f"fast kernel for {model} failed on "
                    f"trace {trace.name or '<unnamed>'!r} ({len(trace)} refs): "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        return simulator.simulate(trace)
