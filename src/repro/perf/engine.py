"""Simulation-engine dispatch: fast kernels with reference fallback.

:func:`simulate` is the one entry point the sweep/experiment layers go
through.  Under ``engine="fast"``, the default everywhere, it consults
the kernel registry: configurations with a set-partitioned
kernel (:mod:`repro.perf.kernels`) — direct-mapped, dynamic exclusion
with the ideal store, the Belady-optimal family, LRU set-associative,
and two-level hierarchies of every hit-last strategy with one sticky
bit and equal L1/L2 line sizes — run through it.  Everything else —
victim caches, FIFO/random replacement, write-policy wrappers,
non-ideal hit-last stores on a lone cache, multi-level sticky bits,
hierarchies whose L2 lines are longer than L1's — falls back to the
reference path, so callers never need to know which configurations are
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

from typing import Callable, Dict, Optional, Union

from ..caches.base import Cache, OfflineCache
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
from ..core.exclusion_cache import DynamicExclusionCache
from ..core.hitlast import IdealHitLastStore
from ..hierarchy.two_level import TwoLevelCache, TwoLevelResult
from ..trace.trace import Trace
from . import kernels

#: The recognised engine names.
ENGINES = ("fast", "reference")


class KernelExecutionError(RuntimeError):
    """A fast kernel raised mid-simulation.

    Wraps the original exception (available as ``__cause__``) with the
    model type and trace identity, so a failure deep inside a vectorized
    kernel during a 500-cell sweep is attributable without a debugger.
    """

Simulator = Union[Cache, OfflineCache, TwoLevelCache]
SimulationStats = Union[CacheStats, TwoLevelResult]
KernelRunner = Callable[[Trace], SimulationStats]

#: Exact model type -> matcher returning a kernel runner (or None when
#: the particular instance is not kernel-eligible).
_KERNEL_FACTORIES: Dict[type, Callable[[Simulator], Optional[KernelRunner]]] = {}


def register_kernel(cache_type: type):
    """Class decorator target: register a kernel matcher for a model type.

    The matcher receives the model *instance* and returns a callable
    ``trace -> stats`` (of the type the model's own ``simulate``
    returns) when the instance's configuration is supported, else
    ``None``.  Matching is by exact type, so subclasses
    with changed behaviour never inherit a kernel silently.
    """

    def decorator(matcher: Callable[[Simulator], Optional[KernelRunner]]):
        _KERNEL_FACTORIES[cache_type] = matcher
        return matcher

    return decorator


def _is_cold(cache: Cache) -> bool:
    """Freshly built: no accesses counted and nothing resident."""
    stats = cache.stats
    return stats.accesses == 0 and stats.misses == 0 and cache.is_empty()


@register_kernel(DirectMappedCache)
def _direct_mapped_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if type(cache) is not DirectMappedCache:
        return None
    if not cache.allocate_on_miss or not _is_cold(cache):
        return None
    geometry = cache.geometry
    return lambda trace: kernels.simulate_direct_mapped(trace, geometry)


@register_kernel(DynamicExclusionCache)
def _dynamic_exclusion_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if type(cache) is not DynamicExclusionCache:
        return None
    if cache.sticky_levels != 1:
        return None
    store = cache.store
    if type(store) is not IdealHitLastStore or len(store) != 0:
        return None
    if not _is_cold(cache):
        return None
    geometry = cache.geometry
    default = store.default
    return lambda trace: kernels.simulate_dynamic_exclusion(
        trace, geometry, default_hit_last=default
    )


@register_kernel(OptimalCache)
def _optimal_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if type(cache) is not OptimalCache:
        return None
    geometry = cache.geometry
    return lambda trace: kernels.simulate_belady(trace, geometry)


@register_kernel(OptimalDirectMappedCache)
def _optimal_direct_mapped_kernel(cache: Simulator) -> Optional[KernelRunner]:
    # Same simulation as OptimalCache (the subclass only constrains the
    # geometry), but registered separately to keep exact-type matching.
    if type(cache) is not OptimalDirectMappedCache:
        return None
    geometry = cache.geometry
    return lambda trace: kernels.simulate_belady(trace, geometry)


@register_kernel(OptimalLastLineCache)
def _optimal_last_line_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if type(cache) is not OptimalLastLineCache:
        return None
    geometry = cache.geometry
    return lambda trace: kernels.simulate_optimal_last_line(trace, geometry)


@register_kernel(SetAssociativeCache)
def _lru_set_associative_kernel(cache: Simulator) -> Optional[KernelRunner]:
    if type(cache) is not SetAssociativeCache:
        return None
    if cache.policy_name != "lru" or not _is_cold(cache):
        return None
    geometry = cache.geometry
    return lambda trace: kernels.simulate_lru(trace, geometry)


@register_kernel(TwoLevelCache)
def _two_level_kernel(model: Simulator) -> Optional[KernelRunner]:
    # Equal line sizes keep each L2 set inside one L1 set, which is what
    # lets the kernel run the L1 set groups independently.
    if type(model) is not TwoLevelCache or model.sticky_levels != 1:
        return None
    l1, l2 = model.l1_geometry, model.l2_geometry
    if l1.line_size != l2.line_size or not model.is_cold():
        return None
    strategy = model.strategy
    bits_per_line = model.hashed_bits_per_line
    return lambda trace: kernels.simulate_two_level(
        trace, l1, l2, strategy, hashed_bits_per_line=bits_per_line
    )


def registered_kernel_types() -> "tuple[type, ...]":
    """The exact model types with a registered kernel matcher."""
    return tuple(_KERNEL_FACTORIES)


def kernel_for(simulator: Simulator) -> Optional[KernelRunner]:
    """The fast kernel for this exact configuration, or ``None``."""
    matcher = _KERNEL_FACTORIES.get(type(simulator))
    if matcher is None:
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
