"""Simulation-engine dispatch: fast kernels with reference fallback.

:func:`simulate` is the one entry point the sweep/experiment layers go
through.  With ``engine="reference"`` it simply calls the model's own
``simulate`` (the per-reference Python loop).  With ``engine="fast"`` it
consults the kernel registry: configurations with a set-partitioned
kernel (:mod:`repro.perf.kernels`) — direct-mapped, dynamic exclusion
with the ideal store, the Belady-optimal family, LRU set-associative,
and two-level hierarchies of every hit-last strategy with one sticky
bit and equal L1/L2 line sizes — run through it.  Everything else —
victim caches, FIFO/random replacement, write-policy wrappers,
non-ideal hit-last stores on a lone cache, multi-level sticky bits,
hierarchies whose L2 lines are longer than L1's — falls back to the
reference path, so callers never need to know which configurations are
accelerated.  Every call names the engine that actually ran: the
``simulate`` span's ``path`` attribute and the
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

from typing import Callable, Dict, List, Optional, Sequence, Union

from ..caches.base import Cache, OfflineCache
from ..obs import metrics as obs_metrics
from ..obs import profiling as obs_profiling
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
from .batch import DEBatchSpec, simulate_dynamic_exclusion_batch

#: The recognised engine names.  ``batch`` behaves exactly like ``fast``
#: for a single model; its value is in :func:`simulate_batch`, which
#: simulates many cells sharing one trace in a single vectorized
#: invocation.
ENGINES = ("fast", "batch", "reference")


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


# -- batch kernels ------------------------------------------------------------
#
# A batch kernel simulates MANY cells that share one trace in a single
# vectorized invocation, amortizing the per-trace factorization (address
# sort, run detection) that a per-cell kernel repeats for every
# geometry.  The indirection mirrors the per-cell registry: a *spec
# extractor* keyed by exact model type turns an eligible instance into a
# lightweight, hashable spec, and a *runner* keyed by spec type executes
# a homogeneous group of specs against one trace.

#: Exact model type -> extractor returning a batch spec (or None when
#: the instance is not batch-eligible).
_BATCH_SPEC_FACTORIES: Dict[type, Callable[[Simulator], Optional[object]]] = {}

#: Spec type -> runner ``(trace, specs) -> [CacheStats, ...]``.
_BATCH_RUNNERS: Dict[type, Callable[[Trace, Sequence[object]], List[CacheStats]]] = {}


def register_batch_spec(cache_type: type):
    """Register a batch-spec extractor for an exact model type."""

    def decorator(extractor: Callable[[Simulator], Optional[object]]):
        _BATCH_SPEC_FACTORIES[cache_type] = extractor
        return extractor

    return decorator


def register_batch_kernel(spec_type: type):
    """Register the vectorized runner for a batch-spec type."""

    def decorator(runner: Callable[[Trace, Sequence[object]], List[CacheStats]]):
        _BATCH_RUNNERS[spec_type] = runner
        return runner

    return decorator


@register_batch_spec(DynamicExclusionCache)
def _dynamic_exclusion_batch_spec(cache: Simulator) -> Optional[DEBatchSpec]:
    # Same eligibility surface as the per-cell fast kernel, narrowed to
    # the direct-mapped geometry the batched FSM supports.
    if type(cache) is not DynamicExclusionCache:
        return None
    if cache.sticky_levels != 1:
        return None
    store = cache.store
    if type(store) is not IdealHitLastStore or len(store) != 0:
        return None
    if not _is_cold(cache):
        return None
    if cache.geometry.associativity != 1:
        return None
    return DEBatchSpec(cache.geometry, default_hit_last=store.default)


register_batch_kernel(DEBatchSpec)(simulate_dynamic_exclusion_batch)


def is_batch_spec(spec: object) -> bool:
    """Whether ``spec``'s type has a registered batch runner."""
    return type(spec) in _BATCH_RUNNERS


def batch_spec_for(simulator: Simulator) -> Optional[object]:
    """The batch spec for this exact configuration, or ``None``."""
    extractor = _BATCH_SPEC_FACTORIES.get(type(simulator))
    if extractor is None:
        return None
    spec = extractor(simulator)
    if spec is None or not is_batch_spec(spec):
        return None
    return spec


def has_batch_kernel(simulator: Simulator) -> bool:
    """Whether :func:`simulate_batch` would vectorize this model."""
    return batch_spec_for(simulator) is not None


def simulate_batch_specs(
    trace: Trace, specs: Sequence[object]
) -> List[CacheStats]:
    """Run batch specs (every one registered) against one shared trace.

    The spec-level entry point: callers that can describe their cells
    without building models (see the ``batch_spec`` factory protocol in
    :mod:`repro.perf.parallel`) skip model construction entirely —
    constructing a large cache allocates arrays proportional to its set
    count, real money across a wide sweep.  Specs are grouped by type
    and each group runs in one vectorized kernel invocation; results
    come back in input order.
    """
    results: List[Optional[CacheStats]] = [None] * len(specs)
    groups: Dict[type, List[int]] = {}
    for i, spec in enumerate(specs):
        if not is_batch_spec(spec):
            raise ValueError(
                f"no batch kernel registered for spec {spec!r} "
                f"(type {type(spec).__name__})"
            )
        groups.setdefault(type(spec), []).append(i)
    obs_metrics.counter("batch.groups", max(1, len(groups)))
    with obs_tracing.span(
        "simulate_batch",
        trace=trace.name or "<unnamed>",
        refs=len(trace),
        cells=len(specs),
        vectorized=len(specs),
    ):
        for spec_type, indices in groups.items():
            runner = _BATCH_RUNNERS[spec_type]
            group_specs = [specs[i] for i in indices]
            with obs_profiling.section(f"batch_kernel:{spec_type.__name__}"):
                try:
                    group_stats = runner(trace, group_specs)
                except Exception as exc:
                    raise KernelExecutionError(
                        f"batch kernel for {spec_type.__name__} failed on "
                        f"trace {trace.name or '<unnamed>'!r} "
                        f"({len(trace)} refs, {len(indices)} cells): "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
            if len(group_stats) != len(indices):
                raise KernelExecutionError(
                    f"batch kernel for {spec_type.__name__} returned "
                    f"{len(group_stats)} results for {len(indices)} cells"
                )
            for i, stats in zip(indices, group_stats):
                results[i] = stats
    return results  # type: ignore[return-value]


def simulate_batch(
    simulators: Sequence[Simulator],
    trace: Trace,
    engine: Optional[str] = None,
) -> List[SimulationStats]:
    """Simulate many models against one shared trace.

    With ``engine="batch"``, models whose configuration has a batch
    kernel are grouped by spec type and executed in one vectorized
    invocation per group (:func:`simulate_batch_specs`); the rest fall
    back to per-cell :func:`simulate` under the fast engine.  Any other
    engine simply maps :func:`simulate` over the models.  Results come
    back in input order either way, one :func:`simulate` result per
    model.
    """
    engine = resolve_engine(engine)
    if engine != "batch":
        return [simulate(sim, trace, engine=engine) for sim in simulators]

    results: List[Optional[SimulationStats]] = [None] * len(simulators)
    specs: List[Optional[object]] = [batch_spec_for(sim) for sim in simulators]
    vectorized = [i for i, spec in enumerate(specs) if spec is not None]
    obs_metrics.counter("batch.cells.vectorized", len(vectorized))
    obs_metrics.counter("batch.cells.fallback", len(simulators) - len(vectorized))
    if vectorized:
        for i, stats in zip(
            vectorized,
            simulate_batch_specs(trace, [specs[i] for i in vectorized]),
        ):
            results[i] = stats
    for i, sim in enumerate(simulators):
        if results[i] is None:
            results[i] = simulate(sim, trace, engine="fast")
    return results  # type: ignore[return-value]


# -- engine selection ---------------------------------------------------------

_DEFAULT_ENGINE = "reference"


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name, substituting the process default for None."""
    if engine is None:
        return _DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {list(ENGINES)}")
    return engine


def set_default_engine(engine: str) -> None:
    """Set the process-wide default engine (the CLI's ``--engine`` flag)."""
    global _DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {list(ENGINES)}")
    _DEFAULT_ENGINE = engine


def default_engine() -> str:
    """The process-wide default engine name."""
    return _DEFAULT_ENGINE


def simulate(
    simulator: Simulator, trace: Trace, engine: Optional[str] = None
) -> SimulationStats:
    """Run ``trace`` through ``simulator`` under the chosen engine.

    ``engine=None`` uses the process default (``reference`` unless the
    experiments CLI was invoked with ``--engine fast``).  Returns what
    ``simulator.simulate`` returns (:class:`CacheStats`, or a
    :class:`TwoLevelResult` for a hierarchy).
    """
    engine = resolve_engine(engine)
    model = type(simulator).__name__
    runner = kernel_for(simulator) if engine in ("fast", "batch") else None
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
            with obs_profiling.section(f"kernel:{model}"):
                try:
                    return runner(trace)
                except Exception as exc:
                    raise KernelExecutionError(
                        f"fast kernel for {model} failed on "
                        f"trace {trace.name or '<unnamed>'!r} ({len(trace)} refs): "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
        with obs_profiling.section(f"reference:{model}"):
            return simulator.simulate(trace)
