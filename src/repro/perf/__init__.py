"""Fast simulation: set-partitioned kernels, engine dispatch, parallel sweeps.

* :mod:`repro.perf.kernels` — numpy set-partitioned kernels for the
  direct-mapped, dynamic-exclusion, Belady-optimal (any associativity,
  plus the last-line variant), and LRU set-associative caches, and for
  the two-level hierarchy of every hit-last strategy;
* :mod:`repro.perf.engine` — ``simulate(model, trace, engine=...)``
  dispatch with a kernel registry and automatic reference fallback;
* :mod:`repro.perf.parallel` — a fault-tolerant sweep runner:
  per-cell result envelopes with full identity, bounded re-dispatch on
  worker crashes, per-cell timeouts, ``sweep.*`` metrics, and resume
  from a :class:`~repro.store.ResultStore`; ships deterministic
  :class:`~repro.perf.parallel.TraceKey` recipes instead of trace
  arrays.  It runs a sweep's cells on the fleet when
  ``REPRO_FLEET_HOSTS`` names endpoints or more than one worker has
  more than one pending cell, and inline otherwise;
* :mod:`repro.perf.backends` — the two cell runners: inline (this
  process) and the fleet (cells sharded across long-lived worker
  processes, forked locally or ``repro worker`` over SSH);
* :mod:`repro.perf.worker` — the NDJSON protocol loop every fleet
  worker runs (``python -m repro.cli worker`` when exec'd).
"""

from .engine import (
    ENGINES,
    KernelExecutionError,
    has_kernel,
    kernel_for,
    registered_kernel_types,
    resolve_engine,
    simulate,
)
from .cells import canonical_parameter, parameter_from_json
from .kernels import (
    simulate_belady,
    simulate_direct_mapped,
    simulate_dynamic_exclusion,
    simulate_lru,
    simulate_optimal_last_line,
    simulate_two_level,
)
from .backends import (
    SweepContext,
    live_workers,
    worker_command,
)
from .parallel import (
    CellIdentity,
    CellOutcome,
    SweepCellError,
    TraceKey,
    as_trace,
    clear_trace_cache,
    env_workers,
    evaluate_cell,
    identity_for,
    is_trace_recipe,
    outcome_observer,
    resolve_workers,
    run_labeled_cells,
    simulate_cell,
)
from .worker import worker_main

__all__ = [
    "ENGINES",
    "CellIdentity",
    "CellOutcome",
    "KernelExecutionError",
    "SweepCellError",
    "SweepContext",
    "TraceKey",
    "as_trace",
    "canonical_parameter",
    "clear_trace_cache",
    "env_workers",
    "evaluate_cell",
    "has_kernel",
    "identity_for",
    "is_trace_recipe",
    "kernel_for",
    "live_workers",
    "outcome_observer",
    "parameter_from_json",
    "registered_kernel_types",
    "resolve_engine",
    "resolve_workers",
    "run_labeled_cells",
    "simulate",
    "simulate_belady",
    "simulate_cell",
    "simulate_direct_mapped",
    "simulate_dynamic_exclusion",
    "simulate_lru",
    "simulate_optimal_last_line",
    "simulate_two_level",
    "worker_command",
    "worker_main",
]
