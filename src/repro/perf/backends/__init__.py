"""Pluggable sweep execution backends.

The sweep runtime (:func:`repro.perf.parallel.run_labeled_cells`)
delegates *how* pending cells execute to a :class:`SweepBackend`:

* ``inline`` — this process, one cell at a time;
* ``fleet`` — NDJSON worker processes, forked or exec'd on this
  machine or reached over SSH.

Selection: ``backend=`` argument > CLI ``--backend`` default >
``REPRO_BACKEND`` > automatic (``inline`` for single-worker or
single-cell runs, ``fleet`` otherwise).  Both backends share journal,
counter, and envelope semantics through :class:`SweepContext`, so a
journal written under one backend resumes under the other.
"""

from .base import (  # noqa: F401
    BACKENDS,
    SweepBackend,
    SweepContext,
    backend_names,
    cell_attrs,
    create_backend,
    default_backend,
    merge_worker_obs,
    outcome_observer,
    record_cell_span,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from .fleet import (  # noqa: F401
    FleetBackend,
    FleetWorker,
    live_worker_ids,
    live_worker_status,
    live_workers,
    worker_command,
)
from .inline import InlineBackend, run_sequential  # noqa: F401

__all__ = [
    "BACKENDS",
    "SweepBackend",
    "SweepContext",
    "InlineBackend",
    "FleetBackend",
    "FleetWorker",
    "backend_names",
    "create_backend",
    "default_backend",
    "live_worker_ids",
    "live_worker_status",
    "live_workers",
    "merge_worker_obs",
    "outcome_observer",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "worker_command",
]
