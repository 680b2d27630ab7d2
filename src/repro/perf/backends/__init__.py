"""Pluggable sweep execution backends.

The sweep runtime (:func:`repro.perf.parallel.run_labeled_cells`)
delegates *how* pending cells execute to a :class:`SweepBackend`:

========== ===================================================
``inline``      this process, no pool (single-worker default)
``local-pool``  one machine's ProcessPoolExecutor
``fleet``       NDJSON worker subprocesses, local or SSH
========== ===================================================

Selection: ``backend=`` argument > CLI ``--backend`` default >
``REPRO_BACKEND`` > automatic (``inline``/``local-pool`` by worker and
cell count, the pre-backend dispatch).  All backends share journal,
telemetry, and envelope semantics through :class:`SweepContext`, so a
journal written under one backend resumes under any other.
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
    report_outcome,
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
from .local_pool import LocalPoolBackend, terminate_pool  # noqa: F401

__all__ = [
    "BACKENDS",
    "SweepBackend",
    "SweepContext",
    "InlineBackend",
    "LocalPoolBackend",
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
