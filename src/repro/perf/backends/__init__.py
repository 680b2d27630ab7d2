"""The two places a sweep's pending cells run.

The sweep runtime (:func:`repro.perf.parallel.run_labeled_cells`)
picks one per run:

* :func:`run_sequential` — this process, one cell at a time;
* :class:`FleetBackend` — NDJSON worker processes, forked or exec'd on
  this machine or reached over SSH.

Both fold results into the run through :class:`SweepContext`, so they
journal and count identically, and a journal written by one resumes
under the other.
"""

from .base import (  # noqa: F401
    SweepContext,
    cell_attrs,
    merge_worker_obs,
    outcome_observer,
    record_cell_span,
)
from .fleet import (  # noqa: F401
    FleetBackend,
    FleetWorker,
    live_workers,
    worker_command,
)
from .inline import run_sequential  # noqa: F401

__all__ = [
    "SweepContext",
    "FleetBackend",
    "FleetWorker",
    "live_workers",
    "merge_worker_obs",
    "outcome_observer",
    "run_sequential",
    "worker_command",
]
