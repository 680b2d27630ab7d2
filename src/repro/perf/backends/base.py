"""What a sweep run hands the code that executes its cells.

The orchestrator (:func:`repro.perf.parallel.run_labeled_cells`) runs
pending cells either inline (:func:`~repro.perf.backends.run_sequential`)
or on the fleet (:class:`~repro.perf.backends.FleetBackend`).  Both
receive the pending cell indices and a :class:`SweepContext`, and
*yield* each :class:`CellOutcome` as it resolves, having already
folded it into the run's journal and counters through the context
helpers.  The orchestrator reports each yielded outcome to
observers/progress, so cells stream in completion order wherever they
ran.  This module also holds the observer hook and the span helpers
both runners share.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ...obs import metrics as obs_metrics
from ...obs import tracing as obs_tracing
from ...store import ResultStore
from ..cells import CellEvaluator, CellOutcome, LabeledCell


@dataclass
class SweepContext:
    """Everything one sweep run hands its cell runner, and its live
    counters.

    The mutation helpers (:meth:`record_success`, :meth:`fail`) are the
    single place cell results turn into journal entries and counters,
    so inline and fleet runs journal and count identically — the
    placement-invariance tests pin exactly that.  The orchestrator
    publishes the counters as the ``sweep.*`` metrics when the run ends.
    """

    cells: Sequence[LabeledCell]
    outcomes: List[CellOutcome]
    engine: str
    workers: int
    timeout: Optional[float]
    pool_retries: int
    journal: Optional[ResultStore]
    progress: bool
    evaluator: Optional[CellEvaluator] = None
    fleet_hosts: List[str] = field(default_factory=list)
    #: Trace propagation context (:func:`repro.obs.distributed
    #: .propagation_context`) the fleet forwards to worker processes;
    #: None when tracing is off.
    obs_ctx: Optional[Dict[str, object]] = None
    #: Where the pending cells run, ``"inline"`` or ``"fleet"`` (set
    #: once they are known).
    backend: str = ""
    completed: int = 0
    failed: int = 0
    cached: int = 0
    pool_restarts: int = 0
    #: Computed cells per fleet worker id; empty for inline runs.
    worker_cells: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.cells)

    def record_success(
        self,
        outcome: CellOutcome,
        metrics: Dict[str, float],
        seconds: float,
    ) -> None:
        """Fold one computed cell into its envelope, the journal and the
        counters.

        A non-finite metric is a broken measurement, not a result: it
        fails the cell instead, so it is neither journaled nor averaged
        into a figure.
        """
        outcome.seconds = seconds
        for name, value in metrics.items():
            if not math.isfinite(value):
                self.fail(outcome, (
                    f"ValueError: metric {name!r} is non-finite ({value!r})"
                ))
                return
        outcome.metrics = dict(metrics)
        outcome.miss_rate = metrics.get("miss_rate")
        self.completed += 1
        if outcome.worker:
            cells = self.worker_cells.get(outcome.worker, 0)
            self.worker_cells[outcome.worker] = cells + 1
        if self.journal is not None and outcome.identity.journalable:
            identity = outcome.identity
            self.journal.record(
                identity.key(), identity.payload(), metrics, seconds
            )

    def fail(self, outcome: CellOutcome, error: str) -> None:
        outcome.error = error
        self.failed += 1

    def report(self, outcome: CellOutcome) -> None:
        """Stream one resolved cell to the observer hook and, when
        ``--progress`` is on, a stderr progress line."""
        observer = getattr(_OUTCOME_OBSERVER, "callback", None)
        if observer is not None:
            try:
                observer(self, outcome)
            except Exception:
                obs_metrics.counter("sweep.observer_errors")
        if not self.progress:
            return
        if outcome.cached:
            status = "journal"
        elif outcome.error is not None:
            status = f"FAILED ({outcome.error})"
        else:
            status = f"{outcome.seconds:.2f}s"
        print(
            f"[sweep {self.completed + self.failed}/{self.total}] "
            f"{outcome.identity.describe()} -> {status}",
            file=sys.stderr,
            flush=True,
        )


# -- outcome observation ------------------------------------------------------

# Per-thread hook observing every resolved cell (cached, computed, or
# failed) as run_labeled_cells reports it.  Thread-local so concurrent
# sweeps — e.g. two serve requests on different handler threads — each
# stream only their own cells.
_OUTCOME_OBSERVER = threading.local()


@contextmanager
def outcome_observer(callback: "Callable[[SweepContext, CellOutcome], None]"):
    """Observe each resolved cell of any sweep run on this thread.

    The callback receives two positional arguments, the run's live
    :class:`SweepContext` and the cell's envelope, at the same points
    ``--progress`` would print a line: journal replays, fleet and inline
    completions, and failures alike.  ``repro.serve`` uses this to
    stream per-cell progress over HTTP.  Callback exceptions are
    swallowed (and counted under the ``sweep.observer_errors`` metric):
    a broken observer must not poison the sweep it is watching.
    """
    previous = getattr(_OUTCOME_OBSERVER, "callback", None)
    _OUTCOME_OBSERVER.callback = callback
    try:
        yield
    finally:
        _OUTCOME_OBSERVER.callback = previous


# -- span helpers -------------------------------------------------------------


def cell_attrs(outcome: CellOutcome) -> Dict[str, object]:
    """JSON-safe span attributes naming one cell."""
    identity = outcome.identity
    return {
        "label": identity.label,
        "parameter": repr(identity.parameter),
        "trace": identity.trace_name,
        "engine": identity.engine,
    }


def record_cell_span(
    outcome: CellOutcome, **extra: object
) -> "Optional[obs_tracing.Span]":
    """Synthetic ``cell`` span for a cell executed outside this process.

    Worker processes cannot reach the parent's tracer, so the parent
    back-dates a span from the envelope's worker-measured seconds once
    the cell resolves (success or terminal failure).  ``extra`` tags
    where it ran (``fleet=True``).
    Returns the recorded span (None when tracing is off) so the
    distributed merge can parent the worker's shipped spans under it.
    """
    attrs = cell_attrs(outcome)
    attrs.update(extra)
    if outcome.worker:
        attrs["worker"] = outcome.worker
    if outcome.error is not None:
        attrs["error"] = outcome.error
    return obs_tracing.record("cell", outcome.seconds, **attrs)


def merge_worker_obs(
    outcome: CellOutcome,
    cell_span: "Optional[obs_tracing.Span]",
    payload: object,
) -> int:
    """Fold a worker's shipped obs payload under the cell's span.

    Thin wrapper over :func:`repro.obs.distributed.merge_cell_payload`
    adding the sweep-side attribution (the envelope's ``worker`` id,
    when the fleet assigned one).
    """
    if not isinstance(payload, dict):
        return 0
    from ...obs import distributed as obs_distributed

    return obs_distributed.merge_cell_payload(
        payload, cell_span, worker=outcome.worker or ""
    )
