"""The sweep runtime: one orchestrator, two places a cell can run.

A figure sweep is a grid of independent (parameter, policy, benchmark)
cells.  This module owns the run-level contract — per-cell
:class:`CellOutcome` envelopes, journal replay and merge-on-arrival
resume, the ``sweep.*`` metrics, progress/observer streaming — and
runs the pending cells in one of two places, chosen per run from
inputs it already has:

* the **fleet** (:class:`~repro.perf.backends.FleetBackend`) when
  ``REPRO_FLEET_HOSTS`` names endpoints, or when more than one worker
  has more than one pending cell: long-lived worker processes (forked
  locally, or ``repro worker`` over SSH) with crash re-dispatch, exact
  crash attribution, and per-cell timeouts;
* **inline** (:func:`~repro.perf.backends.run_sequential`) otherwise:
  this process, one cell at a time.

Worker count resolution, in priority order:

1. an explicit ``workers=`` argument (the CLIs' ``--workers``),
2. the ``REPRO_WORKERS`` environment variable (validated like
   ``REPRO_TRACE_SCALE``),
3. 1 (sequential — no worker process is started at all).

Trace recipes live in :mod:`repro.perf.trace_cache`, identity/envelope
types in :mod:`repro.perf.cells`, the per-run counters on
:class:`~repro.perf.backends.SweepContext`, and the two runners in
:mod:`repro.perf.backends`; this module re-exports the recipe and
envelope names sweep callers use.
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional, Sequence

from ..env import env_fleet_hosts  # noqa: F401 (re-exported; the one parser)
from ..env import env_workers  # noqa: F401 (re-exported; the one parser)
from ..obs import distributed as obs_distributed
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..store import ResultStore
from . import engine as engine_mod
from .backends import (
    FleetBackend,
    SweepContext,
    outcome_observer,  # noqa: F401 (public API, re-exported)
    run_sequential,
)
from .cells import (  # noqa: F401 (public API, re-exported)
    CellEvaluator,
    CellIdentity,
    CellOutcome,
    LabeledCell,
    SweepCellError,
    evaluate_cell,
    identity_for,
    simulate_cell,
)
from .trace_cache import (  # noqa: F401 (public API, re-exported)
    TraceKey,
    TraceLike,
    as_trace,
    clear_trace_cache,
    is_trace_recipe,
)


# -- worker-count resolution --------------------------------------------------


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument > REPRO_WORKERS > 1."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers
    env = env_workers()
    if env is not None:
        return env
    return 1


# -- resilience defaults -------------------------------------------------------

#: Re-dispatches of a cell whose worker died under it before the fleet
#: fails that cell with exact attribution.
DEFAULT_POOL_RETRIES = 2


def _placement(workers: int, pending: int, fleet_hosts: Sequence[str]) -> str:
    """Where a run's pending cells execute: ``"fleet"`` or ``"inline"``.

    Configured fleet endpoints always get the cells.  Otherwise
    single-worker and single-cell runs stay inline (no workers, nothing
    needs pickling) and everything else runs on the fleet.
    """
    if fleet_hosts:
        return "fleet"
    if workers <= 1 or pending <= 1:
        return "inline"
    return "fleet"


def run_labeled_cells(
    cells: Sequence[LabeledCell],
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    pool_retries: Optional[int] = None,
    journal: Optional[ResultStore] = None,
    progress: Optional[bool] = None,
    evaluator: Optional[CellEvaluator] = None,
) -> List[CellOutcome]:
    """Execute labelled cells, returning one envelope per cell (in order).

    Never raises for an individual cell failure: every exception, and
    every non-finite metric, is captured into its envelope's ``error``
    field with full identity, and callers decide whether to raise
    (:func:`repro.analysis.sweep.run_sweep` and
    :func:`repro.experiments.run_spec` raise :class:`SweepCellError`
    listing exactly the failed cells).

    ``journal`` (a :class:`~repro.store.ResultStore`; ``None`` journals
    nothing) replays already-completed cells and records each new
    success immediately, so a crashed or interrupted sweep re-runs only
    the remainder.  Journal keys do not depend on where a cell ran: a
    journal written inline resumes on the fleet and vice versa.

    ``timeout`` (seconds; ``None`` for none; fleet runs only — a
    sequential run cannot interrupt itself) terminates the worker of a cell that exceeds it
    and fails just that cell.  A worker death triggers up to
    ``pool_retries`` re-dispatches of its cell to surviving workers; if
    the crash persists, the crashing cell is failed with exact
    attribution and everything else completes.

    ``progress`` streams one stderr line per cell and a closing
    ``[sweep done]`` summary of the run's counters (``None`` is off).
    """
    engine = engine_mod.resolve_engine(engine)
    workers = resolve_workers(workers)
    progress = bool(progress)
    pool_retries = DEFAULT_POOL_RETRIES if pool_retries is None else pool_retries

    started = time.perf_counter()
    outcomes = [
        CellOutcome(identity=identity_for(label, factory, parameter, trace, engine,
                                          digest=journal is not None,
                                          evaluator=evaluator))
        for label, factory, parameter, trace in cells
    ]

    with obs_tracing.span("sweep", engine=engine, cells=len(cells)) as sweep_span:
        ctx = SweepContext(
            cells=cells,
            outcomes=outcomes,
            engine=engine,
            workers=workers,
            timeout=timeout,
            pool_retries=pool_retries,
            journal=journal,
            progress=progress,
            evaluator=evaluator,
            fleet_hosts=env_fleet_hosts(),
            # Captured inside the sweep span, so shipped worker spans
            # parent under it (per thread, the innermost open span).
            obs_ctx=obs_distributed.propagation_context(),
        )
        pending: List[int] = []
        for index, outcome in enumerate(outcomes):
            metrics = None
            if journal is not None and outcome.identity.journalable:
                metrics = journal.metrics(outcome.identity.key())
            if metrics is not None:
                outcome.metrics = metrics
                outcome.miss_rate = outcome.metrics.get("miss_rate")
                outcome.cached = True
                ctx.cached += 1
                ctx.completed += 1
                ctx.report(outcome)
            else:
                pending.append(index)

        ctx.backend = _placement(workers, len(pending), ctx.fleet_hosts)
        if pending and ctx.backend == "fleet":
            # The fleet sets ctx.workers to the workers it starts.
            fleet = FleetBackend()
            try:
                for outcome in fleet.submit_cells(pending, ctx):
                    ctx.report(outcome)
            finally:
                fleet.close()
        else:
            ctx.workers = 1
            for outcome in run_sequential(pending, ctx):
                ctx.report(outcome)
        elapsed = time.perf_counter() - started
        if sweep_span is not None:
            sweep_span.attrs.update(
                backend=ctx.backend,
                workers=ctx.workers,
                completed=ctx.completed,
                failed=ctx.failed,
                cached=ctx.cached,
            )
    _publish_metrics(ctx)
    if progress:
        print(
            f"[sweep done] {ctx.total} cells: {ctx.completed} done "
            f"({ctx.cached} from journal), {ctx.failed} failed, "
            f"{ctx.pool_restarts} pool restarts, {ctx.workers} worker(s), "
            f"engine={engine}, backend={ctx.backend}, {elapsed:.2f}s",
            file=sys.stderr,
            flush=True,
        )
    return outcomes


def _publish_metrics(ctx: SweepContext) -> None:
    """Fold one run's counters into the obs metrics registry."""
    engine = ctx.engine
    obs_metrics.counter("sweep.runs", engine=engine)
    obs_metrics.counter("sweep.cells.total", ctx.total, engine=engine)
    obs_metrics.counter("sweep.cells.completed", ctx.completed, engine=engine)
    obs_metrics.counter("sweep.cells.failed", ctx.failed, engine=engine)
    obs_metrics.counter("sweep.cells.cached", ctx.cached, engine=engine)
    obs_metrics.counter("sweep.pool_restarts", ctx.pool_restarts, engine=engine)
    obs_metrics.gauge("sweep.workers", ctx.workers, engine=engine)
    obs_metrics.counter("sweep.runs.by_backend", backend=ctx.backend)
    for worker_id, count in ctx.worker_cells.items():
        obs_metrics.counter("sweep.cells.by_worker", count, worker=worker_id)
