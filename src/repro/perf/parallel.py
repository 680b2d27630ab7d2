"""The sweep runtime: orchestration over pluggable execution backends.

A figure sweep is a grid of independent (parameter, policy, benchmark)
cells.  This module owns the run-level contract — per-cell
:class:`CellOutcome` envelopes, journal replay and merge-on-arrival
resume, the ``sweep.*`` metrics, progress/observer streaming — and
delegates *how* pending cells execute to a
:class:`~repro.perf.backends.SweepBackend`:

* ``inline`` — this process (the single-worker default);
* ``fleet`` — cells sharded across long-lived worker processes (forked
  locally, or ``repro worker`` over SSH) with crash re-dispatch, exact
  crash attribution, and per-cell timeouts.

Backend selection: an explicit ``backend=`` argument > the CLI's
``--backend`` default > ``REPRO_BACKEND`` > automatic (``inline`` for
single-worker or single-cell runs, ``fleet`` otherwise).

Worker count resolution, in priority order:

1. an explicit ``workers=`` argument,
2. the process default set by ``--workers`` on the experiments CLI,
3. the ``REPRO_WORKERS`` environment variable (validated like
   ``REPRO_TRACE_SCALE``),
4. 1 (sequential — no worker process is started at all).

Trace recipes live in :mod:`repro.perf.trace_cache`, identity/envelope
types in :mod:`repro.perf.cells`, the per-run counters on
:class:`~repro.perf.backends.SweepContext`, and the execution
strategies in :mod:`repro.perf.backends`; this module re-exports the
recipe and envelope names sweep callers use.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from ..env import env_fleet_hosts  # noqa: F401 (re-exported; the one parser)
from ..env import env_workers  # noqa: F401 (re-exported; the one parser)
from ..obs import distributed as obs_distributed
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from . import engine as engine_mod
from .backends import (
    SweepContext,
    create_backend,
    default_backend,
    outcome_observer,  # noqa: F401 (public API, re-exported)
    resolve_backend,
    set_default_backend,  # noqa: F401 (public API, re-exported)
)
from .cells import (  # noqa: F401 (public API, re-exported)
    Cell,
    CellEvaluator,
    CellIdentity,
    CellOutcome,
    LabeledCell,
    SweepCellError,
    evaluate_cell,
    identity_for,
    simulate_cell,
)
from .journal import SweepJournal
from .trace_cache import (  # noqa: F401 (public API, re-exported)
    TraceKey,
    TraceLike,
    as_trace,
    clear_trace_cache,
    is_trace_recipe,
)


# -- worker-count resolution --------------------------------------------------

_DEFAULT_WORKERS: Optional[int] = None


def set_default_workers(workers: Optional[int]) -> None:
    """Set the process-wide default (the CLI's ``--workers`` flag)."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = workers


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument > CLI default > REPRO_WORKERS > 1."""
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    env = env_workers()
    if env is not None:
        return env
    return 1


# -- resilience defaults -------------------------------------------------------

#: Re-dispatches of a cell whose worker died under it before the fleet
#: fails that cell with exact attribution.
DEFAULT_POOL_RETRIES = 2


def _resolve_journal(journal: "SweepJournal | str | Path | None") -> Optional[SweepJournal]:
    if journal is None:
        return None
    if isinstance(journal, SweepJournal):
        return journal
    # Anything speaking the journal protocol — get/record/record_many —
    # works as a cell cache; repro.store.ResultStore passes itself here
    # so sweeps replay from (and record into) the content-addressed
    # store instead of one bare journal file.
    if hasattr(journal, "get") and hasattr(journal, "record_many"):
        return journal  # type: ignore[return-value]
    return SweepJournal(journal)


def _auto_backend(workers: int, pending: int) -> str:
    """The automatic strategy.

    Single-worker and single-cell runs stay inline (no workers, nothing
    needs pickling); everything else runs on the fleet.
    """
    if workers <= 1 or pending <= 1:
        return "inline"
    return "fleet"


def run_labeled_cells(
    cells: Sequence[LabeledCell],
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    pool_retries: Optional[int] = None,
    journal: "SweepJournal | str | Path | None" = None,
    progress: Optional[bool] = None,
    evaluator: Optional[CellEvaluator] = None,
    backend: Optional[str] = None,
) -> List[CellOutcome]:
    """Execute labelled cells, returning one envelope per cell (in order).

    Never raises for an individual cell failure: every exception is
    captured into its envelope's ``error`` field with full identity, and
    callers decide whether to raise (:func:`run_cells` and
    :func:`repro.analysis.sweep.run_sweep` raise :class:`SweepCellError`
    listing exactly the failed cells).

    ``journal`` (a :class:`~repro.perf.journal.SweepJournal` or a
    directory path; ``None`` journals nothing) replays
    already-completed cells and records each new success immediately, so
    a crashed or interrupted sweep re-runs only the remainder.  Journal
    keys are backend-independent: a journal written under any backend
    resumes under any other.

    ``timeout`` (seconds; ``None`` for none; fleet runs only — a
    sequential run cannot interrupt itself) terminates the worker of a cell that exceeds it
    and fails just that cell.  A worker death triggers up to
    ``pool_retries`` re-dispatches of its cell to surviving workers; if
    the crash persists, the crashing cell is failed with exact
    attribution and everything else completes.

    ``progress`` streams one stderr line per cell and a closing
    ``[sweep done]`` summary of the run's counters (``None`` is off).
    ``backend`` picks the execution strategy (``inline`` / ``fleet``);
    ``None`` defers to the CLI default, then ``REPRO_BACKEND``, then
    the automatic per-run choice.
    """
    engine = engine_mod.resolve_engine(engine)
    workers = resolve_workers(workers)
    journal = _resolve_journal(journal)
    progress = bool(progress)
    pool_retries = DEFAULT_POOL_RETRIES if pool_retries is None else pool_retries
    backend = resolve_backend(backend)

    started = time.perf_counter()
    outcomes = [
        CellOutcome(identity=identity_for(label, factory, parameter, trace, engine,
                                          digest=journal is not None,
                                          evaluator=evaluator))
        for label, factory, parameter, trace in cells
    ]

    with obs_tracing.span(
        "sweep", engine=engine, workers=workers, cells=len(cells)
    ) as sweep_span:
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
            entry = None
            if journal is not None and outcome.identity.journalable:
                entry = journal.get(outcome.identity.key())
            if entry is not None:
                outcome.metrics = SweepJournal.entry_metrics(entry)
                outcome.miss_rate = outcome.metrics.get("miss_rate")
                outcome.cached = True
                ctx.cached += 1
                ctx.completed += 1
                ctx.report(outcome)
            else:
                pending.append(index)

        ctx.backend = backend or _auto_backend(workers, len(pending))
        if sweep_span is not None:
            sweep_span.attrs["backend"] = ctx.backend
        runner = create_backend(ctx.backend)
        try:
            if pending:
                for outcome in runner.submit_cells(pending, ctx):
                    ctx.report(outcome)
        finally:
            runner.close()
        elapsed = time.perf_counter() - started
        if sweep_span is not None:
            sweep_span.attrs["completed"] = ctx.completed
            sweep_span.attrs["failed"] = ctx.failed
            sweep_span.attrs["cached"] = ctx.cached
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


def run_cells(
    cells: Sequence[Cell],
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    journal: "SweepJournal | str | Path | None" = None,
    progress: Optional[bool] = None,
    backend: Optional[str] = None,
) -> List[float]:
    """Miss rates for every cell, preserving order.

    ``workers <= 1`` runs inline (no workers, nothing needs pickling).
    Otherwise the cells are farmed to the selected backend; the engine
    name is resolved *before* submission, so every worker runs the
    engine this process chose.

    Cells are executed through the resilient envelope layer
    (:func:`run_labeled_cells`); any cell failure raises
    :class:`SweepCellError` naming the failed cells rather than losing
    the grid to an anonymous worker exception.
    """
    labeled: List[LabeledCell] = [
        (getattr(factory, "__name__", type(factory).__name__), factory, parameter, trace)
        for factory, parameter, trace in cells
    ]
    outcomes = run_labeled_cells(
        labeled, engine=engine, workers=workers, timeout=timeout,
        journal=journal, progress=progress, backend=backend,
    )
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise SweepCellError(failures, len(outcomes))
    return [outcome.miss_rate for outcome in outcomes]  # type: ignore[misc]
