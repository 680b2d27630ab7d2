"""Inline execution: every pending cell in this process, no workers.

The sweep runtime runs cells here when no fleet endpoints are
configured and the run has one worker or one pending cell — and in
environments where forking is unwelcome (test harnesses, notebook
kernels) that is simply ``workers=1``.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from ...obs import tracing as obs_tracing
from .. import cells
from ..cells import CellOutcome
from .base import SweepContext, cell_attrs


def run_sequential(
    pending: Sequence[int], ctx: SweepContext
) -> Iterator[CellOutcome]:
    """Inline per-cell execution (no workers)."""
    for index in pending:
        outcome = ctx.outcomes[index]
        _, factory, parameter, trace = ctx.cells[index]
        outcome.attempts += 1
        cell_started = time.perf_counter()
        with obs_tracing.span("cell", **cell_attrs(outcome)) as cell_span:
            try:
                # Looked up on the module at call time, so a wrapper
                # installed on ``cells.evaluate_cell`` sees inline cells.
                metrics = cells.evaluate_cell(
                    factory, parameter, trace, ctx.engine, ctx.evaluator
                )
            except Exception as exc:
                outcome.seconds = time.perf_counter() - cell_started
                ctx.fail(outcome, f"{type(exc).__name__}: {exc}")
            else:
                ctx.record_success(
                    outcome, metrics, time.perf_counter() - cell_started
                )
            if cell_span is not None and outcome.error is not None:
                cell_span.attrs["error"] = outcome.error
        yield outcome
