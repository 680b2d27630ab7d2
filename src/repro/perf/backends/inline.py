"""The ``inline`` backend: everything in this process, no workers.

The degenerate — and often correct — strategy: single-worker runs,
single-cell runs, and environments where forking is unwelcome (test
harnesses, notebook kernels).
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from ...obs import tracing as obs_tracing
from .. import cells
from ..cells import CellOutcome
from .base import SweepBackend, SweepContext, cell_attrs, register_backend


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
                if cell_span is not None:
                    cell_span.attrs["error"] = outcome.error
            else:
                ctx.record_success(
                    outcome, metrics, time.perf_counter() - cell_started
                )
        yield outcome


@register_backend
class InlineBackend(SweepBackend):
    name = "inline"

    def submit_cells(
        self, pending: Sequence[int], ctx: SweepContext
    ) -> Iterator[CellOutcome]:
        yield from run_sequential(pending, ctx)
