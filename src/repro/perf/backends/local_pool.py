"""The ``local-pool`` backend: one machine's ProcessPoolExecutor.

The extracted pre-backend pooled machinery, behaviour-identical:

* bounded retry with pool re-creation when a worker dies
  (``BrokenProcessPool`` — an OOM-killed worker on a scaled trace is
  the motivating case), falling back to one-cell-in-flight execution to
  attribute a deterministic crasher precisely;
* an optional per-cell ``timeout`` that terminates the stuck worker and
  fails just that cell.
"""

from __future__ import annotations

from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, List, Sequence

from ...obs import tracing as obs_tracing
from ..cells import CellOutcome, cell_task
from .base import (
    SweepBackend,
    SweepContext,
    merge_worker_obs,
    record_cell_span,
    register_backend,
)


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's workers; used to enforce per-cell timeouts."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    pool.shutdown(wait=False, cancel_futures=True)


@register_backend
class LocalPoolBackend(SweepBackend):
    name = "local-pool"

    def submit_cells(
        self, pending: Sequence[int], ctx: SweepContext
    ) -> Iterator[CellOutcome]:
        yield from self._run_pooled(list(pending), ctx)

    # -- per-cell pooled execution -------------------------------------------

    def _run_pooled(
        self, pending: List[int], ctx: SweepContext
    ) -> Iterator[CellOutcome]:
        """Pool execution with crash retry, timeout enforcement, and solo
        fallback for exact attribution of a persistent crasher."""
        crash_retries_left = ctx.pool_retries
        solo = False
        while pending:
            with obs_tracing.span(
                "pool_attempt",
                workers=min(ctx.workers, len(pending)),
                pending=len(pending),
                solo=solo,
            ) as attempt_span:
                pool = ProcessPoolExecutor(
                    max_workers=min(ctx.workers, len(pending))
                )
                broke = False
                crashed = False
                try:
                    if solo:
                        pending, broke = yield from self._solo_round(
                            pool, pending, ctx
                        )
                        crashed = False  # solo rounds attribute and consume the crasher
                    else:
                        pending, crashed, broke = yield from self._concurrent_round(
                            pool, pending, ctx
                        )
                finally:
                    pool.shutdown(wait=not broke, cancel_futures=True)
                if attempt_span is not None and broke:
                    attempt_span.attrs["broke"] = True
            if broke:
                ctx.telemetry.pool_restarts += 1
            if crashed:
                crash_retries_left -= 1
                if crash_retries_left < 0:
                    solo = True

    def _concurrent_round(
        self, pool: ProcessPoolExecutor, pending: List[int], ctx: SweepContext
    ):
        """Submit every pending cell at once.

        Returns ``(still_pending, crashed, broke)``: ``crashed`` means a
        worker died (retry budget applies); ``broke`` means the pool is
        unusable (crash or timeout termination) and must be re-created.
        """
        cells = ctx.cells
        submitted = []
        unsubmitted: List[int] = []
        for position, index in enumerate(pending):
            try:
                future = pool.submit(
                    cell_task, cells[index][1], cells[index][2],
                    cells[index][3], ctx.engine, ctx.evaluator, ctx.obs_ctx,
                )
            except BrokenProcessPool:
                # A worker died before every cell was submitted; the rest
                # wait for the next pool without spending an attempt.
                unsubmitted = pending[position:]
                break
            submitted.append((index, future))
        still_pending: List[int] = []
        crashed = broke = bool(unsubmitted)
        timed_out = False
        for index, future in submitted:
            outcome = ctx.outcomes[index]
            try:
                result = future.result(timeout=ctx.timeout)
                metrics, seconds = result[0], result[1]
                obs_payload = result[2] if len(result) > 2 else None
            except CancelledError:
                still_pending.append(index)  # no attempt consumed
                continue
            except FuturesTimeoutError as exc:
                outcome.attempts += 1
                if ctx.timeout is None:
                    # No wait timeout configured: the *cell* raised a
                    # TimeoutError of its own — a deterministic failure.
                    ctx.fail(outcome, f"{type(exc).__name__}: {exc}")
                else:
                    ctx.fail(outcome, (
                        f"TimeoutError: cell exceeded the {ctx.timeout}s "
                        f"per-cell timeout (worker terminated)"
                    ))
                    terminate_pool(pool)
                    broke = True
                    timed_out = True
                record_cell_span(outcome, pooled=True)
            except BrokenProcessPool:
                outcome.attempts += 1
                broke = True
                if not timed_out:
                    crashed = True  # self-inflicted breaks don't burn retries
                still_pending.append(index)  # retried; culprit unknown in this mode
            except Exception as exc:
                # Deterministic cell error (bad geometry, kernel exception,
                # factory raise): retrying cannot help — fail this cell only.
                outcome.attempts += 1
                ctx.fail(outcome, f"{type(exc).__name__}: {exc}")
                record_cell_span(outcome, pooled=True)
            else:
                outcome.attempts += 1
                ctx.record_success(outcome, metrics, seconds)
                cell_span = record_cell_span(outcome, pooled=True)
                if obs_payload is not None:
                    merge_worker_obs(outcome, cell_span, obs_payload)
            yield outcome
        return still_pending + unsubmitted, crashed, broke

    def _solo_round(
        self, pool: ProcessPoolExecutor, pending: List[int], ctx: SweepContext
    ):
        """One cell in flight at a time: a pool break names its cell exactly.

        Returns ``(still_pending, broke)``.  Guaranteed progress — every
        iteration either completes or definitively fails its cell — so the
        outer loop terminates even against a factory that kills its worker
        on every attempt.
        """
        remaining = list(pending)
        while remaining:
            index = remaining[0]
            outcome = ctx.outcomes[index]
            _, factory, parameter, trace = ctx.cells[index]
            future = pool.submit(
                cell_task, factory, parameter, trace, ctx.engine, ctx.evaluator,
                ctx.obs_ctx
            )
            outcome.attempts += 1
            try:
                result = future.result(timeout=ctx.timeout)
                metrics, seconds = result[0], result[1]
                obs_payload = result[2] if len(result) > 2 else None
            except FuturesTimeoutError as exc:
                if ctx.timeout is None:
                    ctx.fail(outcome, f"{type(exc).__name__}: {exc}")
                    record_cell_span(outcome, pooled=True)
                    yield outcome
                    remaining = remaining[1:]
                    continue
                ctx.fail(outcome, (
                    f"TimeoutError: cell exceeded the {ctx.timeout}s per-cell "
                    f"timeout (worker terminated)"
                ))
                terminate_pool(pool)
                record_cell_span(outcome, pooled=True)
                yield outcome
                return remaining[1:], True
            except BrokenProcessPool as exc:
                ctx.fail(outcome, (
                    f"{type(exc).__name__}: worker process died while "
                    f"executing this cell ({exc})"
                ))
                record_cell_span(outcome, pooled=True)
                yield outcome
                return remaining[1:], True
            except Exception as exc:
                ctx.fail(outcome, f"{type(exc).__name__}: {exc}")
                record_cell_span(outcome, pooled=True)
            else:
                ctx.record_success(outcome, metrics, seconds)
                cell_span = record_cell_span(outcome, pooled=True)
                if obs_payload is not None:
                    merge_worker_obs(outcome, cell_span, obs_payload)
            yield outcome
            remaining = remaining[1:]
        return remaining, False
