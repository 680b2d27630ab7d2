"""Outside-in tracing: spans around the public entry points of each layer.

Nothing under ``src/`` changes.  :func:`install` replaces each entry
point with a wrapper, assigned to the attribute its callers look it up
through (a module global, or a method on a class).  Every wrapped call
opens a span on the calling thread's stack.  When it closes, its
duration is added to its parent's child time, and its self time is its
duration minus that child time.  Spans stay in memory until the
benchmark writes them out at the end of a round.

A finished span is a tuple ``(layer, thread, start, end, self_s, trace,
attrs)``.  ``trace`` is the request id of the outermost span on the
thread, so the serve daemon's spans can be matched to the client request
that caused them.  Times come from ``time.monotonic``, which on Linux
is one clock for every process, so client and daemon spans compare.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: The model types the registry sends through ``perf.engine.simulate``.
ENGINE_MODELS = (
    "DirectMappedCache",
    "DynamicExclusionCache",
    "LastLineBufferCache",
    "OptimalDirectMappedCache",
    "OptimalLastLineCache",
    "SetAssociativeCache",
    "SetAssociativeExclusionCache",
    "VictimCache",
)

EVALUATORS = (
    "SplitEvaluator",
    "TrafficEvaluator",
    "WarmupEvaluator",
    "SummarizeEvaluator",
    "HierarchyEvaluator",
)

#: Every layer the benchmark can report, so absent layers read as zero.
LAYERS = (
    "experiments.run_spec",
    "experiments.render",
    *(f"experiments.evaluator.{name}" for name in EVALUATORS),
    "hierarchy.simulate",
    "perf.parallel",
    "perf.cells",
    "perf.trace_cache",
    "workloads.trace_gen",
    *(f"perf.engine.{name}" for name in ENGINE_MODELS),
    "store.get",
    "store.record",
    "store.refresh",
    "serve.http",
    "serve.plan_grid",
    "serve.execute_run",
    "serve.client",
)

#: Root spans bracket a timed phase; they are not a layer of the program.
ROOT = "bench.round"

#: Header carrying the client's request id to the daemon.
REQUEST_HEADER = "X-Bench-Request"

Span = tuple


class Recorder:
    """Per-thread span stacks over one shared list of finished spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, attrs: dict) -> list:
        stack = self._stack()
        trace = stack[0][3] if stack else attrs.get("rid")
        frame = [layer, time.monotonic(), 0.0, trace, attrs]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.monotonic()
        stack = self._stack()
        stack.pop()
        layer, start, child, trace, attrs = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
        counts[layer] = counts.get(layer, 0) + 1
        self.spans.append(
            (layer, threading.get_ident(), start, end, duration - child, trace, attrs)
        )

    def closed_count(self, layer: str) -> int:
        """Spans of ``layer`` finished so far on this thread."""
        return getattr(self._local, "counts", {}).get(layer, 0)

    @contextmanager
    def span(self, layer: str, **attrs: object):
        frame = self.open(layer, attrs)
        try:
            yield attrs
        finally:
            self.close(frame)

    def wrap(
        self,
        owner: object,
        name: str,
        layer: "str | Callable[[tuple, dict, dict], str]",
        after: "Optional[Callable[[object, dict], None]]" = None,
    ) -> None:
        """Replace ``owner.name`` with a spanned wrapper.

        ``layer`` is a name, or a function of the call's arguments that
        returns one (it may also fill in span attributes before the call).
        ``after`` sees the result and the span attributes.
        """
        original = getattr(owner, name)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs: dict = {}
            named = layer if isinstance(layer, str) else layer(args, kwargs, attrs)
            frame = recorder.open(named, attrs)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, attrs)
                return result
            finally:
                recorder.close(frame)

        setattr(owner, name, wrapper)


# -- pool-worker attribution ---------------------------------------------------

#: Set before a process pool forks; forked workers inherit both values.
_WORKER_LOG: Optional[str] = None
_ORIGINAL_CELL_TASK: Optional[Callable] = None


def logged_cell_task(*args, **kwargs):
    """``cell_task`` for pool workers, appending ``pid seconds`` per cell.

    Module-level so the pool can pickle it by reference.  The line is
    written with one ``O_APPEND`` write, so concurrent workers never
    interleave within a line.
    """
    result = _ORIGINAL_CELL_TASK(*args, **kwargs)  # type: ignore[misc]
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    fd = os.open(_WORKER_LOG, flags, 0o644)  # type: ignore[arg-type]
    try:
        os.write(fd, f"{os.getpid()} {result[1]!r}\n".encode())
    finally:
        os.close(fd)
    return result


def _read_worker_log(offset: int) -> "tuple[int, Dict[str, float]]":
    by_worker: Dict[str, float] = {}
    if _WORKER_LOG is None or not os.path.exists(_WORKER_LOG):
        return offset, by_worker
    with open(_WORKER_LOG, "rb") as handle:
        handle.seek(offset)
        data = handle.read()
    for line in data.decode().splitlines():
        pid, seconds = line.split()
        by_worker[pid] = by_worker.get(pid, 0.0) + float(seconds)
    return offset + len(data), by_worker


# -- installing the wrappers ---------------------------------------------------


def install(recorder: Recorder, worker_log: Optional[str] = None) -> None:
    """Wrap the sweep-side layers (experiments down to the kernels)."""
    global _WORKER_LOG, _ORIGINAL_CELL_TASK
    from repro.experiments import common, spec
    from repro.experiments.ext_split import SplitEvaluator
    from repro.experiments.ext_traffic import TrafficEvaluator
    from repro.experiments.ext_warmup import WarmupEvaluator
    from repro.experiments.fig02_benchmarks import SummarizeEvaluator
    from repro.experiments.hierarchy_sweep import HierarchyEvaluator
    from repro.hierarchy.two_level import TwoLevelCache
    from repro.perf import cells, engine, parallel, trace_cache
    from repro.workloads import registry

    recorder.wrap(spec, "run_spec", "experiments.run_spec")
    recorder.wrap(spec, "render_spec", "experiments.render")
    for evaluator in (
        SplitEvaluator, TrafficEvaluator, WarmupEvaluator,
        SummarizeEvaluator, HierarchyEvaluator,
    ):
        recorder.wrap(
            evaluator, "__call__", f"experiments.evaluator.{evaluator.__name__}"
        )
    recorder.wrap(TwoLevelCache, "simulate", "hierarchy.simulate")
    recorder.wrap(cells, "evaluate_cell", "perf.cells")
    for owner in (registry, common):
        recorder.wrap(
            owner, "trace_by_kind", "workloads.trace_gen",
            after=lambda trace, attrs: attrs.__setitem__("refs", len(trace)),
        )

    def trace_cache_layer(args: tuple, kwargs: dict, attrs: dict) -> str:
        attrs["recipe"] = trace_cache.is_trace_recipe(args[0])
        attrs["generated"] = recorder.closed_count("workloads.trace_gen")
        return "perf.trace_cache"

    def trace_cache_after(_trace: object, attrs: dict) -> None:
        attrs["hit"] = recorder.closed_count("workloads.trace_gen") == attrs.pop(
            "generated"
        )

    recorder.wrap(cells, "as_trace", trace_cache_layer, after=trace_cache_after)

    def engine_layer(args: tuple, kwargs: dict, attrs: dict) -> str:
        simulator = args[0]
        name = args[2] if len(args) > 2 else kwargs.get("engine")
        resolved = engine.resolve_engine(name)
        attrs["kernel"] = resolved in ("fast", "batch") and engine.has_kernel(simulator)
        return f"perf.engine.{type(simulator).__name__}"

    recorder.wrap(engine, "simulate", engine_layer)

    _WORKER_LOG = worker_log
    try:
        from repro.perf.backends import local_pool
    except ImportError:  # a later backend layout: fall back to envelopes
        local_pool = None
    if local_pool is not None and worker_log is not None:
        _ORIGINAL_CELL_TASK = local_pool.cell_task
        local_pool.cell_task = logged_cell_task

    def parallel_layer(args: tuple, kwargs: dict, attrs: dict) -> str:
        attrs["workers"] = parallel.resolve_workers(kwargs.get("workers"))
        attrs["log_offset"] = getattr(recorder._local, "log_offset", 0)
        return "perf.parallel"

    def parallel_after(outcomes: list, attrs: dict) -> None:
        offset, by_worker = _read_worker_log(attrs.pop("log_offset"))
        recorder._local.log_offset = offset
        computed = [o for o in outcomes if not o.cached]
        attrs["cell_s"] = sum(o.seconds for o in computed)
        attrs["cells_failed"] = sum(1 for o in outcomes if not o.ok)
        attrs["cells_retried"] = sum(max(0, o.attempts - 1) for o in computed)
        for outcome in computed:
            if outcome.worker:
                by_worker[outcome.worker] = (
                    by_worker.get(outcome.worker, 0.0) + outcome.seconds
                )
        attributed = sum(by_worker.values())
        if attrs["cell_s"] > attributed:  # cells this process ran itself
            by_worker["self"] = attrs["cell_s"] - attributed
        attrs["busiest_s"] = max(by_worker.values(), default=0.0)

    recorder.wrap(parallel, "run_labeled_cells", parallel_layer, after=parallel_after)


def install_serve(recorder: Recorder) -> None:
    """Wrap the daemon-side layers: HTTP handler, planning, runs, store."""
    from repro import store
    from repro.serve import server

    def http_layer(args: tuple, kwargs: dict, attrs: dict) -> str:
        attrs["rid"] = args[0].headers.get(REQUEST_HEADER)
        return "serve.http"

    recorder.wrap(server._Handler, "do_GET", http_layer)
    recorder.wrap(server._Handler, "do_POST", http_layer)
    recorder.wrap(server, "plan_grid", "serve.plan_grid")

    def run_after(done: dict, attrs: dict) -> None:
        manifest = done.get("manifest", {})
        attrs["cells_total"] = manifest.get("cells_total", 0)
        attrs["cells_computed"] = manifest.get("cells_computed", 0)

    recorder.wrap(server, "execute_run", "serve.execute_run", after=run_after)
    recorder.wrap(store.ResultStore, "get", "store.get")
    recorder.wrap(store.ResultStore, "metrics", "store.get")
    recorder.wrap(store.ResultStore, "record_many", "store.record")
    recorder.wrap(store.ResultStore, "refresh", "store.refresh")
    install(recorder)


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(spans: "List[Span]") -> Dict[str, float]:
    """Per-layer counts, self times and derived ratios for one traced round.

    ``spans`` holds every span of the round, the root spans included;
    ``trace.coverage`` is the share of the roots' time spent inside layer
    spans, which the layers' self times account for.
    """
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.self_s"] = 0.0
    for name in ENGINE_MODELS:
        metrics[f"perf.engine.{name}.kernel_calls"] = 0
    totals = {
        "refs": 0, "recipe": 0, "hit": 0, "cell_s": 0.0, "wall": 0.0,
        "idle": 0.0, "busiest": 0.0, "failed": 0, "retried": 0,
        "cells_total": 0, "cells_computed": 0, "kernel_s": 0.0,
        "engine_s": 0.0, "fallback": 0,
    }
    root_s = 0.0
    unlayered_s = 0.0
    for layer, _thread, start, end, self_s, _trace, attrs in spans:
        if layer == ROOT:
            root_s += end - start
            unlayered_s += self_s
            continue
        metrics[f"{layer}.calls"] = metrics.get(f"{layer}.calls", 0) + 1
        metrics[f"{layer}.self_s"] = metrics.get(f"{layer}.self_s", 0.0) + self_s
        if layer == "workloads.trace_gen":
            totals["refs"] += attrs.get("refs", 0)
        elif layer == "perf.trace_cache" and attrs.get("recipe"):
            totals["recipe"] += 1
            totals["hit"] += bool(attrs.get("hit"))
        elif layer == "perf.parallel":
            duration = end - start
            totals["wall"] += duration
            totals["cell_s"] += attrs["cell_s"]
            totals["idle"] += attrs["workers"] * duration - attrs["cell_s"]
            totals["busiest"] += attrs["busiest_s"]
            totals["failed"] += attrs["cells_failed"]
            totals["retried"] += attrs["cells_retried"]
        elif layer == "serve.execute_run":
            totals["cells_total"] += attrs.get("cells_total", 0)
            totals["cells_computed"] += attrs.get("cells_computed", 0)
        elif layer.startswith("perf.engine."):
            totals["engine_s"] += self_s
            if attrs.get("kernel"):
                totals["kernel_s"] += self_s
                key = f"{layer}.kernel_calls"
                metrics[key] = metrics.get(key, 0) + 1
            else:
                totals["fallback"] += 1
    metrics["trace.coverage"] = 1.0 - unlayered_s / root_s if root_s else 0.0
    metrics["workloads.trace_gen.refs"] = totals["refs"]
    metrics["perf.trace_cache.hit_ratio"] = (
        totals["hit"] / totals["recipe"] if totals["recipe"] else 0.0
    )
    metrics["perf.parallel.wall_s"] = totals["wall"]
    metrics["perf.parallel.cell_s"] = totals["cell_s"]
    metrics["perf.parallel.idle_s"] = totals["idle"]
    metrics["perf.parallel.max_worker_share"] = (
        totals["busiest"] / totals["cell_s"] if totals["cell_s"] else 0.0
    )
    metrics["perf.parallel.cells_failed"] = totals["failed"]
    metrics["perf.parallel.cells_retried"] = totals["retried"]
    metrics["perf.engine.kernel_share"] = (
        totals["kernel_s"] / totals["engine_s"] if totals["engine_s"] else 0.0
    )
    metrics["perf.engine.fallback_calls"] = totals["fallback"]
    metrics["serve.cells_cached_ratio"] = (
        1.0 - totals["cells_computed"] / totals["cells_total"]
        if totals["cells_total"]
        else 0.0
    )
    return metrics
