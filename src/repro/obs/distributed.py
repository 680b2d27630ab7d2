"""Cross-process trace/metric propagation for the sweep backends.

The fleet backend (:mod:`repro.perf.backends`) runs cells in other
processes — forked or exec'd fleet workers — where the parent's
:class:`~repro.obs.tracing.Tracer` is unreachable.  Before
this module, the parent back-dated one synthetic ``cell`` span from the
reply's measured seconds and everything inside the worker (``simulate``,
``trace_gen``, ``fsm.*`` counters) was lost.  The protocol here ships
it home instead:

* the parent side builds a **propagation context** —
  ``{"version", "trace_id", "parent_span_id"}`` — from its installed
  tracer and attaches it to the cell request (the fleet NDJSON ``obs``
  key);
* the worker wraps cell evaluation in a :class:`WorkerCapture`: a fresh
  bounded :class:`~repro.obs.tracing.Tracer` (adopting the parent's
  ``trace_id``) plus a fresh :class:`~repro.obs.metrics.MetricsRegistry`
  installed for the duration, whose :meth:`WorkerCapture.payload` is a
  JSON-safe bundle of finished spans, a dropped-spans count, and the
  metric deltas;
* back home, :func:`merge_cell_payload` re-identifies the shipped spans
  in the parent tracer's id space, re-bases their clocks onto the
  parent's ``cell`` span (the worker's outermost span, which brackets
  the measured seconds, starts with it), stamps ``worker=``/``pid=``
  attribution, and folds the metric deltas into the parent registry
  via :meth:`~repro.obs.metrics.MetricsRegistry.merge` with a
  per-worker label.

Everything is bounded: a capture keeps at most :data:`MAX_SHIPPED_SPANS`
spans (excess is counted, and surfaces in the parent as the
:data:`DROPPED_COUNTER` series), so a pathological cell cannot balloon
the reply envelope.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from . import metrics as obs_metrics
from . import tracing as obs_tracing
from .metrics import MetricsRegistry
from .tracing import Span, Tracer

#: Wire-format version of the propagation context / capture payload.
OBS_WIRE_VERSION = 1

#: Spans a worker ships home per cell before counting drops instead.
MAX_SHIPPED_SPANS = 256

#: Parent-side counter recording worker spans lost to the ship limit.
DROPPED_COUNTER = "obs.distributed.spans_dropped"


def propagation_context() -> Optional[Dict[str, object]]:
    """The trace context to attach to an outgoing cell request.

    Captures the installed tracer's run identity and the calling
    thread's innermost open span (the sweep span, when called from
    :func:`repro.perf.parallel.run_labeled_cells`).  Returns None when
    tracing is off — workers then skip capture entirely, keeping the
    bare path free of observability cost.
    """
    tracer = obs_tracing.current_tracer()
    if tracer is None:
        return None
    return {
        "version": OBS_WIRE_VERSION,
        "trace_id": tracer.trace_id,
        "parent_span_id": tracer.current_span_id(),
    }


class WorkerCapture:
    """Worker-side span/metric capture scoped to one cell evaluation.

    Installs a fresh in-memory tracer and registry on entry and restores
    the previous ones on exit, so the instrumentation already living in
    library code (``simulate`` spans, ``fsm.*`` counters) transparently
    lands in the capture.  The caller opens one outermost span around
    exactly the region its reply's ``seconds`` times (the fleet
    worker's ``cell_exec``); :meth:`payload` ships starts relative to
    it.
    """

    def __init__(
        self,
        context: Optional[Dict[str, object]] = None,
        max_spans: int = MAX_SHIPPED_SPANS,
    ) -> None:
        self.context = context or {}
        self.tracer = Tracer(keep=max_spans)
        trace_id = self.context.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            self.tracer.trace_id = trace_id
        self.registry = MetricsRegistry()
        self._previous_tracer: Optional[Tracer] = None
        self._previous_registry: Optional[MetricsRegistry] = None

    def __enter__(self) -> "WorkerCapture":
        self._previous_tracer = obs_tracing.current_tracer()
        self._previous_registry = obs_metrics.current_registry()
        obs_tracing.install_tracer(self.tracer)
        obs_metrics.install_registry(self.registry)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._previous_tracer is not None:
            obs_tracing.install_tracer(self._previous_tracer)
        else:
            obs_tracing.uninstall_tracer()
        if self._previous_registry is not None:
            obs_metrics.install_registry(self._previous_registry)
        else:
            obs_metrics.uninstall_registry()
        self.tracer.close()

    def payload(self) -> Dict[str, object]:
        """JSON-safe bundle to attach to the cell reply; span starts
        are offsets from the earliest one, the outermost span's."""
        spans = self.tracer.spans
        origin = min((span.start for span in spans), default=0.0)
        return {
            "version": OBS_WIRE_VERSION,
            "trace_id": self.tracer.trace_id,
            "pid": os.getpid(),
            "spans": [
                dict(span.to_dict(), start=round(span.start - origin, 6))
                for span in spans
            ],
            "dropped": self.tracer.dropped,
            "metrics": self.registry.export(),
        }


def merge_cell_payload(
    payload: Dict[str, object],
    cell_span: Optional[Span],
    worker: str = "",
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> int:
    """Fold one worker capture payload into the parent's tracer/registry.

    ``cell_span`` is the parent-side (back-dated) ``cell`` span the
    shipped spans belong under: worker span starts are offsets from the
    start of the worker's outermost span, which opens where the cell's
    measured seconds begin, so re-basing them as ``cell_span.start +
    offset`` reconstructs the real timeline.  Span ids are reallocated
    in the parent tracer's id space (worker tracers number
    independently from 1); shipped parent links that point outside the
    payload resolve to the cell span.  Returns the number of spans
    adopted.
    """
    if not isinstance(payload, dict):
        return 0
    tracer = tracer if tracer is not None else obs_tracing.current_tracer()
    registry = registry if registry is not None else obs_metrics.current_registry()
    pid = payload.get("pid")
    label = worker or (f"pid-{pid}" if pid is not None else "unknown")

    if registry is not None:
        deltas = payload.get("metrics")
        if isinstance(deltas, list) and deltas:
            registry.merge(deltas, worker=label)
        dropped = payload.get("dropped")
        if isinstance(dropped, (int, float)) and dropped > 0:
            registry.counter(DROPPED_COUNTER, float(dropped), worker=label)

    if tracer is None:
        return 0
    raw_spans = payload.get("spans")
    if not isinstance(raw_spans, list) or not raw_spans:
        return 0

    parsed: List[Span] = []
    for entry in raw_spans:
        if not isinstance(entry, dict):
            continue
        span = Span.from_dict(entry)
        if span is not None:
            parsed.append(span)
    if not parsed:
        return 0

    # Two passes: children finish (and therefore ship) before their
    # parents, so every id must be reallocated before parent links are
    # rewritten.
    id_map: Dict[int, int] = {}
    for span in parsed:
        id_map[span.span_id] = tracer.allocate_span_id()

    base = cell_span.start if cell_span is not None else 0.0
    fallback_parent = cell_span.span_id if cell_span is not None else None
    adopted = 0
    for span in parsed:
        parent = None
        if span.parent_id is not None:
            parent = id_map.get(span.parent_id)
        if parent is None:
            parent = fallback_parent
        attrs = dict(span.attrs)
        attrs.setdefault("worker", label)
        if pid is not None:
            attrs.setdefault("pid", pid)
        tracer.emit(
            Span(
                name=span.name,
                span_id=id_map[span.span_id],
                parent_id=parent,
                start=base + max(0.0, span.start),
                duration=span.duration,
                attrs=attrs,
            )
        )
        adopted += 1
    return adopted
