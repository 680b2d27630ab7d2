"""Tests for repro.obs.distributed — cross-process span/metric shipping."""

import os

import pytest

from repro.obs import distributed, metrics as obs_metrics, tracing as obs_tracing
from repro.obs.distributed import (
    DROPPED_COUNTER,
    WorkerCapture,
    merge_cell_payload,
    propagation_context,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer


@pytest.fixture(autouse=True)
def _clean_process_state():
    yield
    obs_tracing.uninstall_tracer()
    obs_metrics.uninstall_registry()


class TestPropagationContext:
    def test_none_without_a_tracer(self):
        obs_tracing.uninstall_tracer()
        assert propagation_context() is None

    def test_carries_trace_id_and_current_span(self):
        tracer = obs_tracing.install_tracer(Tracer())
        with tracer.span("sweep") as sweep:
            ctx = propagation_context()
            assert ctx["version"] == distributed.OBS_WIRE_VERSION
            assert ctx["trace_id"] == tracer.trace_id
            assert ctx["parent_span_id"] == sweep.span_id
        assert propagation_context()["parent_span_id"] is None


class TestWorkerCapture:
    def test_captures_spans_and_metrics(self):
        with WorkerCapture({"trace_id": "abc123"}) as capture:
            with obs_tracing.span("simulate", engine="fast"):
                obs_metrics.counter("fsm.sticky_saves", 5, benchmark="gcc")
        payload = capture.payload()
        assert payload["trace_id"] == "abc123"
        assert payload["pid"] == os.getpid()
        assert payload["dropped"] == 0
        assert [entry["name"] for entry in payload["spans"]] == ["simulate"]
        (series,) = payload["metrics"]
        assert series["name"] == "fsm.sticky_saves"
        assert series["value"] == 5

    def test_restores_previous_tracer_and_registry(self):
        outer_tracer = obs_tracing.install_tracer(Tracer())
        outer_registry = obs_metrics.install_registry(MetricsRegistry())
        with WorkerCapture():
            assert obs_tracing.current_tracer() is not outer_tracer
            assert obs_metrics.current_registry() is not outer_registry
        assert obs_tracing.current_tracer() is outer_tracer
        assert obs_metrics.current_registry() is outer_registry

    def test_span_ship_limit_counts_drops(self):
        with WorkerCapture(max_spans=2) as capture:
            for index in range(5):
                obs_tracing.record("step", 0.001, index=index)
        payload = capture.payload()
        assert len(payload["spans"]) == 2
        assert payload["dropped"] == 3


class TestMergeCellPayload:
    def _payload(self):
        with WorkerCapture({"trace_id": "t1"}) as capture:
            with obs_tracing.span("trace_gen"):
                pass
            with obs_tracing.span("simulate"):
                with obs_tracing.span("kernel"):
                    pass
            obs_metrics.counter("fsm.sticky_saves", 3, benchmark="gcc")
        return capture.payload()

    def test_spans_reparented_rebased_and_attributed(self):
        payload = self._payload()
        tracer = Tracer()
        registry = MetricsRegistry()
        cell = Span(name="cell", span_id=tracer.allocate_span_id(),
                    parent_id=None, start=10.0, duration=1.0)
        tracer.emit(cell)
        adopted = merge_cell_payload(
            payload, cell, worker="local#0", tracer=tracer, registry=registry
        )
        assert adopted == 3
        by_name = {span.name: span for span in tracer.spans}
        # Worker-root spans hang off the cell span; nesting survives.
        assert by_name["trace_gen"].parent_id == cell.span_id
        assert by_name["simulate"].parent_id == cell.span_id
        assert by_name["kernel"].parent_id == by_name["simulate"].span_id
        # Starts are re-based onto the cell span's clock.
        for name in ("trace_gen", "simulate", "kernel"):
            assert by_name[name].start >= cell.start
            assert by_name[name].attrs["worker"] == "local#0"
            assert by_name[name].attrs["pid"] == os.getpid()
        # Re-identified ids never collide with parent allocations.
        ids = [span.span_id for span in tracer.spans]
        assert len(ids) == len(set(ids))

    def test_metrics_merged_with_worker_label(self):
        payload = self._payload()
        registry = MetricsRegistry()
        merge_cell_payload(payload, None, worker="local#1",
                           tracer=None, registry=registry)
        assert registry.value(
            "fsm.sticky_saves", benchmark="gcc", worker="local#1"
        ) == 3
        assert registry.total("fsm.sticky_saves", benchmark="gcc") == 3

    def test_dropped_spans_surface_as_counter(self):
        with WorkerCapture(max_spans=1):
            obs_tracing.record("a", 0.001)
            obs_tracing.record("b", 0.001)
        capture_payload = {"pid": 4242, "spans": [], "dropped": 1, "metrics": []}
        registry = MetricsRegistry()
        merge_cell_payload(capture_payload, None, tracer=None, registry=registry)
        assert registry.value(DROPPED_COUNTER, worker="pid-4242") == 1

    def test_garbage_payload_is_harmless(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        assert merge_cell_payload("nope", None, tracer=tracer, registry=registry) == 0
        assert merge_cell_payload(
            {"spans": "not-a-list", "metrics": None}, None,
            tracer=tracer, registry=registry,
        ) == 0
        assert tracer.spans == []


class TestRegistryMerge:
    def test_counters_add_and_gauges_overwrite(self):
        parent = MetricsRegistry()
        parent.counter("hits", 10)
        worker = MetricsRegistry()
        worker.counter("hits", 5)
        worker.gauge("depth", 3)
        merged = parent.merge(worker.export())
        assert merged == 2
        # No extra labels: the series land on the same key and add.
        assert parent.value("hits") == 15
        assert parent.value("depth") == 3

    def test_extra_labels_keep_workers_distinct(self):
        parent = MetricsRegistry()
        for worker_id in ("w0", "w1"):
            child = MetricsRegistry()
            child.counter("cells", 2)
            parent.merge(child.export(), worker=worker_id)
        assert parent.value("cells", worker="w0") == 2
        assert parent.total("cells") == 4
        assert parent.value("cells") is None  # unlabeled series never created

    def test_malformed_entries_counted_not_fatal(self):
        parent = MetricsRegistry()
        merged = parent.merge([
            "not-a-dict",
            {"name": "x"},  # no type
            {"name": "y", "type": "mystery", "value": 1},
            {"name": "t", "type": "histogram", "count": 1, "sum": 0.5},
            {"name": "ok", "type": "counter", "value": 2},
        ])
        assert merged == 1
        assert parent.value("ok") == 2
        assert parent.get("t") is None
        assert parent.value("obs.metrics.merge_skipped") == 4
