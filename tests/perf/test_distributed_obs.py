"""Distributed observability across the places a sweep cell runs.

The differential contract: a fleet run of a grid must
produce (1) one merged trace whose worker-side ``simulate`` /
``trace_gen`` spans nest under the parent's ``cell`` spans with
``worker=``/``pid=`` attribution, and (2) merged ``fsm.*`` counters
exactly equal to an inline run of the same grid — the paper's
dynamic-exclusion state machine fires identically wherever the cell
executes, so any drift is a propagation bug, not physics.
"""

import os

import pytest

from repro import obs
from repro.experiments.common import StandardFactory
from repro.obs import metrics as obs_metrics, tracing as obs_tracing
from repro.perf.parallel import run_labeled_cells
from repro.perf.trace_cache import TraceKey, clear_trace_cache

FSM_SERIES = ("fsm.sticky_saves", "fsm.hit_last_loads", "fsm.exclusion_flips")


def _grid():
    factory = StandardFactory("dynamic-exclusion", 4)
    trace = TraceKey("espresso", max_refs=20_000)
    return [(f"de@{64 << i}", factory, 64 << i, trace) for i in range(3)]


@pytest.fixture(autouse=True)
def _clean_process_state():
    yield
    obs_tracing.uninstall_tracer()
    obs_metrics.uninstall_registry()


def _traced_fleet_run(tmp_path):
    tracer = obs.install_tracer(obs.Tracer(tmp_path))
    registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
    outcomes = run_labeled_cells(
        _grid(), engine="reference", workers=2, progress=False
    )
    obs.uninstall_tracer()
    tracer.close()
    obs_metrics.uninstall_registry()
    assert all(outcome.ok for outcome in outcomes)
    return obs.read_spans(tmp_path / obs.TRACE_FILENAME), registry, outcomes


def _inline_fsm_totals():
    registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
    outcomes = run_labeled_cells(
        _grid(), engine="reference", workers=1, progress=False
    )
    obs_metrics.uninstall_registry()
    assert all(outcome.ok for outcome in outcomes)
    return {name: registry.total(name) for name in FSM_SERIES}


class TestFleetDistributedObs:
    def test_merged_trace_and_fsm_parity(self, tmp_path):
        clear_trace_cache()
        spans, registry, outcomes = _traced_fleet_run(tmp_path)
        by_id = {span.span_id: span for span in spans}
        cells = [span for span in spans if span.name == "cell"]
        assert len(cells) == 3

        # The parent builds the grid's one trace under the sweep span
        # before it forks; the workers inherit it and build none.
        builds = [span for span in spans if span.name == "trace_gen"]
        assert len(builds) == 1
        (build,) = builds
        assert "pid" not in build.attrs
        assert by_id[build.parent_id].name == "sweep"

        # Worker-side sub-phases arrived and nest under the cell spans
        # via the worker's cell_exec bracket.
        children = [
            span for span in spans
            if span.name in ("simulate", "trace_gen") and "pid" in span.attrs
        ]
        assert children, "no worker spans were shipped home"
        assert all(span.name == "simulate" for span in children)
        for span in children:
            parent = by_id[span.parent_id]
            assert parent.name == "cell_exec"
            assert by_id[parent.parent_id].name == "cell"
            assert span.attrs["worker"].startswith("local#")
            assert isinstance(span.attrs["pid"], int)
            assert span.attrs["pid"] != os.getpid()
            assert span.start >= parent.start
        # The worker's cell_exec bracket accounts for each cell's wall
        # time (the CI smoke pins >= 90% on a real fig05 run).
        for cell in cells:
            kids = [
                s for s in spans
                if s.parent_id == cell.span_id and "pid" in s.attrs
            ]
            assert kids, f"cell {cell.attrs.get('label')} shipped no spans"
            coverage = sum(k.duration for k in kids) / max(cell.duration, 1e-9)
            assert coverage > 0.9

        # Merged fleet FSM counters == the same grid run inline.
        inline = _inline_fsm_totals()
        for name in FSM_SERIES:
            assert registry.total(name) == inline[name], name
        # Attribution survives: each per-worker slice is a labelled series.
        exported = {
            (entry["name"], entry["labels"].get("worker"))
            for entry in registry.export()
            if entry["name"] in FSM_SERIES
        }
        assert all(worker for _, worker in exported)

    def test_cell_metrics_unaffected_by_tracing(self, tmp_path):
        _, _, traced = _traced_fleet_run(tmp_path)
        bare = run_labeled_cells(
            _grid(), engine="reference", workers=2, progress=False
        )
        assert [outcome.miss_rate for outcome in traced] == [
            outcome.miss_rate for outcome in bare
        ]


class TestOneCellClock:
    def test_a_pause_before_cell_exec_lands_in_neither_clock(self, monkeypatch):
        """The parent's cell span, back-dated from the reply's seconds,
        and the shipped cell_exec are one measurement: a pause before
        cell_exec opens neither stretches the one nor shifts the other."""
        import base64
        import pickle
        import time
        from contextlib import contextmanager
        from types import SimpleNamespace

        from repro.obs.distributed import merge_cell_payload
        from repro.perf import worker

        @contextmanager
        def late_span(name, **attrs):
            if name == "cell_exec":
                time.sleep(0.02)
            with obs_tracing.span(name, **attrs) as record:
                yield record

        monkeypatch.setattr(worker, "obs_tracing", SimpleNamespace(span=late_span))
        factory = StandardFactory("dynamic-exclusion", 4)
        trace = TraceKey("espresso", max_refs=5_000)
        payload = base64.b64encode(
            pickle.dumps((factory, 64, trace, None))
        ).decode("ascii")
        tracer = obs.Tracer()
        result = worker._run_cell({"op": "cell", "id": 1, "engine": "fast",
                                   "payload": payload,
                                   "obs": {"version": 1, "trace_id": "t"}})
        assert result["ok"]
        cell = tracer.record("cell", result["seconds"])
        merge_cell_payload(result["obs"], cell, worker="local#0", tracer=tracer,
                           registry=obs_metrics.MetricsRegistry())
        (cell_exec,) = [span for span in tracer.spans if span.name == "cell_exec"]
        assert cell_exec.parent_id == cell.span_id
        assert cell_exec.start == pytest.approx(cell.start, abs=1e-6)
        assert cell_exec.duration >= 0.99 * cell.duration


class TestTracingOffIsFree:
    def test_worker_protocol_omits_obs_key(self):
        import base64
        import pickle

        from repro.perf.worker import _run_cell

        factory = StandardFactory("dynamic-exclusion", 4)
        trace = TraceKey("espresso", max_refs=5_000)
        payload = base64.b64encode(
            pickle.dumps((factory, 64, trace, None))
        ).decode("ascii")
        bare = _run_cell({"op": "cell", "id": 1, "engine": "reference",
                          "payload": payload})
        assert bare["ok"] and "obs" not in bare
        traced = _run_cell({"op": "cell", "id": 2, "engine": "reference",
                            "payload": payload,
                            "obs": {"version": 1, "trace_id": "t"}})
        assert traced["ok"]
        assert traced["obs"]["trace_id"] == "t"
        assert any(
            entry["name"] == "simulate" for entry in traced["obs"]["spans"]
        )

    def test_worker_failure_still_ships_capture(self):
        import base64
        import pickle

        from repro.perf.worker import _run_cell
        from tests.perf.fleet_helpers import raise_for_2048

        trace = TraceKey("espresso", max_refs=5_000)
        payload = base64.b64encode(
            pickle.dumps((raise_for_2048, 2048, trace, None))
        ).decode("ascii")
        result = _run_cell({"op": "cell", "id": 3, "engine": "reference",
                            "payload": payload,
                            "obs": {"version": 1, "trace_id": "t"}})
        assert not result["ok"]
        assert result["obs"]["trace_id"] == "t"
