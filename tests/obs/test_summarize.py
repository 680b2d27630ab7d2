"""Tests for repro.obs.summarize — rendering trace directories."""

import json

import pytest

from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import METRICS_FILENAME, MetricsRegistry
from repro.obs.summarize import find_runs, summarize_directory, summarize_run
from repro.obs.tracing import Tracer


def _make_run(directory, spec="fig04", with_manifest=True):
    """A small but realistic run: experiment -> sweep -> cells."""
    with Tracer(directory) as tracer:
        with tracer.span("experiment", spec=spec):
            with tracer.span("sweep", engine="fast"):
                for label in ("dm@1024", "dm@2048"):
                    with tracer.span("cell", label=label, engine="fast"):
                        pass
    if with_manifest:
        manifest = build_manifest(
            spec_id=spec,
            spec_fingerprint="abc123",
            engine="fast",
            workers=None,
            wall_seconds=1.0,
            cpu_seconds=0.9,
            started_at=1700000000.0,
        )
        write_manifest(directory, manifest)
    return directory


class TestSummarizeRun:
    def test_renders_manifest_tree_and_cells(self, tmp_path):
        _make_run(tmp_path)
        text = summarize_run(tmp_path)
        assert "spec=fig04" in text
        assert "engine=fast" in text
        assert "workers=auto" in text
        assert "span tree (4 spans" in text
        assert "experiment" in text
        assert "sweep" in text
        assert "x2" in text  # the two cells merge into one tree line
        assert "top 2 slowest cells" in text
        assert "cell(engine=fast, label=dm@1024)" in text

    def test_simulate_spans_split_by_model_and_path(self, tmp_path):
        runs = [("LastLineBufferCache", "reference")] * 2 + [
            ("DirectMappedCache", "kernel")
        ]
        with Tracer(tmp_path) as tracer:
            with tracer.span("cell", label="llb"):
                for model, path in runs:
                    with tracer.span("simulate", model=model, path=path):
                        pass
        lines = summarize_run(tmp_path).splitlines()
        for node, count in [
            ("simulate[LastLineBufferCache/reference]", "x2"),
            ("simulate[DirectMappedCache/kernel]", "x1"),
        ]:
            (line,) = [line for line in lines if node in line]
            assert count in line

    def test_without_manifest(self, tmp_path):
        _make_run(tmp_path, with_manifest=False)
        text = summarize_run(tmp_path)
        assert "(no run_manifest.json)" in text
        assert "span tree" in text

    def test_empty_trace_degrades_with_note(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        assert "(no trace captured: trace.jsonl is empty)" in summarize_run(tmp_path)

    def test_missing_trace_with_manifest_degrades(self, tmp_path):
        manifest = build_manifest(
            spec_id="fig04",
            spec_fingerprint="abc123",
            engine="fast",
            workers=2,
            wall_seconds=1.0,
            cpu_seconds=0.9,
            started_at=1700000000.0,
        )
        write_manifest(tmp_path, manifest)
        text = summarize_run(tmp_path)
        assert "spec=fig04" in text
        assert "(no trace captured: trace.jsonl is missing)" in text

    def test_traceless_run_renders_metrics_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("fsm.sticky_saves", 7, benchmark="gcc")
        registry.counter("sweep.cells.completed", 12)
        (tmp_path / METRICS_FILENAME).write_text(
            json.dumps(registry.export()), encoding="utf-8"
        )
        text = summarize_run(tmp_path)
        assert "no trace captured" in text
        assert "metrics (2 series)" in text
        assert "fsm.sticky_saves{benchmark=gcc}" in text
        assert "7" in text
        assert "sweep.cells.completed" in text
        assert "12.0" in text

    def test_top_limits_the_cell_list(self, tmp_path):
        _make_run(tmp_path)
        text = summarize_run(tmp_path, top=1)
        assert "top 1 slowest cells" in text


class TestFindRuns:
    def test_directory_itself(self, tmp_path):
        _make_run(tmp_path)
        assert find_runs(tmp_path) == [tmp_path]

    def test_one_level_of_children(self, tmp_path):
        _make_run(tmp_path / "fig04", spec="fig04")
        _make_run(tmp_path / "fig05", spec="fig05")
        (tmp_path / "not-a-run").mkdir()
        assert find_runs(tmp_path) == [tmp_path / "fig04", tmp_path / "fig05"]


class TestSummarizeDirectory:
    def test_summarises_every_run(self, tmp_path):
        _make_run(tmp_path / "fig04", spec="fig04")
        _make_run(tmp_path / "fig05", spec="fig05")
        text = summarize_directory(tmp_path)
        assert "spec=fig04" in text
        assert "spec=fig05" in text

    def test_manifest_only_child_is_not_omitted(self, tmp_path):
        _make_run(tmp_path / "fig04", spec="fig04")
        manifest = build_manifest(
            spec_id="fig05",
            spec_fingerprint="def456",
            engine="fast",
            workers=None,
            wall_seconds=2.0,
            cpu_seconds=1.5,
            started_at=1700000000.0,
        )
        write_manifest(tmp_path / "fig05", manifest)
        text = summarize_directory(tmp_path)
        assert "spec=fig04" in text
        assert "spec=fig05" in text
        assert "no trace captured" in text

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such trace directory"):
            summarize_directory(tmp_path / "absent")

    def test_directory_without_runs_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="trace.jsonl"):
            summarize_directory(tmp_path)


def _make_builds(directory, builds):
    """A run whose sweep built ``builds``: (trace, kind, refs, shipped)
    tuples, a shipped one recorded the way a fleet worker's is merged."""
    with Tracer(directory) as tracer:
        with tracer.span("experiment", spec=directory.name):
            with tracer.span("sweep", engine="fast"):
                for trace, kind, refs, shipped in builds:
                    attrs = {"trace": trace, "trace_kind": kind, "refs": refs}
                    if shipped:
                        with tracer.span("cell", label="dm@1024", worker="local#0"):
                            tracer.record(
                                "trace_gen", 0.01, worker="local#0", pid=4242, **attrs
                            )
                    else:
                        with tracer.span("trace_gen", **attrs):
                            pass
    return directory


class TestTraceGenRollup:
    def test_each_trace_built_once_reads_clean(self, tmp_path):
        _make_builds(tmp_path / "fig04", [("gcc", "instruction", 4000, False),
                                          ("li", "instruction", 4000, False)])
        _make_builds(tmp_path / "fig14", [("gcc", "data", 4000, False)])
        text = summarize_directory(tmp_path)
        assert "run-wide (2 runs)" in text
        assert "trace_gen: 3 calls for 3 distinct (trace, kind, refs)" in text
        assert "WARNING" not in text

    def test_a_rebuilt_trace_warns_and_counts_shipped_spans(self, tmp_path):
        _make_builds(tmp_path / "fig04", [("gcc", "instruction", 4000, False)])
        # Another run's worker rebuilt gcc, and li at a second budget.
        _make_builds(tmp_path / "fig05", [("gcc", "instruction", 4000, True),
                                          ("li", "instruction", 4000, True),
                                          ("li", "instruction", 8000, False)])
        text = summarize_directory(tmp_path)
        assert "trace_gen: 4 calls for 3 distinct (trace, kind, refs)" in text
        assert "WARNING: 1 trace_gen calls rebuilt a trace" in text
