"""Tests for repro.obs.tracing — spans, the tracer, and the JSONL file."""

import json
import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import Span, Tracer, iter_jsonl, read_spans


@pytest.fixture
def installed(tmp_path):
    """A tracer installed process-wide, cleaned up afterwards."""
    tracer = tracing.install_tracer(Tracer(tmp_path))
    yield tracer
    tracing.uninstall_tracer()
    tracer.close()


class TestSpanSerialisation:
    def test_round_trip_through_json(self):
        span = Span(
            name="cell",
            span_id=7,
            parent_id=3,
            start=1.5,
            duration=0.25,
            attrs={"label": "dm@1024", "engine": "fast"},
        )
        line = json.dumps(span.to_dict(), sort_keys=True)
        restored = Span.from_dict(json.loads(line))
        assert restored == span

    def test_root_span_has_no_parent(self):
        span = Span(name="experiment", span_id=1, parent_id=None, start=0.0, duration=1.0)
        entry = span.to_dict()
        assert entry["parent"] is None
        assert Span.from_dict(entry) == span

    def test_empty_attrs_omitted_from_dict(self):
        span = Span(name="x", span_id=1, parent_id=None, start=0.0, duration=0.0)
        assert "attrs" not in span.to_dict()

    @pytest.mark.parametrize(
        "entry",
        [
            {"kind": "journal-entry", "version": 1},  # wrong kind
            {"kind": "span", "version": 99, "name": "x", "id": 1},  # future version
            {"kind": "span", "version": 1, "name": 3, "id": 1,
             "start": 0.0, "duration": 0.0},  # name not a string
            {"kind": "span", "version": 1, "name": "x", "id": "one",
             "start": 0.0, "duration": 0.0},  # id not an int
            {"kind": "span", "version": 1, "name": "x", "id": 1,
             "parent": "root", "start": 0.0, "duration": 0.0},  # bad parent
            {"kind": "span", "version": 1, "name": "x", "id": 1,
             "start": "soon", "duration": 0.0},  # bad start
            *(
                {"kind": "span", "version": version, "name": "x", "id": 1,
                 "start": 0.0, "duration": 0.0}  # version not an integer
                for version in ("1", None, True, 1.0)
            ),
        ],
    )
    def test_unusable_entries_rejected(self, entry):
        assert Span.from_dict(entry) is None


class TestTracer:
    def test_spans_nest_via_parent_ids(self):
        tracer = Tracer()
        with tracer.span("experiment") as outer:
            with tracer.span("sweep") as mid:
                with tracer.span("cell") as inner:
                    pass
        assert outer.parent_id is None
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        assert [span.name for span in tracer.spans] == ["cell", "sweep", "experiment"]

    def test_attrs_stamped_before_exit_are_kept(self):
        tracer = Tracer()
        with tracer.span("cell", label="dm@1024") as span:
            span.attrs["error"] = "boom"
        assert tracer.spans[0].attrs == {"label": "dm@1024", "error": "boom"}

    def test_durations_are_non_negative_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert 0.0 <= inner.duration <= outer.duration

    def test_record_backdates_a_measured_span(self):
        tracer = Tracer()
        with tracer.span("sweep"):
            span = tracer.record("cell", 1.5, pooled=True)
        assert span.duration == 1.5
        assert span.attrs == {"pooled": True}
        assert span.parent_id == tracer.spans[-1].span_id or span.parent_id is not None
        assert span.start >= 0.0

    def test_record_clamps_negative_seconds(self):
        tracer = Tracer()
        span = tracer.record("cell", -3.0)
        assert span.duration == 0.0

    def test_aggregate_stays_exact_past_the_keep_limit(self):
        tracer = Tracer(keep=2)
        for _ in range(5):
            tracer.record("cell", 0.5)
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        totals = tracer.aggregate()["cell"]
        assert totals["count"] == 5
        assert totals["seconds"] == pytest.approx(2.5)

    def test_no_directory_means_no_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.close()
        assert tracer.path is None

    def test_span_ids_are_unique_across_threads(self):
        tracer = Tracer()

        def work():
            for _ in range(50):
                with tracer.span("cell"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = [span.span_id for span in tracer.spans]
        assert len(ids) == len(set(ids)) == 200


class TestTraceFile:
    def test_spans_persist_and_reload(self, tmp_path):
        with Tracer(tmp_path) as tracer:
            with tracer.span("experiment", spec="fig04"):
                with tracer.span("cell", label="dm@1024"):
                    pass
        spans = read_spans(tmp_path / tracing.TRACE_FILENAME)
        assert [span.name for span in spans] == ["cell", "experiment"]
        assert spans[1].attrs == {"spec": "fig04"}
        assert spans[0].parent_id == spans[1].span_id

    def test_torn_tail_is_skipped(self, tmp_path):
        with Tracer(tmp_path) as tracer:
            with tracer.span("experiment"):
                with tracer.span("cell"):
                    pass
        path = tmp_path / tracing.TRACE_FILENAME
        # Simulate a crash mid-write: a torn final line.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "version": 1, "name": "tor')
        spans = read_spans(path)
        assert [span.name for span in spans] == ["cell", "experiment"]

    def test_iter_jsonl_skips_blank_torn_and_non_object_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n\n[1, 2]\n"text"\n{"b": 2}\n{"torn": ')
        assert list(iter_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_iter_jsonl_missing_file_yields_nothing(self, tmp_path):
        assert list(iter_jsonl(tmp_path / "absent.jsonl")) == []


class TestModuleLevelHelpers:
    def test_noop_without_installed_tracer(self):
        assert tracing.current_tracer() is None
        with tracing.span("cell") as span:
            assert span is None
        assert tracing.record("cell", 1.0) is None

    def test_write_to_installed_tracer(self, installed):
        with tracing.span("experiment", spec="fig04") as span:
            assert span is not None
            tracing.record("cell", 0.25, pooled=True)
        totals = installed.aggregate()
        assert set(totals) == {"experiment", "cell"}
        assert totals["cell"] == {"count": 1, "seconds": 0.25}
        assert totals["experiment"]["count"] == 1

    def test_uninstall_returns_the_tracer(self):
        tracer = tracing.install_tracer(Tracer())
        assert tracing.current_tracer() is tracer
        assert tracing.uninstall_tracer() is tracer
        assert tracing.current_tracer() is None
