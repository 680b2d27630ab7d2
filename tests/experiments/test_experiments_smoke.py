"""Every experiment spec must run end to end and produce a report.

These run on 4k-reference traces (see conftest) so they only check
plumbing and gross structure, not the paper numbers — those are the
integration tests' job.
"""

import pytest

from repro.experiments import get_spec, render_spec, run_spec
from repro.experiments.frontend import PRESENTATION_ORDER


@pytest.mark.parametrize("key", sorted(PRESENTATION_ORDER))
def test_report_is_nonempty_text(key):
    text = render_spec(key)
    assert isinstance(text, str)
    assert len(text.splitlines()) >= 3
    assert get_spec(key).title.split(":")[0] in text


@pytest.mark.parametrize("key", sorted(PRESENTATION_ORDER))
def test_render_reads_only_the_result_it_is_given(key, monkeypatch):
    """A render is a function of its result: with the result cache
    cleared and the sweep runner disabled it still reproduces the text.
    Figure 12 alone reads its declared base, so that one is cached."""
    from repro.experiments.spec import clear_result_cache
    from repro.perf import parallel

    result = run_spec(key, engine="fast")
    expected = render_spec(key, result)
    clear_result_cache()
    if key == "fig12":
        run_spec("fig04-b16", engine="fast")

    def no_sweeps(*args, **kwargs):
        raise AssertionError(f"rendering {key} ran a sweep")

    monkeypatch.setattr(parallel, "run_labeled_cells", no_sweeps)
    assert render_spec(key, result) == expected


def test_fig03_covers_every_benchmark():
    from repro.workloads.registry import benchmark_names

    results = run_spec("fig03")
    assert sorted(results) == benchmark_names()
    for rates in results.values():
        assert set(rates) == {"direct-mapped", "dynamic-exclusion", "optimal"}
        for value in rates.values():
            assert 0.0 <= value <= 1.0


def test_fig04_grid_is_complete():
    from repro.experiments.common import SIZE_SWEEP_KB

    result = run_spec("fig04")
    assert result.parameters == [kb * 1024 for kb in SIZE_SWEEP_KB]
    for label in ["direct-mapped", "dynamic-exclusion", "optimal"]:
        assert len(result.curve(label)) == len(SIZE_SWEEP_KB)


def test_fig05_reductions_derive_from_fig04():
    base = run_spec("fig04")
    reductions = run_spec("fig05")
    size = base.parameters[0]
    dm = base.series["direct-mapped"].points[size]
    de = base.series["dynamic-exclusion"].points[size]
    expected = 100.0 * (dm - de) / dm if dm else 0.0
    assert reductions.series["dynamic-exclusion"].points[size] == pytest.approx(expected)


def test_fig05_peak_reports_a_swept_size():
    from repro.experiments import fig05_improvement
    from repro.experiments.common import SIZE_SWEEP_KB

    result = run_spec("fig05")
    size, value = fig05_improvement.peak(result)
    assert size // 1024 in SIZE_SWEEP_KB
    assert value == max(result.curve("dynamic-exclusion"))


def test_hierarchy_sweep_shared_by_fig07_08_09():
    assert run_spec("fig07") is run_spec("fig08")
    assert run_spec("fig07") is run_spec("hierarchy")


def test_fig09_improvements_bounded():
    curves = run_spec("fig09")
    for values in curves.values():
        for value in values:
            assert -100.0 <= value <= 100.0


def test_fig11_line_sizes():
    from repro.experiments import fig11_line_size
    from repro.experiments.common import LINE_SIZE_SWEEP

    result = run_spec("fig11")
    assert result.parameters == LINE_SIZE_SWEEP
    assert set(fig11_line_size.improvements(result)) == set(LINE_SIZE_SWEEP)


def test_fig13_structure():
    result = run_spec("fig13")
    assert 0.0 <= result.exclusion_miss_rate <= result.baseline_miss_rate + 0.05
    assert result.exclusion.delta_size_percent < 10.0
    assert result.doubling.delta_size_percent > 90.0


def test_sec3_matches_analytic_counts():
    for row in run_spec("sec3"):
        assert row.dm_misses == row.dm_expected
        assert row.opt_misses == row.opt_expected


def test_cli_list(capsys):
    from repro.experiments.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out


def test_cli_single_experiment(capsys):
    from repro.experiments.__main__ import main

    assert main(["--only", "sec3"]) == 0
    out = capsys.readouterr().out
    assert "Section 3" in out


def test_cli_rejects_unknown_id(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["--only", "fig99"])


def test_cli_filter_selects_by_substring(capsys):
    from repro.experiments.__main__ import main

    assert main(["--filter", "section 3"]) == 0
    out = capsys.readouterr().out
    assert "# sec3:" in out
    assert "# fig04:" not in out


def test_cli_filter_rejects_no_match(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["--filter", "zzz-no-such-experiment"])


def test_repro_cli_experiments_subcommand(capsys):
    from repro.cli import main

    assert main(["experiments", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out
    assert main(["experiments", "--only", "sec3"]) == 0
    assert "Section 3" in capsys.readouterr().out


def test_cli_svg_output(tmp_path, capsys):
    from repro.experiments.__main__ import main

    assert main(["--only", "fig04", "--svg", str(tmp_path)]) == 0
    svg = tmp_path / "fig04.svg"
    assert svg.exists()
    assert svg.read_text().startswith("<svg")


def test_cli_svg_skips_non_sweep_experiments(tmp_path, capsys):
    from repro.experiments.__main__ import main

    assert main(["--only", "sec3", "--svg", str(tmp_path)]) == 0
    assert not (tmp_path / "sec3.svg").exists()


def test_cli_resume_dir_journals_and_replays(tmp_path, capsys):
    from repro.experiments.__main__ import main
    from repro.experiments.spec import clear_result_cache
    from repro.store import JOURNAL_FILENAME, ResultStore

    resume = tmp_path / "resume"
    clear_result_cache()  # the per-process memo would skip the sweep
    assert main(["--only", "fig04", "--resume-dir", str(resume)]) == 0
    first = capsys.readouterr().out
    assert (resume / JOURNAL_FILENAME).exists()
    journaled = len(ResultStore(resume))
    assert journaled > 0

    # Second run replays the journal and reports identically.
    clear_result_cache()
    assert main(["--only", "fig04", "--resume-dir", str(resume)]) == 0
    second = capsys.readouterr().out
    assert len(ResultStore(resume)) == journaled

    def table(text):
        return [line for line in text.splitlines() if "KB" in line or "%" in line]

    assert table(first) == table(second)


def test_cli_resume_dir_rerun_replays_every_cell(tmp_path, capsys):
    """A traced rerun over a --resume-dir journal counts, in its own
    metrics.json, every cell as replayed from the journal."""
    import json

    from repro import obs
    from repro.experiments.__main__ import main
    from repro.experiments.spec import clear_result_cache
    from repro.store import JOURNAL_FILENAME

    resume, trace = tmp_path / "resume", tmp_path / "trace"
    clear_result_cache()
    assert main(["--only", "fig04", "--resume-dir", str(resume)]) == 0
    assert [path.name for path in resume.iterdir()] == [JOURNAL_FILENAME]

    clear_result_cache()
    assert main(["--only", "fig04", "--resume-dir", str(resume),
                 "--trace-dir", str(trace)]) == 0
    series = json.loads((trace / "fig04" / obs.METRICS_FILENAME).read_text())

    def count(name):
        return sum(entry["value"] for entry in series if entry["name"] == name)

    assert count("sweep.cells.total") > 0
    assert count("sweep.cells.cached") == count("sweep.cells.total")
    assert count("sweep.cells.completed") == count("sweep.cells.total")
    assert count("sweep.cells.failed") == 0
    capsys.readouterr()


def test_cli_compacted_resume_dir_still_resumes(tmp_path, capsys):
    """Compacting a --resume-dir moves its cells into shards; the next
    rerun must still replay all of them and append nothing."""
    import json

    from repro import obs
    from repro.cli import main as cli_main
    from repro.experiments.__main__ import main
    from repro.experiments.spec import clear_result_cache
    from repro.store import JOURNAL_FILENAME

    resume, trace = tmp_path / "resume", tmp_path / "trace"
    clear_result_cache()
    assert main(["--only", "fig04", "--resume-dir", str(resume)]) == 0
    assert cli_main(["store", "compact", "--store", str(resume)]) == 0

    clear_result_cache()
    assert main(["--only", "fig04", "--resume-dir", str(resume),
                 "--trace-dir", str(trace)]) == 0
    series = json.loads((trace / "fig04" / obs.METRICS_FILENAME).read_text())

    def count(name):
        return sum(entry["value"] for entry in series if entry["name"] == name)

    assert count("sweep.cells.total") > 0
    assert count("sweep.cells.cached") == count("sweep.cells.total")
    assert (resume / JOURNAL_FILENAME).read_text() == ""
    capsys.readouterr()


def test_cli_progress_reports_cells(capsys):
    from repro.experiments.__main__ import main
    from repro.experiments.spec import clear_result_cache

    clear_result_cache()
    assert main(["--only", "fig04", "--progress"]) == 0
    err = capsys.readouterr().err
    assert "[sweep " in err
    assert "[sweep done]" in err
    assert "cells:" in err


def test_cli_rejects_bad_repro_workers_eagerly(monkeypatch, capsys):
    from repro.experiments.__main__ import main

    monkeypatch.setenv("REPRO_WORKERS", "banana")
    with pytest.raises(SystemExit):
        main(["--only", "sec3"])
    assert "REPRO_WORKERS" in capsys.readouterr().err


def test_cli_rejects_bad_trace_scale_eagerly(monkeypatch, capsys):
    from repro.experiments.__main__ import main

    monkeypatch.setenv("REPRO_TRACE_SCALE", "zero")
    with pytest.raises(SystemExit):
        main(["--only", "sec3"])
    assert "REPRO_TRACE_SCALE" in capsys.readouterr().err


def test_cli_trace_dir_writes_observability_artifacts(tmp_path, capsys, monkeypatch):
    from repro import obs
    from repro.experiments.__main__ import main
    from repro.experiments.spec import clear_result_cache

    clear_result_cache()  # force a real run so the span tree is populated
    monkeypatch.setenv("REPRO_PROFILE", "1")
    assert main(["--only", "fig04", "--engine", "fast",
                 "--trace-dir", str(tmp_path)]) == 0

    run_dir = tmp_path / "fig04"
    manifest = obs.read_manifest(run_dir)
    assert manifest is not None
    assert manifest["spec"] == "fig04"
    assert manifest["engine"] == "fast"
    assert manifest["wall_seconds"] > 0
    assert manifest["env"]["repro"]["REPRO_PROFILE"] == "1"

    spans = obs.read_spans(run_dir / obs.TRACE_FILENAME)
    names = {span.name for span in spans}
    assert {"experiment", "run_spec", "sweep", "cell", "simulate"} <= names
    roots = [span for span in spans if span.parent_id is None]
    assert [span.name for span in roots] == ["experiment"]
    # The span tree accounts for (at least) 95% of the manifest's wall time.
    coverage = sum(span.duration for span in roots) / manifest["wall_seconds"]
    assert coverage >= 0.95

    profile = (run_dir / obs.PROFILE_FILENAME).read_text()
    assert "functions by cumulative time" in profile
    assert "run_spec" in profile  # one cProfile around the whole run
    # The report is on stdout; the artefact paths are stderr chatter.
    captured = capsys.readouterr()
    assert "trace.jsonl" not in captured.out
    assert "manifest written to" in captured.err
    assert "profile written to" in captured.err


def test_trace_dir_instrumentation_leaves_results_unchanged(tmp_path):
    from repro.experiments.__main__ import main
    from repro.experiments.spec import clear_result_cache

    clear_result_cache()
    plain = run_spec("fig04")
    clear_result_cache()
    assert main(["--only", "fig04", "--trace-dir", str(tmp_path)]) == 0
    traced = run_spec("fig04")
    assert traced == plain
