"""Tests for the repro.cli command line tools."""

import pytest

from repro.cli import main
from repro.trace.io import load_din, save_din
from repro.trace.trace import Trace


class TestTraceCommand:
    def test_writes_din_file(self, tmp_path, capsys):
        out = tmp_path / "t.din"
        assert main(["trace", "tomcatv", "--refs", "500", "--out", str(out)]) == 0
        trace = load_din(out)
        assert len(trace) == 500
        assert "wrote" in capsys.readouterr().out

    def test_stdout_output(self, capsys):
        assert main(["trace", "tomcatv", "--refs", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10

    def test_data_kind(self, tmp_path):
        out = tmp_path / "d.din"
        main(["trace", "tomcatv", "--kind", "data", "--refs", "100", "--out", str(out)])
        trace = load_din(out)
        assert all(r.kind.is_data for r in trace)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "quake", "--refs", "10"])

    def test_negative_refs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "gcc", "--refs", "-5"])
        assert exc.value.code == 2
        assert "non-negative, got -5" in capsys.readouterr().err

    def test_zero_refs_is_an_empty_trace(self, capsys):
        assert main(["trace", "gcc", "--refs", "0"]) == 0
        assert capsys.readouterr().out == ""


class TestSimulateCommand:
    def test_negative_refs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "gcc", "--refs", "-5"])
        assert exc.value.code == 2
        assert "non-negative, got -5" in capsys.readouterr().err

    def test_simulate_benchmark_by_name(self, capsys):
        assert main(["simulate", "tomcatv", "--refs", "2000",
                     "--size", "1024", "--line", "4"]) == 0
        out = capsys.readouterr().out
        assert "misses" in out
        assert "direct" in out

    def test_simulate_din_file(self, tmp_path, capsys):
        path = tmp_path / "t.din"
        save_din(Trace([0, 4, 0, 4], [0] * 4), path)
        assert main(["simulate", str(path), "--size", "64", "--line", "4"]) == 0
        out = capsys.readouterr().out
        assert "accesses   : 4" in out

    @pytest.mark.parametrize("policy", [
        "direct", "exclusion", "exclusion-hashed", "optimal",
        "lru", "fifo", "random", "victim", "stream",
    ])
    def test_every_policy_runs(self, policy, capsys):
        assert main(["simulate", "tomcatv", "--refs", "1000",
                     "--size", "1024", "--policy", policy]) == 0
        assert "miss" in capsys.readouterr().out

    def test_exclusion_reports_bypasses(self, tmp_path, capsys):
        path = tmp_path / "t.din"
        # Conflict pair in a 64B cache; assume-miss polarity forces a
        # bypass immediately.
        save_din(Trace([0, 64, 0, 64], [0] * 4), path)
        assert main(["simulate", str(path), "--size", "64", "--line", "4",
                     "--policy", "exclusion", "--assume-miss"]) == 0
        assert "bypasses" in capsys.readouterr().out

    def test_long_line_exclusion_uses_buffer(self, tmp_path, capsys):
        path = tmp_path / "t.din"
        save_din(Trace([0, 4, 8, 12], [0] * 4), path)
        assert main(["simulate", str(path), "--size", "64", "--line", "16",
                     "--policy", "exclusion"]) == 0
        assert "buffer hits" in capsys.readouterr().out

    def test_missing_trace_file(self):
        with pytest.raises(SystemExit, match="neither a benchmark"):
            main(["simulate", "/nonexistent/trace.din"])


class TestClassifyCommand:
    def test_classify_file(self, tmp_path, capsys):
        path = tmp_path / "t.din"
        save_din(Trace([0, 64, 0, 64], [0] * 4), path)
        assert main(["classify", str(path), "--size", "64", "--line", "4"]) == 0
        out = capsys.readouterr().out
        assert "compulsory : 2" in out
        assert "conflict   : 2" in out

    def test_classify_benchmark(self, capsys):
        assert main(["classify", "tomcatv", "--refs", "2000", "--size", "1024"]) == 0
        assert "total" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["explode"])


class TestConflictsCommand:
    def test_conflicts_on_file(self, tmp_path, capsys):
        path = tmp_path / "t.din"
        save_din(Trace([0, 64] * 10, [0] * 20), path)
        assert main(["conflicts", str(path), "--size", "64", "--line", "4"]) == 0
        out = capsys.readouterr().out
        assert "ping-pong fraction" in out
        assert "0x0 <-> 0x10" in out

    def test_conflicts_on_benchmark(self, capsys):
        assert main(["conflicts", "tomcatv", "--refs", "2000",
                     "--size", "1024", "--top", "3"]) == 0
        assert "conflicting sets" in capsys.readouterr().out


class TestSimulateEngineFlags:
    def test_fast_matches_reference(self, capsys):
        """``simulate`` prints what the model's own per-reference loop counts."""
        from repro.caches.geometry import CacheGeometry
        from repro.cli import _build_simulator, _load_trace, build_parser

        for policy in ("direct", "exclusion", "optimal", "lru"):
            argv = ["simulate", "gcc", "--refs", "5000", "--size", "1024",
                    "--policy", policy]
            assert main(argv) == 0
            out = capsys.readouterr().out
            args = build_parser().parse_args(argv)
            geometry = CacheGeometry(args.size, args.line)
            model = _build_simulator(policy, geometry, args)
            stats = model.simulate(_load_trace(args.trace, args.kind, args.refs))
            assert stats.accesses == 5000
            assert f"hits       : {stats.hits:,}  ({stats.hit_rate:.3%})" in out
            assert f"misses     : {stats.misses:,}  ({stats.miss_rate:.3%})" in out
            assert ("bypasses" in out) == bool(stats.bypasses), policy
            if stats.bypasses:
                assert f"bypasses   : {stats.bypasses:,}" in out

    def test_zero_workers_rejected(self, capsys):
        from repro.experiments.__main__ import main as experiments_main

        for cli, argv in (
            (experiments_main, ["--only", "fig04", "--workers", "0"]),
            (main, ["serve", "--store", "unused", "--workers", "0"]),
            (main, ["query", "run", "fig04", "--workers", "0"]),
        ):
            with pytest.raises(SystemExit):
                cli(argv)
            assert "at least 1" in capsys.readouterr().err


class TestEagerEnvironmentValidation:
    def test_bad_repro_workers_fails_at_startup(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        with pytest.raises(SystemExit):
            main(["simulate", "gcc", "--refs", "2000"])
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_valid_repro_workers_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert main(["simulate", "gcc", "--refs", "2000"]) == 0


class TestObsSummarizeCommand:
    def _make_run(self, directory):
        from repro import obs

        with obs.Tracer(directory) as tracer:
            with tracer.span("experiment", spec="fig04"):
                with tracer.span("cell", label="dm@1024", engine="fast"):
                    pass

    def test_summarize_renders_a_run(self, tmp_path, capsys):
        self._make_run(tmp_path / "fig04")
        assert main(["obs", "summarize", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out
        assert "cell" in out
        assert "slowest cells" in out

    def test_top_flag_limits_cells(self, tmp_path, capsys):
        self._make_run(tmp_path)
        assert main(["obs", "summarize", str(tmp_path), "--top", "1"]) == 0
        assert "top 1 slowest cells" in capsys.readouterr().out

    def test_missing_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace directory"):
            main(["obs", "summarize", str(tmp_path / "absent")])

    def test_directory_without_runs_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="trace.jsonl"):
            main(["obs", "summarize", str(tmp_path)])

    def test_requires_a_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs"])


class TestObservabilityEnvValidation:
    def test_bad_repro_log_level_fails_at_startup(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "loud")
        with pytest.raises(SystemExit):
            main(["trace", "tomcatv", "--refs", "10"])
        assert "REPRO_LOG_LEVEL" in capsys.readouterr().err

    def test_bad_repro_profile_fails_at_startup(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE", "maybe")
        with pytest.raises(SystemExit):
            main(["trace", "tomcatv", "--refs", "10"])
        assert "REPRO_PROFILE" in capsys.readouterr().err


class TestStoreCompactCommand:
    def _seed_store(self, directory):
        from repro.store import ResultStore

        store = ResultStore(directory)
        for i in range(6):
            store.record(f"{i:08x}aa", {"label": "dm"}, 0.1 + i / 100, 0.0)
        return store

    def test_compacts_and_reports(self, tmp_path, capsys):
        store_dir = tmp_path / "results"
        self._seed_store(store_dir)
        assert main(["store", "compact", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "generation 1" in out
        assert "6 cells" in out
        assert (store_dir / "store_manifest.json").exists()

    def test_shards_flag(self, tmp_path, capsys):
        store_dir = tmp_path / "results"
        self._seed_store(store_dir)
        assert main(
            ["store", "compact", "--store", str(store_dir), "--shards", "2"]
        ) == 0
        assert "shard" in capsys.readouterr().out

    def test_store_dir_from_environment(self, tmp_path, monkeypatch, capsys):
        store_dir = tmp_path / "results"
        self._seed_store(store_dir)
        monkeypatch.setenv("REPRO_SERVE_STORE", str(store_dir))
        assert main(["store", "compact"]) == 0
        assert "generation 1" in capsys.readouterr().out

    def test_missing_store_dir_fails(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_STORE", raising=False)
        with pytest.raises(SystemExit, match="--store"):
            main(["store", "compact"])

    def test_compacted_store_round_trips(self, tmp_path):
        from repro.store import ResultStore

        store_dir = tmp_path / "results"
        before = {
            key: self._seed_store(store_dir).metrics(key)
            for key in self._seed_store(store_dir).keys()
        }
        assert main(["store", "compact", "--store", str(store_dir)]) == 0
        reloaded = ResultStore(store_dir)
        assert {key: reloaded.metrics(key) for key in reloaded.keys()} == before
