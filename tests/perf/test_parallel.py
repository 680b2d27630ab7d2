"""Tests for the parallel sweep runner and worker-count resolution."""

import pytest

from repro.analysis.sweep import run_sweep
from repro.experiments.common import StandardFactory, standard_factories
from repro.perf import parallel
from repro.perf.parallel import TraceKey
from repro.perf.telemetry import log_telemetry


class TestWorkerResolution:
    def test_env_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert parallel.env_workers() is None
        assert parallel.resolve_workers() == 1

    def test_env_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert parallel.env_workers() == 3
        assert parallel.resolve_workers() == 3

    @pytest.mark.parametrize("raw", ["two", "1.5", ""])
    def test_env_not_an_integer(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            parallel.env_workers()

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_env_must_be_positive(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="at least 1"):
            parallel.env_workers()

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert parallel.resolve_workers(2) == 2

    def test_cli_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        parallel.set_default_workers(2)
        try:
            assert parallel.resolve_workers() == 2
        finally:
            parallel.set_default_workers(None)

    def test_invalid_explicit_workers(self):
        with pytest.raises(ValueError):
            parallel.resolve_workers(0)
        with pytest.raises(ValueError):
            parallel.set_default_workers(0)


class TestTraceKey:
    def test_load_is_deterministic_and_memoised(self):
        key = TraceKey("gcc", "instruction", 2_000)
        first = key.load()
        assert first is key.load()  # memoised per process
        assert len(first) == 2_000
        assert first.name == "gcc"
        parallel.clear_trace_cache()
        regenerated = key.load()
        assert regenerated is not first
        assert regenerated == first

    def test_as_trace_passthrough(self):
        trace = TraceKey("gcc", "instruction", 1_000).load()
        assert parallel.as_trace(trace) is trace


class TestParallelSweep:
    """workers=2 must reproduce the sequential sweep bit-for-bit."""

    KEYS = [TraceKey(name, "instruction", 3_000) for name in ["gcc", "espresso"]]
    SIZES = [1024, 8 * 1024]

    def _sweep(self, engine, workers):
        return run_sweep(
            "cache size",
            self.SIZES,
            standard_factories(4),
            self.KEYS,
            engine=engine,
            workers=workers,
        )

    def test_parallel_matches_sequential(self):
        sequential = self._sweep("reference", 1)
        parallel_run = self._sweep("reference", 2)
        assert parallel_run == sequential

    def test_fast_engine_matches_reference(self):
        # 'optimal' has no kernel and exercises the in-sweep fallback.
        assert self._sweep("fast", 1) == self._sweep("reference", 1)

    def test_fast_parallel_matches_reference_sequential(self):
        assert self._sweep("fast", 2) == self._sweep("reference", 1)

    def test_factories_are_picklable(self):
        import pickle

        for factory in standard_factories(16).values():
            clone = pickle.loads(pickle.dumps(factory))
            assert clone == factory
        assert isinstance(
            pickle.loads(pickle.dumps(StandardFactory("optimal", 4))), StandardFactory
        )


class TestSweepTelemetry:
    def _record(self):
        return parallel.SweepTelemetry(
            engine="fast",
            workers=2,
            total=7,
            completed=5,
            failed=1,
            cached=1,
            pool_restarts=1,
            elapsed=1.25,
            cell_seconds=[0.5, 0.25],
        )

    def test_as_dict_round_trips_through_json(self):
        import json

        record = self._record()
        data = json.loads(json.dumps(record.as_dict()))
        assert parallel.SweepTelemetry.from_dict(data) == record

    def test_as_dict_matches_the_original_to_dict_shape(self):
        record = self._record()
        data = record.as_dict()
        assert data == record.to_dict()
        assert data["kind"] == "sweep-telemetry"
        assert data["version"] == 1
        assert data["cell_seconds_mean"] == 0.375
        assert data["cell_seconds_max"] == 0.5

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="sweep-telemetry"):
            parallel.SweepTelemetry.from_dict({"kind": "span"})

    def test_missing_cell_seconds_tolerated(self):
        data = self._record().as_dict()
        del data["cell_seconds"]
        assert parallel.SweepTelemetry.from_dict(data).cell_seconds == []


class TestTelemetryLog:
    def test_drain_returns_and_clears(self):
        parallel.drain_telemetry()
        log_telemetry(parallel.SweepTelemetry(engine="reference", workers=1))
        drained = parallel.drain_telemetry()
        assert len(drained) == 1
        assert parallel.drain_telemetry() == []

    def test_log_is_bounded(self):
        parallel.drain_telemetry()
        limit = parallel.TELEMETRY_LOG_LIMIT
        for index in range(limit + 10):
            log_telemetry(
                parallel.SweepTelemetry(engine="reference", workers=1, total=index)
            )
        drained = parallel.drain_telemetry()
        assert len(drained) == limit
        # The oldest records were discarded, not the newest.
        assert drained[0].total == 10
        assert drained[-1].total == limit + 9

    def test_concurrent_log_and_drain(self):
        import threading

        parallel.drain_telemetry()
        collected = []
        lock = threading.Lock()

        def writer():
            for _ in range(50):
                log_telemetry(
                    parallel.SweepTelemetry(engine="reference", workers=1)
                )

        def drainer():
            for _ in range(20):
                got = parallel.drain_telemetry()
                with lock:
                    collected.extend(got)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=drainer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with lock:
            collected.extend(parallel.drain_telemetry())
        # 200 records logged (under the bound): none lost, none duplicated.
        assert len(collected) == 200


class TestSweepObservability:
    def test_sweep_publishes_metrics_and_spans(self, tmp_path):
        from repro import obs
        from repro.obs.metrics import MetricsRegistry

        tracer = obs.install_tracer(obs.Tracer(tmp_path))
        registry = obs.install_registry(MetricsRegistry())
        try:
            run_sweep(
                "cache size",
                [1024, 2048],
                {"direct-mapped": StandardFactory("direct-mapped", 4)},
                [TraceKey("tomcatv", "instruction", 500)],
                engine="reference",
                workers=1,
            )
        finally:
            obs.uninstall_registry()
            obs.uninstall_tracer()
            tracer.close()
        assert registry.value("sweep.runs", engine="reference") == 1
        assert registry.value("sweep.cells.total", engine="reference") == 2
        assert registry.value("sweep.cells.completed", engine="reference") == 2
        assert registry.value("sweep.cells.failed", engine="reference") == 0
        assert registry.get("cell.seconds", engine="reference").count == 2
        totals = tracer.aggregate()
        assert totals["sweep"]["count"] == 1
        assert totals["cell"]["count"] == 2
