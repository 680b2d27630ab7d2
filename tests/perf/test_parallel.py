"""Tests for the parallel sweep runner and worker-count resolution."""

import pytest

from repro.analysis.sweep import run_sweep
from repro.experiments.common import StandardFactory, standard_factories
from repro.perf import parallel
from repro.perf.parallel import TraceKey


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

    def test_invalid_explicit_workers(self):
        with pytest.raises(ValueError):
            parallel.resolve_workers(0)


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
        names = [span.name for span in tracer.spans]
        assert names.count("sweep") == 1
        assert names.count("cell") == 2
