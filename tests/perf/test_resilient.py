"""Fault-tolerance tests for the resilient sweep runner.

Covers the failure paths that the plain green-path sweep tests cannot:
a factory that crashes its worker process mid-sweep, per-cell timeouts,
journal-backed resume after an interruption, and the differential
acceptance check — an interrupted-then-resumed parallel sweep must
serialise byte-identically to an uninterrupted sequential reference run.

The killing/flaky factories are module-level frozen dataclasses so they
pickle across the process-pool boundary (workers start via fork on
Linux, and pickling resolves them by qualified name either way).
"""

import json
import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.analysis import serialize
from repro.analysis.sweep import run_sweep
from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.perf import parallel
from repro.perf.journal import JOURNAL_FILENAME, SweepJournal
from repro.perf.parallel import (
    SweepCellError,
    TraceKey,
    run_cells,
    run_labeled_cells,
)

TRACES = [TraceKey("gcc", "instruction", 2_000), TraceKey("li", "instruction", 2_000)]
SIZES = [1024, 2048, 4096]


@dataclass(frozen=True)
class CleanFactory:
    """A well-behaved direct-mapped factory."""

    line_size: int = 4

    def __call__(self, size: object) -> DirectMappedCache:
        return DirectMappedCache(CacheGeometry(int(size), self.line_size))  # type: ignore[call-overload]


@dataclass(frozen=True)
class CrashingFactory:
    """Raises a deterministic exception for one poisoned parameter."""

    poison: int

    def __call__(self, size: object) -> DirectMappedCache:
        if int(size) == self.poison:  # type: ignore[call-overload]
            raise RuntimeError(f"poisoned parameter {size}")
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]


@dataclass(frozen=True)
class FlakyFactory:
    """Logs every invocation; SIGKILLs its process for the poisoned
    parameter while the sentinel file exists (simulating an OOM-killed
    worker that behaves after a restart with the sentinel removed)."""

    poison: int
    sentinel: str
    log: str

    def __call__(self, size: object) -> DirectMappedCache:
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write(f"poison={self.poison} param={int(size)}\n")  # type: ignore[call-overload]
        if int(size) == self.poison and os.path.exists(self.sentinel):  # type: ignore[call-overload]
            os.kill(os.getpid(), signal.SIGKILL)
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]


@dataclass(frozen=True)
class SleepingFactory:
    """Hangs (sleeps) for one poisoned parameter."""

    poison: int
    delay: float

    def __call__(self, size: object) -> DirectMappedCache:
        if int(size) == self.poison:  # type: ignore[call-overload]
            time.sleep(self.delay)
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]


def _grid(factories):
    return [
        (label, factory, size, trace)
        for size in SIZES
        for label, factory in factories.items()
        for trace in TRACES
    ]


def _log_lines(path) -> list:
    if not os.path.exists(path):
        return []
    return [line for line in open(path, encoding="utf-8").read().splitlines() if line]


class TestFailureAttribution:
    def test_sequential_failure_names_cell(self):
        outcomes = run_labeled_cells(
            _grid({"bad": CrashingFactory(poison=2048)}), workers=1
        )
        failed = [o for o in outcomes if not o.ok]
        assert len(failed) == len(TRACES)
        for outcome in failed:
            assert outcome.identity.parameter == 2048
            assert "RuntimeError" in outcome.error
            assert "poisoned parameter 2048" in outcome.error
        assert all(o.ok for o in outcomes if o.identity.parameter != 2048)

    def test_pooled_deterministic_failure_names_cell(self):
        outcomes = run_labeled_cells(
            _grid({"bad": CrashingFactory(poison=2048)}), workers=2
        )
        failed = [o for o in outcomes if not o.ok]
        assert {o.identity.parameter for o in failed} == {2048}
        # A deterministic exception is not retried.
        assert all(o.attempts == 1 for o in failed)

    def test_run_cells_raises_with_identity(self):
        cells = [(CrashingFactory(poison=2048), size, TRACES[0]) for size in SIZES]
        with pytest.raises(SweepCellError) as excinfo:
            run_cells(cells, workers=1)
        message = str(excinfo.value)
        assert "1 of 3 sweep cell(s) failed" in message
        assert "CrashingFactory" in message
        assert "2048" in message
        assert "gcc" in message
        assert len(excinfo.value.failures) == 1

    def test_run_sweep_raises_sweep_cell_error(self):
        with pytest.raises(SweepCellError, match="poisoned parameter 2048"):
            run_sweep(
                "size",
                SIZES,
                {"bad": CrashingFactory(poison=2048)},
                TRACES,
                workers=1,
            )


class TestWorkerCrashRecovery:
    def test_crashing_worker_is_attributed_and_rest_completes(self, tmp_path):
        sentinel = tmp_path / "armed"
        sentinel.touch()
        factories = {
            "stable": FlakyFactory(-1, str(sentinel), str(tmp_path / "log.txt")),
            "flaky": FlakyFactory(2048, str(sentinel), str(tmp_path / "log.txt")),
        }
        outcomes = run_labeled_cells(
            _grid(factories), workers=2, pool_retries=1
        )
        failed = [o for o in outcomes if not o.ok]
        assert len(failed) == len(TRACES)
        for outcome in failed:
            assert outcome.identity.label == "flaky"
            assert outcome.identity.parameter == 2048
            assert "worker process died" in outcome.error
        # Every non-poisoned cell survived the crashes.
        assert sum(o.ok for o in outcomes) == len(outcomes) - len(TRACES)

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        """The acceptance test: kill a worker mid-sweep, resume from the
        journal, and get a sweep byte-identical to a clean sequential run
        — recomputing only the cells that failed."""
        sentinel = tmp_path / "armed"
        sentinel.touch()
        log = tmp_path / "invocations.txt"
        journal_dir = tmp_path / "resume"
        factories = {
            "stable": FlakyFactory(-1, str(sentinel), str(log)),
            "flaky": FlakyFactory(2048, str(sentinel), str(log)),
        }

        with pytest.raises(SweepCellError) as excinfo:
            run_sweep(
                "size", SIZES, factories, TRACES,
                workers=2, journal=str(journal_dir),
            )
        assert all(f.identity.parameter == 2048 for f in excinfo.value.failures)
        assert all(f.identity.label == "flaky" for f in excinfo.value.failures)

        # Every completed cell was journaled; the poisoned ones were not.
        journal = SweepJournal(journal_dir)
        total = len(SIZES) * len(factories) * len(TRACES)
        assert len(journal) == total - len(TRACES)

        run1_invocations = len(_log_lines(log))
        sentinel.unlink()  # the crash condition clears (e.g. more memory)

        resumed = run_sweep(
            "size", SIZES, factories, TRACES,
            workers=2, journal=str(journal_dir),
        )

        # Only the failed cells were recomputed on resume.
        resumed_lines = _log_lines(log)[run1_invocations:]
        assert len(resumed_lines) == len(TRACES)
        assert all("param=2048" in line and "poison=2048" in line
                   for line in resumed_lines)

        reference = run_sweep("size", SIZES, factories, TRACES, workers=1)
        assert serialize.dumps(resumed) == serialize.dumps(reference)

    def test_solo_mode_survives_persistent_crasher(self, tmp_path):
        """A factory that kills its worker on *every* attempt still lets
        the rest of the grid finish (solo fallback guarantees progress)."""
        sentinel = tmp_path / "armed"
        sentinel.touch()
        factories = {
            "flaky": FlakyFactory(2048, str(sentinel), str(tmp_path / "log.txt")),
        }
        outcomes = run_labeled_cells(
            _grid(factories), workers=2, pool_retries=0
        )
        assert sum(not o.ok for o in outcomes) == len(TRACES)
        assert sum(o.ok for o in outcomes) == len(outcomes) - len(TRACES)


class TestTimeout:
    def test_stuck_cell_times_out_and_rest_completes(self):
        factories = {"slow": SleepingFactory(poison=1024, delay=60.0)}
        started = time.perf_counter()
        outcomes = run_labeled_cells(
            _grid(factories), workers=2, timeout=1.0, pool_retries=1
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0  # terminated, not slept out
        failed = [o for o in outcomes if not o.ok]
        assert {o.identity.parameter for o in failed} == {1024}
        for outcome in failed:
            assert "per-cell timeout" in outcome.error
            assert outcome.identity.label == "slow"
        assert all(o.ok for o in outcomes if o.identity.parameter != 1024)

    def test_sequential_ignores_timeout(self):
        # A sequential run cannot interrupt itself; short sleeps complete.
        factories = {"slow": SleepingFactory(poison=1024, delay=0.05)}
        outcomes = run_labeled_cells(
            [("slow", factories["slow"], 1024, TRACES[0])], workers=1, timeout=0.001
        )
        assert outcomes[0].ok


class TestJournal:
    def test_second_run_fully_cached(self, tmp_path, sweep_metrics):
        cells = _grid({"clean": CleanFactory()})
        first = run_labeled_cells(cells, workers=1, journal=tmp_path)
        sweep_metrics.clear()
        second = run_labeled_cells(cells, workers=1, journal=tmp_path)
        assert [o.miss_rate for o in second] == [o.miss_rate for o in first]
        assert all(o.cached for o in second)
        warm = sweep_metrics.total
        assert warm("sweep.cells.cached") == warm("sweep.cells.total") == len(cells)
        assert warm("sweep.cells.completed") == len(cells)

    def test_journal_key_separates_factory_configs(self, tmp_path):
        # Same label, same parameter, same trace, different line size:
        # the factory fingerprint must keep the journal entries apart.
        cells_a = [("curve", CleanFactory(line_size=4), 2048, TRACES[0])]
        cells_b = [("curve", CleanFactory(line_size=16), 2048, TRACES[0])]
        run_labeled_cells(cells_a, workers=1, journal=tmp_path)
        outcome_b = run_labeled_cells(cells_b, workers=1, journal=tmp_path)[0]
        assert not outcome_b.cached
        outcome_a = run_labeled_cells(cells_a, workers=1, journal=tmp_path)[0]
        assert outcome_a.cached

    def test_torn_tail_line_is_skipped(self, tmp_path):
        cells = _grid({"clean": CleanFactory()})
        run_labeled_cells(cells, workers=1, journal=tmp_path)
        path = tmp_path / JOURNAL_FILENAME
        intact = len(SweepJournal(tmp_path))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "sweep-cell", "version": 1, "key": "abc')
        assert len(SweepJournal(tmp_path)) == intact
        outcomes = run_labeled_cells(cells, workers=1, journal=tmp_path)
        assert all(o.cached for o in outcomes)

    def test_newer_version_entries_are_not_trusted(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.record("k1", {"label": "x"}, 0.5, 0.1)
        path = tmp_path / JOURNAL_FILENAME
        entry = json.loads(path.read_text().splitlines()[0])
        entry["version"] = 99
        entry["key"] = "k2"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        reloaded = SweepJournal(tmp_path)
        assert reloaded.get("k1") is not None
        assert reloaded.get("k2") is None

    def test_unpicklable_factory_is_never_journaled(self, tmp_path):
        factory = lambda size: DirectMappedCache(CacheGeometry(int(size), 4))  # noqa: E731
        cells = [("lambda", factory, 2048, TRACES[0])]
        run_labeled_cells(cells, workers=1, journal=tmp_path)
        assert len(SweepJournal(tmp_path)) == 0
        outcome = run_labeled_cells(cells, workers=1, journal=tmp_path)[0]
        assert outcome.ok and not outcome.cached

    def test_scale_change_misses_the_journal(self, tmp_path):
        # max_refs is part of the identity: a rescaled trace must not
        # replay the old scale's miss rate.
        short = [("clean", CleanFactory(), 2048, TraceKey("gcc", "instruction", 2_000))]
        longer = [("clean", CleanFactory(), 2048, TraceKey("gcc", "instruction", 3_000))]
        run_labeled_cells(short, workers=1, journal=tmp_path)
        outcome = run_labeled_cells(longer, workers=1, journal=tmp_path)[0]
        assert not outcome.cached


class TestTelemetry:
    def test_counters_for_mixed_run(self, tmp_path, capsys, sweep_metrics):
        cells = _grid({"bad": CrashingFactory(poison=2048)})
        run_labeled_cells(cells, workers=1, journal=tmp_path, progress=True)
        count = sweep_metrics.total
        assert count("sweep.cells.total") == len(cells)
        assert count("sweep.cells.failed") == len(TRACES)
        assert count("sweep.cells.completed") == len(cells) - len(TRACES)
        assert count("sweep.cells.cached") == 0
        (seconds,) = [
            entry for entry in sweep_metrics.export() if entry["name"] == "cell.seconds"
        ]
        assert seconds["count"] == len(cells) - len(TRACES)
        assert seconds["max"] >= seconds["sum"] / seconds["count"] >= 0.0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.startswith(f"[sweep done] {len(cells)} cells:")
        assert f"{len(TRACES)} failed" in summary

    def test_pool_restarts_counted(self, tmp_path, sweep_metrics):
        sentinel = tmp_path / "armed"
        sentinel.touch()
        factories = {
            "flaky": FlakyFactory(2048, str(sentinel), str(tmp_path / "log.txt")),
        }
        run_labeled_cells(_grid(factories), workers=2, pool_retries=1)
        assert sweep_metrics.total("sweep.pool_restarts") >= 1
        assert sweep_metrics.total("sweep.cells.failed") == len(TRACES)


class TestProgress:
    def test_progress_lines_name_cells(self, tmp_path, capsys):
        cells = [("clean", CleanFactory(), 2048, TRACES[0])]
        run_labeled_cells(cells, workers=1, progress=True)
        err = capsys.readouterr().err
        assert "[sweep 1/1]" in err
        assert "clean | 2048 | gcc(instruction, 2000 refs)" in err
