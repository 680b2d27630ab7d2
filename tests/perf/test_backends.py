"""Tests for the pluggable sweep execution backends.

Three properties matter:

* **registry** — the three backends are registered, selectable, and
  resolved with the documented precedence (explicit > CLI default >
  ``REPRO_BACKEND`` > automatic);
* **invariance** — the same grid produces identical metrics and
  identical journal entries under ``inline``, ``local-pool``, and
  ``fleet``, and a journal written under one backend resumes under any
  other (both directions);
* **fleet fault tolerance** — a SIGKILLed worker retires, its in-flight
  cell re-dispatches inside the crash budget, a poisoned cell that
  kills every worker it touches fails with exact worker attribution,
  and a never-ready endpoint is retired without a respawn loop.

The fleet factories live in :mod:`tests.perf.fleet_helpers` so fresh
worker processes can unpickle them by qualified name.
"""

import io
import json
import os
import sys
import threading

import pytest

from repro.perf import backends
from repro.perf.backends import (
    FleetBackend,
    InlineBackend,
    LocalPoolBackend,
    backend_names,
    create_backend,
    live_workers,
    resolve_backend,
    set_default_backend,
    worker_command,
)
from repro.perf.parallel import (
    TraceKey,
    drain_telemetry,
    identity_for,
    run_labeled_cells,
)
from repro.perf.journal import SweepJournal
from repro.perf.worker import worker_main

from .fleet_helpers import (
    KillAlwaysFactory,
    KillOnceFactory,
    SlowFactory,
    WellBehavedFactory,
    raise_for_2048,
)

TRACES = [TraceKey("gcc", "instruction", 2_000), TraceKey("li", "instruction", 2_000)]
SIZES = [1024, 2048, 4096]


def _grid(factory):
    return [
        ("curve", factory, size, trace) for size in SIZES for trace in TRACES
    ]


def _zombie_children():
    """PIDs of defunct children of this process (Linux /proc scan)."""
    import glob

    me = str(os.getpid())
    zombies = []
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            content = open(stat_path).read()
        except OSError:
            continue  # process exited between glob and read
        fields = content.rsplit(") ", 1)[-1].split()
        if len(fields) >= 2 and fields[0] == "Z" and fields[1] == me:
            zombies.append(stat_path.split("/")[2])
    return zombies


@pytest.fixture(autouse=True)
def _no_ambient_backend(monkeypatch):
    """Tests control selection explicitly; the ambient env must not."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FLEET_HOSTS", raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)
    drain_telemetry()


class TestRegistry:
    def test_three_backends_registered(self):
        assert backend_names() == ["fleet", "inline", "local-pool"]

    def test_create_returns_registered_classes(self):
        assert isinstance(create_backend("inline"), InlineBackend)
        assert isinstance(create_backend("local-pool"), LocalPoolBackend)
        assert isinstance(create_backend("fleet"), FleetBackend)

    def test_unknown_backend_names_the_choices(self):
        with pytest.raises(ValueError, match="unknown backend 'threads'"):
            create_backend("threads")
        with pytest.raises(ValueError, match="fleet, inline, local-pool"):
            create_backend("threads")

    def test_run_labeled_cells_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_labeled_cells(_grid(WellBehavedFactory()), backend="threads")


class TestResolvePrecedence:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fleet")
        set_default_backend("local-pool")
        assert resolve_backend("inline") == "inline"

    def test_cli_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fleet")
        set_default_backend("local-pool")
        assert resolve_backend(None) == "local-pool"

    def test_env_when_nothing_else(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fleet")
        assert resolve_backend(None) == "fleet"

    def test_unset_means_automatic(self):
        assert resolve_backend(None) is None

    def test_explicit_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("threads")

    def test_set_default_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_default_backend("threads")


class TestAutomaticSelection:
    """backend=None preserves the pre-backend dispatch exactly."""

    def test_single_worker_runs_inline(self):
        run_labeled_cells(_grid(WellBehavedFactory()), workers=1)
        assert drain_telemetry()[-1].backend == "inline"

    def test_single_cell_runs_inline_despite_workers(self):
        run_labeled_cells(_grid(WellBehavedFactory())[:1], workers=4)
        assert drain_telemetry()[-1].backend == "inline"

    def test_multi_worker_multi_cell_uses_the_pool(self):
        run_labeled_cells(_grid(WellBehavedFactory()), workers=2)
        assert drain_telemetry()[-1].backend == "local-pool"

    def test_env_backend_overrides_automatic(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inline")
        run_labeled_cells(_grid(WellBehavedFactory()), workers=2)
        assert drain_telemetry()[-1].backend == "inline"


class TestBackendInvariance:
    """Identical metrics and journal entries across all three backends."""

    def _run(self, backend, tmp_path, workers=2):
        journal_dir = tmp_path / backend
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
            workers=workers,
            backend=backend,
            journal=str(journal_dir),
        )
        assert all(outcome.ok for outcome in outcomes)
        return outcomes, SweepJournal(journal_dir)

    def test_metrics_and_journal_keys_identical(self, tmp_path):
        inline, inline_journal = self._run("inline", tmp_path)
        pooled, pool_journal = self._run("local-pool", tmp_path)
        fleet, fleet_journal = self._run("fleet", tmp_path)

        assert [o.metrics for o in inline] == [o.metrics for o in pooled]
        assert [o.metrics for o in inline] == [o.metrics for o in fleet]

        keys = [o.identity.key() for o in inline]
        assert keys == [o.identity.key() for o in pooled]
        assert keys == [o.identity.key() for o in fleet]
        for key, outcome in zip(keys, inline):
            for journal in (inline_journal, pool_journal, fleet_journal):
                entry = journal.get(key)
                assert entry is not None
                assert journal.entry_metrics(entry) == outcome.metrics

    @pytest.mark.parametrize(
        "first,second",
        [("fleet", "inline"), ("inline", "fleet"), ("local-pool", "fleet")],
    )
    def test_cross_backend_resume(self, tmp_path, first, second):
        journal_dir = str(tmp_path / "journal")
        cells = _grid(WellBehavedFactory())
        initial = run_labeled_cells(
            cells, engine="fast", workers=2, backend=first, journal=journal_dir
        )
        assert all(outcome.ok for outcome in initial)
        resumed = run_labeled_cells(
            cells, engine="fast", workers=2, backend=second, journal=journal_dir
        )
        assert all(outcome.cached for outcome in resumed)
        assert [o.metrics for o in resumed] == [o.metrics for o in initial]


class TestFleetWorkerCommand:
    def test_local_uses_this_interpreter(self):
        assert worker_command("local") == [
            sys.executable, "-m", "repro.cli", "worker",
        ]

    def test_bare_endpoint_goes_over_ssh(self):
        argv = worker_command("user@box1")
        assert argv[:4] == ["ssh", "-o", "BatchMode=yes", "user@box1"]
        assert argv[-3:] == ["-m", "repro.cli", "worker"]

    def test_whitespace_template_used_verbatim(self):
        assert worker_command("kubectl exec pod -- python -m repro.cli worker") == [
            "kubectl", "exec", "pod", "--", "python", "-m", "repro.cli", "worker",
        ]


class TestFleetExecution:
    def test_cells_shard_across_workers(self):
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
            workers=2,
            backend="fleet",
        )
        assert all(outcome.ok for outcome in outcomes)
        telemetry = drain_telemetry()[-1]
        assert telemetry.backend == "fleet"
        assert telemetry.workers == 2
        assert sum(telemetry.worker_cells.values()) == len(outcomes)
        assert set(telemetry.worker_cells) == {"local#0", "local#1"}
        assert {outcome.worker for outcome in outcomes} == {"local#0", "local#1"}

    def test_workers_torn_down_after_the_sweep(self):
        run_labeled_cells(
            _grid(WellBehavedFactory()), engine="fast", workers=2,
            backend="fleet",
        )
        assert live_workers() == 0

    def test_deterministic_failure_not_retried(self):
        outcomes = run_labeled_cells(
            [("curve", raise_for_2048, size, TRACES[0]) for size in SIZES],
            engine="fast",
            workers=2,
            backend="fleet",
        )
        failed = [outcome for outcome in outcomes if not outcome.ok]
        assert len(failed) == 1
        assert "poisoned parameter 2048" in failed[0].error
        assert failed[0].attempts == 1  # captured worker-side, no crash retry
        assert all(outcome.ok for outcome in outcomes if outcome is not failed[0])

    def test_sigkilled_worker_retires_and_cell_redispatches(self, tmp_path):
        sentinel = tmp_path / "armed"
        sentinel.write_text("armed\n")
        outcomes = run_labeled_cells(
            _grid(KillOnceFactory(poison=2048, sentinel=str(sentinel))),
            engine="fast",
            workers=2,
            backend="fleet",
        )
        assert all(outcome.ok for outcome in outcomes)
        assert not sentinel.exists()
        killed = [o for o in outcomes if o.identity.parameter == 2048]
        assert any(o.attempts > 1 for o in killed)
        telemetry = drain_telemetry()[-1]
        assert telemetry.pool_restarts >= 1
        assert live_workers() == 0

    def test_poisoned_cell_fails_with_worker_attribution(self):
        outcomes = run_labeled_cells(
            _grid(KillAlwaysFactory(poison=2048)),
            engine="fast",
            workers=2,
            backend="fleet",
            pool_retries=1,
        )
        failed = [outcome for outcome in outcomes if not outcome.ok]
        assert failed, "the poisoned cells must fail once the budget is spent"
        for outcome in failed:
            assert outcome.identity.parameter == 2048
            assert "BrokenFleetWorker" in outcome.error
            assert "died while executing this cell" in outcome.error
            assert "exit code" in outcome.error
            assert outcome.worker  # names the worker that died
            assert outcome.attempts == 2  # pool_retries=1 -> two attempts
        survivors = [outcome for outcome in outcomes if outcome.ok]
        assert len(survivors) == len(outcomes) - len(failed) > 0

    def test_never_ready_endpoint_retired_without_respawn_loop(self, monkeypatch):
        bad = f"{sys.executable} -c import#sys.exit(1)"
        monkeypatch.setenv("REPRO_FLEET_HOSTS", f"local,{bad}")
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
            backend="fleet",
        )
        assert all(outcome.ok for outcome in outcomes)
        telemetry = drain_telemetry()[-1]
        # Every cell lands on the one good worker; the bad endpoint is
        # retired on its first death, never respawned.
        assert set(telemetry.worker_cells) == {"local#0"}
        assert telemetry.pool_restarts == 0

    def test_all_endpoints_dead_fails_remaining_cells(self, monkeypatch):
        bad = f"{sys.executable} -c import#sys.exit(1)"
        monkeypatch.setenv("REPRO_FLEET_HOSTS", bad)
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
            backend="fleet",
        )
        assert not any(outcome.ok for outcome in outcomes)
        assert all(
            "no live fleet workers remain" in outcome.error
            for outcome in outcomes
            if outcome.error and "BrokenFleet" in outcome.error
        )

    def test_unpicklable_payloads_fail_fast_without_hanging(self):
        # Regression: a cell whose payload fails to pickle resolves at
        # dispatch without ever occupying a worker, so a sweep where
        # nothing gets in flight must terminate instead of blocking on
        # the event queue forever.  One worker and several bad cells is
        # the sharp case: the worker's single ``ready`` event cannot
        # unblock more than one scheduling pass.
        bad = [("bad", lambda size: None, size, TRACES[0]) for size in SIZES]
        done = {}

        def run():
            done["bad"] = run_labeled_cells(
                bad, engine="fast", workers=1, backend="fleet"
            )
            done["mixed"] = run_labeled_cells(
                bad + _grid(WellBehavedFactory()),
                engine="fast",
                workers=2,
                backend="fleet",
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "fleet sweep hung on unpicklable payloads"
        assert all("pickle" in o.error for o in done["bad"])
        mixed = done["mixed"]
        assert all(
            "pickle" in o.error
            for o in mixed if o.identity.label == "bad"
        )
        assert all(o.ok for o in mixed if o.identity.label == "curve")

    def test_per_cell_timeout_kills_only_the_stuck_cell(self):
        outcomes = run_labeled_cells(
            _grid(SlowFactory(poison=2048)),
            engine="fast",
            workers=2,
            backend="fleet",
            timeout=3.0,
        )
        timed_out = [outcome for outcome in outcomes if not outcome.ok]
        assert timed_out
        for outcome in timed_out:
            assert outcome.identity.parameter == 2048
            assert "per-cell timeout (worker terminated)" in outcome.error
        assert all(
            outcome.ok for outcome in outcomes
            if outcome.identity.parameter != 2048
        )
        # Timeout-killed workers must be reaped, not left defunct: a
        # long-lived serve daemon accumulates one zombie per timeout
        # otherwise.
        assert _zombie_children() == []


class TestWorkerMain:
    """The NDJSON protocol loop, driven over in-memory streams."""

    def _run(self, requests):
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        stdout = io.StringIO()
        code = worker_main(stdin=stdin, stdout=stdout)
        events = [json.loads(line) for line in stdout.getvalue().splitlines()]
        return code, events

    def test_ready_handshake_comes_first(self):
        code, events = self._run([])
        assert code == 0
        assert events[0]["event"] == "ready"
        assert events[0]["pid"] == os.getpid()
        assert events[0]["host"]

    def test_ping_pong(self):
        _, events = self._run([{"op": "ping", "id": 7}])
        assert {"event": "pong", "id": 7} in events

    def test_shutdown_stops_the_loop(self):
        _, events = self._run([{"op": "shutdown"}, {"op": "ping", "id": 9}])
        assert not any(e.get("id") == 9 for e in events)

    def test_malformed_line_answers_error_and_survives(self):
        malformed = ["this is not json", "[1, 2]", "42", '"ping"']
        stdin = io.StringIO(
            "\n".join(malformed) + '\n{"op": "ping", "id": 1}\n'
        )
        stdout = io.StringIO()
        assert worker_main(stdin=stdin, stdout=stdout) == 0
        events = [json.loads(line) for line in stdout.getvalue().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["ready"] + ["error"] * len(malformed) + ["pong"]
        for event in events[1:-1]:
            assert "malformed request line" in event["error"]

    def test_unknown_op_answers_error(self):
        _, events = self._run([{"op": "dance", "id": 3}])
        assert any(
            e["event"] == "error" and "unknown op" in e["error"] for e in events
        )

    def test_cell_request_round_trips(self):
        import base64
        import pickle

        payload = base64.b64encode(
            pickle.dumps((WellBehavedFactory(), 1024, TRACES[0], None))
        ).decode("ascii")
        _, events = self._run(
            [{"op": "cell", "id": 5, "engine": "fast", "payload": payload}]
        )
        results = [e for e in events if e["event"] == "result"]
        assert len(results) == 1
        assert results[0]["id"] == 5
        assert results[0]["ok"] is True
        assert 0.0 < results[0]["metrics"]["miss_rate"] <= 1.0
        assert results[0]["seconds"] >= 0.0

    def test_cell_failure_captured_not_fatal(self):
        import base64
        import pickle

        payload = base64.b64encode(
            pickle.dumps((raise_for_2048, 2048, TRACES[0], None))
        ).decode("ascii")
        _, events = self._run(
            [
                {"op": "cell", "id": 6, "engine": "fast", "payload": payload},
                {"op": "ping", "id": 8},
            ]
        )
        results = [e for e in events if e["event"] == "result"]
        assert results[0]["ok"] is False
        assert "RuntimeError: poisoned parameter 2048" in results[0]["error"]
        assert {"event": "pong", "id": 8} in events  # loop survived
