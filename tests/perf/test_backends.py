"""Tests for where sweep cells run: inline or on the fleet.

Four properties matter:

* **placement** — a run goes to the fleet when ``REPRO_FLEET_HOSTS``
  names endpoints or more than one worker has more than one pending
  cell, and inline otherwise; the span, gauge and ``[sweep done]`` line
  report the workers that actually ran the cells;
* **invariance** — the same grid produces identical metrics and
  identical journal entries inline and on the fleet, and a journal
  written by one resumes under the other (both directions);
* **fleet fault tolerance** — a SIGKILLed worker retires, its in-flight
  cell re-dispatches inside the crash budget, a poisoned cell that
  kills every worker it touches fails with exact worker attribution,
  a never-ready endpoint is retired without a respawn loop, and a
  malformed reply fails only its cell;
* **forked-worker hygiene** — a forked ``local`` worker starts with
  fresh observability state and its own pipes only, and a long-lived
  parent running many sweeps leaks neither descriptors nor zombies;
  the worker protocol loop answers any line, however malformed.

The fleet factories live in :mod:`tests.perf.fleet_helpers` so exec'd
worker processes can unpickle them by qualified name.
"""

import cProfile
import io
import json
import multiprocessing
import os
import shlex
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.perf.backends import fleet as fleet_backend
from repro.perf.backends import live_workers, worker_command
from repro.perf.parallel import (
    TraceKey,
    identity_for,
    run_labeled_cells,
)
from repro.perf.worker import worker_main
from repro.store import ResultStore

from .fleet_helpers import (
    KillAlwaysFactory,
    KillOnceFactory,
    SlowFactory,
    UnprofiledFactory,
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
            with open(stat_path) as handle:
                content = handle.read()
        except OSError:
            continue  # process exited between glob and read
        fields = content.rsplit(") ", 1)[-1].split()
        if len(fields) >= 2 and fields[0] == "Z" and fields[1] == me:
            zombies.append(stat_path.split("/")[2])
    return zombies


@pytest.fixture(autouse=True)
def _no_ambient_placement(monkeypatch):
    """Tests control placement explicitly; the ambient env must not."""
    monkeypatch.delenv("REPRO_FLEET_HOSTS", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def _cells_by_worker(registry):
    return {
        entry["labels"]["worker"]: entry["value"]
        for entry in registry.export()
        if entry["name"] == "sweep.cells.by_worker"
    }


class TestAutomaticSelection:
    """A run goes inline unless there is parallel work to share or fleet
    endpoints are configured."""

    def test_single_worker_runs_inline(self, sweep_metrics):
        run_labeled_cells(_grid(WellBehavedFactory()), workers=1)
        assert sweep_metrics.value("sweep.runs.by_backend", backend="inline") == 1

    def test_single_cell_runs_inline_despite_workers(self, sweep_metrics):
        run_labeled_cells(_grid(WellBehavedFactory())[:1], workers=4)
        assert sweep_metrics.value("sweep.runs.by_backend", backend="inline") == 1

    def test_multi_worker_multi_cell_uses_the_pool(self, sweep_metrics):
        # The fleet's local workers are the one multi-process pool.
        run_labeled_cells(_grid(WellBehavedFactory()), workers=2)
        assert sweep_metrics.value("sweep.runs.by_backend", backend="fleet") == 1

    def test_fleet_hosts_run_on_the_fleet_without_workers(
        self, monkeypatch, sweep_metrics
    ):
        # Configured endpoints ask for the fleet: the default single
        # worker must not run the cells inline behind their back.
        monkeypatch.setenv("REPRO_FLEET_HOSTS", "local")
        outcomes = run_labeled_cells(_grid(WellBehavedFactory())[:2], engine="fast")
        assert all(outcome.ok for outcome in outcomes)
        assert sweep_metrics.value("sweep.runs.by_backend", backend="fleet") == 1
        workers = _cells_by_worker(sweep_metrics)
        assert workers and all(worker.startswith("local#") for worker in workers)
        assert all(outcome.worker.startswith("local#") for outcome in outcomes)

    def test_fully_journaled_sweep_starts_no_worker(
        self, tmp_path, monkeypatch, sweep_metrics
    ):
        cells = _grid(WellBehavedFactory())
        run_labeled_cells(
            cells, engine="fast", workers=1, journal=ResultStore(tmp_path)
        )
        monkeypatch.setenv("REPRO_FLEET_HOSTS", "local")
        sweep_metrics.clear()
        outcomes = run_labeled_cells(
            cells, engine="fast", journal=ResultStore(tmp_path)
        )
        assert all(outcome.cached for outcome in outcomes)
        assert sweep_metrics.value("fleet.workers.spawned") is None


class TestReportedWorkers:
    """The sweep span, the ``sweep.workers`` gauge and the ``[sweep
    done]`` line agree on the workers that actually ran the cells."""

    def _reported(self, tmp_path, capsys, sweep_metrics, cells, workers):
        tracer = obs.install_tracer(obs.Tracer(tmp_path))
        try:
            outcomes = run_labeled_cells(
                cells, engine="fast", workers=workers, progress=True
            )
        finally:
            obs.uninstall_tracer()
            tracer.close()
        assert all(outcome.ok for outcome in outcomes)
        spans = obs.read_spans(tmp_path / obs.TRACE_FILENAME)
        (sweep,) = [span for span in spans if span.name == "sweep"]
        (line,) = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("[sweep done]")
        ]
        gauge = sweep_metrics.value("sweep.workers", engine="fast")
        return sweep.attrs["workers"], gauge, line

    def test_one_cell_runs_inline_on_one_worker(
        self, tmp_path, capsys, sweep_metrics
    ):
        span, gauge, line = self._reported(
            tmp_path, capsys, sweep_metrics,
            _grid(WellBehavedFactory())[:1], workers=4,
        )
        assert (span, gauge) == (1, 1)
        assert " 1 worker(s), " in line and "backend=inline" in line

    def test_fleet_reports_the_workers_it_started(
        self, tmp_path, monkeypatch, capsys, sweep_metrics
    ):
        monkeypatch.setenv("REPRO_FLEET_HOSTS", "local,local")
        span, gauge, line = self._reported(
            tmp_path, capsys, sweep_metrics,
            _grid(WellBehavedFactory())[:3], workers=1,
        )
        assert (span, gauge) == (2, 2)
        assert " 2 worker(s), " in line and "backend=fleet" in line


#: The worker count that places a six-cell grid inline or on the fleet.
PLACEMENT_WORKERS = {"inline": 1, "fleet": 2}


class TestBackendInvariance:
    """Identical metrics and journal entries inline and on the fleet."""

    def _run(self, placement, tmp_path):
        journal_dir = tmp_path / placement
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
            workers=PLACEMENT_WORKERS[placement],
            journal=ResultStore(journal_dir),
        )
        assert all(outcome.ok for outcome in outcomes)
        return outcomes, ResultStore(journal_dir)

    def test_metrics_and_journal_keys_identical(self, tmp_path):
        inline, inline_journal = self._run("inline", tmp_path)
        fleet, fleet_journal = self._run("fleet", tmp_path)
        assert not any(o.worker for o in inline)
        assert all(o.worker.startswith("local#") for o in fleet)

        assert [o.metrics for o in inline] == [o.metrics for o in fleet]

        keys = [o.identity.key() for o in inline]
        assert keys == [o.identity.key() for o in fleet]
        for key, outcome in zip(keys, inline):
            for journal in (inline_journal, fleet_journal):
                assert journal.metrics(key) == outcome.metrics

    @pytest.mark.parametrize(
        "first,second",
        [("fleet", "inline"), ("inline", "fleet")],
    )
    def test_cross_backend_resume(self, tmp_path, first, second):
        journal_dir = tmp_path / "journal"
        cells = _grid(WellBehavedFactory())
        initial = run_labeled_cells(
            cells, engine="fast", workers=PLACEMENT_WORKERS[first],
            journal=ResultStore(journal_dir),
        )
        assert all(outcome.ok for outcome in initial)
        resumed = run_labeled_cells(
            cells, engine="fast", workers=PLACEMENT_WORKERS[second],
            journal=ResultStore(journal_dir),
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
    def test_cells_shard_across_workers(self, sweep_metrics):
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
            workers=2,
        )
        assert all(outcome.ok for outcome in outcomes)
        assert sweep_metrics.value("sweep.runs.by_backend", backend="fleet") == 1
        assert sweep_metrics.value("sweep.workers", engine="fast") == 2
        by_worker = _cells_by_worker(sweep_metrics)
        assert sum(by_worker.values()) == len(outcomes)
        assert set(by_worker) == {"local#0", "local#1"}
        assert {outcome.worker for outcome in outcomes} == {"local#0", "local#1"}

    def test_workers_torn_down_after_the_sweep(self):
        run_labeled_cells(
            _grid(WellBehavedFactory()), engine="fast", workers=2,
        )
        assert live_workers() == 0

    def test_deterministic_failure_not_retried(self):
        outcomes = run_labeled_cells(
            [("curve", raise_for_2048, size, TRACES[0]) for size in SIZES],
            engine="fast",
            workers=2,
        )
        failed = [outcome for outcome in outcomes if not outcome.ok]
        assert len(failed) == 1
        assert "poisoned parameter 2048" in failed[0].error
        assert failed[0].attempts == 1  # captured worker-side, no crash retry
        assert all(outcome.ok for outcome in outcomes if outcome is not failed[0])

    def test_sigkilled_worker_retires_and_cell_redispatches(
        self, tmp_path, sweep_metrics
    ):
        sentinel = tmp_path / "armed"
        sentinel.write_text("armed\n")
        outcomes = run_labeled_cells(
            _grid(KillOnceFactory(poison=2048, sentinel=str(sentinel))),
            engine="fast",
            workers=2,
        )
        assert all(outcome.ok for outcome in outcomes)
        assert not sentinel.exists()
        killed = [o for o in outcomes if o.identity.parameter == 2048]
        assert any(o.attempts > 1 for o in killed)
        assert sweep_metrics.value("sweep.pool_restarts", engine="fast") >= 1
        assert live_workers() == 0

    def test_poisoned_cell_fails_with_worker_attribution(self):
        outcomes = run_labeled_cells(
            _grid(KillAlwaysFactory(poison=2048)),
            engine="fast",
            workers=2,
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

    def test_never_ready_endpoint_retired_without_respawn_loop(
        self, monkeypatch, sweep_metrics
    ):
        bad = f"{sys.executable} -c import#sys.exit(1)"
        monkeypatch.setenv("REPRO_FLEET_HOSTS", f"local,{bad}")
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
        )
        assert all(outcome.ok for outcome in outcomes)
        # Every cell lands on the one good worker; the bad endpoint is
        # retired on its first death, never respawned.
        assert set(_cells_by_worker(sweep_metrics)) == {"local#0"}
        assert sweep_metrics.value("sweep.pool_restarts", engine="fast") == 0

    def test_all_endpoints_dead_fails_remaining_cells(self, monkeypatch):
        bad = f"{sys.executable} -c import#sys.exit(1)"
        monkeypatch.setenv("REPRO_FLEET_HOSTS", bad)
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory()),
            engine="fast",
        )
        assert not any(outcome.ok for outcome in outcomes)
        assert all(
            "no live fleet workers remain" in outcome.error
            for outcome in outcomes
            if outcome.error and "BrokenFleet" in outcome.error
        )

    def test_unpicklable_payloads_fail_fast_without_hanging(self, monkeypatch):
        # Regression: a cell whose payload fails to pickle resolves at
        # dispatch without ever occupying a worker, so a sweep where
        # nothing gets in flight must terminate instead of blocking on
        # the event queue forever.  One worker and several bad cells is
        # the sharp case: the worker's single ``ready`` event cannot
        # unblock more than one scheduling pass.
        bad = [("bad", lambda size: None, size, TRACES[0]) for size in SIZES]
        done = {}

        def run():
            with monkeypatch.context() as patch:
                patch.setenv("REPRO_FLEET_HOSTS", "local")  # one worker
                done["bad"] = run_labeled_cells(bad, engine="fast", workers=1)
            done["mixed"] = run_labeled_cells(
                bad + _grid(WellBehavedFactory()),
                engine="fast",
                workers=2,
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


#: A fleet worker that answers ``ready``, then sends one malformed
#: ``result`` (the case named by argv[1]) and well-formed ones after it.
FAKE_WORKER = """
import json, sys
bad = {
    "seconds": {"seconds": "soon"},
    "metrics": {"metrics": [0.5]},
    "value": {"metrics": {"miss_rate": "high"}},
}[sys.argv[1]]
print(json.dumps({"event": "ready", "pid": 0, "host": "fake"}), flush=True)
for line in sys.stdin:
    request = json.loads(line)
    if request.get("op") == "shutdown":
        break
    reply = {"event": "result", "id": request["id"], "ok": True,
             "seconds": 0.1, "metrics": {"miss_rate": 0.5}}
    reply.update(bad)
    bad = {}
    print(json.dumps(reply), flush=True)
"""


class TestFleetProtocol:
    @pytest.mark.parametrize("case", ["seconds", "metrics", "value"])
    def test_malformed_result_fails_one_cell(self, tmp_path, monkeypatch, case):
        script = tmp_path / "fake_worker.py"
        script.write_text(FAKE_WORKER)
        endpoint = shlex.join([sys.executable, str(script), case])
        monkeypatch.setenv("REPRO_FLEET_HOSTS", endpoint)
        registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
        try:
            outcomes = run_labeled_cells(
                _grid(WellBehavedFactory()), engine="fast"
            )
        finally:
            obs_metrics.uninstall_registry()
        failed = [outcome for outcome in outcomes if not outcome.ok]
        assert len(failed) == 1
        assert "malformed result" in failed[0].error
        assert f"fleet worker {endpoint}#0 (pid " in failed[0].error
        assert [o.metrics for o in outcomes if o.ok] == [
            {"miss_rate": 0.5}
        ] * (len(outcomes) - 1)
        assert registry.value("fleet.protocol_errors") == 1

    def test_no_more_workers_than_pending_cells(self, sweep_metrics):
        outcomes = run_labeled_cells(
            _grid(WellBehavedFactory())[:2], engine="fast", workers=4,
        )
        assert all(outcome.ok for outcome in outcomes)
        assert sweep_metrics.value("sweep.workers", engine="fast") == 2
        assert sweep_metrics.value("fleet.workers.spawned") == 2


def _cmdline(pid) -> bytes:
    with open(f"/proc/{pid}/cmdline", "rb") as handle:
        return handle.read()


def _pipe_inodes(pid) -> set:
    """Pipes ``pid`` holds open above the standard streams."""
    pipes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue
        if int(fd) > 2 and target.startswith("pipe:"):
            pipes.add(target)
    return pipes


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd")
    or multiprocessing.get_all_start_methods()[0] != "fork",
    reason="forked local workers need fork as the default start method "
    "and /proc to inspect",
)
class TestForkedLocalWorkers:
    def _probe_workers(self, probe):
        """Run a 2-worker fleet sweep; ``probe(pid)`` for each live
        worker when its first cell resolves."""
        from repro.perf.parallel import outcome_observer

        probed = []

        def observe(_ctx, _outcome):
            if not probed:
                with fleet_backend._LIVE_LOCK:
                    pids = sorted(
                        worker.process.pid for worker in fleet_backend._LIVE_WORKERS
                    )
                probed.extend(probe(pid) for pid in pids)

        with outcome_observer(observe):
            outcomes = run_labeled_cells(
                _grid(WellBehavedFactory()), engine="fast", workers=2,
            )
        assert all(outcome.ok for outcome in outcomes)
        assert len(probed) == 2
        return probed

    def test_local_workers_are_forked(self):
        # A forked worker keeps the parent's command line; an exec'd
        # one would read "python -m repro.cli worker".
        assert self._probe_workers(_cmdline) == [_cmdline(os.getpid())] * 2

    def test_forked_worker_closes_sibling_pipe_ends(self):
        inherited = _pipe_inodes(os.getpid())  # open before the sweep
        pipes = [held - inherited for held in self._probe_workers(_pipe_inodes)]
        assert all(len(held) == 2 for held in pipes)  # request + reply
        assert not pipes[0] & pipes[1]

    def test_exec_path_where_fork_is_not_the_start_method(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_start_method", lambda allow_none=False: "spawn"
        )
        for cmdline in self._probe_workers(_cmdline):
            argv = cmdline.split(b"\0")
            assert b"repro.cli" in argv and b"worker" in argv

    def test_held_metrics_lock_does_not_stall_forked_workers(self, monkeypatch):
        # Every cell counts engine.dispatch under the registry lock; a
        # worker forked while another thread holds it must not inherit
        # the held lock.
        lock = obs_metrics.current_registry()._lock
        held, forked = threading.Event(), threading.Event()
        locked_at_fork = []
        real_fork = os.fork

        def fork():
            locked_at_fork.append(lock.locked())
            pid = real_fork()
            if pid:
                forked.set()
            return pid

        def hold():
            with lock:
                held.set()
                forked.wait(timeout=30.0)

        monkeypatch.setattr(os, "fork", fork)
        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(timeout=30.0)
        try:
            outcomes = run_labeled_cells(
                _grid(WellBehavedFactory()), engine="fast", workers=2,
                timeout=5.0,
            )
        finally:
            forked.set()
            holder.join(timeout=60.0)
        assert not holder.is_alive()
        assert locked_at_fork[0], "the first worker was not forked under the lock"
        assert [o.error for o in outcomes if not o.ok] == []

    def test_forked_workers_shed_an_inherited_profile_hook(self):
        # REPRO_PROFILE=1 runs the whole experiment under one cProfile,
        # whose hook a fork copies into the child; the workers must not
        # keep profiling (UnprofiledFactory raises under a profile hook).
        profile = cProfile.Profile()
        profile.enable()
        try:
            outcomes = run_labeled_cells(
                _grid(UnprofiledFactory()), engine="fast", workers=2,
            )
        finally:
            profile.disable()
        assert [o.error for o in outcomes if not o.ok] == []

    def test_repeated_sweeps_leak_no_descriptors_or_zombies(self, sweep_metrics):
        cells = _grid(WellBehavedFactory())
        descriptors = len(os.listdir("/proc/self/fd"))
        zombies = _zombie_children()
        for _ in range(20):
            outcomes = run_labeled_cells(cells, engine="fast", workers=2)
            assert all(outcome.ok for outcome in outcomes)
        assert sweep_metrics.value("sweep.runs.by_backend", backend="fleet") == 20
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert _zombie_children() == zombies


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

#: One arbitrary protocol value: what ``json.loads`` can return.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _b64(raw: bytes) -> str:
    import base64

    return base64.b64encode(raw).decode("ascii")


def _pickled(value) -> str:
    import pickle

    return _b64(pickle.dumps(value))


#: A ``cell`` request whose every field is arbitrary.
CELL_REQUESTS = st.fixed_dictionaries(
    {"op": st.just("cell")},
    optional={
        "id": JSON_VALUES,
        "engine": JSON_VALUES,
        "obs": JSON_VALUES,
        "payload": JSON_VALUES
        | st.binary(max_size=64).map(_b64)
        | JSON_VALUES.map(_pickled),
    },
).map(json.dumps)

#: Every line but a shutdown: raw text, JSON values, ops, cell requests.
PROTOCOL_LINES = st.one_of(
    st.text(
        st.characters(exclude_characters="\n\r", exclude_categories=("Cs",)),
        max_size=40,
    ),
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries(
        {"op": JSON_VALUES.filter(lambda op: op != "shutdown")},
        optional={"id": JSON_VALUES},
    ).map(json.dumps),
    CELL_REQUESTS,
)


def _expected_event(line: str) -> str:
    """The one event the protocol owes a non-blank line."""
    try:
        request = json.loads(line)
    except ValueError:
        return "error"
    if not isinstance(request, dict):
        return "error"
    op = request.get("op")
    if op == "ping":
        return "pong"
    return "result" if op == "cell" else "error"


class TestWorkerMainFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(lines=st.lists(PROTOCOL_LINES, max_size=8))
    def test_every_line_answered_and_the_loop_survives(self, lines):
        stdin = io.StringIO(
            "".join(line + "\n" for line in lines)
            + json.dumps({"op": "ping", "id": "last"}) + "\n"
        )
        stdout = io.StringIO()
        assert worker_main(stdin=stdin, stdout=stdout) == 0
        events = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert events[0]["event"] == "ready"
        answered = [line for line in lines if line.strip()]
        assert len(events) == len(answered) + 2
        for line, event in zip(answered, events[1:]):
            assert event["event"] == _expected_event(line), line
            if event["event"] == "result":
                assert event["ok"] is False, line
        assert events[-1] == {"event": "pong", "id": "last"}
