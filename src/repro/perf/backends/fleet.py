"""The fleet: cells sharded across worker processes.

The fleet runs every multi-process sweep, and every sweep when
``REPRO_FLEET_HOSTS`` names endpoints.  It shards cells across
long-lived worker processes speaking the NDJSON protocol of
:mod:`repro.perf.worker`, one per endpoint:

* ``local`` — a worker on this machine (the default: ``--workers N``
  starts N of these, at most one per pending cell).  Where the
  platform's default multiprocessing start method is ``fork`` (Linux),
  it is a forked child serving :func:`~repro.perf.worker.worker_main`
  over an ``os.pipe()`` pair, with every module the parent imported
  and every trace the sweep's pending cells need (the parent builds
  them into its memo before the first fork); elsewhere it is
  ``python -m repro.cli worker``, which builds its own;
* ``user@host`` — ``ssh -o BatchMode=yes user@host python3 -m
  repro.cli worker`` (the repo must be importable on the remote);
* anything containing whitespace — used verbatim as the worker command
  (``"kubectl exec pod -- python -m repro.cli worker"``).

Endpoints come from ``REPRO_FLEET_HOSTS`` (comma-separated) when set.

Scheduling keeps **one cell in flight per worker**: a dead worker
forfeits exactly one cell, which is re-dispatched to a surviving worker
with a per-cell crash budget (``pool_retries``) before it is failed
with exact attribution, without serialising the healthy remainder.  A
worker that dies after proving itself (its ``ready`` handshake) is
respawned and counted under ``pool_restarts``; one that never comes up
(unreachable host, broken command) is retired permanently so a typo'd
endpoint cannot respawn-loop.  Per-cell timeouts kill the stuck worker
and fail only its cell.  Every worker is reaped and its pipes closed
when it dies or the sweep ends, so a long-lived parent (the serve
daemon) leaks neither zombies nor file descriptors.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import pickle
import queue
import shlex
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from contextlib import suppress
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

from ...obs import metrics as obs_metrics
from ...obs import tracing as obs_tracing
from .. import kernels, trace_cache
from ..cells import CellOutcome
from ..worker import worker_main
from .base import SweepContext, merge_worker_obs, record_cell_span

#: Seconds close() waits for a worker to exit after a shutdown request
#: before killing it.
SHUTDOWN_GRACE = 2.0


def worker_command(endpoint: str) -> List[str]:
    """The argv that launches one fleet worker for ``endpoint``."""
    if endpoint == "local":
        return [sys.executable, "-m", "repro.cli", "worker"]
    if any(ch.isspace() for ch in endpoint):
        return shlex.split(endpoint)
    return [
        "ssh", "-o", "BatchMode=yes", endpoint,
        "python3", "-m", "repro.cli", "worker",
    ]


def _worker_env() -> Dict[str, str]:
    """The subprocess environment, with this repro importable.

    The parent found ``repro`` somehow; a ``local`` worker launched as
    ``python -m repro.cli`` must find the same one even when the parent
    was started from a different working directory.
    """
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[3])
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + (os.pathsep + existing if existing else "")
        )
    return env


# Worker start-up and pipe teardown hold _SPAWN_LOCK, so _PARENT_FDS
# always lists exactly the parent-side pipe ends of running workers and
# no fork ever inherits another worker's child-side end (which would
# hide that worker's EOF from its reader).
_SPAWN_LOCK = threading.Lock()
_PARENT_FDS: Set[int] = set()


class _ForkedWorker:
    """A :class:`subprocess.Popen`-like handle on a forked ``local`` worker.

    The child closes every other worker's parent-side pipe ends, drops
    the tracer and metrics registry it inherited (another thread may
    have held their locks at the fork) and any profile hook the forking
    thread had (``REPRO_PROFILE=1`` profiles the parent's run, not its
    workers), serves :func:`worker_main` on its own pipe pair and
    leaves via ``_exit``.
    """

    def __init__(self) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                # The forking thread holds _SPAWN_LOCK: this copy of
                # _PARENT_FDS is complete.  An fd is already closed if its
                # object died with a stale thread.
                for fd in (request_w, reply_r, *_PARENT_FDS):
                    with suppress(OSError):
                        os.close(fd)
                obs_tracing.uninstall_tracer()
                sys.setprofile(None)
                obs_metrics.reset_registry()
                with open(request_r, encoding="utf-8") as stdin, open(
                    reply_w, "w", encoding="utf-8"
                ) as stdout:
                    code = worker_main(stdin, stdout)
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(reply_w)
        self.stdin = open(request_w, "w", encoding="utf-8")
        self.stdout = open(reply_r, encoding="utf-8")
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # reaped elsewhere; status is lost
                pid, status = self.pid, 0
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: float = float("inf")) -> int:
        deadline, delay = time.monotonic() + timeout, 0.0005
        while self.poll() is None:
            if time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"worker {self.pid}", timeout)
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
        return self.returncode

    def kill(self) -> None:
        if self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)


def _forks(endpoint: str) -> bool:
    """Whether ``endpoint``'s worker is forked from this process:
    ``local`` where the platform's default multiprocessing start method
    is ``fork`` (as a process pool would); everything else execs
    :func:`worker_command`."""
    start_method = (
        multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0]
    )
    return endpoint == "local" and start_method == "fork"


def _start_worker(endpoint: str):
    """Start one worker, forked or exec'd as :func:`_forks` says."""
    with _SPAWN_LOCK:
        if _forks(endpoint):
            process = _ForkedWorker()
        else:
            process = subprocess.Popen(
                worker_command(endpoint),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=None,  # workers share the parent's stderr
                text=True,
                env=_worker_env(),
            )
        _PARENT_FDS.update((process.stdin.fileno(), process.stdout.fileno()))
    return process


# Live-worker registry: serve's /healthz and /metrics report how many
# fleet workers this process currently has running, across all sweeps.
_LIVE_LOCK = threading.Lock()
_LIVE_WORKERS: "Set[FleetWorker]" = set()


def live_workers() -> int:
    """Fleet workers currently alive in this process."""
    with _LIVE_LOCK:
        return len(_LIVE_WORKERS)


def _track(worker: "FleetWorker", alive: bool) -> None:
    with _LIVE_LOCK:
        if alive:
            _LIVE_WORKERS.add(worker)
        else:
            _LIVE_WORKERS.discard(worker)
        count = len(_LIVE_WORKERS)
    obs_metrics.gauge("fleet.workers.live", count)


class FleetWorker:
    """One worker subprocess plus its reader thread.

    The reader pushes ``(worker, line)`` events onto the fleet's queue
    and ``(worker, None)`` at EOF, so the scheduler consumes results and
    deaths from a single stream.
    """

    def __init__(
        self, slot: int, endpoint: str, events: "queue.Queue"
    ) -> None:
        self.slot = slot
        self.endpoint = endpoint
        self.id = f"{endpoint}#{slot}"
        self.in_flight: Optional[int] = None
        self.dispatched_at = 0.0
        self.ready = False
        self.retired = False
        self.process = _start_worker(endpoint)
        self._events = events
        self._reader = threading.Thread(
            target=self._read, name=f"fleet-reader-{self.id}", daemon=True
        )
        self._reader.start()
        _track(self, True)

    def _read(self) -> None:
        try:
            for line in self.process.stdout:
                self._events.put((self, line))
        except Exception:  # pragma: no cover - pipe teardown races
            pass
        self._events.put((self, None))

    def send(self, request: dict) -> bool:
        try:
            self.process.stdin.write(json.dumps(request) + "\n")
            self.process.stdin.flush()
        except (OSError, ValueError):
            return False  # dying worker: its EOF event carries the cleanup
        return True

    def stop(self, grace: float = SHUTDOWN_GRACE) -> Optional[int]:
        """Reap the worker, killing it if it has not exited within
        ``grace`` seconds, then close this side of its pipes; returns
        its exit code.

        Idempotent.  A long-lived parent (the serve daemon) runs many
        sweeps, and an unreaped worker would leave a zombie and two
        descriptors behind per sweep.
        """
        try:
            self.process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            with suppress(OSError):
                self.process.kill()
            self.process.wait()
        self._reader.join(SHUTDOWN_GRACE)  # its EOF follows the exit
        streams = [self.process.stdin]
        if not self._reader.is_alive():
            streams.append(self.process.stdout)
        with _SPAWN_LOCK:
            for stream in streams:
                if not stream.closed:
                    _PARENT_FDS.discard(stream.fileno())
                    with suppress(OSError):
                        stream.close()
        return self.process.returncode

    def describe(self) -> str:
        return f"{self.id} (pid {self.process.pid})"


class FleetBackend:
    """One sweep's fleet: :meth:`submit_cells` starts the workers and
    yields each resolved cell; :meth:`close` shuts them down (the
    orchestrator always calls it)."""

    def __init__(self) -> None:
        self._workers: List[FleetWorker] = []
        self._events: "queue.Queue" = queue.Queue()

    # -- scheduling -----------------------------------------------------------

    def submit_cells(
        self, pending: Sequence[int], ctx: SweepContext
    ) -> Iterator[CellOutcome]:
        endpoints = list(ctx.fleet_hosts) or ["local"] * min(
            ctx.workers, len(pending)
        )
        if any(_forks(endpoint) for endpoint in endpoints):
            # Forked workers and their respawns inherit the built traces
            # and the loaded kernel library.
            trace_cache.prebuild(ctx.cells[index][3] for index in pending)
            kernels.library()
        for slot, endpoint in enumerate(endpoints):
            self._spawn(slot, endpoint)
        ctx.workers = len(endpoints)

        todo = deque(pending)
        unresolved = set(pending)
        crashes: Dict[int, int] = {}

        while unresolved:
            # Keep every live worker busy (one cell in flight each).  A
            # free worker must drain past dispatch failures — an
            # unpicklable payload resolves its cell immediately without
            # occupying the worker, and stopping at the first one would
            # leave the loop blocked on an event no worker will send.
            for worker in self._alive():
                while worker.in_flight is None and todo:
                    index = todo.popleft()
                    if not self._dispatch(worker, index, ctx):
                        # Unpicklable cell payload: deterministic, fail it.
                        outcome = ctx.outcomes[index]
                        yield outcome
                        unresolved.discard(index)
            if not unresolved:
                break  # every remaining cell failed at dispatch
            if not self._alive():
                for index in sorted(unresolved):
                    outcome = ctx.outcomes[index]
                    ctx.fail(outcome, (
                        f"BrokenFleetError: no live fleet workers remain "
                        f"({len(self._workers)} retired) — cell was never "
                        f"completed"
                    ))
                    record_cell_span(outcome, fleet=True)
                    yield outcome
                unresolved.clear()
                break

            event = self._next_event(ctx)
            if event is None:
                # Per-cell timeout expired for at least one in-flight cell.
                for worker in self._expired(ctx):
                    index = worker.in_flight
                    worker.in_flight = None
                    worker.retired = True
                    worker.stop(grace=0.0)
                    _track(worker, False)
                    outcome = ctx.outcomes[index]
                    outcome.attempts += 1
                    outcome.worker = worker.id
                    ctx.fail(outcome, (
                        f"TimeoutError: cell exceeded the {ctx.timeout}s "
                        f"per-cell timeout (worker terminated)"
                    ))
                    record_cell_span(outcome, fleet=True)
                    yield outcome
                    unresolved.discard(index)
                    self._respawn(worker, ctx)
                continue

            worker, line = event
            if worker.retired:
                continue  # stale event from a deliberately killed worker
            if line is None:
                yield from self._worker_died(worker, todo, unresolved, crashes, ctx)
                continue
            message = self._parse(line)
            if message is None:
                continue
            kind = message.get("event")
            if kind == "ready":
                worker.ready = True
            elif kind == "result":
                index = worker.in_flight
                if index is None or message.get("id") != index:
                    continue  # response to a cell already timed out/requeued
                worker.in_flight = None
                outcome = ctx.outcomes[index]
                outcome.attempts += 1
                outcome.worker = worker.id
                try:
                    seconds = float(message.get("seconds", 0.0))
                    metrics = _reply_metrics(message) if message.get("ok") else None
                except (TypeError, ValueError, OverflowError) as exc:
                    obs_metrics.counter("fleet.protocol_errors")
                    ctx.fail(outcome, (
                        f"BrokenFleetProtocol: fleet worker "
                        f"{worker.describe()} sent a malformed result: {exc}"
                    ))
                else:
                    if metrics is not None:
                        ctx.record_success(outcome, metrics, seconds)
                    else:
                        # Captured worker-side: deterministic, not retried.
                        outcome.seconds = seconds
                        ctx.fail(outcome, str(message.get("error")))
                cell_span = record_cell_span(outcome, fleet=True)
                obs_payload = message.get("obs")
                if obs_payload is not None:
                    merge_worker_obs(outcome, cell_span, obs_payload)
                yield outcome
                unresolved.discard(index)
            # "pong" and "error" events need no scheduling action.

    # -- helpers --------------------------------------------------------------

    def _alive(self) -> List[FleetWorker]:
        return [worker for worker in self._workers if not worker.retired]

    def _spawn(self, slot: int, endpoint: str) -> Optional[FleetWorker]:
        try:
            worker = FleetWorker(slot, endpoint, self._events)
        except OSError as exc:
            print(
                f"[fleet] failed to launch worker {endpoint}#{slot}: {exc}",
                file=sys.stderr,
            )
            obs_metrics.counter("fleet.workers.spawn_failures")
            return None
        self._workers.append(worker)
        obs_metrics.counter("fleet.workers.spawned")
        return worker

    def _respawn(self, dead: FleetWorker, ctx: SweepContext) -> None:
        """Replace a worker that died after proving itself.

        A worker that never completed its ``ready`` handshake is not
        replaced: an unreachable SSH host or a broken command template
        would otherwise respawn-loop for the whole sweep.
        """
        if not dead.ready:
            return
        replacement = self._spawn(dead.slot, dead.endpoint)
        if replacement is not None:
            ctx.pool_restarts += 1
            obs_metrics.counter("fleet.workers.respawned")

    def _worker_died(
        self,
        worker: FleetWorker,
        todo: "deque",
        unresolved: set,
        crashes: Dict[int, int],
        ctx: SweepContext,
    ) -> Iterator[CellOutcome]:
        worker.retired = True
        _track(worker, False)
        obs_metrics.counter("fleet.workers.retired")
        exit_code = worker.stop()
        index = worker.in_flight
        worker.in_flight = None
        if index is not None:
            crashes[index] = crashes.get(index, 0) + 1
            outcome = ctx.outcomes[index]
            outcome.attempts += 1
            if crashes[index] > ctx.pool_retries:
                outcome.worker = worker.id
                ctx.fail(outcome, (
                    f"BrokenFleetWorker: worker process died while executing "
                    f"this cell (fleet worker {worker.describe()}, exit code "
                    f"{exit_code})"
                ))
                record_cell_span(outcome, fleet=True)
                yield outcome
                unresolved.discard(index)
            else:
                todo.appendleft(index)  # re-dispatch to a surviving worker
        if unresolved:
            self._respawn(worker, ctx)

    def _dispatch(
        self, worker: FleetWorker, index: int, ctx: SweepContext
    ) -> bool:
        _, factory, parameter, trace = ctx.cells[index]
        outcome = ctx.outcomes[index]
        try:
            payload = base64.b64encode(
                pickle.dumps((factory, parameter, trace, ctx.evaluator))
            ).decode("ascii")
        except Exception as exc:
            outcome.attempts += 1
            ctx.fail(outcome, f"{type(exc).__name__}: {exc}")
            record_cell_span(outcome, fleet=True)
            return False
        worker.in_flight = index
        worker.dispatched_at = time.monotonic()
        request = {
            "op": "cell",
            "id": index,
            "engine": ctx.engine,
            "payload": payload,
        }
        if ctx.obs_ctx is not None:
            request["obs"] = ctx.obs_ctx
        worker.send(request)
        # A send failure surfaces as the worker's EOF event; the cell is
        # re-dispatched there.
        return True

    def _next_event(self, ctx: SweepContext):
        """The next worker event, or None when a per-cell timeout expired."""
        if ctx.timeout is None:
            return self._events.get()
        while True:
            in_flight = [w for w in self._alive() if w.in_flight is not None]
            if not in_flight:
                return self._events.get()
            now = time.monotonic()
            deadline = min(
                w.dispatched_at + ctx.timeout for w in in_flight
            )
            if deadline <= now:
                if self._expired(ctx):
                    return None
                continue
            try:
                return self._events.get(timeout=deadline - now)
            except queue.Empty:
                if self._expired(ctx):
                    return None

    def _expired(self, ctx: SweepContext) -> List[FleetWorker]:
        if ctx.timeout is None:
            return []
        now = time.monotonic()
        return [
            worker
            for worker in self._alive()
            if worker.in_flight is not None
            and now - worker.dispatched_at > ctx.timeout
        ]

    def close(self) -> None:
        for worker in self._workers:
            if not worker.retired:
                worker.send({"op": "shutdown"})
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for worker in self._workers:
            worker.stop(grace=max(0.0, deadline - time.monotonic()))
            if not worker.retired:
                worker.retired = True
                _track(worker, False)
        self._workers.clear()

    def _parse(self, line: str) -> Optional[dict]:
        line = line.strip()
        if not line:
            return None
        try:
            message = json.loads(line)
        except ValueError:
            obs_metrics.counter("fleet.protocol_errors")
            return None
        if not isinstance(message, dict):
            obs_metrics.counter("fleet.protocol_errors")
            return None
        return message


def _reply_metrics(message: dict) -> Dict[str, float]:
    """The metric dict of an ``ok`` result, validated as it is converted."""
    metrics = message.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise TypeError(f"metrics must be a non-empty object, got {metrics!r}")
    return {str(key): float(value) for key, value in metrics.items()}
