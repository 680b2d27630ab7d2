"""The ``repro worker`` protocol loop every fleet worker runs.

A fleet worker is a long-lived process — forked locally, or launched
as ``python -m repro.cli worker`` (possibly via ``ssh host``) — that
executes sweep cells one at a time, speaking newline-delimited JSON
over a pipe pair (stdin/stdout when exec'd):

Requests (one JSON object per line, parent → worker)::

    {"op": "ping", "id": 7}
    {"op": "cell", "id": 8, "engine": "fast", "payload": "<base64 pickle>",
     "obs": {"version": 1, "trace_id": "...", "parent_span_id": 3}}
    {"op": "shutdown"}

``payload`` is a base64-encoded pickle of ``(factory, parameter,
trace, evaluator)``, so cells must be picklable: module-level
factories, trace recipes instead of raw arrays.

Responses (worker → parent)::

    {"event": "ready", "pid": 1234, "host": "..."}       # once, at start
    {"event": "pong", "id": 7}
    {"event": "result", "id": 8, "ok": true,
     "metrics": {"miss_rate": 0.0123}, "seconds": 0.45}
    {"event": "result", "id": 8, "ok": false,
     "error": "RuntimeError: poisoned parameter 2048", "seconds": 0.01}

Deterministic cell failures (a factory raise, a bad geometry) are
captured worker-side into ``ok: false`` results — only a worker *death*
(missing response + EOF) is a crash the parent retries.  stdout is
reserved for the protocol; anything the simulation says goes to stderr.

When the request carries an ``obs`` trace-propagation context the cell
runs under a :class:`repro.obs.distributed.WorkerCapture`, and the
result event (success *and* failure) gains an ``obs`` key with the
captured spans and metric deltas for the parent to merge.  The reply's
``seconds`` is timed inside the ``cell_exec`` span, the origin of the
shipped span starts.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import socket
import sys
import time
from typing import IO, Optional

from repro.obs import tracing as obs_tracing
from repro.obs.distributed import WorkerCapture

from .cells import evaluate_cell


def _emit(stream: IO[str], payload: dict) -> None:
    stream.write(json.dumps(payload, sort_keys=True) + "\n")
    stream.flush()


def _run_cell(request: dict) -> dict:
    obs_ctx = request.get("obs")
    capture = WorkerCapture(obs_ctx) if isinstance(obs_ctx, dict) else None
    if capture is not None:
        capture.__enter__()
    result: dict = {"event": "result", "id": request.get("id"), "ok": True}
    # Timing ``seconds`` inside cell_exec (decode included) makes the
    # parent's back-dated cell span and the shipped cell_exec one
    # measurement: a pause before the span opens lands in neither, and
    # a GC or scheduler pause between sub-phases lands in both.
    with obs_tracing.span("cell_exec"):
        started = time.perf_counter()
        try:
            raw = base64.b64decode(request["payload"].encode("ascii"))
            factory, parameter, trace, evaluator = pickle.loads(raw)
            result["metrics"] = evaluate_cell(
                factory, parameter, trace, request.get("engine"), evaluator
            )
        except Exception as exc:
            result.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        result["seconds"] = time.perf_counter() - started
    if capture is not None:
        capture.__exit__(None, None, None)
        result["obs"] = capture.payload()
    return result


def worker_main(
    stdin: Optional[IO[str]] = None, stdout: Optional[IO[str]] = None
) -> int:
    """Serve cell requests until EOF or a ``shutdown`` op; returns 0.

    Runs one request at a time (the parent keeps at most one cell in
    flight per worker, so a dead worker forfeits exactly one cell).
    Malformed lines are answered with an ``error`` event rather than
    killing the worker — a protocol hiccup must not cost the fleet a
    member mid-sweep.
    """
    in_stream = sys.stdin if stdin is None else stdin
    out_stream = sys.stdout if stdout is None else stdout
    _emit(out_stream, {
        "event": "ready",
        "pid": os.getpid(),
        "host": socket.gethostname(),
    })
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            request = None
        if not isinstance(request, dict):
            _emit(out_stream, {
                "event": "error",
                "error": f"malformed request line: {line[:120]!r}",
            })
            continue
        op = request.get("op")
        if op == "shutdown":
            break
        if op == "ping":
            _emit(out_stream, {"event": "pong", "id": request.get("id")})
        elif op == "cell":
            _emit(out_stream, _run_cell(request))
        else:
            _emit(out_stream, {
                "event": "error",
                "id": request.get("id"),
                "error": f"unknown op {op!r}",
            })
    return 0
