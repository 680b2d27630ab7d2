"""The result-store daemon: spec registry + content-addressed cache over HTTP.

Economics first: a production figure service sees the same experiment
specs over and over, and every sweep cell is already keyed by a sha256
content hash of its full identity.  So the daemon's job is to make the
repeat path nearly free — ``POST /run`` computes each cell's key,
answers everything the store already holds without touching a
simulator, and enqueues only the missing cells onto the existing
resilient sweep runner (:func:`repro.perf.parallel.run_labeled_cells`).
New results land in the store's primary journal mid-run, so even a
crashed request leaves its finished cells servable.

Protocol (all JSON; ``POST /run`` streams newline-delimited events):

* ``GET /specs`` — the experiment registry (id, title, kind,
  fingerprint digest, hidden flag);
* ``GET /spec/<id>`` — one spec plus its current cell/cached counts
  under the server's engine; carries an ``ETag`` (spec fingerprint +
  store generation.revision) and answers ``If-None-Match`` repeats
  with ``304 Not Modified`` before any cell planning happens;
* ``GET /cell/<key>`` — the stored journal entry for a content key,
  ``ETag``-tagged by the entry's own content hash (``304`` on repeats);
* ``GET /healthz`` — liveness + store statistics and the live
  fleet-worker count;
* ``GET /metrics`` — the process obs metrics registry as JSON
  (``serve.*`` and ``fleet.*`` series included) plus the live
  fleet-worker count;
* ``POST /run`` — body ``{"spec": id, "workers"?: n}``; other fields
  are ignored, and every run uses the daemon's engine.  The response
  is ``application/x-ndjson``: one ``plan`` event, a
  ``cell`` event per newly resolved cell, and a final ``done`` event
  carrying every cell's metrics, the collected result, the rendered
  report, and a provenance run manifest (also written under
  ``<store>/runs/<run_id>/`` when the run computed a cell).

Consistency model: runs of the same spec id serialise on a per-spec
lock (concurrent identical requests do the work once and serve the
rest from the store); different specs run concurrently, and the store
index is guarded for the daemon's handler threads.  Cell keys embed
the trace budget, so a ``REPRO_TRACE_SCALE`` change is a different key
space, never a stale answer.

A run that fails on a cell streams an ``error`` event naming it.  Only
the cells that succeeded reach the store, so the next request
simulates the failed ones again.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from .. import env
from ..experiments.spec import (
    ExperimentSpec,
    all_specs,
    collect_result,
    fingerprint_digest,
    get_spec,
    grid_cells,
    grid_from_outcomes,
    remember_result,
    render_spec,
)
from ..obs import build_manifest, get_logger, write_manifest
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from ..perf import engine as engine_mod
from ..perf.backends import live_workers
from ..perf.cells import content_key
from ..perf.parallel import (
    CellIdentity,
    CellOutcome,
    LabeledCell,
    SweepCellError,
    outcome_observer,
    run_labeled_cells,
)
from ..store import ResultStore

SERVE_VERSION = 1

_log = get_logger("serve")


class ServeUnsupportedError(ValueError):
    """The spec cannot be served cell-by-cell (custom ``compute`` shape)."""


# -- run planning --------------------------------------------------------------


@dataclass
class GridPlan:
    """One grid spec's cells with their content identities and store
    keys computed once."""

    spec: ExperimentSpec
    engine: str
    cells: "List[LabeledCell]"
    traces_by_parameter: dict
    identities: "List[CellIdentity]"
    #: Per-cell store keys (None for unjournalable cells).
    keys: "List[Optional[str]]"


def expand_grid_specs(
    spec: ExperimentSpec, _seen: "Optional[Dict[str, ExperimentSpec]]" = None
) -> "List[ExperimentSpec]":
    """The grid specs ``spec`` depends on, dependency order, each once.

    A grid spec is its own single dependency; a derived spec expands
    its bases recursively.  Custom specs raise
    :class:`ServeUnsupportedError` — an arbitrary ``compute`` thunk has
    no cell decomposition to key into the store.
    """
    if _seen is None:
        _seen = {}
    if spec.kind == "custom":
        raise ServeUnsupportedError(
            f"spec {spec.id!r} is a custom computation with no grid cells; "
            f"run it locally with run_spec()"
        )
    if spec.kind == "grid":
        if spec.id not in _seen:
            _seen[spec.id] = spec
        return list(_seen.values())
    for base in spec.base:
        expand_grid_specs(get_spec(base), _seen)
    return list(_seen.values())


def plan_grid(
    spec: ExperimentSpec, engine: str
) -> GridPlan:
    """Enumerate one grid spec's cells and their content identities.

    Uses exactly the identity scheme the sweep runner journals under
    (``digest=True`` and the spec's evaluator), so the plan's keys are
    the store's keys.
    """
    from ..perf.parallel import identity_for

    cells, traces_by_parameter = grid_cells(spec)
    identities = [
        identity_for(
            label, factory, parameter, trace, engine,
            digest=True, evaluator=spec.evaluator,
        )
        for label, factory, parameter, trace in cells
    ]
    return GridPlan(
        spec=spec,
        engine=engine,
        cells=cells,
        traces_by_parameter=traces_by_parameter,
        identities=identities,
        keys=[
            identity.key() if identity.journalable else None
            for identity in identities
        ],
    )


def _outcomes_from_store(plan: GridPlan, store: ResultStore) -> "List[CellOutcome]":
    """Envelope every cell straight from the store (the all-cached path).

    No sweep runner, no trace generation, no simulator: one index
    lookup per cell.  Callers must have checked that every key is
    present; a race that lost an entry surfaces as the metrics-less
    envelope failing validation in :func:`grid_from_outcomes`.
    """
    outcomes: "List[CellOutcome]" = []
    for identity, key in zip(plan.identities, plan.keys):
        metrics = store.metrics(key) if key is not None else None
        outcome = CellOutcome(identity=identity, cached=True)
        if metrics is None:
            outcome.error = f"store entry for {identity.describe()} disappeared"
        else:
            outcome.metrics = metrics
            outcome.miss_rate = metrics.get("miss_rate")
        outcomes.append(outcome)
    return outcomes


def _spec_value(spec: ExperimentSpec, grids: "Dict[str, object]") -> object:
    """Fold grid results into the spec's final value (derives recursively).

    Every value folded here is recorded in ``run_spec``'s result cache,
    so rendering it (Figure 12 reads its base) and any later run of the
    same specs in this process are cache hits, not simulations.
    """
    if spec.kind == "grid":
        value = collect_result(spec, grids[spec.id])
    else:
        bases = [_spec_value(get_spec(base), grids) for base in spec.base]
        value = spec.derive(*bases)  # type: ignore[misc]
    return remember_result(spec, value)


def _result_payload(result: object) -> "Optional[dict]":
    """A JSON form of a collected result, when one exists."""
    from ..analysis import serialize
    from ..analysis.sweep import SweepResult
    from ..caches.stats import CacheStats

    try:
        from ..hierarchy import TwoLevelResult
    except ImportError:  # pragma: no cover - hierarchy is always present
        TwoLevelResult = ()  # type: ignore[assignment]
    if isinstance(result, SweepResult):
        return serialize.sweep_to_dict(result)
    if isinstance(result, CacheStats):
        return serialize.stats_to_dict(result)
    if isinstance(result, TwoLevelResult):
        return serialize.two_level_to_dict(result)
    return None


def _cell_payload(
    identity: CellIdentity, key: "Optional[str]", outcome: CellOutcome
) -> dict:
    return {
        "key": key,
        "label": identity.label,
        "parameter": repr(identity.parameter),
        "trace": identity.trace_name,
        "trace_kind": identity.trace_kind,
        "trace_refs": identity.trace_refs,
        "engine": identity.engine,
        "cached": outcome.cached,
        "metrics": outcome.metrics,
    }


# -- run execution -------------------------------------------------------------

Emit = Callable[[dict], None]


def execute_run(
    store: ResultStore,
    spec: ExperimentSpec,
    emit: Emit,
    engine: "Optional[str]" = None,
    workers: "Optional[int]" = None,
) -> dict:
    """Serve one run request: plan, answer from store, compute the rest.

    Emits a ``plan`` event, one ``cell`` event per newly resolved cell
    (none on the all-cached path), and returns the ``done`` event
    payload (the caller emits it).  Raises
    :class:`~repro.perf.parallel.SweepCellError` if any cell fails (the
    cells that succeeded are already in the store) and
    :class:`ServeUnsupportedError` for custom specs.
    """
    started_at = time.time()
    wall_started = time.perf_counter()
    cpu_started = time.process_time()

    engine = engine_mod.resolve_engine(engine)
    with obs_tracing.span("execute_run", spec=spec.id, engine=engine) as run_span:
        done = _execute_run_inner(
            store, spec, emit, engine, workers,
            started_at, wall_started, cpu_started,
        )
        if run_span is not None:
            manifest = done.get("manifest", {})
            run_span.attrs["run_id"] = done.get("run_id")
            run_span.attrs["cells_computed"] = manifest.get("cells_computed")
    return done


def _execute_run_inner(
    store: ResultStore,
    spec: ExperimentSpec,
    emit: Emit,
    engine: str,
    workers: "Optional[int]",
    started_at: float,
    wall_started: float,
    cpu_started: float,
) -> dict:
    plans = [plan_grid(grid, engine) for grid in expand_grid_specs(spec)]
    store.refresh()
    total = sum(len(plan.cells) for plan in plans)
    missing = [
        sum(1 for key in plan.keys if key is None or key not in store)
        for plan in plans
    ]
    pending = sum(missing)
    emit(
        {
            "event": "plan",
            "spec": spec.id,
            "fingerprint": fingerprint_digest(spec),
            "grids": [plan.spec.id for plan in plans],
            "engine": engine,
            "cells": total,
            "cached": total - pending,
            "pending": pending,
        }
    )

    computed = 0
    grid_results: "Dict[str, object]" = {}
    cell_payloads: "List[dict]" = []
    for plan, plan_missing in zip(plans, missing):
        if plan_missing == 0:
            outcomes = _outcomes_from_store(plan, store)
            obs_metrics.counter("serve.cells.cached", len(outcomes))
        else:
            def _on_outcome(_ctx, outcome: CellOutcome) -> None:
                emit(
                    {
                        "event": "cell",
                        "grid": plan.spec.id,
                        "label": outcome.identity.label,
                        "parameter": repr(outcome.identity.parameter),
                        "trace": outcome.identity.trace_name,
                        "cached": outcome.cached,
                        "ok": outcome.ok,
                        "seconds": round(outcome.seconds, 6),
                        "error": outcome.error,
                    }
                )

            with outcome_observer(_on_outcome):
                outcomes = run_labeled_cells(
                    plan.cells,
                    engine=plan.engine,
                    workers=workers,
                    journal=store,
                    progress=False,
                    evaluator=plan.spec.evaluator,
                )
            failures = [outcome for outcome in outcomes if not outcome.ok]
            if failures:
                raise SweepCellError(failures, len(outcomes))
            fresh = sum(1 for outcome in outcomes if not outcome.cached)
            computed += fresh
            obs_metrics.counter("serve.cells.computed", fresh)
            obs_metrics.counter("serve.cells.cached", len(outcomes) - fresh)
        grid_results[plan.spec.id] = grid_from_outcomes(
            plan.spec, outcomes, plan.traces_by_parameter
        )
        cell_payloads.extend(
            _cell_payload(identity, key, outcome)
            for identity, key, outcome in zip(plan.identities, plan.keys, outcomes)
        )

    result = _spec_value(spec, grid_results)
    report = render_spec(spec, result)
    run_id = f"{spec.id}-{uuid.uuid4().hex[:12]}"
    manifest = build_manifest(
        spec_id=spec.id,
        spec_fingerprint=fingerprint_digest(spec),
        engine=engine,
        workers=workers,
        wall_seconds=time.perf_counter() - wall_started,
        cpu_seconds=time.process_time() - cpu_started,
        started_at=started_at,
        extra={
            "run_id": run_id,
            "served_by": f"repro.serve/{SERVE_VERSION}",
            "cells_total": total,
            "cells_cached": total - computed,
            "cells_computed": computed,
            "store_entries": len(store),
        },
    )
    # A run answered wholly from the store leaves no file: the ``done``
    # event carries its manifest, and a daemon serving repeats would
    # otherwise grow one directory per request.
    manifest_path = (
        write_manifest(store.primary_dir / "runs" / run_id, manifest)
        if computed else None
    )
    _log.info(
        "run %s: %d cells (%d computed) in %.3fs [manifest %s]",
        spec.id, total, computed, manifest["wall_seconds"], manifest_path,
    )
    return {
        "event": "done",
        "spec": spec.id,
        "run_id": run_id,
        "cells": cell_payloads,
        "result": _result_payload(result),
        "report": report,
        "manifest": manifest,
    }


# -- the HTTP layer ------------------------------------------------------------


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ResultServer`."""

    server_version = f"repro-serve/{SERVE_VERSION}"
    protocol_version = "HTTP/1.0"  # stream then close; no chunked framing

    @property
    def app(self) -> "ResultServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        _log.debug("%s %s", self.address_string(), format % args)

    # -- plumbing --------------------------------------------------------------

    def _send_json(
        self, status: int, payload: dict, etag: "Optional[str]" = None
    ) -> None:
        body = _json_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", etag)
        self.end_headers()
        self.wfile.write(body)

    def _send_not_modified(self, etag: str) -> None:
        self.send_response(304)
        self.send_header("ETag", etag)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _etag_matches(self, etag: str) -> bool:
        """Whether the request's ``If-None-Match`` covers ``etag``.

        Accepts a comma-separated candidate list and the ``*`` wildcard;
        ``W/`` weak prefixes compare equal to their strong form (the
        weak comparison is the correct one for a 304).
        """
        raw = self.headers.get("If-None-Match")
        if not raw:
            return False
        candidates = {token.strip() for token in raw.split(",") if token.strip()}
        if "*" in candidates:
            return True
        candidates |= {
            token[2:] for token in candidates if token.startswith("W/")
        }
        return etag in candidates

    def _route(self) -> "Tuple[str, List[str]]":
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        route = "/" + parts[0] if parts else "/"
        return route, parts[1:]

    def _observed(self, handler: "Callable[[List[str]], int]") -> None:
        route, rest = self._route()
        status = 500
        try:
            with obs_tracing.span(
                "serve.request", route=route, method=self.command
            ):
                status = handler(rest)
        except BrokenPipeError:  # client went away mid-response
            status = 499
        except Exception as exc:
            _log.warning("%s %s failed: %s", self.command, self.path, exc)
            try:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass
        finally:
            obs_metrics.counter(
                "serve.requests", route=route, method=self.command,
                status=str(status),
            )

    # -- GET routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._observed(self._get)

    def _get(self, rest: "List[str]") -> int:
        route, _ = self._route()
        if route == "/specs":
            return self._get_specs()
        if route == "/spec" and len(rest) == 1:
            return self._get_spec(rest[0])
        if route == "/cell" and len(rest) == 1:
            return self._get_cell(rest[0])
        if route == "/healthz":
            return self._get_healthz()
        if route == "/metrics":
            return self._get_metrics()
        self._send_json(404, {"error": f"unknown route {self.path!r}"})
        return 404

    def _get_metrics(self) -> int:
        self._send_json(
            200,
            {
                "metrics": obs_metrics.current_registry().export(),
                "fleet_workers": live_workers(),
            },
        )
        return 200

    def _get_specs(self) -> int:
        specs = [
            {
                "id": spec.id,
                "title": spec.title,
                "kind": spec.kind,
                "hidden": spec.hidden,
                "fingerprint": fingerprint_digest(spec),
            }
            for spec in all_specs(include_hidden=True)
        ]
        self._send_json(200, {"specs": specs, "version": SERVE_VERSION})
        return 200

    def _get_spec(self, spec_id: str) -> int:
        try:
            spec = get_spec(spec_id)
        except KeyError:
            self._send_json(404, {"error": f"unknown spec {spec_id!r}"})
            return 404
        # The ETag commits to the spec's content fingerprint and the
        # store's generation.revision token — it changes exactly when
        # the answer could (a recorded cell, a compaction, a registry
        # edit).  Matching it here skips the cell planning below, which
        # is the expensive part of this route.
        self.app.store.refresh()
        etag = f'"{fingerprint_digest(spec)}-{self.app.store.state_token()}"'
        if self._etag_matches(etag):
            self._send_not_modified(etag)
            return 304
        payload: dict = {
            "id": spec.id,
            "title": spec.title,
            "kind": spec.kind,
            "hidden": spec.hidden,
            "fingerprint": fingerprint_digest(spec),
        }
        try:
            grids = expand_grid_specs(spec)
        except ServeUnsupportedError:
            payload["servable"] = False
        else:
            plans = [plan_grid(grid, self.app.default_engine) for grid in grids]
            total = sum(len(plan.cells) for plan in plans)
            cached = sum(
                1
                for plan in plans
                for key in plan.keys
                if key is not None and key in self.app.store
            )
            payload.update(
                servable=True,
                grids=[plan.spec.id for plan in plans],
                engine=self.app.default_engine,
                cells=total,
                cached=cached,
            )
        self._send_json(200, payload, etag=etag)
        return 200

    def _get_cell(self, key: str) -> int:
        self.app.store.refresh()
        entry = self.app.store.get(key)
        if entry is None:
            self._send_json(404, {"error": f"no stored cell for key {key!r}"})
            return 404
        # A cell answer is a pure function of the stored entry, so its
        # content hash is the exact ETag: repeats stay 304 across
        # unrelated store writes and change only if the entry itself is
        # superseded (last-wins replay from a later source).
        etag = f'"{content_key(entry)[:32]}"'
        if self._etag_matches(etag):
            self._send_not_modified(etag)
            return 304
        self._send_json(
            200,
            {"key": key, "entry": entry, "metrics": self.app.store.metrics(key)},
            etag=etag,
        )
        return 200

    def _get_healthz(self) -> int:
        self._send_json(
            200,
            {
                "ok": True,
                "version": SERVE_VERSION,
                "engine": self.app.default_engine,
                "fleet_workers": live_workers(),
                "specs": len(all_specs(include_hidden=True)),
                "generation": self.app.store.generation,
                "store": self.app.store.stats().to_dict(),
            },
        )
        return 200

    # -- POST /run -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        self._observed(self._post)

    def _post(self, rest: "List[str]") -> int:
        route, _ = self._route()
        if route != "/run":
            self._send_json(404, {"error": f"unknown route {self.path!r}"})
            return 404
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # read(-1) would block until the client closes the socket
                raise ValueError(f"Content-Length must be >= 0, got {length}")
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
            if "spec" not in body:
                raise ValueError("request body needs a 'spec' field")
            try:
                spec = get_spec(str(body["spec"]))
            except KeyError as exc:
                raise ValueError(str(exc.args[0])) from None
            workers = body.get("workers")
            if workers is None:
                workers = self.app.default_workers
            elif (
                isinstance(workers, bool)
                or not isinstance(workers, int)
                or workers < 1
            ):
                raise ValueError(
                    f"'workers' must be an integer >= 1, got {workers!r}"
                )
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return 400

        # Stream NDJSON events as the run progresses.  A client that
        # disconnects mid-stream stops receiving, but the run finishes
        # and its results stay in the store for the next request.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        stream_broken = [False]

        def emit(event: dict) -> None:
            if stream_broken[0]:
                return
            try:
                self.wfile.write(_json_bytes(event))
                self.wfile.flush()
            except OSError:
                stream_broken[0] = True

        obs_metrics.counter("serve.runs", spec=spec.id)
        try:
            with self.app.run_lock(spec.id):
                done = execute_run(
                    self.app.store,
                    spec,
                    emit,
                    engine=self.app.default_engine,
                    workers=workers,
                )
        except (ServeUnsupportedError, SweepCellError, ValueError) as exc:
            emit({"event": "error", "error": f"{type(exc).__name__}: {exc}"})
            obs_metrics.counter("serve.run_errors", spec=spec.id)
            return 200
        emit(done)
        return 200


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    app: "ResultServer"


class ResultServer:
    """The serve daemon: a result store bound to an HTTP address.

    ``host``/``port`` default to the ``REPRO_SERVE_HOST``/``PORT``
    knobs; pass ``port=0`` for an OS-assigned ephemeral port (tests).
    ``default_engine`` is the engine every run uses (``None``: ``fast``).
    ``default_workers`` is the worker count server-side runs use when
    the request body names none (``None`` = ``REPRO_WORKERS`` or 1).
    Use as a context manager, or call :meth:`start` /
    :meth:`serve_forever` and :meth:`close` explicitly.
    """

    def __init__(
        self,
        store: ResultStore,
        host: "Optional[str]" = None,
        port: "Optional[int]" = None,
        default_engine: "Optional[str]" = None,
        default_workers: "Optional[int]" = None,
    ) -> None:
        if default_workers is not None and default_workers < 1:
            raise ValueError("default_workers must be at least 1")
        self.store = store
        self.default_engine = engine_mod.resolve_engine(default_engine)
        self.default_workers = default_workers
        self._httpd = _Server(
            (host if host is not None else env.serve_host(),
             port if port is not None else env.serve_port()),
            _Handler,
        )
        self._httpd.app = self
        self._thread: "Optional[threading.Thread]" = None
        self._locks_guard = threading.Lock()
        self._run_locks: "Dict[str, threading.Lock]" = {}

    def run_lock(self, spec_id: str) -> threading.Lock:
        """The per-spec lock serialising concurrent runs of one spec."""
        with self._locks_guard:
            lock = self._run_locks.get(spec_id)
            if lock is None:
                lock = self._run_locks[spec_id] = threading.Lock()
            return lock

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ResultServer":
        """Serve on a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        _log.info("serving result store at %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        _log.info("serving result store at %s", self.url)
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ResultServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
