"""One benchmark round in a fresh process, or the serve daemon.

``python child.py grid CONFIG`` runs a list of experiment specs through
``run_spec`` + ``render_spec`` and writes the round's record to the
config's ``out`` path.  ``python child.py serve CONFIG`` runs a
``ResultServer`` over a fresh store until SIGTERM, then writes its spans.
Both are started by ``run.py``; the trace scale arrives as
``REPRO_TRACE_SCALE`` and ``src/`` through ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import oracle
import probe
import spans


def run_grid(config: dict) -> dict:
    from repro.experiments import frontend, get_spec, grid_cells
    from repro.experiments import spec as spec_mod
    from repro.perf import parallel
    from repro.perf.trace_cache import as_trace

    # Specs run in the CLI's presentation order, as a user runs them.  The
    # order is not seeded: peak resident memory depends on it (131 vs 160 MB
    # for the registry at scale 0.02), which would read as run-to-run noise.
    if config["specs"] == ["registry"]:
        specs = frontend.ordered_specs()
    else:
        specs = [get_spec(spec_id) for spec_id in config["specs"]]
    if config["pregen"]:
        # Trace generation is set-up here: the timed phase sees warm traces.
        for spec in specs:
            for cell in grid_cells(spec)[0]:
                as_trace(cell[3])
    recorder = spans.Recorder() if config["trace"] else None
    if recorder is not None:
        spans.install(recorder, worker_log=config["worker_log"])

    cell_seconds: list = []
    refs = [0]

    def observe(_telemetry, outcome) -> None:
        refs[0] += outcome.identity.trace_refs
        if not outcome.cached:
            cell_seconds.append(outcome.seconds)

    setup_end = time.monotonic()
    before = probe.probe()
    results = {}
    ready = time.monotonic()
    root = recorder.span(spans.ROOT) if recorder is not None else nullcontext()
    with parallel.outcome_observer(observe), root:
        for spec in specs:
            results[spec.id] = _run_one(spec_mod, spec, config["workers"])
    end = time.monotonic()
    after = probe.probe()

    encoded = {spec_id: oracle.encode(result) for spec_id, result in results.items()}
    record = {
        "setup_end": setup_end,
        "probes": [before, after],
        "wall_s": end - ready,
        "cell_seconds": cell_seconds,
        "sim_refs": refs[0],
        "specs": len(specs),
    }
    if config["expected"] is None:
        record["encoded"] = encoded
    else:
        expected = oracle.load(Path(config["expected"]))
        record["mismatches"] = []
        for spec_id, actual in encoded.items():
            if spec_id not in expected:
                record["mismatches"].append(f"{spec_id}: no expected result")
                continue
            found = oracle.first_difference(expected[spec_id], actual)
            if found is not None:
                record["mismatches"].append(f"{spec_id}: {found}")
    if recorder is not None:
        record["spans"] = recorder.spans
    return record


def _run_one(spec_mod, spec, workers: int) -> object:
    # Looked up on the module on every call, so traced rounds see the wrappers.
    result = spec_mod.run_spec(spec, engine="fast", workers=workers)
    spec_mod.render_spec(spec, result)
    return result


def serve(config: dict) -> None:
    from repro.serve import ResultServer
    from repro.store import ResultStore

    recorder = spans.Recorder() if config["trace"] else None
    if recorder is not None:
        spans.install_serve(recorder)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    server = ResultServer(
        ResultStore(config["store"]), host="127.0.0.1", port=0,
        default_engine="fast",
    )
    server.start()
    try:
        Path(config["port_file"]).write_text(str(server.port), encoding="utf-8")
        while not stop.wait(0.2):
            pass
    finally:
        server.close()
    if recorder is not None:
        Path(config["out"]).write_text(json.dumps(recorder.spans), encoding="utf-8")


def main(argv: list) -> int:
    mode, config_path = argv
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    if mode == "grid":
        record = run_grid(config)
        Path(config["out"]).write_text(json.dumps(record), encoding="utf-8")
    elif mode == "serve":
        serve(config)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
