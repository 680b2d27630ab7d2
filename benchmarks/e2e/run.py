"""End-to-end benchmark: four workloads, checked against committed results.

Usage, from the repository root::

    python benchmarks/e2e/run.py                       # all workloads
    python benchmarks/e2e/run.py --workload serve --rounds 5 --seed 3
    python benchmarks/e2e/run.py --workload registry --seconds 30 --trace 0
    python benchmarks/e2e/run.py --smoke               # ~35 s check
    python benchmarks/e2e/run.py --write-expected      # regenerate the oracle

Every round runs in fresh processes, so caches start cold.  Rounds are
interleaved round-robin across the selected workloads, then (unless
``--trace`` says otherwise) one traced round per workload gives the
per-layer numbers.  Every output is compared with ``expected/``; a
mismatch prints the first differing field and makes the run exit 1.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

import oracle
import probe
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected"
WORK = ROOT / ".e2e_work"

#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

SMOKE_SCALE = 0.02
SMOKE_REQUESTS = 200


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid" (a child process runs specs) or "serve"
    scale: float
    specs: tuple  # spec ids; ("registry",) means every visible spec
    workers: int = 1
    pregen: bool = False
    requests: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("registry", "grid", 0.02, ("registry",)),
        Workload("registry-2w", "grid", 0.02, ("registry",), workers=2),
        Workload("kernel-grid", "grid", 0.25, ("fig04", "fig14", "fig15"), pregen=True),
        Workload(
            "serve", "serve", 0.1, ("fig04", "fig11", "fig13", "ext-hashed"),
            requests=1000,
        ),
    )
}


class BenchError(RuntimeError):
    """A round could not run (as opposed to running and mismatching)."""


# -- processes -----------------------------------------------------------------


def child_env(scale: float) -> dict:
    """The parent's environment without REPRO_* knobs, at ``scale``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_TRACE_SCALE"] = repr(scale)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def tree_memory_bytes(root: int) -> int:
    """Summed proportional set size of ``root`` and all its descendants.

    PSS splits shared pages between the processes mapping them, so the
    pages a forked pool worker shares with its parent count once.
    """
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    total = 0
    pending = [root]
    page = os.sysconf("SC_PAGE_SIZE")
    while pending:
        pid = pending.pop()
        pending.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
                for line in handle:
                    if line.startswith(b"Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except FileNotFoundError:  # kernels before 4.14: fall back to RSS
            try:
                with open(f"/proc/{pid}/statm", "rb") as handle:
                    total += int(handle.read().split()[1]) * page
            except OSError:
                continue
        except OSError:
            continue
    return total


class MemorySampler:
    """Peak summed PSS of a process tree, sampled at 10 Hz."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self.peak = max(self.peak, tree_memory_bytes(self.pid))
            if self._stop.wait(0.1):
                return

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak / 2**20


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


# -- grid rounds ---------------------------------------------------------------


def grid_round(
    workload: Workload, traced: bool, workdir: Path, index: int,
    expected: Optional[Path],
) -> dict:
    out = workdir / f"round-{index}.json"
    config = {
        "specs": list(workload.specs),
        "workers": workload.workers,
        "pregen": workload.pregen,
        "trace": traced,
        "worker_log": str(workdir / f"workers-{index}.log"),
        "expected": str(expected) if expected is not None else None,
        "out": str(out),
    }
    config_path = workdir / f"config-{index}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "grid", str(config_path)],
        env=child_env(workload.scale), cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    sampler = MemorySampler(proc.pid)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload.name} round exceeded {CHILD_TIMEOUT_S}s")
    finally:
        stop_process(proc)
        peak = sampler.stop()
    if proc.returncode != 0:
        raise BenchError(f"{workload.name} round exited with {proc.returncode}")
    record = json.loads(out.read_text(encoding="utf-8"))
    wall = record["wall_s"]
    cells = record["cell_seconds"]
    return {
        "probes": record["probes"],
        "values": {
            "wall_s": wall,
            "setup_s": record["setup_end"] - spawned,
            "sim_refs_per_s": record["sim_refs"] / wall,
            "peak_rss_mb": peak,
            "ops_per_s": len(cells) / wall,
        },
        "latencies_ms": [seconds * 1000.0 for seconds in cells],
        "attempted": record["specs"],
        "failures": record.get("mismatches", []),
        "encoded": record.get("encoded"),
        "spans": record.get("spans"),
    }


# -- serve rounds --------------------------------------------------------------


def http_request(port: int, method: str, path: str, rid: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)
    try:
        headers = {spans.REQUEST_HEADER: rid}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def wait_for_daemon(proc: subprocess.Popen, port_file: Path) -> int:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"serve daemon exited with {proc.returncode}")
        if port_file.exists() and port_file.read_text(encoding="utf-8"):
            port = int(port_file.read_text(encoding="utf-8"))
            try:
                status, _ = http_request(port, "GET", "/healthz", "healthz")
            except OSError:
                status = 0
            if status == 200:
                return port
        time.sleep(0.01)
    raise BenchError("serve daemon did not answer /healthz within 60s")


def run_payload(body: bytes) -> dict:
    """The ``plan`` and ``done`` events of a ``POST /run`` stream."""
    events = [json.loads(line) for line in body.decode("utf-8").splitlines() if line]
    if not events or events[-1].get("event") != "done":
        error = next((e["error"] for e in events if e.get("event") == "error"), None)
        raise ValueError(f"run did not finish: {error or 'no done event'}")
    return {"plan": events[0], "done": events[-1]}


def encode_run(done: dict) -> dict:
    """The oracle form of a finished run: its result and every cell's metrics."""
    return {
        "result": oracle.encode(done["result"]),
        "cells": {
            f"{c['label']}|{c['parameter']}|{c['trace']}": oracle.encode(c["metrics"])
            for c in done["cells"]
        },
    }


def serve_round(
    workload: Workload, seed: int, traced: bool, workdir: Path, index: int,
    expected: Optional[Path], requests: int,
) -> dict:
    config = {
        "store": str(workdir / f"store-{index}"),
        "port_file": str(workdir / f"port-{index}"),
        "trace": traced,
        "out": str(workdir / f"daemon-spans-{index}.json"),
    }
    config_path = workdir / f"config-{index}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rng = random.Random(seed)
    cold_specs = list(workload.specs)
    rng.shuffle(cold_specs)
    recorder = spans.Recorder()

    # Probed while no daemon or sampler runs, so only the host is timed.
    before = probe.probe()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "serve", str(config_path)],
        env=child_env(workload.scale), cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    sampler = MemorySampler(proc.pid)
    try:
        port = wait_for_daemon(proc, Path(config["port_file"]))
        setup = time.monotonic() - spawned

        def send(rid: str, method: str, path: str, body=None) -> tuple:
            started = time.monotonic()
            with recorder.span("serve.client", rid=rid) if traced else nullcontext():
                try:
                    status, payload = http_request(port, method, path, rid, body)
                except (OSError, http.client.HTTPException) as exc:
                    status, payload = 0, f"{type(exc).__name__}: {exc}".encode()
            return status, payload, time.monotonic() - started

        cold_started = time.monotonic()
        with recorder.span(spans.ROOT) if traced else nullcontext():
            cold = [
                send(f"cold-{spec_id}", "POST", "/run", {"spec": spec_id})
                for spec_id in cold_specs
            ]
        cold_s = time.monotonic() - cold_started

        failures: List[str] = []
        runs: Dict[str, dict] = {}
        cell_metrics: Dict[str, dict] = {}
        sim_refs = 0
        for spec_id, (status, body, _) in zip(cold_specs, cold):
            try:
                if status != 200:
                    raise ValueError(f"HTTP {status}: {body[:200]!r}")
                done = run_payload(body)["done"]
            except ValueError as exc:
                failures.append(f"cold POST /run {spec_id}: {exc}")
                continue
            runs[spec_id] = encode_run(done)
            for cell in done["cells"]:
                if cell["key"] is not None:
                    cell_metrics[cell["key"]] = cell["metrics"]
                if not cell["cached"]:
                    sim_refs += cell["trace_refs"]

        # Exact shares, seeded order and targets: the mix's cost does not
        # drift with the seed.
        keys = sorted(cell_metrics)
        kinds = ["spec"] * (requests // 2) + ["run"] * (requests * 3 // 10)
        kinds += ["cell" if keys else "spec"] * (requests - len(kinds))
        rng.shuffle(kinds)
        mix = []
        for kind in kinds:
            if kind == "spec":
                mix.append(("GET", f"/spec/{rng.choice(cold_specs)}", None))
            elif kind == "run":
                mix.append(("POST", "/run", {"spec": rng.choice(cold_specs)}))
            else:
                mix.append(("GET", f"/cell/{rng.choice(keys)}", None))
        # One closed-loop client.  The daemon is bound by the interpreter
        # lock: on 2 vCPUs a second client raised throughput only ~10%
        # while its requests queued behind each other's handler threads,
        # which doubled p50 and made it flip between ~5 and ~7 ms from run
        # to run.
        warm_started = time.monotonic()
        with recorder.span(spans.ROOT) if traced else nullcontext():
            answers = [
                send(f"warm-{number}", *request) for number, request in enumerate(mix)
            ]
        warm_s = time.monotonic() - warm_started
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        stop_process(proc)
        peak = sampler.stop()
    if proc.returncode not in (0, -signal.SIGTERM):
        raise BenchError(f"serve daemon exited with {proc.returncode}")
    after = probe.probe()

    for (method, path, body), (status, payload, _) in zip(mix, answers):
        problem = check_warm(method, path, status, payload, runs, cell_metrics)
        if problem is not None:
            failures.append(f"{method} {path}: {problem}")
    if expected is not None:
        oracle_runs = oracle.load(expected)
        for spec_id, run in runs.items():
            found = (
                oracle.first_difference(oracle_runs[spec_id], run)
                if spec_id in oracle_runs
                else "no expected result"
            )
            if found is not None:
                failures.append(f"{spec_id}: {found}")

    record = {
        "probes": [before, after],
        "values": {
            "wall_s": cold_s,
            "setup_s": setup,
            "sim_refs_per_s": sim_refs / cold_s,
            "peak_rss_mb": peak,
            "ops_per_s": len(mix) / warm_s,
        },
        "latencies_ms": [answer[2] * 1000.0 for answer in answers],
        "attempted": len(cold) + len(mix),
        "failures": failures,
        "runs": runs,
        "spans": None,
    }
    if traced:
        daemon = json.loads(Path(config["out"]).read_text(encoding="utf-8"))
        record["spans"] = merge_daemon_spans(recorder.spans, daemon)
    return record


def check_warm(method, path, status, payload, runs, cell_metrics) -> Optional[str]:
    """Why a warm answer is wrong, or None.  The run oracle is checked later."""
    if status != 200:
        return f"HTTP {status}: {payload[:200]!r}"
    if method == "POST":
        try:
            parts = run_payload(payload)
        except ValueError as exc:
            return str(exc)
        spec_id = parts["done"]["spec"]
        if parts["plan"]["pending"] != 0:
            return f"warm run recomputed {parts['plan']['pending']} cells"
        if spec_id in runs:
            return oracle.first_difference(runs[spec_id], encode_run(parts["done"]))
        return None
    answer = json.loads(payload)
    if path.startswith("/spec/"):
        if not answer.get("servable") or answer["cached"] != answer["cells"]:
            return f"{answer.get('cached')} of {answer.get('cells')} cells cached"
        return None
    key = path.rsplit("/", 1)[1]
    return oracle.first_difference(
        oracle.encode(cell_metrics[key]), oracle.encode(answer["metrics"])
    )


def merge_daemon_spans(client: list, daemon: list) -> list:
    """Nest each request's daemon spans under the client span that sent it.

    The daemon's ``serve.http`` spans carry the client's request id; the
    part of each that overlaps its client span moves from the client's
    self time to the daemon layers.  The daemon's bookkeeping after the
    client has its answer overlaps the next request, so serve coverage
    can read slightly above 1.
    """
    rids = {attrs["rid"] for layer, *_, attrs in client if layer == "serve.client"}
    kept = [span for span in daemon if span[5] in rids]
    served: Dict[str, list] = {}
    for layer, _thread, start, end, _self, trace, _attrs in kept:
        if layer == "serve.http":
            served.setdefault(trace, []).append((start, end))
    merged = []
    for span in client:
        layer, thread, start, end, self_s, trace, attrs = span
        if layer == "serve.client":
            for served_start, served_end in served.get(attrs["rid"], ()):
                self_s -= max(0.0, min(end, served_end) - max(start, served_start))
        merged.append((layer, thread, start, end, self_s, trace, attrs))
    return merged + kept


# -- the run -------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def at_reference_speed(value: float, unit: str, slowness: float) -> float:
    """A round's measurement as the reference host would have read it."""
    if unit in ("s", "ms"):
        return value / slowness
    if unit == "1/s":
        return value * slowness
    return value


class Outcome:
    """Everything measured for one workload over a run.

    Every round's timings are reported at the reference host's speed
    (``probe.py``); the raw values are kept beside them.  End-to-end
    metrics are medians over the untraced rounds, per-layer metrics
    medians over the traced rounds.
    """

    def __init__(
        self, workload: Workload, rounds: list, traced: list, units: Dict[str, str]
    ) -> None:
        self.workload = workload
        self.probes = [record["probes"] for record in rounds]
        self.raw_rounds = []
        for record in rounds:
            values = dict(record["values"], slowness=probe.slowness(*record["probes"]))
            values["op_p50_ms"] = percentile(record["latencies_ms"], 50)
            values["op_p99_ms"] = percentile(record["latencies_ms"], 99)
            self.raw_rounds.append(values)
        self.rounds = [_normalised(r, units) for r in self.raw_rounds]
        self.traced = []
        for record in traced:
            layers = spans.layer_metrics(record["spans"])
            layers["slowness"] = probe.slowness(*record["probes"])
            self.traced.append(_normalised(layers, units))

    def e2e(self, wanted: List[dict]) -> Dict[str, float]:
        return _medians(self.rounds, wanted)

    def per_layer(self, wanted: List[dict]) -> Dict[str, float]:
        return _medians(self.traced, wanted)

    def raw(self) -> dict:
        return {
            "scale": self.workload.scale,
            "rounds": self.rounds,
            "raw_rounds": self.raw_rounds,
            "probes_s": self.probes,
            "traced_rounds": self.traced,
        }


def _normalised(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, float]:
    slowness = values["slowness"]
    return {
        name: value if name == "slowness"
        else at_reference_speed(value, units.get(name, ""), slowness)
        for name, value in values.items()
    }


def _medians(rounds: List[dict], wanted: List[dict]) -> Dict[str, float]:
    missing = [m["name"] for m in wanted if m["name"] not in rounds[0]]
    if missing:
        raise BenchError(f"the benchmark does not measure {missing}")
    return {m["name"]: statistics.median(r[m["name"]] for r in rounds) for m in wanted}


def expected_path(workload: Workload, scale: float) -> Path:
    kind = "serve" if workload.kind == "serve" else "specs"
    return EXPECTED / f"{kind}-{scale!r}.json"


def run_round(workload, seed, traced, workdir, index, expected, requests) -> dict:
    """One round; ``failures`` lists its oracle mismatches and failed operations."""
    if workload.kind == "serve":
        return serve_round(workload, seed, traced, workdir, index, expected, requests)
    return grid_round(workload, traced, workdir, index, expected)


def schedule(
    workloads: List[Workload], rounds: Optional[int], seconds: float, run_one
) -> Dict[str, list]:
    """Round-robin rounds: ``rounds`` each, or while each has time left.

    A workload starts another round only if its mean round time still
    fits in its ``seconds`` budget, so a run ends near the budget.
    """
    done: Dict[str, list] = {w.name: [] for w in workloads}
    spent: Dict[str, float] = {w.name: 0.0 for w in workloads}
    while True:
        progressed = False
        for workload in workloads:
            count = len(done[workload.name])
            if rounds is not None:
                if count >= rounds:
                    continue
            elif count and spent[workload.name] * (count + 1) / count > seconds:
                continue
            started = time.monotonic()
            done[workload.name].append(run_one(workload))
            spent[workload.name] += time.monotonic() - started
            progressed = True
        if not progressed:
            return done


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_record(args: argparse.Namespace) -> dict:
    def git(*command: str) -> Optional[str]:
        try:
            return subprocess.run(
                ["git", *command], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "started_at": time.time(),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="rounds per workload (default: as many as --seconds allows)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time budget per workload (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced rounds only; 1: traced rounds only "
        "(default: untraced rounds, then one traced round per workload)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"scale {SMOKE_SCALE}, 1 round, {SMOKE_REQUESTS} requests",
    )
    parser.add_argument(
        "--write-expected", action="store_true",
        help="run one round per workload and rewrite its expected results",
    )
    parser.add_argument("--out", type=Path, default=None, help="write a results file")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.smoke or args.write_expected:
        args.rounds = 1
    return args


def select_workloads(args: argparse.Namespace) -> List[Workload]:
    selected = []
    nproc = os.cpu_count() or 1
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        if args.smoke:
            workload = dataclasses.replace(workload, scale=SMOKE_SCALE)
        if workload.workers > nproc:
            reason = (
                f"{workload.name} needs {workload.workers} CPUs, this host has {nproc}"
            )
            if not args.workload:
                print(f"skipping {reason}", file=sys.stderr)
                continue
            print(f"warning: {reason}; its speedup means nothing here", file=sys.stderr)
        selected.append(workload)
    return selected


def write_expected(workloads: List[Workload], args, workdir: Path) -> int:
    """Rewrite the expected results; workloads sharing a file must agree."""
    written: Dict[Path, dict] = {}
    for index, workload in enumerate(workloads):
        requests = SMOKE_REQUESTS if args.smoke else workload.requests
        record = run_round(workload, args.seed, False, workdir, index, None, requests)
        if workload.kind == "serve":
            if record["failures"]:
                raise BenchError("; ".join(record["failures"][:3]))
            entries = record["runs"]
        else:
            entries = record["encoded"]
        path = expected_path(workload, workload.scale)
        earlier = written.setdefault(path, {})
        for key, value in entries.items():
            found = key in earlier and oracle.first_difference(earlier[key], value)
            if found:
                raise BenchError(f"{workload.name} disagrees on {key}: {found}")
        earlier.update(entries)
        oracle.merge_into(path, entries)
        print(f"wrote {path.relative_to(ROOT)} ({workload.name})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    bench = load_benchmark_spec()
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    workloads = select_workloads(args)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.write_expected:
            return write_expected(workloads, args, workdir)
        return measure(workloads, args, seconds, bench, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workloads, args, seconds, bench, workdir) -> int:
    counter = itertools.count()
    attempted = 0
    failures: List[str] = []

    def run_one(traced: bool):
        def one(workload: Workload) -> dict:
            nonlocal attempted
            expected = expected_path(workload, workload.scale)
            requests = SMOKE_REQUESTS if args.smoke else workload.requests
            record = run_round(
                workload, args.seed, traced, workdir, next(counter), expected, requests
            )
            attempted += record["attempted"]
            failures.extend(f"{workload.name}: {f}" for f in record["failures"])
            return record

        return one

    untraced: Dict[str, list] = {w.name: [] for w in workloads}
    traced: Dict[str, list] = {w.name: [] for w in workloads}
    if args.trace != 1:
        untraced = schedule(workloads, args.rounds, seconds, run_one(False))
    if args.trace == 1:
        traced = schedule(workloads, args.rounds, seconds, run_one(True))
    elif args.trace is None:
        traced = schedule(workloads, 1, seconds, run_one(True))

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    outcomes = [
        Outcome(w, untraced[w.name], traced[w.name], units) for w in workloads
    ]
    metrics: Dict[str, dict] = {}
    for outcome in outcomes:
        values: Dict[str, float] = {}
        if outcome.rounds:
            values.update(outcome.e2e(bench["end_to_end"]))
        if outcome.traced:
            values.update(outcome.per_layer(bench["per_layer"]))
        report(outcome, values, units)
        # One workload prints plain names; several are told apart by prefix.
        prefix = "" if len(outcomes) == 1 else f"{outcome.workload.name}."
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}

    if args.out is not None:
        results = {
            "host": host_record(args),
            "workloads": {o.workload.name: o.raw() for o in outcomes},
            "metrics": metrics,
            "failures": failures,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def report(outcome: Outcome, values: Dict[str, float], units: Dict[str, str]) -> None:
    workload = outcome.workload
    print(
        f"== {workload.name}: scale {workload.scale}, {len(outcome.rounds)} "
        f"round(s), {len(outcome.traced)} traced; medians [q1, q3] at the "
        f"reference host speed"
    )
    slowness = [r["slowness"] for r in outcome.rounds + outcome.traced]
    print("  host slowness per round: " + " ".join(f"{x:.3f}" for x in slowness))
    for name, value in values.items():
        spread = ""
        per_round = [r[name] for r in outcome.rounds if name in r]
        if len(per_round) > 1:
            q1, q3 = quartiles(per_round)
            spread = f"  [q1 {q1:.6g}, q3 {q3:.6g}]"
        print(f"  {name:48s} {value:14.6g} {units[name]}{spread}")


if __name__ == "__main__":
    sys.exit(main())
