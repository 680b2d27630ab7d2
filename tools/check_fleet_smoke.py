"""CI smoke gate for the fleet execution backend.

Usage::

    python tools/check_fleet_smoke.py [--spec fig05] [--resume-dir DIR]

Drives the experiments CLI the way the fleet backend is meant to be
used — and the way it is meant to fail:

1. **sweep** — runs the spec with ``--backend fleet --workers 2``
   (two local worker processes, forked on Linux) and ``--resume-dir``;
2. **kill** — as soon as the journal shows the sweep is executing,
   SIGKILLs the oldest live worker (the sweep process's oldest direct
   child), mid-sweep;
3. **survive** — the run must still exit 0 with zero failed cells: the
   dead worker is retired, its in-flight cell re-dispatched, and the
   run's ``metrics.json`` must count a ``fleet`` sweep, attribute
   cells to workers, and (when the kill landed before the last
   dispatch) count at least one pool restart;
4. **merged trace** — the sweep runs under ``--trace-dir``: the single
   merged ``trace.jsonl`` must contain worker-attributed ``simulate`` /
   ``trace_gen`` spans shipped home from at least two distinct worker
   pids, nested under the parent's ``cell`` spans (via the worker's
   ``cell_exec`` bracket), and the shipped spans hanging directly off
   each cell must cover at least 90% of its wall time;
5. **resume** — the identical command again, traced into a second
   directory, must replay every cell from the journal
   (``sweep.cells.cached == sweep.cells.total`` in its
   ``metrics.json``) and recompute nothing.

Exits non-zero with a named complaint on the first violation, so a CI
failure reads as "rerun recomputed 12 cells", not as a stack trace.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs import (  # noqa: E402  (path bootstrap)
    METRICS_FILENAME,
    TRACE_FILENAME,
    read_spans,
)


def _worker_pids(parent_pid: int) -> "list[tuple[int, int]]":
    """Live direct children of ``parent_pid`` — the sweep's fleet
    workers — as ``(starttime, pid)`` pairs (Linux /proc scan).

    A forked worker keeps its parent's command line, so workers are
    found by parentage, not by a ``repro.cli worker`` argv.
    """
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue  # raced with process exit
        # stat is "pid (comm) state ppid ... starttime ..."; comm may
        # itself contain spaces, so split after the closing paren.
        fields = stat.rsplit(")", 1)[1].split()
        state, ppid, starttime = fields[0], int(fields[1]), int(fields[19])
        if ppid == parent_pid and state != "Z":
            found.append((starttime, pid))
    return sorted(found)


def _journal_entries(resume_dir: Path) -> int:
    journal = resume_dir / "journal.jsonl"
    if not journal.exists():
        return 0
    return sum(1 for line in journal.read_text().splitlines() if line.strip())


def _run_and_kill_worker(command, env, resume_dir: Path) -> "tuple[int, bool]":
    """Run the sweep, SIGKILL the oldest fleet worker once it is busy.

    Returns ``(exit_code, killed_mid_sweep)`` — the kill is mid-sweep
    when the journal was still short of its final length, so the dead
    worker provably had work left to lose.
    """
    process = subprocess.Popen(command, env=env)
    killed = False
    entries_at_kill = 0
    while process.poll() is None:
        # The first journal entry proves the fleet is up and executing;
        # the oldest worker has certainly finished its ready handshake.
        if not killed and _journal_entries(resume_dir) >= 1:
            workers = _worker_pids(process.pid)
            if workers:
                _, victim = workers[0]
                entries_at_kill = _journal_entries(resume_dir)
                os.kill(victim, signal.SIGKILL)
                killed = True
                print(f"killed fleet worker pid {victim} mid-sweep "
                      f"({entries_at_kill} cells journaled)")
        time.sleep(0.02)
    mid_sweep = killed and entries_at_kill < _journal_entries(resume_dir)
    if not killed:
        print("notice: sweep finished before a worker could be killed; "
              "the rerun below still proves a full-journal replay")
    return process.returncode, mid_sweep


def _run_metrics(trace_dir: Path, spec: str) -> "list[dict]":
    """The series of one traced run's ``metrics.json``."""
    return json.loads((trace_dir / spec / METRICS_FILENAME).read_text())


def _total(series: "list[dict]", name: str, **labels: str) -> float:
    """Sum of the ``name`` series whose labels include ``labels``."""
    return sum(
        entry["value"] for entry in series
        if entry["name"] == name and labels.items() <= entry["labels"].items()
    )


def _check_merged_trace(trace_dir: Path, spec: str) -> "list[str]":
    """The distributed-obs contract on the merged ``trace.jsonl``.

    Worker processes run their own tracer and ship finished spans
    home in the cell reply; the parent re-parents them under its own
    back-dated ``cell`` spans.  A merged trace therefore proves the
    whole propagation path: spans from >= 2 distinct worker pids, each
    with a cell span ancestor, whose cell-level brackets cover >= 90%
    of every cell span's wall time.
    """
    failures = []
    trace_path = trace_dir / spec / TRACE_FILENAME
    if not trace_path.exists():
        return [f"no merged trace at {trace_path}"]
    spans = read_spans(trace_path)
    by_id = {span.span_id: span for span in spans}
    cells = [span for span in spans if span.name == "cell"]
    shipped = [
        span for span in spans
        if span.name in ("simulate", "trace_gen") and "pid" in span.attrs
    ]
    if not cells:
        return ["merged trace has no cell spans"]
    if not shipped:
        return ["merged trace has no worker-shipped simulate/trace_gen spans"]
    # Coverage counts every worker sub-phase hanging directly off a cell
    # (simulate, trace_gen, build_model, ...), not just the two names
    # asserted above — nested grandchildren would double-count.
    covering = [
        span for span in spans
        if "pid" in span.attrs
        and span.parent_id in by_id
        and by_id[span.parent_id].name == "cell"
    ]

    pids = {span.attrs["pid"] for span in shipped}
    if len(pids) < 2:
        failures.append(
            f"shipped spans came from {len(pids)} worker pid(s), expected "
            f">= 2 (pids: {sorted(pids)})"
        )
    parent_pid = os.getpid()
    for span in shipped:
        if not span.attrs.get("worker"):
            failures.append(f"shipped span {span.name!r} has no worker label")
            break
        if span.attrs["pid"] == parent_pid:
            failures.append(
                f"shipped span {span.name!r} claims the parent's own pid"
            )
            break
        # Sub-phases nest under the worker's cell_exec bracket, which
        # in turn hangs off the parent's cell span — climb to it.
        ancestor = by_id.get(span.parent_id)
        while ancestor is not None and ancestor.name != "cell":
            ancestor = by_id.get(ancestor.parent_id)
        if ancestor is None:
            failures.append(
                f"shipped span {span.name!r} has no cell span ancestor"
            )
            break

    uncovered = 0
    for cell in cells:
        kids = [s for s in covering if s.parent_id == cell.span_id]
        coverage = sum(k.duration for k in kids) / max(cell.duration, 1e-9)
        if coverage < 0.9:
            uncovered += 1
            if uncovered == 1:
                failures.append(
                    f"cell {cell.attrs.get('label')!r} wall time only "
                    f"{coverage:.0%} covered by shipped spans (>= 90% "
                    f"required)"
                )
    if uncovered > 1:
        failures.append(f"... and {uncovered - 1} more cells under 90%")
    if not failures:
        print(
            f"PASS: merged trace carries {len(shipped)} worker spans from "
            f"{len(pids)} pids covering >= 90% of all {len(cells)} cell "
            f"spans"
        )
    return failures


def check(spec: str, resume_dir: Path, trace_dir: Path) -> int:
    failures = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    command = [
        sys.executable, "-m", "repro.experiments", "--only", spec,
        "--backend", "fleet", "--workers", "2",
        "--resume-dir", str(resume_dir), "--progress",
    ]
    # The resume run is traced into its own directory: it replays every
    # cell from the journal, so its (correctly) worker-free trace must
    # not overwrite the cold run's merged one.
    rerun_dir = trace_dir.with_name(trace_dir.name + "-rerun")

    code, mid_sweep = _run_and_kill_worker(
        command + ["--trace-dir", str(trace_dir)], env, resume_dir
    )
    if code != 0:
        print(f"FAIL: fleet sweep exited {code} after the worker kill",
              file=sys.stderr)
        return 1
    print(f"PASS: fleet sweep survived the kill (exit 0, "
          f"{_journal_entries(resume_dir)} cells journaled)")

    series = _run_metrics(trace_dir, spec)
    source = f"{spec}/{METRICS_FILENAME}"
    if not _total(series, "sweep.runs.by_backend", backend="fleet"):
        backends = sorted(
            entry["labels"]["backend"] for entry in series
            if entry["name"] == "sweep.runs.by_backend"
        )
        failures.append(f"no fleet-backend sweep in {source} "
                        f"(backends: {backends})")
    failed = _total(series, "sweep.cells.failed")
    if failed:
        failures.append(
            f"{failed:.0f} cells failed — the killed worker's cells were "
            f"not re-dispatched"
        )
    completed = _total(series, "sweep.cells.completed")
    total = _total(series, "sweep.cells.total")
    if completed != total:
        failures.append(f"only {completed:.0f}/{total:.0f} cells completed")
    if not _total(series, "sweep.cells.by_worker"):
        failures.append(f"{source} has no per-worker cell attribution")
    restarts = _total(series, "sweep.pool_restarts")
    if mid_sweep and not restarts:
        failures.append(
            "worker was killed mid-sweep but no pool restart was counted "
            "(dead worker was not respawned)"
        )
    if not failures:
        print(f"PASS: {source} attributes the sweep to the fleet backend "
              f"({restarts:.0f} pool restart(s))")

    failures.extend(_check_merged_trace(trace_dir, spec))

    # The rerun must answer entirely from the journal.
    rerun = subprocess.run(command + ["--trace-dir", str(rerun_dir)], env=env)
    if rerun.returncode != 0:
        failures.append(f"resume run exited {rerun.returncode}")
    else:
        resumed = _run_metrics(rerun_dir, spec)
        total = _total(resumed, "sweep.cells.total")
        recomputed = total - _total(resumed, "sweep.cells.cached")
        if not total:
            failures.append("rerun's metrics.json counts no sweep cells")
        elif recomputed:
            failures.append(
                f"rerun recomputed {recomputed:.0f} cells instead of "
                f"replaying the journal"
            )
        else:
            print(f"PASS: rerun replayed all {total:.0f} cells from the "
                  f"journal")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default="fig05",
                        help="experiment to sweep (default: fig05)")
    parser.add_argument("--resume-dir", type=Path, required=True,
                        help="journal directory for the run and its resume")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="observability directory for the cold run "
                        "(default: <resume-dir>/trace); the resume run is "
                        "traced into <trace-dir>-rerun")
    args = parser.parse_args(argv)
    args.resume_dir.mkdir(parents=True, exist_ok=True)
    trace_dir = args.trace_dir or args.resume_dir / "trace"
    return check(args.spec, args.resume_dir, trace_dir)


if __name__ == "__main__":
    sys.exit(main())
