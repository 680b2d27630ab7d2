"""The shared spec-driven front-end for the experiment registry.

Both entry points — ``python -m repro.experiments`` and
``python -m repro.cli experiments`` — are thin wrappers around this
module: one argument set (``--only/--filter/--list/--svg/--workers/
--resume-dir/--progress/--trace-dir``), one selection rule, and one
execution path through :func:`repro.experiments.spec.run_spec`, so
journaling, parallelism and observability behave identically no
matter which door an experiment is launched through.  Every run uses
the default engine, ``fast``; there is no engine flag.

Output discipline: **stdout carries only the artefact** — the banner
and the rendered report (what you'd pipe into a file) — while run
chatter (artefact paths, timing footers, progress) goes to stderr
through the ``REPRO_LOG_LEVEL``-gated logger, so
``repro-experiments --only fig05 > fig05.txt`` captures a clean
report.

With ``--trace-dir DIR``, each experiment run writes ``DIR/<id>/``:
``trace.jsonl`` (the span tree, where phase and cell durations live),
``metrics.json`` (the run's counters and gauges), ``run_manifest.json``
(spec fingerprint, engine, workers, env, git SHA, wall/CPU time), and
— when ``REPRO_PROFILE=1`` — ``profile.txt`` (the hot functions of one
cProfile around the run).  ``repro.cli obs summarize DIR`` renders
them.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import time
from pathlib import Path
from typing import List, Optional

from .. import obs, perf
from ..env import profile_enabled
from ..env import validate as validate_env
from ..store import ResultStore
from .spec import ExperimentSpec, fingerprint_digest, get_spec, render_spec, run_spec

_log = obs.get_logger("experiments")

#: Visible spec ids in presentation order: Section 3, the paper's
#: figures, then the extensions.  Registration order (``all_specs``,
#: ``GET /specs``) is import order and stays independent of this.
PRESENTATION_ORDER = (
    "sec3",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig07",
    "fig08",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ext-assoc",
    "ext-split",
    "ext-context",
    "ext-hashed",
    "ext-traffic",
    "ext-warmup",
)


def ordered_specs() -> "List[ExperimentSpec]":
    """Visible specs in presentation order (paper order, then extensions)."""
    return [get_spec(key) for key in PRESENTATION_ORDER]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the uniform experiment flags on ``parser``."""
    parser.add_argument(
        "--only",
        action="append",
        metavar="ID",
        help="experiment id (repeatable); see --list",
    )
    parser.add_argument(
        "--filter",
        metavar="SUBSTR",
        default=None,
        help="run only experiments whose id or title contains SUBSTR "
        "(case-insensitive)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--svg",
        metavar="DIR",
        help="also render each sweep-style experiment as DIR/<id>.svg",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep cells (default: REPRO_WORKERS "
        "or 1 = sequential); with more than one, a sweep with more than "
        "one pending cell runs on the fleet, as does every sweep when "
        "REPRO_FLEET_HOSTS names endpoints",
    )
    parser.add_argument(
        "--resume-dir",
        metavar="DIR",
        default=None,
        help="journal completed sweep cells under DIR and reuse them on "
        "the next run, so a crashed or interrupted sweep resumes instead "
        "of recomputing",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report each sweep cell and a per-sweep summary on stderr",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write per-experiment observability artefacts under "
        "DIR/<id>/: trace.jsonl (span tree), metrics.json, "
        "run_manifest.json, and profile.txt when REPRO_PROFILE=1; render "
        "them with 'repro.cli obs summarize DIR'",
    )


def select_specs(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> "List[ExperimentSpec]":
    specs = ordered_specs()
    if args.only:
        known = {spec.id for spec in specs}
        unknown = [key for key in args.only if key not in known]
        if unknown:
            parser.error(f"unknown experiment ids {unknown}; try --list")
        return [get_spec(key) for key in args.only]
    if args.filter:
        needle = args.filter.lower()
        selected = [
            spec
            for spec in specs
            if needle in spec.id.lower() or needle in spec.title.lower()
        ]
        if not selected:
            parser.error(f"--filter {args.filter!r} matches no experiments; try --list")
        return selected
    return specs


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Execute the parsed experiment arguments (shared by both CLIs)."""
    # Fail on malformed environment before any trace is generated: a bad
    # REPRO_WORKERS used to surface only when the first sweep spun up its
    # pool, minutes into a run.
    try:
        validate_env()
    except ValueError as exc:
        parser.error(str(exc))
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    obs.configure_logging()

    if args.list:
        for spec in ordered_specs():
            print(f"{spec.id:12s} {spec.title}")
        return 0

    selected = select_specs(args, parser)

    journal = ResultStore(args.resume_dir) if args.resume_dir else None

    svg_dir: Optional[Path] = None
    if args.svg:
        svg_dir = Path(args.svg)
        svg_dir.mkdir(parents=True, exist_ok=True)

    trace_dir: Optional[Path] = None
    if getattr(args, "trace_dir", None):
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)

    profiling = profile_enabled()

    for spec in selected:
        started = time.time()
        print(f"\n{'#' * 72}\n# {spec.id}: {spec.title}\n{'#' * 72}")
        result = _run_observed(spec, args, journal, trace_dir, profiling)
        print(render_spec(spec, result))
        if svg_dir is not None:
            path = _maybe_save_svg(spec, result, svg_dir)
            if path is not None:
                _log.info("[svg written to %s]", path)
        _log.info("[%s done in %.1fs]", spec.id, time.time() - started)
    return 0


def _run_observed(
    spec: ExperimentSpec,
    args: argparse.Namespace,
    journal: Optional[ResultStore],
    trace_dir: Optional[Path],
    profiling: bool,
) -> object:
    """Run one spec under the requested observability instrumentation.

    With ``--trace-dir`` the spec gets its own run directory, a
    process-wide tracer whose root ``experiment`` span brackets the
    whole run (so the span tree accounts for the manifest's wall time),
    a ``metrics.json`` and a ``run_manifest.json``; with
    ``REPRO_PROFILE=1`` one cProfile runs around the same bracket and
    its hot functions are written (or logged, without a trace dir).
    Without either, this is exactly the plain ``run_spec`` call — no
    tracer, no profiler, zero overhead.
    """
    run_dir = trace_dir / spec.id if trace_dir is not None else None
    tracer = obs.install_tracer(obs.Tracer(run_dir)) if run_dir is not None else None
    registry = (
        obs.install_registry(obs.MetricsRegistry()) if run_dir is not None else None
    )
    profile = cProfile.Profile() if profiling else None
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    started_at = time.time()
    try:
        if profile is not None:
            profile.enable()
        if tracer is not None:
            with tracer.span("experiment", spec=spec.id):
                result = _run_spec_args(spec, args, journal)
        else:
            result = _run_spec_args(spec, args, journal)
    finally:
        wall = time.perf_counter() - wall_started
        cpu = time.process_time() - cpu_started
        if profile is not None:
            profile.disable()
            report = obs.profile_report(profile)
            if run_dir is not None:
                path = run_dir / obs.PROFILE_FILENAME
                path.write_text(report, encoding="utf-8")
                _log.info("[profile written to %s]", path)
            else:
                _log.info("profile:\n%s", report)
        if registry is not None:
            obs.uninstall_registry()
            metrics_path = run_dir / obs.METRICS_FILENAME
            metrics_path.write_text(
                json.dumps(registry.export(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            _log.info("[metrics written to %s]", metrics_path)
        if tracer is not None:
            obs.uninstall_tracer()
            tracer.close()
            manifest = obs.build_manifest(
                spec_id=spec.id,
                spec_fingerprint=fingerprint_digest(spec),
                engine=perf.resolve_engine(None),
                workers=perf.resolve_workers(args.workers),
                wall_seconds=wall,
                cpu_seconds=cpu,
                started_at=started_at,
            )
            path = obs.write_manifest(run_dir, manifest)
            _log.info("[manifest written to %s]", path)
    return result


def _run_spec_args(
    spec: ExperimentSpec, args: argparse.Namespace, journal: Optional[ResultStore]
) -> object:
    return run_spec(
        spec,
        workers=args.workers,
        journal=journal,
        progress=args.progress,
    )


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of 'Cache Replacement with Dynamic Exclusion'",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv), parser)


def _maybe_save_svg(spec: ExperimentSpec, result: object, directory: Path):
    """Render the experiment as SVG when its result is a sweep."""
    from ..analysis.svg import sweep_svg
    from ..analysis.sweep import SweepResult

    if not isinstance(result, SweepResult):
        return None
    path = directory / f"{spec.id}.svg"
    percent = all(
        0.0 <= value <= 1.0
        for series in result.series.values()
        for value in series.points.values()
    )
    path.write_text(sweep_svg(result, title=spec.title, percent=percent))
    return path
