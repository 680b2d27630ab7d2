"""General-purpose command line tools.

Ten subcommands make the library usable without writing Python:

* ``trace``    — generate a benchmark trace and write it as din text;
* ``simulate`` — run a cache configuration over a din trace (or a named
  benchmark) and print the statistics;
* ``classify`` — 3C miss classification of a trace against a geometry;
* ``conflicts`` — find the thrashing sets and ping-pong address pairs;
* ``experiments`` — the paper-figure registry (same flags as
  ``python -m repro.experiments``);
* ``obs``      — observability tools; ``obs summarize DIR`` renders the
  span tree, manifest, and slowest cells of a ``--trace-dir`` run;
* ``serve``    — run the result-store daemon (:mod:`repro.serve`) over
  a content-addressed journal store;
* ``store``    — maintain a result store offline; ``store compact``
  rewrites the append-only history into generation-stamped shards so
  multi-gigabyte journals reload without replaying superseded lines;
* ``query``    — talk to a running daemon: list specs, look up a stored
  cell by content key, or run an experiment server-side;
* ``worker``   — the fleet worker's protocol loop: serve sweep cells
  over NDJSON on stdin/stdout until EOF or a shutdown op (launched by
  the fleet, locally or as ``ssh host python3 -m repro.cli worker``).

Every subcommand that simulates runs the fast engine; none takes an
engine flag.

Examples::

    python -m repro.cli trace gcc --kind instruction --refs 100000 --out gcc.din
    python -m repro.cli simulate gcc.din --size 32768 --line 4 --policy exclusion
    python -m repro.cli simulate gcc --policy optimal --size 8192
    python -m repro.cli classify gcc.din --size 32768 --line 4
    python -m repro.cli experiments --only fig04 --workers 4
    python -m repro.cli experiments --only fig05 --trace-dir /tmp/obs
    python -m repro.cli obs summarize /tmp/obs
    python -m repro.cli serve --store /tmp/results --port 8377
    python -m repro.cli store compact --store /tmp/results
    python -m repro.cli query run fig04 --url http://127.0.0.1:8377
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Union

from .analysis.conflicts import format_profile, profile_conflicts
from .analysis.missclass import classify_misses
from .caches.base import Cache, OfflineCache
from .caches.direct_mapped import DirectMappedCache
from .caches.geometry import CacheGeometry
from .caches.optimal import OptimalDirectMappedCache, OptimalLastLineCache
from .caches.set_associative import SetAssociativeCache
from .caches.stream_buffer import StreamBufferCache
from .caches.victim import VictimCache
from .core.exclusion_cache import DynamicExclusionCache
from .core.hitlast import HashedHitLastStore, IdealHitLastStore
from .core.long_lines import make_long_line_exclusion_cache
from .env import validate as validate_env
from .obs import configure_logging, summarize_directory
from .perf.engine import simulate as engine_simulate
from .trace.io import load_din, save_din
from .trace.trace import Trace
from .workloads.registry import benchmark_names, trace_by_kind

POLICIES = [
    "direct",
    "exclusion",
    "exclusion-hashed",
    "optimal",
    "lru",
    "fifo",
    "random",
    "victim",
    "stream",
]


def _load_trace(source: str, kind: str, refs: int) -> Trace:
    """A din file path or a benchmark name."""
    if source in benchmark_names():
        return trace_by_kind(source, kind, max_refs=refs)
    path = Path(source)
    if not path.exists():
        raise SystemExit(
            f"{source!r} is neither a benchmark ({benchmark_names()}) "
            f"nor an existing trace file"
        )
    return load_din(path, name=path.stem)


def _build_simulator(
    policy: str, geometry: CacheGeometry, args: argparse.Namespace
) -> Union[Cache, OfflineCache]:
    if policy == "direct":
        return DirectMappedCache(geometry)
    if policy == "exclusion":
        store = IdealHitLastStore(default=not args.assume_miss)
        if geometry.line_size > 4:
            return make_long_line_exclusion_cache(
                geometry, store=store, sticky_levels=args.sticky
            )
        return DynamicExclusionCache(geometry, store=store, sticky_levels=args.sticky)
    if policy == "exclusion-hashed":
        store = HashedHitLastStore(
            geometry.num_lines * args.hashed_bits, default=not args.assume_miss
        )
        if geometry.line_size > 4:
            return make_long_line_exclusion_cache(
                geometry, store=store, sticky_levels=args.sticky
            )
        return DynamicExclusionCache(geometry, store=store, sticky_levels=args.sticky)
    if policy == "optimal":
        if geometry.line_size > 4:
            return OptimalLastLineCache(geometry)
        return OptimalDirectMappedCache(geometry)
    if policy in ("lru", "fifo", "random"):
        assoc_geometry = CacheGeometry(
            geometry.size, geometry.line_size, associativity=args.ways
        )
        return SetAssociativeCache(assoc_geometry, policy=policy)
    if policy == "victim":
        return VictimCache(geometry, entries=args.victim_entries)
    if policy == "stream":
        return StreamBufferCache(geometry, depth=args.stream_depth)
    raise SystemExit(f"unknown policy {policy!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = trace_by_kind(args.benchmark, args.kind, max_refs=args.refs)
    if args.out:
        save_din(trace, args.out)
        print(f"wrote {len(trace):,} references to {args.out}")
    else:
        save_din(trace, sys.stdout)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    geometry = CacheGeometry(args.size, args.line)
    trace = _load_trace(args.trace, args.kind, args.refs)
    simulator = _build_simulator(args.policy, geometry, args)
    stats = engine_simulate(simulator, trace)
    print(f"trace      : {trace.name or args.trace} ({len(trace):,} refs)")
    print(f"cache      : {geometry} [{args.policy}]")
    print(f"accesses   : {stats.accesses:,}")
    print(f"hits       : {stats.hits:,}  ({stats.hit_rate:.3%})")
    print(f"misses     : {stats.misses:,}  ({stats.miss_rate:.3%})")
    if stats.bypasses:
        print(f"bypasses   : {stats.bypasses:,}")
    if stats.buffer_hits:
        print(f"buffer hits: {stats.buffer_hits:,}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    geometry = CacheGeometry(args.size, args.line)
    trace = _load_trace(args.trace, args.kind, args.refs)
    breakdown = classify_misses(trace, geometry)
    print(f"trace      : {trace.name or args.trace} ({len(trace):,} refs)")
    print(f"cache      : {geometry}")
    print(f"compulsory : {breakdown.compulsory:,}  ({breakdown.rate('compulsory'):.3%})")
    print(f"capacity   : {breakdown.capacity:,}  ({breakdown.rate('capacity'):.3%})")
    print(f"conflict   : {breakdown.conflict:,}  ({breakdown.rate('conflict'):.3%})")
    print(f"total      : {breakdown.total:,}  ({breakdown.miss_rate:.3%})")
    return 0


def _cmd_conflicts(args: argparse.Namespace) -> int:
    geometry = CacheGeometry(args.size, args.line)
    trace = _load_trace(args.trace, args.kind, args.refs)
    profile = profile_conflicts(trace, geometry)
    print(f"trace      : {trace.name or args.trace} ({len(trace):,} refs)")
    print(format_profile(profile, top=args.top))
    return 0


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    try:
        print(summarize_directory(args.directory, top=args.top), end="")
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import env
    from .serve import ResultServer
    from .store import ResultStore

    store_dir = args.store or env.serve_store()
    if not store_dir:
        raise SystemExit(
            "serve needs a store directory: pass --store DIR or set REPRO_SERVE_STORE"
        )
    store = ResultStore(store_dir, args.journals or ())
    ingested = store.refresh()
    tracer = None
    if args.trace_dir:
        from . import obs

        tracer = obs.install_tracer(obs.Tracer(args.trace_dir))
        print(f"tracing requests to {tracer.path}", file=sys.stderr)
    server = ResultServer(
        store, host=args.host, port=args.port, default_workers=args.workers,
    )
    print(
        f"serving {store_dir} ({len(store)} cells, {ingested} ingested, "
        f"{len(store.sources())} journals) at {server.url}",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if tracer is not None:
            from . import obs

            obs.uninstall_tracer()
            tracer.close()
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from . import env
    from .store import DEFAULT_SHARDS, ResultStore

    store_dir = args.store or env.serve_store()
    if not store_dir:
        raise SystemExit(
            "store compact needs a store directory: pass --store DIR or "
            "set REPRO_SERVE_STORE"
        )
    store = ResultStore(store_dir, args.journals or ())
    shards = DEFAULT_SHARDS if args.shards is None else args.shards
    try:
        stats = store.compact(shards=shards)
    except ValueError as exc:
        raise SystemExit(str(exc))
    saved = stats.bytes_before - stats.bytes_after
    print(
        f"compacted {store_dir} to generation {stats.generation}: "
        f"{stats.entries} cells in {stats.shard_files} shard(s), "
        f"{stats.bytes_before:,} -> {stats.bytes_after:,} bytes "
        f"({saved:+,} reclaimed)"
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .perf.worker import worker_main

    return worker_main()


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        if args.query_command == "specs":
            for spec in client.specs():
                marker = " (hidden)" if spec.get("hidden") else ""
                print(f"{spec['id']:12s} [{spec['kind']:7s}] {spec['title']}{marker}")
            return 0
        if args.query_command == "cell":
            print(json.dumps(client.cell(args.key), indent=2, sort_keys=True))
            return 0
        # query run: stream progress to stderr, artefact to stdout
        def on_event(event: dict) -> None:
            kind = event.get("event")
            if kind == "plan":
                print(
                    f"[plan] {event['cells']} cells, {event['cached']} cached, "
                    f"{event['pending']} to compute [{event['engine']}]",
                    file=sys.stderr,
                )
            elif kind == "cell" and args.progress:
                status = "cached" if event["cached"] else f"{event['seconds']:.3f}s"
                print(
                    f"[cell] {event['label']} | {event['parameter']} | "
                    f"{event['trace']} ({status})",
                    file=sys.stderr,
                )

        done = client.run(args.spec, workers=args.workers, on_event=on_event)
        manifest = done["manifest"]
        print(
            f"[done] run {done['run_id']}: {manifest['cells_computed']} computed, "
            f"{manifest['cells_cached']} cached in {manifest['wall_seconds']:.3f}s",
            file=sys.stderr,
        )
        print(done["report"])
        return 0
    except ServeError as exc:
        raise SystemExit(str(exc))


def _budget(text: str) -> int:
    """A ``--refs`` value: a non-negative reference count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"reference budget must be non-negative, got {value}"
        )
    return value


def _add_trace_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("trace", help="din file path or benchmark name")
    parser.add_argument("--kind", default="instruction",
                        choices=["instruction", "data", "mixed"],
                        help="reference kind for benchmark traces")
    parser.add_argument("--refs", type=_budget, default=200_000,
                        help="reference budget for benchmark traces")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace and cache-simulation tools for the dynamic-exclusion reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_parser = sub.add_parser("trace", help="generate a benchmark trace as din text")
    trace_parser.add_argument("benchmark", choices=benchmark_names())
    trace_parser.add_argument("--kind", default="instruction",
                              choices=["instruction", "data", "mixed"])
    trace_parser.add_argument("--refs", type=_budget, default=200_000)
    trace_parser.add_argument("--out", help="output path (default: stdout)")
    trace_parser.set_defaults(func=_cmd_trace)

    sim_parser = sub.add_parser("simulate", help="simulate a cache over a trace")
    _add_trace_source(sim_parser)
    sim_parser.add_argument("--size", type=int, default=32 * 1024, help="bytes")
    sim_parser.add_argument("--line", type=int, default=4, help="line size, bytes")
    sim_parser.add_argument("--policy", default="direct", choices=POLICIES)
    sim_parser.add_argument("--ways", type=int, default=2,
                            help="associativity for lru/fifo/random")
    sim_parser.add_argument("--sticky", type=int, default=1,
                            help="sticky levels for exclusion policies")
    sim_parser.add_argument("--hashed-bits", type=int, default=4,
                            help="hashed hit-last bits per line")
    sim_parser.add_argument("--assume-miss", action="store_true",
                            help="cold hit-last polarity 0 instead of 1")
    sim_parser.add_argument("--victim-entries", type=int, default=4)
    sim_parser.add_argument("--stream-depth", type=int, default=4)
    sim_parser.set_defaults(func=_cmd_simulate)

    classify_parser = sub.add_parser("classify", help="3C miss classification")
    _add_trace_source(classify_parser)
    classify_parser.add_argument("--size", type=int, default=32 * 1024)
    classify_parser.add_argument("--line", type=int, default=4)
    classify_parser.set_defaults(func=_cmd_classify)

    conflicts_parser = sub.add_parser(
        "conflicts", help="find thrashing sets and ping-pong pairs"
    )
    _add_trace_source(conflicts_parser)
    conflicts_parser.add_argument("--size", type=int, default=32 * 1024)
    conflicts_parser.add_argument("--line", type=int, default=4)
    conflicts_parser.add_argument("--top", type=int, default=10,
                                  help="how many sets to show")
    conflicts_parser.set_defaults(func=_cmd_conflicts)

    experiments_parser = sub.add_parser(
        "experiments",
        help="run the paper-figure registry (python -m repro.experiments)",
    )
    from .experiments import frontend as experiments_frontend

    experiments_frontend.add_arguments(experiments_parser)
    experiments_parser.set_defaults(
        func=lambda args: experiments_frontend.run(args, experiments_parser)
    )

    obs_parser = sub.add_parser(
        "obs", help="observability tools for --trace-dir run artefacts"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    summarize_parser = obs_sub.add_parser(
        "summarize",
        help="render the span tree, manifest, and slowest cells of a run "
        "directory (or every run one level below it)",
    )
    summarize_parser.add_argument(
        "directory", help="a --trace-dir path or one run directory under it"
    )
    summarize_parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many slowest cells to show (default 10)",
    )
    summarize_parser.set_defaults(func=_cmd_obs_summarize)

    serve_parser = sub.add_parser(
        "serve",
        help="run the result-store daemon over a content-addressed journal store",
    )
    serve_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory: the writable primary journal plus run "
        "manifests live here (default: REPRO_SERVE_STORE)",
    )
    serve_parser.add_argument(
        "--journals", action="append", default=None, metavar="DIR",
        help="extra read-only journal directory to index (repeatable), "
        "e.g. past --resume-dir runs",
    )
    serve_parser.add_argument(
        "--host", default=None,
        help="bind address (default: REPRO_SERVE_HOST or 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None,
        help="bind port, 0 for ephemeral (default: REPRO_SERVE_PORT or 8377)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count for server-side sweeps when the POST /run "
        "body names none (default: REPRO_WORKERS or 1)",
    )
    serve_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="persist the daemon's spans (serve.request, execute_run, "
        "sweeps, shipped worker spans) to DIR/trace.jsonl for "
        "'repro obs summarize'",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    store_parser = sub.add_parser(
        "store", help="offline maintenance for a result store directory"
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    compact_parser = store_sub.add_parser(
        "compact",
        help="rewrite the store's deduplicated index into generation-"
        "stamped shard files (atomic manifest swap; the primary journal "
        "is truncated and superseded lines are never replayed again)",
    )
    compact_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory to compact (default: REPRO_SERVE_STORE)",
    )
    compact_parser.add_argument(
        "--journals", action="append", default=None, metavar="DIR",
        help="extra read-only journal directory to fold into the "
        "compacted index (repeatable)",
    )
    compact_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard-file count, keys spread by prefix (default 16)",
    )
    compact_parser.set_defaults(func=_cmd_store_compact)

    query_parser = sub.add_parser(
        "query", help="query a running result-store daemon"
    )
    query_parser.add_argument(
        "--url", default=None,
        help="daemon base URL (default: REPRO_SERVE_URL or "
        "http://REPRO_SERVE_HOST:REPRO_SERVE_PORT)",
    )
    query_sub = query_parser.add_subparsers(dest="query_command", required=True)
    query_sub.add_parser("specs", help="list the daemon's experiment registry")
    cell_parser = query_sub.add_parser(
        "cell", help="look up one stored cell by its content key"
    )
    cell_parser.add_argument("key", help="sha256 content key of the cell")
    run_parser = query_sub.add_parser(
        "run", help="run an experiment server-side (cached cells are free)"
    )
    run_parser.add_argument("spec", help="experiment spec id; see 'query specs'")
    run_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="server-side worker count for this run (default: the daemon's)",
    )
    run_parser.add_argument(
        "--progress", action="store_true",
        help="print each newly resolved cell on stderr as it streams in",
    )
    query_parser.set_defaults(func=_cmd_query)

    worker_parser = sub.add_parser(
        "worker",
        help="serve fleet sweep cells over NDJSON on stdin/stdout "
        "(long-lived; launched by the fleet, locally or over SSH)",
    )
    worker_parser.set_defaults(func=_cmd_worker)

    return parser


def main(argv: "List[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Validate the environment before any trace work: a malformed
    # REPRO_WORKERS should fail at startup, not when workers spin up.
    try:
        validate_env()
    except ValueError as exc:
        parser.error(str(exc))
    configure_logging()
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        parser.error("--workers must be at least 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
