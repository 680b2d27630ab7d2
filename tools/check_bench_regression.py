"""CI gate for benchmark throughput regressions.

Usage::

    python tools/check_bench_regression.py <current-dir> \
        [--baseline benchmarks/results] [--tolerance 0.2] [--all-metrics] \
        [--require NAME ...]

Compares every ``*.json`` bench artefact in ``<current-dir>`` against
the committed baseline of the same name and fails (exit 1) when a gated
metric drops more than ``--tolerance`` (default 20%) below baseline.

Each artefact names its own gated metrics in its ``gate`` list —
by convention the machine-independent speedup ratios, because absolute
refs/sec track the host's clock speed and would make the gate flaky
across runners.  ``--all-metrics`` widens the comparison to every
numeric metric (useful when baseline and current come from the same
machine).  Baselines with no matching current artefact are reported but
not fatal (the bench may not have run in this job); current artefacts
with no baseline pass with a notice so new benches don't need a
two-step landing.

``--require NAME`` (repeatable; the artefact stem, e.g.
``bench_serve_etag``) turns an absent artefact into a hard failure —
without it, a bench leg that silently stops producing its artefact
would retire its own gate.  CI requires every serving-tier ratio
(warm/cold, compaction load, ETag 304) this way.
"""

import argparse
import json
import sys
from pathlib import Path


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL [{path}]: unreadable bench artefact ({exc})",
              file=sys.stderr)
        return None


def compare(baseline_path: Path, current_path: Path, tolerance: float,
            all_metrics: bool) -> "list[str]":
    baseline = _load(baseline_path)
    current = _load(current_path)
    if baseline is None or current is None:
        return [f"{current_path.name}: unreadable artefact"]
    gated = (
        sorted(k for k, v in baseline.get("metrics", {}).items()
               if isinstance(v, (int, float)))
        if all_metrics else baseline.get("gate", [])
    )
    failures = []
    for metric in gated:
        base = baseline.get("metrics", {}).get(metric)
        now = current.get("metrics", {}).get(metric)
        if not isinstance(base, (int, float)) or base <= 0:
            continue  # nothing meaningful to compare against
        if not isinstance(now, (int, float)):
            failures.append(
                f"{current_path.name}: gated metric {metric!r} missing "
                f"from the current artefact"
            )
            continue
        floor = base * (1.0 - tolerance)
        status = "FAIL" if now < floor else "ok"
        print(
            f"{status:<4} {current_path.stem}.{metric}: "
            f"{now:.3g} vs baseline {base:.3g} "
            f"(floor {floor:.3g}, {now / base - 1.0:+.1%})"
        )
        if now < floor:
            failures.append(
                f"{current_path.name}: {metric} regressed "
                f"{1.0 - now / base:.1%} (> {tolerance:.0%} tolerance)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path,
                        help="directory of freshly generated *.json artefacts")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "benchmarks" / "results",
                        help="committed baseline directory "
                        "(default: benchmarks/results)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional drop (default 0.2 = 20%%)")
    parser.add_argument("--all-metrics", action="store_true",
                        help="gate every numeric metric, not just the "
                        "artefact's 'gate' list")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="artefact stem that must be present (and "
                        "gated) in this run; repeatable")
    args = parser.parse_args(argv)

    if not args.current.is_dir():
        print(f"FAIL: {args.current} is not a directory", file=sys.stderr)
        return 1
    baselines = sorted(args.baseline.glob("*.json"))
    if not baselines:
        print(f"FAIL: no baseline *.json under {args.baseline}",
              file=sys.stderr)
        return 1

    failures = []
    compared = 0
    for name in args.require:
        stem = name[:-5] if name.endswith(".json") else name
        if not (args.current / f"{stem}.json").exists():
            failures.append(
                f"required artefact {stem}.json was not generated in this run"
            )
        elif not (args.baseline / f"{stem}.json").exists():
            failures.append(
                f"required artefact {stem}.json has no committed baseline"
            )
    for baseline_path in baselines:
        current_path = args.current / baseline_path.name
        if not current_path.exists():
            print(f"skip {baseline_path.name}: not generated in this run")
            continue
        compared += 1
        failures.extend(
            compare(baseline_path, current_path, args.tolerance,
                    args.all_metrics)
        )
    for current_path in sorted(args.current.glob("*.json")):
        if not (args.baseline / current_path.name).exists():
            print(f"note {current_path.name}: new bench, no baseline yet")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if compared == 0:
        print("FAIL: no artefacts compared (nothing matched the baseline)",
              file=sys.stderr)
        return 1
    print(f"OK: {compared} bench artefact(s) within {args.tolerance:.0%} "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
