"""Compare two results files written by ``run.py --out``.

Usage::

    python benchmarks/e2e/compare.py BEFORE.json AFTER.json

For every workload and end-to-end metric, prints each side's median and
quartiles over its rounds, the change, the metric's bound from
``BENCHMARK.json``, and a verdict:

* ``worse`` — the median got worse by more than the bound;
* ``better`` — it improved by more than BEFORE's own spread (IQR/median)
  and AFTER wins at least 90% of all (BEFORE round, AFTER round) pairs;
* ``within bound`` — neither;
* ``unresolved`` — a side's spread exceeds the bound, so the medians
  cannot tell, unless every AFTER round beats every BEFORE round.

Then prints the per-layer self-time changes of the traced rounds and,
for each workload with a worse metric, the layer whose self time grew
most.  Exits 1 when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]


def summary(values: List[float]) -> "tuple[float, float, float]":
    """(median, q1, q3) of ``values``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: List[float]) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def wins(before: List[float], after: List[float], lower: bool) -> float:
    """Share of (before, after) round pairs in which AFTER reads better."""
    won = sum(1 for b in before for a in after if (a < b if lower else a > b))
    return won / (len(before) * len(after))


def verdict(before: List[float], after: List[float], metric: dict) -> "tuple[float, str]":
    """The relative change (positive = worse) and the verdict."""
    lower = metric["better"] == "lower"
    old, new = statistics.median(before), statistics.median(after)
    change = (new - old) / abs(old) if old else 0.0
    worse_by = change if lower else -change
    bound = metric["bound"]
    share = wins(before, after, lower)
    if max(spread(before), spread(after)) > bound:
        return worse_by, "better" if share == 1.0 else "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if -worse_by > spread(before) and share >= 0.9:
        return worse_by, "better"
    return worse_by, "within bound"


def compare(before: dict, after: dict, bench: dict, out=sys.stdout) -> bool:
    """Print the comparison; True when any metric of any workload is worse."""
    for side, results in (("before", before), ("after", after)):
        host = results["host"]
        print(
            f"{side}: {host['git_sha'] or '?'}{' (dirty)' if host['git_dirty'] else ''} "
            f"nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
            f"numpy={host['numpy']} seed={host['seed']}",
            file=out,
        )
    any_worse = False
    for name in before["workloads"]:
        if name not in after["workloads"]:
            print(f"\n== {name}: missing from AFTER", file=out)
            continue
        old_w, new_w = before["workloads"][name], after["workloads"][name]
        print(
            f"\n== {name} ({len(old_w['rounds'])} vs {len(new_w['rounds'])} rounds)",
            file=out,
        )
        print(
            f"  {'metric':16s} {'before [q1, q3]':>30s} {'after [q1, q3]':>30s} "
            f"{'change':>8s} {'bound':>6s}  verdict",
            file=out,
        )
        worse = False
        for metric in bench["end_to_end"]:
            key = metric["name"]
            old = [r[key] for r in old_w["rounds"] if key in r]
            new = [r[key] for r in new_w["rounds"] if key in r]
            if not old or not new:
                continue
            change, result = verdict(old, new, metric)
            worse |= result == "worse"
            print(
                f"  {key:16s} {_fmt(old):>30s} {_fmt(new):>30s} "
                f"{change:+8.1%} {metric['bound']:6.2f}  {result}",
                file=out,
            )
        deltas = layer_deltas(old_w["traced_rounds"], new_w["traced_rounds"])
        if deltas:
            print("  per-layer self time (before -> after, s):", file=out)
            for layer, old_s, new_s in deltas[:15]:
                print(f"    {layer:56s} {old_s:9.4f} -> {new_s:9.4f} "
                      f"({new_s - old_s:+.4f})", file=out)
        if worse and deltas:
            grown = max(deltas, key=lambda d: d[2] - d[1])
            print(f"  layer that grew most: {grown[0]} ({grown[2] - grown[1]:+.4f} s)",
                  file=out)
        any_worse |= worse
    return any_worse


def layer_deltas(old: List[dict], new: List[dict]) -> "List[tuple[str, float, float]]":
    """Median self time per layer on both sides, largest change first."""
    if not old or not new:
        return []
    rows = []
    for key in old[0]:
        if not key.endswith(".self_s"):
            continue
        old_s = statistics.median(r[key] for r in old)
        new_s = statistics.median(r.get(key, 0.0) for r in new)
        if old_s or new_s:
            rows.append((key[: -len(".self_s")], old_s, new_s))
    return sorted(rows, key=lambda row: -abs(row[2] - row[1]))


def _fmt(values: List[float]) -> str:
    median, q1, q3 = summary(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: "List[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return 1 if compare(before, after, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
