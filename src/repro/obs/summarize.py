"""Render a trace directory for humans: span tree + slowest cells.

``repro.cli obs summarize <dir>`` lands here.  Given a run directory
(one ``trace.jsonl`` + optional ``run_manifest.json``), the summary
shows:

* the manifest header — spec, engine, workers, wall/CPU time, commit;
* the span tree, merged by name at each nesting level (five thousand
  ``cell`` spans render as one line: count, total seconds, share of the
  root span's time), except that ``simulate`` spans merge per model and
  engine path, as ``simulate[<model>/<path>]``;
* the top-N slowest individual ``cell`` spans with their identifying
  attributes, which is where "why was fig13 slow?" usually terminates;
* a per-worker cell-count table when any ``cell`` span carries a
  ``worker`` attribute (the fleet backend stamps each cell with the
  worker that executed it), which shows at a glance whether the fleet
  sharded evenly or one host starved.

A directory with no ``trace.jsonl`` of its own but run subdirectories
(the ``--trace-dir`` layout: one subdirectory per spec) is summarised
recursively, one section per run.  A closing run-wide line counts the
``trace_gen`` spans of every run, worker-shipped ones included,
against the distinct ``(trace, kind, refs)`` they built, and warns
when a trace was built more than once.  A run directory whose trace is
missing or empty but which carries a manifest (a run that crashed
before its first span, or ran with tracing off) degrades to a
manifest-plus-metrics summary with an explicit "no trace captured"
note rather than crashing or being silently omitted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.manifest import MANIFEST_FILENAME, read_manifest
from repro.obs.metrics import METRICS_FILENAME
from repro.obs.tracing import TRACE_FILENAME, Span, read_spans

#: Span name used for per-cell work units (see DESIGN.md §10 taxonomy).
CELL_SPAN = "cell"


class _Node:
    """Merged span-tree node: all same-named spans under one parent path."""

    __slots__ = ("name", "count", "seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.seconds = 0.0
        self.children: "Dict[str, _Node]" = {}


def _node_name(span: Span) -> str:
    if span.name == "simulate":
        return f"simulate[{span.attrs.get('model')}/{span.attrs.get('path')}]"
    return span.name


def _merge_tree(spans: List[Span]) -> _Node:
    """Fold the span forest into a tree merged by name at each level."""
    root = _Node("")
    by_id = {span.span_id: span for span in spans}

    def path_of(span: Span) -> Tuple[str, ...]:
        names: List[str] = []
        current: Optional[Span] = span
        # Guard against cycles from a corrupt trace line.
        for _ in range(64):
            if current is None:
                break
            names.append(_node_name(current))
            current = by_id.get(current.parent_id) if current.parent_id else None
        return tuple(reversed(names))

    for span in spans:
        node = root
        for name in path_of(span):
            node = node.children.setdefault(name, _Node(name))
        node.count += 1
        node.seconds += span.duration
    return root


def _render_tree(root: _Node, total: float) -> List[str]:
    rows: List[Tuple[str, _Node]] = []

    def walk(node: _Node, depth: int) -> None:
        if node.name:
            rows.append((f"{'  ' * depth}{node.name}", node))
        ranked = sorted(
            node.children.values(), key=lambda child: child.seconds, reverse=True
        )
        for child in ranked:
            walk(child, depth + (1 if node.name else 0))

    walk(root, 0)
    width = max([28] + [len(label) for label, _ in rows])
    return [
        f"  {label:<{width}}  {node.seconds:>9.3f}s  x{node.count:<6d} "
        f"{100.0 * node.seconds / total if total > 0 else 0.0:5.1f}%"
        for label, node in rows
    ]


def _span_label(span: Span) -> str:
    attrs = ", ".join(
        f"{key}={value}" for key, value in sorted(span.attrs.items())
    )
    return f"{span.name}({attrs})" if attrs else span.name


def summarize_run(directory: Union[str, Path], top: int = 10) -> str:
    """Summarise one run directory (manifest + trace) as text."""
    directory = Path(directory)
    lines: List[str] = [f"run: {directory}"]

    manifest = read_manifest(directory)
    if manifest is not None:
        workers = manifest.get("workers")
        lines.append(
            f"  spec={manifest.get('spec')}"
            f" fingerprint={manifest.get('spec_fingerprint')}"
            f" engine={manifest.get('engine')}"
            f" workers={'auto' if workers is None else workers}"
        )
        lines.append(
            f"  wall={manifest.get('wall_seconds')}s"
            f" cpu={manifest.get('cpu_seconds')}s"
            f" git={manifest.get('git_sha') or 'unknown'}"
        )
    else:
        lines.append("  (no run_manifest.json)")

    trace_path = directory / TRACE_FILENAME
    spans = read_spans(trace_path)
    if not spans:
        if not trace_path.exists():
            lines.append(f"  (no trace captured: {TRACE_FILENAME} is missing)")
        else:
            lines.append(f"  (no trace captured: {TRACE_FILENAME} is empty)")
        lines += _render_metrics(directory)
        return "\n".join(lines) + "\n"

    roots = [span for span in spans if span.parent_id is None]
    total = sum(span.duration for span in roots)
    lines.append("")
    lines.append(f"  span tree ({len(spans)} spans, {total:.3f}s at root)")
    lines += _render_tree(_merge_tree(spans), total)

    cells = sorted(
        (span for span in spans if span.name == CELL_SPAN),
        key=lambda span: span.duration,
        reverse=True,
    )
    if cells:
        lines.append("")
        lines.append(f"  top {min(top, len(cells))} slowest cells")
        for span in cells[:top]:
            lines.append(f"    {span.duration:>9.3f}s  {_span_label(span)}")

    by_worker = worker_cell_counts(cells)
    if by_worker:
        lines.append("")
        lines.append(f"  cells by worker ({len(by_worker)} workers)")
        for worker, (count, seconds) in sorted(
            by_worker.items(), key=lambda item: (-item[1][0], item[0])
        ):
            lines.append(f"    {worker:<32}  x{count:<6d} {seconds:>9.3f}s")
    return "\n".join(lines) + "\n"


def _render_metrics(directory: Path, top: int = 12) -> List[str]:
    """Lines for a run's ``metrics.json`` snapshot (empty when absent)."""
    path = directory / METRICS_FILENAME
    if not path.exists():
        return []
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return [f"  ({METRICS_FILENAME} is unreadable)"]
    if not isinstance(entries, list) or not entries:
        return []
    lines = ["", f"  metrics ({len(entries)} series)"]
    for entry in entries[:top]:
        if not isinstance(entry, dict):
            continue
        name = entry.get("name")
        labels = entry.get("labels") or {}
        label_text = ",".join(
            f"{key}={value}" for key, value in sorted(labels.items())
        )
        series = f"{name}{{{label_text}}}" if label_text else str(name)
        lines.append(f"    {series:<52}  {entry.get('value')}")
    if len(entries) > top:
        lines.append(f"    ... and {len(entries) - top} more series")
    return lines


def worker_cell_counts(
    cells: List[Span],
) -> "Dict[str, Tuple[int, float]]":
    """Per-worker ``(cell count, total seconds)`` from cell spans.

    Only spans stamped with a ``worker`` attribute contribute — the
    inline backend leaves cells unattributed, so the table appears
    exactly when a fleet ran.
    """
    counts: "Dict[str, Tuple[int, float]]" = {}
    for span in cells:
        worker = span.attrs.get("worker")
        if not worker:
            continue
        count, seconds = counts.get(str(worker), (0, 0.0))
        counts[str(worker)] = (count + 1, seconds + span.duration)
    return counts


def _is_run_dir(directory: Path) -> bool:
    """Whether a directory is summarisable as one run.

    A trace file marks a run; so does a manifest (or a metrics
    snapshot) alone — a run that crashed before its first span or ran
    with tracing off still deserves a summary, not an omission.
    """
    return any(
        (directory / name).exists()
        for name in (TRACE_FILENAME, MANIFEST_FILENAME, METRICS_FILENAME)
    )


def find_runs(directory: Union[str, Path]) -> List[Path]:
    """Run directories under ``directory`` (itself, or its children)."""
    directory = Path(directory)
    if _is_run_dir(directory):
        return [directory]
    return sorted(
        child
        for child in directory.iterdir()
        if child.is_dir() and _is_run_dir(child)
    )


def summarize_directory(directory: Union[str, Path], top: int = 10) -> str:
    """Summarise a run directory, or every run nested one level below.

    Raises :class:`FileNotFoundError` only for a truly malformed
    target — a directory that does not exist, or one containing neither
    a trace, a manifest, nor a metrics snapshot at either level.
    """
    directory = Path(directory)
    if not directory.exists():
        raise FileNotFoundError(f"no such trace directory: {directory}")
    runs = find_runs(directory)
    if not runs:
        raise FileNotFoundError(
            f"no {TRACE_FILENAME}, {MANIFEST_FILENAME}, or {METRICS_FILENAME} "
            f"found in {directory} or its subdirectories"
        )
    sections = [summarize_run(run, top=top) for run in runs]
    return "\n".join(sections + [_trace_gen_rollup(runs)])


def _trace_gen_rollup(runs: List[Path]) -> str:
    """The run-wide ``trace_gen`` count against the distinct traces built."""
    builds = [
        (span.attrs.get("trace"), span.attrs.get("trace_kind"), span.attrs.get("refs"))
        for run in runs
        for span in read_spans(run / TRACE_FILENAME)
        if span.name == "trace_gen"
    ]
    calls, distinct = len(builds), len(set(builds))
    lines = [
        f"run-wide ({len(runs)} run{'s' if len(runs) != 1 else ''})",
        f"  trace_gen: {calls} calls for {distinct} distinct (trace, kind, refs)",
    ]
    if calls > distinct:
        lines.append(
            f"  WARNING: {calls - distinct} trace_gen calls rebuilt a trace "
            f"already built in this run"
        )
    return "\n".join(lines) + "\n"
