"""JSON serialisation of results, for persisting experiment outputs.

Supports :class:`~repro.caches.stats.CacheStats`,
:class:`~repro.analysis.sweep.SweepResult`, and
:class:`~repro.hierarchy.two_level.TwoLevelResult` — the three shapes
the experiment harness produces.  The format is stable and versioned so
saved results remain loadable across library versions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Union

from ..caches.stats import CacheStats
from ..hierarchy.two_level import Strategy, TwoLevelResult
from ..perf.cells import canonical_parameter, parameter_from_json
from .sweep import SweepResult

FORMAT_VERSION = 1

PathOrFile = Union[str, Path, IO[str]]


def stats_to_dict(stats: CacheStats) -> dict:
    return {
        "kind": "cache-stats",
        "version": FORMAT_VERSION,
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "bypasses": stats.bypasses,
        "evictions": stats.evictions,
        "buffer_hits": stats.buffer_hits,
        "cold_misses": stats.cold_misses,
    }


def stats_from_dict(data: dict) -> CacheStats:
    _require_kind(data, "cache-stats")
    stats = CacheStats(
        accesses=int(data["accesses"]),
        hits=int(data["hits"]),
        misses=int(data["misses"]),
        bypasses=int(data.get("bypasses", 0)),
        evictions=int(data.get("evictions", 0)),
        buffer_hits=int(data.get("buffer_hits", 0)),
        cold_misses=int(data.get("cold_misses", 0)),
    )
    stats.check()
    return stats


def sweep_to_dict(result: SweepResult) -> dict:
    """Serialise a sweep, validating it is complete and JSON-stable.

    A series missing a parameter (a partial sweep — e.g. one assembled
    by hand or truncated by an aborted run) used to surface as a bare
    ``KeyError`` with no context; it now raises a :class:`ValueError`
    naming the series and the missing parameters.  Parameters that do
    not survive a JSON round trip are rejected by
    :func:`~repro.perf.cells.canonical_parameter` (tuples are
    canonicalised and restored as tuples on load).
    """
    parameters = [
        canonical_parameter(p, where=f"sweep parameter {p!r}")
        for p in result.parameters
    ]
    series_values = {}
    for label, series in result.series.items():
        missing = [p for p in result.parameters if p not in series.points]
        if missing:
            raise ValueError(
                f"cannot serialise a partial sweep: series {label!r} has no "
                f"value for parameter(s) {missing!r} "
                f"({len(series.points)} of {len(result.parameters)} points present)"
            )
        series_values[label] = [series.points[p] for p in result.parameters]
    return {
        "kind": "sweep",
        "version": FORMAT_VERSION,
        "parameter_name": result.parameter_name,
        "parameters": parameters,
        "series": series_values,
    }


def sweep_from_dict(data: dict) -> SweepResult:
    _require_kind(data, "sweep")
    result = SweepResult(
        parameter_name=data["parameter_name"],
        # JSON has no tuples; canonical parameters restore arrays as
        # tuples so Series.points lookups by the original (hashable)
        # parameter still hit after a reload.
        parameters=[parameter_from_json(p) for p in data["parameters"]],
    )
    for label, values in data["series"].items():
        if len(values) != len(result.parameters):
            raise ValueError(
                f"series {label!r} has {len(values)} values for "
                f"{len(result.parameters)} parameters"
            )
        for parameter, value in zip(result.parameters, values):
            result.add(label, parameter, float(value))
    return result


def two_level_to_dict(result: TwoLevelResult) -> dict:
    return {
        "kind": "two-level",
        "version": FORMAT_VERSION,
        "strategy": result.strategy.value,
        "l1": stats_to_dict(result.l1),
        "l2": stats_to_dict(result.l2),
    }


def two_level_from_dict(data: dict) -> TwoLevelResult:
    _require_kind(data, "two-level")
    return TwoLevelResult(
        strategy=Strategy(data["strategy"]),
        l1=stats_from_dict(data["l1"]),
        l2=stats_from_dict(data["l2"]),
    )


_TO_DICT = {
    CacheStats: stats_to_dict,
    SweepResult: sweep_to_dict,
    TwoLevelResult: two_level_to_dict,
}

_FROM_DICT = {
    "cache-stats": stats_from_dict,
    "sweep": sweep_from_dict,
    "two-level": two_level_from_dict,
}


def dumps(result: "CacheStats | SweepResult | TwoLevelResult") -> str:
    """Serialise a supported result object to a JSON string."""
    for cls, converter in _TO_DICT.items():
        if isinstance(result, cls):
            return json.dumps(converter(result), indent=2, sort_keys=True)
    raise TypeError(f"cannot serialise {type(result).__name__}")


def loads(text: str) -> "CacheStats | SweepResult | TwoLevelResult":
    """Deserialise a JSON string produced by :func:`dumps`."""
    data = json.loads(text)
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("not a repro result document")
    kind = data["kind"]
    if kind not in _FROM_DICT:
        raise ValueError(f"unknown result kind {kind!r}")
    return _FROM_DICT[kind](data)


def save(result: "CacheStats | SweepResult | TwoLevelResult", target: PathOrFile) -> None:
    """Write a result to a path or text file object."""
    text = dumps(result)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text + "\n")
    else:
        target.write(text + "\n")


def load(source: PathOrFile) -> "CacheStats | SweepResult | TwoLevelResult":
    """Read a result from a path or text file object."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    return loads(text)


def _require_kind(data: dict, kind: str) -> None:
    if data.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} document, got {data.get('kind')!r}")
    version = data.get("version", 0)
    if type(version) is not int or version > FORMAT_VERSION:  # bool is not int
        raise ValueError(f"document version {version!r} is malformed or newer")
