"""On-disk sweep journal: resumable per-cell results.

A large figure sweep at ``REPRO_TRACE_SCALE`` 5+ runs for minutes per
figure; a single worker crash used to discard every finished cell.  The
journal makes completed cells durable: each successful cell appends one
JSON line keyed by a content hash of the full cell identity (factory
fingerprint, parameter, trace recipe incl. ``max_refs``, engine), and a
later run with the same journal directory replays those results instead
of recomputing them.

The format follows the :mod:`repro.analysis.serialize` conventions —
``kind`` + ``version`` fields, ``sort_keys`` output — and is append-only
so a crash mid-write costs at most the torn final line (which is
skipped on load and simply recomputed).

This module also owns :func:`canonical_parameter`, the single source of
truth for which sweep parameter types survive a JSON round trip; the
sweep serialiser reuses it so journal keys and persisted sweeps agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from ..obs.tracing import iter_jsonl

JOURNAL_VERSION = 1

#: File name used inside a resume directory.
JOURNAL_FILENAME = "journal.jsonl"


def canonical_parameter(value: object, where: str = "sweep parameter") -> object:
    """Return a JSON-stable form of a sweep parameter.

    Scalars (``str``/``int``/``float``/``bool``/``None``) pass through;
    tuples — including nested ones — become JSON arrays and are restored
    as tuples by :func:`parameter_from_json`, so ``Series.points``
    lookups keyed by tuple parameters still hit after a reload.
    Anything else (lists, dicts, arbitrary objects, non-finite floats)
    does not survive a JSON round trip losslessly and is rejected with a
    descriptive :class:`TypeError` instead of coming back subtly
    different.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TypeError(f"{where} {value!r} is a non-finite float and has no stable JSON form")
        return value
    if isinstance(value, tuple):
        return [canonical_parameter(item, where=where) for item in value]
    raise TypeError(
        f"{where} {value!r} of type {type(value).__name__} does not survive a "
        f"JSON round trip; use str/int/float/bool/None or (nested) tuples of them"
    )


def parameter_from_json(value: object) -> object:
    """Restore a canonical parameter (JSON arrays come back as tuples)."""
    if isinstance(value, list):
        return tuple(parameter_from_json(item) for item in value)
    return value


def is_stable_parameter(value: object) -> bool:
    """Whether :func:`canonical_parameter` accepts ``value``."""
    try:
        canonical_parameter(value)
    except TypeError:
        return False
    return True


def content_key(payload: dict) -> str:
    """Deterministic hex digest of a cell-identity payload dict.

    ``allow_nan=False`` rejects non-finite floats outright: Python would
    otherwise serialise them as bare ``NaN``/``Infinity`` tokens, which
    are not JSON — and ``NaN != NaN``, so such a payload could never be
    a stable content address anyway.
    """
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise ValueError(
            f"cell-identity payload contains a non-finite float and has no "
            f"stable content key: {payload!r}"
        ) from None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SweepJournal:
    """Append-only JSONL cache of completed sweep cells.

    ``get`` answers "has this exact cell already been computed?" from
    the in-memory index built at load time; ``record`` appends and
    flushes one line per completed cell so an interrupted run loses at
    most the cell in flight.  Lines that fail to parse (torn tail write
    from a crash), carry an unknown ``kind``, or come from a newer
    format version are skipped — their cells are recomputed, never
    trusted.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILENAME
        self._entries: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        # iter_jsonl (shared with the span trace) already skips blank,
        # torn, and non-object lines; such cells are recomputed.
        for entry in iter_jsonl(self.path):
            if entry.get("kind") != "sweep-cell":
                continue
            if entry.get("version", 0) > JOURNAL_VERSION:
                continue
            key = entry.get("key")
            if isinstance(key, str) and self.entry_metrics(entry) is not None:
                self._entries[key] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[dict]:
        """The recorded entry for ``key``, or ``None``."""
        return self._entries.get(key)

    @staticmethod
    def entry_metrics(entry: dict) -> "Optional[Dict[str, float]]":
        """The metric dict a journal entry replays, or ``None`` if unusable.

        Single-metric entries (the original format — one ``miss_rate``
        number) come back as ``{"miss_rate": value}``; multi-metric
        entries written by custom cell evaluators carry an explicit
        ``metrics`` dict.
        """
        metrics = entry.get("metrics")
        if isinstance(metrics, dict):
            if metrics and all(
                isinstance(value, (int, float)) and not isinstance(value, bool)
                for value in metrics.values()
            ):
                return {str(k): float(v) for k, v in metrics.items()}
            return None
        rate = entry.get("miss_rate")
        if isinstance(rate, (int, float)) and not isinstance(rate, bool):
            return {"miss_rate": float(rate)}
        return None

    def record(
        self,
        key: str,
        fields: dict,
        metrics: "Union[Dict[str, float], float]",
        seconds: float,
    ) -> None:
        """Append one completed cell (flushed immediately).

        ``metrics`` is the cell's metric dict; a bare number is accepted
        as shorthand for ``{"miss_rate": value}``.  A plain miss-rate
        metric set is written in the original single-number format, so
        journals produced by the spec pipeline stay readable by (and
        byte-compatible with) the pre-spec tooling; any other metric set
        adds a ``metrics`` dict.
        """
        self.record_many([(key, fields, metrics, seconds)])

    def record_many(
        self,
        entries: "Sequence[Tuple[str, dict, Union[Dict[str, float], float], float]]",
    ) -> None:
        """Append a batch of completed cells with one open/flush.

        Each element is ``(key, fields, metrics, seconds)`` exactly as
        :meth:`record` takes them, and each becomes its own journal line
        — batching changes only the I/O granularity, never the entry
        format or the resume granularity.
        """
        built = []
        for key, fields, metrics, seconds in entries:
            if not isinstance(metrics, dict):
                metrics = {"miss_rate": float(metrics)}
            for name, value in metrics.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    # A custom evaluator that returns a string/None/bool
                    # metric used to crash math.isfinite with a bare
                    # TypeError; name the cell and the metric instead,
                    # exactly like the non-finite rejection below.
                    raise ValueError(
                        f"journal entry {key!r} metric {name!r} is not a "
                        f"number ({value!r} of type {type(value).__name__}); "
                        f"refusing to record it"
                    )
                if not math.isfinite(value):
                    # json.dumps would emit a bare NaN/Infinity token —
                    # not JSON, unreadable by other tools — and a
                    # non-finite metric is a broken measurement, not a
                    # result worth replaying.
                    raise ValueError(
                        f"journal entry {key!r} metric {name!r} is "
                        f"non-finite ({value!r}); refusing to record it"
                    )
            entry = {
                "kind": "sweep-cell",
                "version": JOURNAL_VERSION,
                "key": key,
                "seconds": round(seconds, 6),
                **fields,
            }
            if "miss_rate" in metrics:
                entry["miss_rate"] = metrics["miss_rate"]
            if set(metrics) != {"miss_rate"}:
                entry["metrics"] = dict(metrics)
            built.append((key, entry))
        if not built:
            return
        with self.path.open("a", encoding="utf-8") as handle:
            for _, entry in built:
                handle.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
            handle.flush()
        for key, entry in built:
            self._entries[key] = entry
