"""The result store: the one reader and writer of sweep-cell journals.

Every completed sweep cell is keyed by a sha256 content hash of its full
identity (:mod:`repro.perf.cells`: factory fingerprint, parameter, trace
recipe incl. ``max_refs``, engine).  :class:`ResultStore` persists those
results as JSON lines and answers "has this exact cell already been
computed?" from one in-memory index.  A ``--resume-dir`` is a store
directory, so is a ``repro serve --store`` directory, and either one
replays in the other.

* **one append path** — ``sweep-cell`` lines (:meth:`ResultStore.record`,
  :meth:`ResultStore.record_many`) and ``sweep-cell-error`` lines
  (:meth:`ResultStore.record_errors`) are appended, flushed, to the
  store's *primary* ``journal.jsonl``.  A batch is validated before any
  byte of it is written.  A primary that ends mid-line (the torn tail of
  a crash) gets a newline before the first record, so the fragment
  stays its own line instead of swallowing the next one;
* **one tail reader** — every source is read from its consumed byte
  offset, and only newline-terminated lines count, so a writer caught
  mid-append leaves its tail for the next :meth:`ResultStore.refresh`.
  Compaction shards load first, then the primary, then read-only extra
  journal files or directories in caller order.  A later line wins its
  key, within a file and across files;
* **integrity** — a line is indexed only if it is a JSON object of a
  known kind and version with a string key and usable metrics (or, for
  an error line, an error text and a numeric ``recorded_at``); anything
  else is counted in :class:`StoreStats` and never served.  A success
  evicts a cached failure of the same key;
* **compaction** — :meth:`ResultStore.compact` rewrites the index into
  generation-stamped shard files (``journal-<gen>-<shard>.jsonl``,
  sharded by key prefix) behind an atomic ``store_manifest.json`` swap,
  then truncates the primary, so a store over a long append history
  reloads without replaying every superseded line;
* **negative-result cache** — cached failures carry a ``recorded_at``
  stamp; the serve layer bounds them with a TTL
  (``REPRO_SERVE_NEG_TTL``) so a hot failing spec stops burning
  simulation time on every request.

A store passes as the ``journal=`` argument of
:func:`repro.perf.parallel.run_labeled_cells`: cached cells replay from
the whole store, new results append to the primary and are immediately
servable.  The server in :mod:`repro.serve` is the network face of this
class.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
import uuid
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CompactionStats",
    "DEFAULT_SHARDS",
    "ERROR_KIND",
    "JOURNAL_FILENAME",
    "JOURNAL_VERSION",
    "ResultStore",
    "STORE_MANIFEST_FILENAME",
    "StoreStats",
]

JOURNAL_VERSION = 1

#: The primary journal's file name inside a store (or resume) directory.
JOURNAL_FILENAME = "journal.jsonl"

#: Journal-line kind for a completed cell.
CELL_KIND = "sweep-cell"

#: Journal-line kind for a cached *failure* (the negative-result cache).
ERROR_KIND = "sweep-cell-error"

#: Atomically swapped manifest naming the live compaction shards.
STORE_MANIFEST_FILENAME = "store_manifest.json"

#: Default shard-file count for :meth:`ResultStore.compact`.
DEFAULT_SHARDS = 16

#: Shard files are ``journal-<generation>-<shard>.jsonl``; the pattern
#: deliberately cannot match the primary ``journal.jsonl`` and rejects
#: manifest entries that try to escape the store directory.
_SHARD_NAME_RE = re.compile(r"journal-(\d+)-(\d+)\.jsonl\Z")


@dataclass
class StoreStats:
    """Load/refresh accounting: what the index accepted and why not.

    ``entries`` is the live index size; ``errors`` the live
    negative-cache size; ``duplicates`` counts keys that were
    overwritten by a later source or line (last-wins); ``skipped``
    counts lines rejected by the integrity checks (unknown kind, future
    version, missing key, unusable metrics).  ``sources`` maps each
    journal file to the byte offset consumed so far.
    """

    entries: int = 0
    errors: int = 0
    duplicates: int = 0
    skipped: int = 0
    sources: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "entries": self.entries,
            "errors": self.errors,
            "duplicates": self.duplicates,
            "skipped": self.skipped,
            "sources": dict(sorted(self.sources.items())),
        }


@dataclass
class CompactionStats:
    """What one :meth:`ResultStore.compact` rewrote.

    ``bytes_before`` counts the primary journal plus the superseded
    shard files; ``bytes_after`` the freshly written shards — the
    difference is the dead weight (superseded lines, torn tails,
    expired errors) the next full load no longer replays.
    """

    generation: int
    entries: int
    errors: int
    shard_files: int
    bytes_before: int
    bytes_after: int

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "entries": self.entries,
            "errors": self.errors,
            "shard_files": self.shard_files,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }


def _entry_metrics(entry: dict) -> "Optional[Dict[str, float]]":
    """The metric dict a cell line replays, or ``None`` if unusable.

    Single-metric lines (the original format — one ``miss_rate``
    number) come back as ``{"miss_rate": value}``; multi-metric lines
    written by custom cell evaluators carry an explicit ``metrics``
    dict.
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


def _cell_entry(
    key: str,
    fields: dict,
    metrics: "Union[Dict[str, float], float]",
    seconds: float,
) -> dict:
    """The ``sweep-cell`` line for one completed cell, validated.

    A bare number is shorthand for ``{"miss_rate": value}``.  A plain
    miss-rate metric set is written in the original single-number
    format, so journals stay byte-compatible with the pre-spec tooling;
    any other metric set adds a ``metrics`` dict.
    """
    if not isinstance(metrics, dict):
        metrics = {"miss_rate": float(metrics)}
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"journal entry {key!r} metric {name!r} is not a "
                f"number ({value!r} of type {type(value).__name__}); "
                f"refusing to record it"
            )
        if not math.isfinite(value):
            # json.dumps would emit a bare NaN/Infinity token — not
            # JSON — and a non-finite metric is a broken measurement,
            # not a result worth replaying.
            raise ValueError(
                f"journal entry {key!r} metric {name!r} is "
                f"non-finite ({value!r}); refusing to record it"
            )
    entry = {
        "kind": CELL_KIND,
        "version": JOURNAL_VERSION,
        "key": key,
        "seconds": round(seconds, 6),
        **fields,
    }
    if "miss_rate" in metrics:
        entry["miss_rate"] = metrics["miss_rate"]
    if set(metrics) != {"miss_rate"}:
        entry["metrics"] = dict(metrics)
    return entry


def _journal_path(source: Union[str, Path]) -> Path:
    """A journal file: either the path itself or ``<dir>/journal.jsonl``.

    A source that does not exist yet is classified by its name — only
    an explicit ``*.jsonl`` path is a file; anything else is a journal
    directory that will be tailed once it appears.
    """
    path = Path(source)
    if path.is_file() or path.suffix == ".jsonl":
        return path
    return path / JOURNAL_FILENAME


def _shard_index(key: str, shards: int) -> int:
    """Stable shard slot from the key prefix (hex keys) or a CRC."""
    try:
        return int(key[:8], 16) % shards
    except ValueError:
        return zlib.crc32(key.encode("utf-8")) % shards


def _shard_name(generation: int, shard: int) -> str:
    return f"journal-{generation:06d}-{shard:03d}.jsonl"


def _read_store_manifest(directory: Path) -> "Tuple[int, List[str]]":
    """The (generation, shard names) of the live manifest, or (0, []).

    A missing, torn, or foreign manifest degrades to "no shards": the
    primary journal and extra sources still load, so a store predating
    compaction (or whose manifest was lost) keeps serving.
    """
    path = directory / STORE_MANIFEST_FILENAME
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return 0, []
    if not isinstance(data, dict) or data.get("kind") != "store-manifest":
        return 0, []
    generation = data.get("generation")
    shards = data.get("shards")
    if not isinstance(generation, int) or generation < 0 or not isinstance(shards, list):
        return 0, []
    names = [
        str(name) for name in shards
        if isinstance(name, str) and _SHARD_NAME_RE.match(name)
    ]
    return generation, names


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a unique fsynced temp + rename."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


class ResultStore:
    """A deduplicated, content-addressed index over sweep journals.

    ``primary`` is the store directory.  Its ``journal.jsonl`` is the
    only file records append to; its compaction shards and any
    ``extra_sources`` (read-only journal files or directories) are
    merged into the index.  Every source is tailed again on each
    :meth:`refresh`, so a store can watch directories that other sweep
    runs are still appending to.  The primary belongs to this store's
    process; a journal other processes write belongs in
    ``extra_sources``.

    Thread safety: the index is guarded by one lock, so a serving
    daemon's request threads can read while a run thread records.
    """

    def __init__(
        self,
        primary: Union[str, Path],
        extra_sources: "Sequence[str | Path]" = (),
    ) -> None:
        self.primary_dir = Path(primary)
        self.primary_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.primary_dir / JOURNAL_FILENAME
        self._lock = threading.RLock()
        self._entries: Dict[str, dict] = {}
        self._errors: Dict[str, dict] = {}
        self._stats = StoreStats()
        self._generation, shard_names = _read_store_manifest(self.primary_dir)
        self._revision = 0
        self._shards: List[Path] = [
            self.primary_dir / name for name in shard_names
        ]
        # Compaction shards first (they hold the oldest, already
        # deduplicated history), then the primary journal, then extras
        # in caller order: a later source wins a key collision.
        self._sources: List[Path] = [*self._shards, self.path]
        for source in extra_sources:
            path = _journal_path(source)
            if path not in self._sources:
                self._sources.append(path)
        self.refresh()
        # The reader stops at the last newline, so unconsumed primary
        # bytes are an unterminated tail; the first append ends it.
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        self._newline_due = size > self._stats.sources.get(str(self.path), 0)

    def sources(self) -> List[Path]:
        """The journal files feeding the index, shards and primary first."""
        with self._lock:
            return list(self._sources)

    @property
    def generation(self) -> int:
        """The live compaction generation (0 until the first compact)."""
        with self._lock:
            return self._generation

    def state_token(self) -> str:
        """``<generation>.<revision>`` — changes iff the index changed.

        The serve layer folds this into its ``ETag`` values: a repeat
        conditional request is answered ``304 Not Modified`` without
        re-planning exactly when no result has landed in between.
        """
        with self._lock:
            return f"{self._generation}.{self._revision}"

    # -- reading ---------------------------------------------------------------

    def _ingest_line(self, line: str) -> None:
        """Index one raw journal line if it passes every integrity check."""
        line = line.strip()
        if not line:
            return
        try:
            entry = json.loads(line)
        except ValueError:
            self._stats.skipped += 1
            return
        if not isinstance(entry, dict) or entry.get("version", 0) > JOURNAL_VERSION:
            self._stats.skipped += 1
            return
        key = entry.get("key")
        kind = entry.get("kind")
        if kind == ERROR_KIND:
            recorded_at = entry.get("recorded_at")
            if (
                not isinstance(key, str)
                or not isinstance(entry.get("error"), str)
                or isinstance(recorded_at, bool)
                or not isinstance(recorded_at, (int, float))
            ):
                self._stats.skipped += 1
                return
            self._errors[key] = entry
        elif (
            kind == CELL_KIND
            and isinstance(key, str)
            and _entry_metrics(entry) is not None
        ):
            if key in self._entries:
                self._stats.duplicates += 1
            self._entries[key] = entry
            # A success supersedes any cached failure for the same cell.
            self._errors.pop(key, None)
        else:
            self._stats.skipped += 1
            return
        self._revision += 1

    def refresh(self) -> int:
        """Tail every source from its consumed offset; return new-entry count.

        Only complete lines (terminated by ``\\n``) are consumed: a
        writer caught mid-append leaves its torn tail for the next
        refresh instead of poisoning the index, and the offset never
        advances past unparsed bytes.

        Sources are tailed in *binary* mode and decoded per line.  The
        offset is advanced by the raw byte length of each line — a
        text-mode reader with ``errors="replace"`` used to expand every
        invalid byte into a 3-byte U+FFFD, overshoot the true file
        offset, and then silently skip the head of every later append.
        """
        with self._lock:
            before = len(self._entries)
            for path in self._sources:
                offset = self._stats.sources.get(str(path), 0)
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                if size <= offset:
                    continue
                try:
                    handle = path.open("rb")
                except OSError:
                    continue
                with handle:
                    handle.seek(offset)
                    while True:
                        raw = handle.readline()
                        if not raw or not raw.endswith(b"\n"):
                            break
                        offset += len(raw)
                        self._ingest_line(raw.decode("utf-8", errors="replace"))
                self._stats.sources[str(path)] = offset
            self._stats.entries = len(self._entries)
            self._stats.errors = len(self._errors)
            return len(self._entries) - before

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> Optional[dict]:
        """The stored journal entry for ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            return dict(entry) if entry is not None else None

    def metrics(self, key: str) -> "Optional[Dict[str, float]]":
        """The replayable metric dict for ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            return None
        return _entry_metrics(entry)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> StoreStats:
        """A snapshot of the load/refresh accounting."""
        with self._lock:
            return StoreStats(
                entries=self._stats.entries,
                errors=self._stats.errors,
                duplicates=self._stats.duplicates,
                skipped=self._stats.skipped,
                sources=dict(self._stats.sources),
            )

    def error_entry(self, key: str) -> Optional[dict]:
        """The cached ``sweep-cell-error`` entry for ``key``, or ``None``.

        The store keeps failures indefinitely; freshness is the
        caller's policy (the serve layer applies ``REPRO_SERVE_NEG_TTL``
        against the entry's ``recorded_at`` stamp).  A success recorded
        for the same key evicts the failure.
        """
        with self._lock:
            entry = self._errors.get(key)
            return dict(entry) if entry is not None else None

    def error_keys(self) -> List[str]:
        with self._lock:
            return list(self._errors)

    # -- writing ---------------------------------------------------------------

    def _append(self, entries: "List[dict]") -> None:
        """Append ``entries`` to the primary (one flush) and index them.

        The new lines reach the index the way every line does, through
        :meth:`refresh`, which also consumes anything appended before
        them.
        """
        text = "".join(
            json.dumps(entry, sort_keys=True, allow_nan=False) + "\n"
            for entry in entries
        )
        with self._lock:
            if self._newline_due:
                text = "\n" + text
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
            self._newline_due = False
            self.refresh()

    def record(
        self,
        key: str,
        fields: dict,
        metrics: "Union[Dict[str, float], float]",
        seconds: float,
    ) -> None:
        """Append one completed cell (flushed immediately) and index it.

        ``metrics`` is the cell's metric dict; a bare number is accepted
        as shorthand for ``{"miss_rate": value}``.
        """
        self.record_many([(key, fields, metrics, seconds)])

    def record_many(
        self,
        entries: "Sequence[Tuple[str, dict, Union[Dict[str, float], float], float]]",
    ) -> None:
        """Append a batch of ``(key, fields, metrics, seconds)`` cells.

        Each becomes its own ``sweep-cell`` line.  Every metric is
        checked first: a non-numeric or non-finite value raises
        :class:`ValueError` naming the cell and metric, and nothing of
        the batch is written.
        """
        built = [_cell_entry(*entry) for entry in entries]
        if built:
            self._append(built)

    def record_errors(
        self,
        failures: "Sequence[Tuple[str, str]]",
        at: "Optional[float]" = None,
    ) -> None:
        """Append ``(key, error text)`` failures to the primary journal.

        Each failure becomes one ``sweep-cell-error`` line stamped with
        ``recorded_at`` (default: now), replacing any previous failure
        under the same key — the TTL window restarts on every recorded
        attempt.  Cell replay reads only successes, so a cached failure
        never short-circuits a resumed sweep.
        """
        if not failures:
            return
        stamp = time.time() if at is None else float(at)
        self._append([
            {
                "kind": ERROR_KIND,
                "version": JOURNAL_VERSION,
                "key": str(key),
                "error": str(error),
                "recorded_at": stamp,
            }
            for key, error in failures
        ])

    # -- compaction ------------------------------------------------------------

    def compact(self, shards: int = DEFAULT_SHARDS) -> CompactionStats:
        """Rewrite the deduplicated index into generation-stamped shards.

        The append-only history (primary journal + previous shards)
        accumulates one line per *recorded* cell; the live index needs
        one line per *distinct* cell.  Compaction writes the index —
        success entries and cached failures — into
        ``journal-<gen>-<shard>.jsonl`` files sharded by key prefix,
        atomically swaps ``store_manifest.json`` to name them, truncates
        the primary journal, and deletes superseded shard files.  A
        fresh :class:`ResultStore` then loads the shards in manifest
        order and replays no superseded line.

        Crash safety: the manifest swap is the commit point.  Dying
        before it leaves the old manifest + untouched journal (orphan
        new-generation shards are swept by the next compact); dying
        between the swap and the truncation leaves journal lines that
        duplicate shard content — reloaded last-wins, identical values.

        Entries merged from ``extra_sources`` are included, so a
        compacted store serves its full index even if the extras later
        disappear; the extras' consumed offsets are kept, and any line
        they append afterwards still wins its key on the next refresh.
        """
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        with self._lock:
            self.refresh()
            generation = self._generation + 1
            old_shards = list(self._shards)
            bytes_before = 0
            for path in [*old_shards, self.path]:
                try:
                    bytes_before += path.stat().st_size
                except OSError:
                    pass

            buckets: Dict[int, List[dict]] = {}
            for index in (self._entries, self._errors):
                for key, entry in index.items():
                    buckets.setdefault(_shard_index(key, shards), []).append(entry)

            new_names: List[str] = []
            new_paths: List[Path] = []
            bytes_after = 0
            for slot in sorted(buckets):
                entries = sorted(buckets[slot], key=lambda e: str(e.get("key")))
                name = _shard_name(generation, slot)
                path = self.primary_dir / name
                text = "".join(
                    json.dumps(entry, sort_keys=True, allow_nan=False) + "\n"
                    for entry in entries
                )
                _write_atomic(path, text)
                new_names.append(name)
                new_paths.append(path)
                bytes_after += path.stat().st_size

            manifest = {
                "kind": "store-manifest",
                "version": 1,
                "generation": generation,
                "shards": new_names,
                "shard_count": shards,
                "entries": len(self._entries),
                "errors": len(self._errors),
                "compacted_at": time.time(),
            }
            _write_atomic(
                self.primary_dir / STORE_MANIFEST_FILENAME,
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            )

            # Post-commit cleanup: empty the journal (its lines live in
            # the shards now) and drop every shard file the manifest no
            # longer names, including orphans from a crashed compact.
            self.path.open("w", encoding="utf-8").close()
            self._newline_due = False
            live = set(new_names)
            for stale in self.primary_dir.glob("journal-*.jsonl"):
                if stale.name not in live and _SHARD_NAME_RE.match(stale.name):
                    self._stats.sources.pop(str(stale), None)
                    try:
                        stale.unlink()
                    except OSError:  # pragma: no cover - best-effort
                        pass

            extras = [
                path for path in self._sources
                if path != self.path and path not in set(old_shards)
            ]
            self._shards = new_paths
            self._sources = [*new_paths, self.path, *extras]
            for path in new_paths:
                # Fully consumed by construction: the shards were
                # written from the in-memory index.
                self._stats.sources[str(path)] = path.stat().st_size
            self._stats.sources[str(self.path)] = 0
            self._generation = generation
            self._revision += 1
            return CompactionStats(
                generation=generation,
                entries=len(self._entries),
                errors=len(self._errors),
                shard_files=len(new_paths),
                bytes_before=bytes_before,
                bytes_after=bytes_after,
            )
