"""Structured run tracing: nested spans over a monotonic clock.

A figure run is a tree of timed phases — ``experiment`` → ``run_spec``
→ ``sweep`` → ``cell`` → ``trace_gen``/``simulate`` — and "where did
this 20-minute fig13 run spend its time?" is a
question about that tree, not about the terminal miss rates.  This
module provides the tree:

* :class:`Span` is one completed timed phase: a name, a start offset
  and duration on the tracer's monotonic clock, a parent link, and a
  small JSON-safe attribute dict (cell identity, engine, trace name);
* :class:`Tracer` measures spans (:meth:`Tracer.span` context manager,
  nested via a per-thread stack) and optionally appends each completed
  span as one JSON line to ``trace.jsonl`` — the same append-only,
  torn-tail-tolerant discipline as the sweep journal, so a crash costs
  at most the final partial line;
* the module-level :func:`span` / :func:`record` helpers write to the
  process-wide tracer installed by :func:`install_tracer` and are cheap
  no-ops when none is installed, so library code can be instrumented
  unconditionally.

Work that happens in fleet worker processes cannot reach the parent's
tracer; the sweep runner instead records each such cell's measured
seconds from its result envelope via :meth:`Tracer.record`, and
:mod:`repro.obs.distributed` merges the worker's shipped sub-phases
under it.

:func:`iter_jsonl` is the tolerant JSONL reader for span traces.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

SPAN_KIND = "span"
TRACE_VERSION = 1

#: File name used inside a trace directory.
TRACE_FILENAME = "trace.jsonl"

#: In-process spans kept per tracer; past this the aggregate view stays
#: exact (counts and totals) but individual spans are dropped, so a
#: pathological million-cell run cannot exhaust memory.  The JSONL file,
#: when enabled, always receives every span.
DEFAULT_SPAN_KEEP = 100_000


def iter_jsonl(path: Union[str, Path]) -> Iterator[dict]:
    """Yield the parseable JSON object lines of ``path``.

    Blank lines, lines that fail to parse (the torn tail of a crashed
    writer), and lines whose value is not an object are skipped.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                yield entry


@dataclass
class Span:
    """One completed timed phase.

    ``start`` is seconds since the owning tracer's epoch on the
    monotonic clock (``time.perf_counter``), so spans order and nest
    correctly even across system clock adjustments.  ``attrs`` must be
    JSON-safe scalars; they carry identity (spec id, cell label, trace
    name), never bulk data.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    duration: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        entry = {
            "kind": SPAN_KIND,
            "version": TRACE_VERSION,
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
        }
        if self.attrs:
            entry["attrs"] = self.attrs
        return entry

    @classmethod
    def from_dict(cls, entry: dict) -> "Optional[Span]":
        """Rebuild a span from one JSONL entry, or None if unusable."""
        if entry.get("kind") != SPAN_KIND:
            return None
        version = entry.get("version", 0)
        if type(version) is not int or version > TRACE_VERSION:
            return None  # a string, null or boolean version too
        name = entry.get("name")
        span_id = entry.get("id")
        parent = entry.get("parent")
        start = entry.get("start")
        duration = entry.get("duration")
        if not isinstance(name, str) or not isinstance(span_id, int):
            return None
        if parent is not None and not isinstance(parent, int):
            return None
        if not isinstance(start, (int, float)) or not isinstance(duration, (int, float)):
            return None
        attrs = entry.get("attrs")
        return cls(
            name=name,
            span_id=span_id,
            parent_id=parent,
            start=float(start),
            duration=float(duration),
            attrs=dict(attrs) if isinstance(attrs, dict) else {},
        )


class Tracer:
    """Measures nested spans; optionally persists them as JSONL.

    Thread-safe: span ids and the completed-span list are guarded by a
    lock, and the nesting stack is per-thread, so pool-management
    threads and the main thread can trace concurrently without mixing
    their parentage.
    """

    def __init__(
        self,
        directory: "str | Path | None" = None,
        keep: int = DEFAULT_SPAN_KEEP,
    ) -> None:
        self._epoch = time.perf_counter()
        #: Wall-clock time the tracer was created (for manifests).
        self.started_at = time.time()
        #: Run-scoped trace identity.  Propagated to worker processes by
        #: the distributed sweep backends (see :mod:`repro.obs.distributed`)
        #: so shipped spans can be attributed to the run that asked for
        #: them; a worker-side capture overwrites this with the parent's.
        self.trace_id = uuid.uuid4().hex
        self.directory = Path(directory) if directory is not None else None
        self.path: Optional[Path] = None
        self._handle = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.path = self.directory / TRACE_FILENAME
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._keep = keep
        self.spans: List[Span] = []
        self.dropped = 0
        self._totals: Dict[str, List[float]] = {}  # name -> [count, seconds]

    # -- internals ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def _finish(self, span: Span) -> None:
        with self._lock:
            if len(self.spans) < self._keep:
                self.spans.append(span)
            else:
                self.dropped += 1
            totals = self._totals.setdefault(span.name, [0, 0.0])
            totals[0] += 1
            totals[1] += span.duration
            if self.path is not None:
                if self._handle is None:
                    self._handle = self.path.open("a", encoding="utf-8")
                self._handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
                self._handle.flush()

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object):
        """Measure a nested phase; yields the mutable :class:`Span`.

        Attributes added to the yielded span's ``attrs`` before exit are
        persisted with it (the sweep runner stamps ``error``/``cached``
        outcomes this way).
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            name=name,
            span_id=self._allocate_id(),
            parent_id=parent,
            start=time.perf_counter() - self._epoch,
            duration=0.0,
            attrs=dict(attrs),
        )
        stack.append(record.span_id)
        try:
            yield record
        finally:
            stack.pop()
            record.duration = (time.perf_counter() - self._epoch) - record.start
            self._finish(record)

    def record(self, name: str, seconds: float, **attrs: object) -> Span:
        """Record an already-measured span (e.g. a fleet worker's cell).

        The span is parented to the calling thread's current span and
        back-dated so its end is "now"; ``seconds`` comes from the
        worker-side measurement the result envelope carried home.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        seconds = max(0.0, float(seconds))
        now = time.perf_counter() - self._epoch
        span = Span(
            name=name,
            span_id=self._allocate_id(),
            parent_id=parent,
            start=max(0.0, now - seconds),
            duration=seconds,
            attrs=dict(attrs),
        )
        self._finish(span)
        return span

    def current_span_id(self) -> Optional[int]:
        """The calling thread's innermost open span id (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def allocate_span_id(self) -> int:
        """Reserve a fresh span id in this tracer's id space.

        The distributed merge (:mod:`repro.obs.distributed`) re-identifies
        spans shipped home by worker processes — whose tracers allocated
        ids independently — before emitting them here.
        """
        return self._allocate_id()

    def emit(self, span: Span) -> Span:
        """Persist an externally constructed, already-finished span.

        The span's ``span_id`` must come from :meth:`allocate_span_id`
        and its ``start`` must already be expressed on this tracer's
        clock; used by the distributed merge, never by live measurement
        (use :meth:`span`/:meth:`record` for that).
        """
        self._finish(span)
        return span

    # -- views / lifecycle ---------------------------------------------------

    def aggregate(self) -> "Dict[str, Dict[str, float]]":
        """Per-name totals: ``{name: {count, seconds}}`` (always exact,
        even when individual spans were dropped past the keep limit)."""
        with self._lock:
            return {
                name: {"count": totals[0], "seconds": totals[1]}
                for name, totals in sorted(self._totals.items())
            }

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the process-wide tracer ---------------------------------------------------

_TRACER: Optional[Tracer] = None


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide target of :func:`span`/:func:`record`."""
    global _TRACER
    _TRACER = tracer
    return tracer


def uninstall_tracer() -> Optional[Tracer]:
    """Remove (and return) the process-wide tracer; spans become no-ops."""
    global _TRACER
    tracer = _TRACER
    _TRACER = None
    return tracer


def current_tracer() -> Optional[Tracer]:
    return _TRACER


@contextmanager
def span(name: str, **attrs: object):
    """Span on the installed tracer; yields ``None`` (cheaply) when
    tracing is off, so instrumented code never branches on it beyond a
    ``is not None`` guard for attribute stamping."""
    tracer = _TRACER
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as record:
        yield record


def record(name: str, seconds: float, **attrs: object) -> Optional[Span]:
    """Record a pre-measured span on the installed tracer (no-op when off)."""
    tracer = _TRACER
    if tracer is None:
        return None
    return tracer.record(name, seconds, **attrs)


def read_spans(path: Union[str, Path]) -> List[Span]:
    """Load the valid spans of a ``trace.jsonl`` (torn tail skipped)."""
    spans: List[Span] = []
    for entry in iter_jsonl(path):
        parsed = Span.from_dict(entry)
        if parsed is not None:
            spans.append(parsed)
    return spans
