"""Typed in-process metrics: counters, gauges, and histograms.

Named, typed series that any layer can write to; a traced experiment
run exports them as ``metrics.json`` and ``repro serve`` as
``/metrics``:

* **counter** — monotone event count (``sweep.cells.failed``,
  ``fsm.sticky_saves``);
* **gauge** — last-written value (``sweep.workers``);
* **histogram** — streaming distribution of observations kept as
  count/sum/min/max plus fixed log-spaced buckets (``cell.seconds``),
  so per-cell timing distributions survive without storing every
  sample.

Series are keyed by ``(name, sorted label items)``.  Labels carry
identity the way span attrs do — benchmark name, engine — and must be
JSON-safe scalars.  The registry is bounded: past ``max_series``
distinct keys, new keys fold into a single ``obs.metrics.overflow``
counter rather than growing without limit (the same discipline as the
tracer's span keep-limit).

A module-level default registry backs the convenience functions
(:func:`counter`, :func:`gauge`, :func:`histogram`); scoped use (tests,
per-run export) creates its own :class:`MetricsRegistry` and swaps it
in via :func:`install_registry`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

#: Distinct (name, labels) series per registry before overflow folding.
DEFAULT_MAX_SERIES = 4096

#: Per-run metrics snapshot written next to ``trace.jsonl`` by traced
#: experiment runs (``registry.export()`` as JSON); ``obs summarize``
#: renders it even when no trace was captured.
METRICS_FILENAME = "metrics.json"

#: Histogram bucket upper bounds (seconds-oriented, log-spaced); the
#: implicit final bucket is +inf.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
)

OVERFLOW_SERIES = "obs.metrics.overflow"

_LabelItems = Tuple[Tuple[str, object], ...]


def _label_key(labels: Dict[str, object]) -> _LabelItems:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotone event counter."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Last-written value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Streaming distribution: count/sum/min/max + fixed buckets.

    ``buckets[i]`` counts observations ``<= bounds[i]``; one extra
    bucket catches everything larger.  Mean is derived, percentiles are
    bucket-resolution — good enough to answer "are cells bimodal?"
    without retaining samples.
    """

    kind = "histogram"

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge_from(
        self,
        bounds: "Iterable[float]",
        buckets: "Iterable[float]",
        count: float,
        total: float,
        minimum: Optional[float],
        maximum: Optional[float],
    ) -> None:
        """Fold another histogram's state into this one.

        Matching bucket bounds add element-wise (the lossless case —
        every worker-side histogram of the same series shares the
        parent's bounds).  Mismatched bounds re-bucket each incoming
        bucket at its upper bound (+inf into +inf), which preserves
        count/sum/min/max exactly and bucket counts to the resolution
        the coarser side had anyway.
        """
        bounds = tuple(float(bound) for bound in bounds)
        buckets = [int(bucket) for bucket in buckets]
        self.count += int(count)
        self.sum += float(total)
        if minimum is not None and (self.min is None or minimum < self.min):
            self.min = float(minimum)
        if maximum is not None and (self.max is None or maximum > self.max):
            self.max = float(maximum)
        if bounds == self.bounds and len(buckets) == len(self.buckets):
            for index, bucket in enumerate(buckets):
                self.buckets[index] += bucket
            return
        for index, bucket in enumerate(buckets):
            if not bucket:
                continue
            if index >= len(bounds):
                self.buckets[-1] += bucket
                continue
            value = bounds[index]
            for target, bound in enumerate(self.bounds):
                if value <= bound:
                    self.buckets[target] += bucket
                    break
            else:
                self.buckets[-1] += bucket

    def to_dict(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": round(self.min, 6) if self.min is not None else None,
            "max": round(self.max, 6) if self.max is not None else None,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Thread-safe, bounded collection of named metric series."""

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES) -> None:
        self._lock = threading.Lock()
        self._series: "Dict[Tuple[str, _LabelItems], object]" = {}
        self._max_series = max_series
        self.overflowed = 0

    def _get(self, name: str, labels: Dict[str, object], cls, make=None):
        key = (name, _label_key(labels))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self._max_series:
                    # Fold the event into one overflow counter so the
                    # loss is visible in exports instead of silent.
                    self.overflowed += 1
                    key = (OVERFLOW_SERIES, ())
                    series = self._series.get(key)
                    if series is None:
                        series = self._series[key] = Counter()
                    return series, True
                series = self._series[key] = (make or cls)()
            if not isinstance(series, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(series).__name__}, not {cls.__name__}"
                )
            return series, False

    def counter(self, name: str, amount: float = 1.0, **labels: object) -> None:
        series, overflow = self._get(name, labels, Counter)
        with self._lock:
            series.inc(1.0 if overflow else amount)

    def gauge(self, name: str, value: float, **labels: object) -> None:
        series, overflow = self._get(name, labels, Gauge)
        with self._lock:
            if overflow:
                series.inc()
            else:
                series.set(value)

    def histogram(
        self,
        name: str,
        value: float,
        bounds: "Optional[Iterable[float]]" = None,
        **labels: object,
    ) -> None:
        """Observe ``value``; ``bounds`` sets the bucket upper bounds iff
        this observation creates the series (an existing series keeps
        its bounds — callers of one series must agree on them)."""
        make = None
        if bounds is not None:
            fixed = tuple(float(bound) for bound in bounds)
            make = lambda: Histogram(fixed)  # noqa: E731
        series, overflow = self._get(name, labels, Histogram, make=make)
        with self._lock:
            if overflow:
                series.inc()
            else:
                series.observe(value)

    def merge(self, deltas: List[dict], **extra_labels: object) -> int:
        """Fold an exported snapshot (``registry.export()`` of another
        registry, typically a worker's) into this registry.

        ``extra_labels`` are stamped onto every merged series — the
        distributed merge passes ``worker=`` so per-worker breakdowns
        survive aggregation.  Counters and histograms add; gauges take
        the incoming value (last write wins, as for local sets).
        Returns the number of series merged; unusable entries are
        skipped and surface as an ``obs.metrics.merge_skipped`` counter.
        """
        merged = 0
        for entry in deltas:
            if not isinstance(entry, dict):
                self.counter("obs.metrics.merge_skipped")
                continue
            name = entry.get("name")
            kind = entry.get("type")
            raw_labels = entry.get("labels")
            if not isinstance(name, str) or not isinstance(kind, str):
                self.counter("obs.metrics.merge_skipped")
                continue
            labels = dict(raw_labels) if isinstance(raw_labels, dict) else {}
            labels.update(extra_labels)
            try:
                if kind == "counter":
                    self.counter(name, float(entry.get("value", 0.0)), **labels)
                elif kind == "gauge":
                    self.gauge(name, float(entry.get("value", 0.0)), **labels)
                elif kind == "histogram":
                    bounds = entry.get("bounds") or DEFAULT_BUCKETS
                    fixed = tuple(float(bound) for bound in bounds)
                    series, overflow = self._get(
                        name, labels, Histogram, make=lambda: Histogram(fixed)
                    )
                    with self._lock:
                        if overflow:
                            series.inc()
                        else:
                            series.merge_from(
                                fixed,
                                entry.get("buckets") or [],
                                entry.get("count", 0),
                                entry.get("sum", 0.0),
                                entry.get("min"),
                                entry.get("max"),
                            )
                else:
                    self.counter("obs.metrics.merge_skipped")
                    continue
            except (TypeError, ValueError):
                self.counter("obs.metrics.merge_skipped")
                continue
            merged += 1
        return merged

    def total(self, name: str, **labels: object) -> Optional[float]:
        """Sum of every counter/gauge series named ``name`` whose labels
        are a superset of the given filter, or None when no series
        matches.

        This is the cross-worker read: merged fleet counters carry an
        extra ``worker=`` label per series, so an exact :meth:`value`
        lookup misses them while ``total('fsm.sticky_saves',
        benchmark=..., engine=...)`` sums the fleet."""
        wanted = _label_key(labels)
        result: Optional[float] = None
        with self._lock:
            for (series_name, label_items), series in self._series.items():
                if series_name != name:
                    continue
                if not set(wanted) <= set(label_items):
                    continue
                if not isinstance(series, (Counter, Gauge)):
                    raise TypeError(f"metric {name!r} is a {series.kind}; use get()")
                result = (result or 0.0) + series.value
        return result

    # -- reads --------------------------------------------------------------

    def value(self, name: str, **labels: object) -> Optional[float]:
        """Current value of a counter/gauge series, or None if absent."""
        key = (name, _label_key(labels))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return None
            if isinstance(series, (Counter, Gauge)):
                return series.value
            raise TypeError(f"metric {name!r} is a {series.kind}; use get()")

    def get(self, name: str, **labels: object):
        """The raw series object (Counter/Gauge/Histogram), or None."""
        key = (name, _label_key(labels))
        with self._lock:
            return self._series.get(key)

    def export(self) -> List[dict]:
        """JSON-safe snapshot of every series, sorted by (name, labels)."""
        with self._lock:
            items = sorted(
                self._series.items(),
                key=lambda item: (item[0][0], [str(p) for p in item[0][1]]),
            )
            return [
                {"name": name, "labels": dict(label_items), **series.to_dict()}
                for (name, label_items), series in items
            ]

    def clear(self) -> None:
        with self._lock:
            self._series.clear()
            self.overflowed = 0


# -- the process-wide registry -------------------------------------------------

_DEFAULT = MetricsRegistry()
_REGISTRY = _DEFAULT


def install_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap in ``registry`` as the target of the module-level helpers."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


def uninstall_registry() -> MetricsRegistry:
    """Restore the default process-wide registry; returns the old one."""
    global _REGISTRY
    registry = _REGISTRY
    _REGISTRY = _DEFAULT
    return registry


def current_registry() -> MetricsRegistry:
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace both the default and the installed registry with a fresh
    one.  A forked worker calls this first: another parent thread may
    have held the inherited registries' lock at the fork."""
    global _DEFAULT, _REGISTRY
    _DEFAULT = _REGISTRY = MetricsRegistry()
    return _DEFAULT


def counter(name: str, amount: float = 1.0, **labels: object) -> None:
    _REGISTRY.counter(name, amount, **labels)


def gauge(name: str, value: float, **labels: object) -> None:
    _REGISTRY.gauge(name, value, **labels)


def histogram(
    name: str,
    value: float,
    bounds: "Optional[Iterable[float]]" = None,
    **labels: object,
) -> None:
    _REGISTRY.histogram(name, value, bounds=bounds, **labels)
