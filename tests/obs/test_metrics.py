"""Tests for repro.obs.metrics — the typed, bounded metrics registry."""

import json
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    OVERFLOW_SERIES,
)


@pytest.fixture
def registry():
    """A fresh registry installed as the module-level target."""
    registry = metrics.install_registry(MetricsRegistry())
    yield registry
    metrics.uninstall_registry()


class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Counter().inc(-1)


class TestGauge:
    def test_keeps_last_value(self):
        gauge = Gauge()
        gauge.set(4)
        gauge.set(2)
        assert gauge.value == 2.0


class TestRegistry:
    def test_labels_key_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("fsm.sticky_saves", 3, benchmark="gcc", engine="fast")
        registry.counter("fsm.sticky_saves", 5, benchmark="li", engine="fast")
        assert registry.value("fsm.sticky_saves", benchmark="gcc", engine="fast") == 3
        assert registry.value("fsm.sticky_saves", benchmark="li", engine="fast") == 5

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x", 1, a=1, b=2)
        registry.counter("x", 1, b=2, a=1)
        assert registry.value("x", a=1, b=2) == 2

    def test_absent_series_reads_none(self):
        registry = MetricsRegistry()
        assert registry.value("nope") is None
        assert registry.get("nope") is None

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x", 1.0)

    def test_export_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.gauge("sweep.workers", 4, engine="fast")
        registry.counter("sweep.runs", engine="fast")
        registry.counter("sweep.cells.completed", 3, engine="fast")
        exported = json.loads(json.dumps(registry.export()))
        assert [entry["name"] for entry in exported] == [
            "sweep.cells.completed",
            "sweep.runs",
            "sweep.workers",
        ]
        assert all(entry["labels"] == {"engine": "fast"} for entry in exported)
        assert [entry["type"] for entry in exported] == [
            "counter",
            "counter",
            "gauge",
        ]
        assert [entry["value"] for entry in exported] == [3.0, 1.0, 4.0]

    def test_overflow_folds_into_one_counter(self):
        registry = MetricsRegistry(max_series=2)
        registry.counter("a")
        registry.counter("b")
        registry.counter("c")  # past the bound
        registry.gauge("d", 9.0)  # past the bound
        registry.counter("e", 5.0)  # past the bound: counts one event
        assert registry.overflowed == 3
        assert registry.value(OVERFLOW_SERIES) == 3
        # Existing series keep working at the bound.
        registry.counter("a")
        assert registry.value("a") == 2

    def test_total_sums_label_supersets(self):
        registry = MetricsRegistry()
        registry.counter("fsm.flips", 2, benchmark="gcc", worker="w0")
        registry.counter("fsm.flips", 3, benchmark="gcc", worker="w1")
        registry.counter("fsm.flips", 7, benchmark="li", worker="w0")
        assert registry.total("fsm.flips", benchmark="gcc") == 5
        assert registry.total("fsm.flips") == 12
        assert registry.total("fsm.flips", benchmark="absent") is None

    def test_clear(self):
        registry = MetricsRegistry(max_series=1)
        registry.counter("a")
        registry.counter("b")
        registry.clear()
        assert registry.export() == []
        assert registry.overflowed == 0

    def test_writes_are_thread_safe(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.counter("hits")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.value("hits") == 4000


class TestModuleLevelHelpers:
    def test_helpers_write_to_installed_registry(self, registry):
        metrics.counter("sweep.runs", engine="fast")
        metrics.counter("sweep.runs", 2, engine="fast")
        metrics.gauge("sweep.workers", 2, engine="fast")
        assert registry.value("sweep.runs", engine="fast") == 3
        assert registry.value("sweep.workers", engine="fast") == 2
        assert isinstance(registry.get("sweep.runs", engine="fast"), Counter)

    def test_uninstall_restores_the_default(self):
        scoped = metrics.install_registry(MetricsRegistry())
        assert metrics.current_registry() is scoped
        assert metrics.uninstall_registry() is scoped
        assert metrics.current_registry() is not scoped
        # The default registry is a real registry, not None.
        assert isinstance(metrics.current_registry(), MetricsRegistry)
