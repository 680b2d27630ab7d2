"""repro.obs — dependency-free tracing, metrics, profiling, and logging.

The observability layer for the reproduction: nested monotonic-clock
spans persisted as torn-tail-tolerant JSONL (:mod:`.tracing`), a typed
counter/gauge/histogram registry (:mod:`.metrics`), the opt-in
``REPRO_PROFILE=1`` cProfile report (:mod:`.profiling`),
``run_manifest.json`` writers/readers (:mod:`.manifest`), the
``obs summarize`` renderer (:mod:`.summarize`), stderr logging
gated by ``REPRO_LOG_LEVEL`` (:mod:`.logs`), and cross-process
span/metric propagation for the sweep backends (:mod:`.distributed`).

Import direction: ``repro.obs`` imports nothing from ``repro.perf`` or
``repro.experiments`` — every other layer may import obs, never the
reverse.  All hooks (:func:`span`, :func:`record`, :func:`counter`,
:func:`get_logger`) are cheap no-ops or level-gated when no tracer is
installed, so library code stays instrumented unconditionally.
"""

from repro.obs.distributed import (
    DROPPED_COUNTER,
    MAX_SHIPPED_SPANS,
    OBS_WIRE_VERSION,
    WorkerCapture,
    merge_cell_payload,
    propagation_context,
)
from repro.obs.logs import LOG_LEVELS, configure_logging, get_logger
from repro.obs.manifest import (
    MANIFEST_FILENAME,
    build_manifest,
    git_sha,
    read_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    METRICS_FILENAME,
    MetricsRegistry,
    counter,
    current_registry,
    gauge,
    histogram,
    install_registry,
    uninstall_registry,
)
from repro.obs.profiling import PROFILE_FILENAME, profile_report
from repro.obs.summarize import summarize_directory, summarize_run
from repro.obs.tracing import (
    TRACE_FILENAME,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    iter_jsonl,
    read_spans,
    record,
    span,
    uninstall_tracer,
)

__all__ = [
    "DROPPED_COUNTER",
    "LOG_LEVELS",
    "MANIFEST_FILENAME",
    "MAX_SHIPPED_SPANS",
    "METRICS_FILENAME",
    "MetricsRegistry",
    "OBS_WIRE_VERSION",
    "PROFILE_FILENAME",
    "Span",
    "TRACE_FILENAME",
    "Tracer",
    "WorkerCapture",
    "build_manifest",
    "configure_logging",
    "counter",
    "current_registry",
    "current_tracer",
    "gauge",
    "get_logger",
    "git_sha",
    "histogram",
    "install_registry",
    "install_tracer",
    "iter_jsonl",
    "merge_cell_payload",
    "profile_report",
    "propagation_context",
    "read_manifest",
    "read_spans",
    "record",
    "span",
    "summarize_directory",
    "summarize_run",
    "uninstall_registry",
    "uninstall_tracer",
    "write_manifest",
]
