"""Structured sweep telemetry: per-run records, the drain log, metrics.

Since the ``repro.obs`` metrics registry became the primary sink (see
:func:`publish_metrics`), :class:`SweepTelemetry` is the per-run
compatibility view the experiments CLI serialises to
``<id>.telemetry.json`` — same fields, same JSON shape as always, plus
backend/worker attribution since the backend split.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

from ..obs import metrics as obs_metrics


@dataclass
class SweepTelemetry:
    """Structured counters for one ``run_labeled_cells`` invocation.

    ``backend`` names the execution backend that ran the sweep
    (``inline`` / ``fleet``; empty for records
    predating the backend split).  ``worker_cells`` counts computed
    cells per fleet worker id — empty for single-process backends.
    """

    engine: str
    workers: int
    total: int = 0
    completed: int = 0
    failed: int = 0
    cached: int = 0
    pool_restarts: int = 0
    elapsed: float = 0.0
    cell_seconds: List[float] = field(default_factory=list)
    backend: str = ""
    worker_cells: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        timings = self.cell_seconds
        data = {
            "kind": "sweep-telemetry",
            "version": 1,
            "engine": self.engine,
            "workers": self.workers,
            "cells_total": self.total,
            "cells_completed": self.completed,
            "cells_failed": self.failed,
            "cells_cached": self.cached,
            "pool_restarts": self.pool_restarts,
            "elapsed_seconds": round(self.elapsed, 6),
            "cell_seconds": [round(s, 6) for s in timings],
            "cell_seconds_mean": round(sum(timings) / len(timings), 6) if timings else 0.0,
            "cell_seconds_max": round(max(timings), 6) if timings else 0.0,
            "backend": self.backend,
        }
        if self.worker_cells:
            data["worker_cells"] = dict(self.worker_cells)
        return data

    # The serialisation API is ``as_dict``/``from_dict``; ``to_dict``
    # remains as the original spelling callers already use.
    def as_dict(self) -> dict:
        return self.to_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "SweepTelemetry":
        """Rebuild a record from :meth:`as_dict` output (round-trip safe
        modulo the 1e-6 rounding applied on the way out)."""
        if data.get("kind") != "sweep-telemetry":
            raise ValueError(f"not a sweep-telemetry record: {data.get('kind')!r}")
        return cls(
            engine=str(data["engine"]),
            workers=int(data["workers"]),
            total=int(data["cells_total"]),
            completed=int(data["cells_completed"]),
            failed=int(data["cells_failed"]),
            cached=int(data["cells_cached"]),
            pool_restarts=int(data["pool_restarts"]),
            elapsed=float(data["elapsed_seconds"]),
            cell_seconds=[float(s) for s in data.get("cell_seconds", [])],
            backend=str(data.get("backend", "")),
            worker_cells={
                str(k): int(v)
                for k, v in data.get("worker_cells", {}).items()
            },
        )

    def summary(self) -> str:
        backend = f", backend={self.backend}" if self.backend else ""
        return (
            f"{self.total} cells: {self.completed} done "
            f"({self.cached} from journal), {self.failed} failed, "
            f"{self.pool_restarts} pool restarts, "
            f"{self.workers} worker(s), engine={self.engine}{backend}, "
            f"{self.elapsed:.2f}s"
        )


#: Retained run records for callers that never drain (a library user
#: driving run_labeled_cells in a loop): the deque discards the oldest
#: past this bound instead of growing for the life of the process.  The
#: obs metrics registry keeps the running totals regardless.
TELEMETRY_LOG_LIMIT = 256

_TELEMETRY_LOCK = threading.Lock()
_TELEMETRY_LOG: Deque[SweepTelemetry] = deque(maxlen=TELEMETRY_LOG_LIMIT)


def drain_telemetry() -> List[SweepTelemetry]:
    """Return and clear the telemetry records accumulated so far."""
    with _TELEMETRY_LOCK:
        drained = list(_TELEMETRY_LOG)
        _TELEMETRY_LOG.clear()
    return drained


def log_telemetry(telemetry: SweepTelemetry) -> None:
    with _TELEMETRY_LOCK:
        _TELEMETRY_LOG.append(telemetry)


def publish_metrics(telemetry: SweepTelemetry) -> None:
    """Fold one run's telemetry into the obs metrics registry."""
    engine = telemetry.engine
    obs_metrics.counter("sweep.runs", engine=engine)
    obs_metrics.counter("sweep.cells.total", telemetry.total, engine=engine)
    obs_metrics.counter("sweep.cells.completed", telemetry.completed, engine=engine)
    obs_metrics.counter("sweep.cells.failed", telemetry.failed, engine=engine)
    obs_metrics.counter("sweep.cells.cached", telemetry.cached, engine=engine)
    obs_metrics.counter("sweep.pool_restarts", telemetry.pool_restarts, engine=engine)
    obs_metrics.gauge("sweep.workers", telemetry.workers, engine=engine)
    if telemetry.backend:
        obs_metrics.counter("sweep.runs.by_backend", backend=telemetry.backend)
    for worker_id, count in telemetry.worker_cells.items():
        obs_metrics.counter("sweep.cells.by_worker", count, worker=worker_id)
    for seconds in telemetry.cell_seconds:
        obs_metrics.histogram("cell.seconds", seconds, engine=engine)
