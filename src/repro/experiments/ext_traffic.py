"""Extension: memory traffic of the competing designs.

Miss *rate* is the paper's metric, but what a memory system ultimately
pays for is bytes moved.  This experiment runs the mixed traces through
write-back caches (16-byte lines, unified I+D) and accounts the full
traffic — line fills plus dirty write-backs plus written-through
bypassed stores — for the direct-mapped baseline, dynamic exclusion,
and a 2-way set-associative cache.

Expected shape: exclusion's fetch traffic tracks its (lower) miss
count, since a bypassed load still transfers its line once; its
write-back traffic is essentially the baseline's.

A multi-metric cell: the evaluator returns miss rate *and* the two
traffic figures, all three journaled together, and the collect step
means each metric across traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.report import format_table
from ..caches.direct_mapped import DirectMappedCache
from ..caches.geometry import CacheGeometry
from ..caches.set_associative import SetAssociativeCache
from ..caches.write_policy import WritePolicyCache
from ..core.hitlast import IdealHitLastStore
from ..core.long_lines import make_long_line_exclusion_cache
from ..perf import engine as engine_mod
from ..trace.trace import Trace
from .common import REFERENCE_SIZE
from .spec import BenchmarkSuite, ExperimentSpec, GridResult, register

TITLE = "Extension: memory traffic per 1000 references (S=32KB, b=16B, write-back)"

LINE_SIZE = 16

_LABELS = ["direct-mapped", "dynamic-exclusion", "2-way"]

_METRICS = ["miss_rate", "fetch_bytes_per_kiloref", "write_bytes_per_kiloref"]


@dataclass(frozen=True)
class TrafficFactory:
    """A write-back cache for one of the compared designs."""

    label: str
    line_size: int = LINE_SIZE

    def __call__(self, size: object):
        geometry = CacheGeometry(int(size), self.line_size)  # type: ignore[call-overload]
        if self.label == "direct-mapped":
            return WritePolicyCache(DirectMappedCache(geometry))
        if self.label == "dynamic-exclusion":
            return WritePolicyCache(
                make_long_line_exclusion_cache(
                    geometry, store=IdealHitLastStore(default=True)
                )
            )
        if self.label == "2-way":
            two_way = CacheGeometry(int(size), self.line_size, associativity=2)  # type: ignore[call-overload]
            return WritePolicyCache(SetAssociativeCache(two_way))
        raise ValueError(f"unknown design {self.label!r}")


@dataclass(frozen=True)
class TrafficEvaluator:
    """Simulate, flush the dirty lines, and account bytes moved."""

    line_size: int = LINE_SIZE

    def __call__(
        self, model: WritePolicyCache, trace: Trace, engine: Optional[str]
    ) -> Dict[str, float]:
        stats = engine_mod.simulate(model, trace, engine)
        model.flush()
        per_kilo = 1000.0 / max(1, len(trace))
        return {
            "miss_rate": stats.miss_rate,
            "fetch_bytes_per_kiloref": model.traffic.bytes_fetched(self.line_size)
            * per_kilo,
            "write_bytes_per_kiloref": model.traffic.bytes_written(self.line_size)
            * per_kilo,
        }


def _collect(grid: GridResult) -> "Dict[str, Dict[str, float]]":
    size = grid.parameters[0]
    return {
        label: {metric: grid.mean(label, size, metric) for metric in _METRICS}
        for label in grid.labels
    }


def _render(results: "Dict[str, Dict[str, float]]") -> str:
    rows = []
    for label, values in results.items():
        total = (
            values["fetch_bytes_per_kiloref"] + values["write_bytes_per_kiloref"]
        )
        rows.append(
            [
                label,
                f"{values['miss_rate']:.3%}",
                f"{values['fetch_bytes_per_kiloref']:.0f}",
                f"{values['write_bytes_per_kiloref']:.0f}",
                f"{total:.0f}",
            ]
        )
    return format_table(
        ["configuration", "miss rate", "fetch B/1k refs",
         "write B/1k refs", "total B/1k refs"],
        rows,
        title=TITLE,
    )


SPEC = register(
    ExperimentSpec(
        id="ext-traffic",
        title=TITLE,
        parameter_name="cache size",
        parameters=(REFERENCE_SIZE,),
        factories=tuple((label, TrafficFactory(label)) for label in _LABELS),
        traces=BenchmarkSuite("mixed"),
        evaluator=TrafficEvaluator(),
        collect=_collect,
        render=_render,
    )
)
