"""Figure 2: the SPEC benchmark roster (plus trace characteristics).

The paper's Figure 2 is just the name/description table; we extend it
with the synthetic traces' measured properties so the substitution
documented in DESIGN.md is auditable.  As a grid spec the per-benchmark
summaries journal like any sweep cell: the one parameter is the
footprint granule, the trace axis is the mixed benchmark suite, and a
custom evaluator returns the summary's counters as metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis.report import format_table, size_label
from ..trace.stats import TraceSummary, summarize
from ..trace.trace import Trace
from ..workloads.registry import describe
from .spec import BenchmarkSuite, ExperimentSpec, GridResult, register

TITLE = "Figure 2: SPEC benchmarks used for evaluation"

#: Bytes per distinct address when converting counts to footprints.
GRANULE = 4

_SUMMARY_FIELDS = (
    "length",
    "instruction_refs",
    "load_refs",
    "store_refs",
    "footprint_bytes",
    "instruction_footprint_bytes",
    "data_footprint_bytes",
)


@dataclass(frozen=True)
class GranuleProbe:
    """The 'model' of a summary cell is just the footprint granule."""

    def __call__(self, granule: object) -> int:
        return int(granule)  # type: ignore[call-overload]


@dataclass(frozen=True)
class SummarizeEvaluator:
    """Trace characterisation as cell metrics (all counters are ints)."""

    def __call__(self, granule: int, trace: Trace, engine: str) -> Dict[str, float]:
        summary = summarize(trace, granule=granule)
        return {name: float(getattr(summary, name)) for name in _SUMMARY_FIELDS}


def _collect(grid: GridResult) -> "Dict[str, TraceSummary]":
    granule = grid.parameters[0]
    names = grid.trace_names(granule)
    summaries: "Dict[str, TraceSummary]" = {}
    for name, metrics in zip(names, grid.cell_metrics("summary", granule)):
        summaries[name] = TraceSummary(
            name=name, **{field: int(metrics[field]) for field in _SUMMARY_FIELDS}
        )
    return summaries


def _render(summaries: "Dict[str, TraceSummary]") -> str:
    rows: List[List[object]] = []
    for name, summary in summaries.items():
        data_share = (
            100.0 * summary.data_refs / summary.length if summary.length else 0.0
        )
        rows.append(
            [
                name,
                describe(name),
                summary.length,
                size_label(summary.instruction_footprint_bytes),
                size_label(summary.data_footprint_bytes),
                f"{data_share:.1f}%",
            ]
        )
    return format_table(
        ["benchmark", "description", "refs", "I-footprint", "D-footprint", "data refs"],
        rows,
        title=TITLE,
    )


SPEC = register(
    ExperimentSpec(
        id="fig02",
        title=TITLE,
        parameter_name="granule",
        parameters=(GRANULE,),
        factories=(("summary", GranuleProbe()),),
        traces=BenchmarkSuite("mixed"),
        evaluator=SummarizeEvaluator(),
        collect=_collect,
        render=_render,
    )
)
