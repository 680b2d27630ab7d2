"""Extension: dynamic exclusion under multiprogramming.

The paper evaluates single programs; a natural question for a real
machine is what context switches do to the exclusion state.  Sticky and
hit-last bits are trained per address, so when two programs share a
cache their conflicting words fight across quanta.  This experiment
timeshares pairs of benchmarks at several quantum lengths and compares
direct-mapped, dynamic exclusion, and optimal replacement on the shared
reference stream.

Expected shape: very short quanta destroy locality for every policy and
shrink exclusion's edge (the FSM retrains each quantum); at realistic
quanta (tens of thousands of references) the single-program improvement
survives almost intact.

As a grid spec the quantum is the parameter and the trace axis is a set
of :class:`TimeshareKey` recipes — deterministic, picklable, and
quantum-dependent, demonstrating that any recipe with
``name``/``kind``/``max_refs``/``load`` plugs into the sweep runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis.plot import ascii_chart
from ..analysis.report import format_table
from ..caches.geometry import CacheGeometry
from ..caches.stats import percent_reduction
from ..perf.trace_cache import TraceKey, as_trace
from ..trace.trace import Trace
from ..trace.transforms import timeshare
from .common import REFERENCE_LINE, REFERENCE_SIZE, direct_mapped, dynamic_exclusion, optimal
from .spec import ExperimentSpec, GridResult, register

TITLE = "Extension: dynamic exclusion under timesharing (S=32KB, b=4B)"

#: Benchmark pairs that share the cache (big code + big code, and big
#: code + small kernel).
PAIRS: "Tuple[Tuple[str, str], ...]" = (("gcc", "spice"), ("li", "doduc"), ("gcc", "tomcatv"))

QUANTA = (100, 1_000, 10_000, 100_000)

_POLICIES = ["direct-mapped", "dynamic-exclusion", "optimal"]


@dataclass(frozen=True)
class TimeshareKey:
    """Recipe for a timeshared trace: two benchmarks, one quantum.

    Pickles as four scalars; workers rebuild (and memoise) the
    interleaved stream locally, like :class:`~repro.perf.parallel.TraceKey`.
    """

    left: str
    right: str
    quantum: int
    max_refs: int

    @property
    def name(self) -> str:
        return f"{self.left}+{self.right}@q{self.quantum}"

    @property
    def kind(self) -> str:
        return "timeshare"

    def load(self) -> Trace:
        return as_trace(self)

    def _build(self) -> Trace:
        # Each half is sized by this key's own max_refs, never by the
        # building process's REPRO_TRACE_SCALE: the key names the trace.
        return timeshare(
            [as_trace(TraceKey(name, "instruction", self.max_refs))
             for name in (self.left, self.right)],
            quantum=self.quantum,
            name=f"{self.left}+{self.right}",
        )


@dataclass(frozen=True)
class TimesharePairs:
    """The trace axis: one timeshared recipe per pair, at the cell's quantum."""

    pairs: "Tuple[Tuple[str, str], ...]" = PAIRS

    def for_parameter(self, quantum: object) -> Sequence[TimeshareKey]:
        from ..env import max_refs

        budget = max_refs()
        return [
            TimeshareKey(left, right, int(quantum), budget)  # type: ignore[call-overload]
            for left, right in self.pairs
        ]


@dataclass(frozen=True)
class SharedCacheFactory:
    """One policy at the fixed reference geometry (quantum is trace-side)."""

    curve: str
    size: int = REFERENCE_SIZE
    line_size: int = REFERENCE_LINE

    def __call__(self, quantum: object):
        geometry = CacheGeometry(self.size, self.line_size)
        if self.curve == "direct-mapped":
            return direct_mapped(geometry)
        if self.curve == "dynamic-exclusion":
            return dynamic_exclusion(geometry)
        if self.curve == "optimal":
            return optimal(geometry)
        raise ValueError(f"unknown curve {self.curve!r}")


def _collect(grid: GridResult) -> dict:
    rows: dict = {}
    for quantum in grid.parameters:
        rows[int(quantum)] = {
            label: grid.mean(label, quantum) for label in grid.labels
        }
    return rows


def _render(rows: dict) -> str:
    table_rows = []
    for quantum, rates in rows.items():
        table_rows.append(
            [
                f"{quantum:,}",
                f"{rates['direct-mapped']:.3%}",
                f"{rates['dynamic-exclusion']:.3%}",
                f"{rates['optimal']:.3%}",
                f"{percent_reduction(rates['direct-mapped'], rates['dynamic-exclusion']):.1f}%",
            ]
        )
    table = format_table(
        ["quantum (refs)", "direct-mapped", "dynamic-exclusion", "optimal",
         "DE reduction"],
        table_rows,
        title=TITLE,
    )
    chart = ascii_chart(
        {
            label: [100 * rows[q][label] for q in QUANTA]
            for label in _POLICIES
        },
        x_labels=[f"{q:,}" for q in QUANTA],
        title="shared-cache miss rate (%) vs quantum",
    )
    return f"{table}\n\n{chart}"


SPEC = register(
    ExperimentSpec(
        id="ext-context",
        title=TITLE,
        parameter_name="quantum",
        parameters=QUANTA,
        factories=tuple((curve, SharedCacheFactory(curve)) for curve in _POLICIES),
        traces=TimesharePairs(),
        collect=_collect,
        render=_render,
    )
)


def reductions(rows: dict) -> "dict[int, float]":
    """Quantum -> mean percent reduction from dynamic exclusion."""
    return {
        quantum: percent_reduction(
            rates["direct-mapped"], rates["dynamic-exclusion"]
        )
        for quantum, rates in rows.items()
    }
