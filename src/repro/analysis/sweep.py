"""Parameter-sweep helpers shared by the experiment modules.

A sweep runs one simulator factory over a grid of parameter values and a
set of traces, collecting miss rates into a
:class:`SweepResult` that the report/plot modules can render directly.

Sweeps execute through :mod:`repro.perf`: the ``engine`` argument picks
the fast compiled kernels or the reference simulators (results
are identical), and ``workers`` fans the independent (parameter,
policy, trace) cells out to fleet workers.  Traces may be given as
:class:`~repro.trace.trace.Trace` objects or as cheap
:class:`~repro.perf.parallel.TraceKey` recipes; parallel runs want keys
so workers get traces from the memo they inherit, or build them
locally, instead of unpickling megabyte arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..caches.base import Cache, OfflineCache
from ..perf import parallel
from ..perf.engine import simulate as engine_simulate
from ..store import ResultStore
from ..trace.trace import Trace

#: A factory mapping one sweep parameter value to a fresh simulator.
CacheFactory = Callable[[object], Union[Cache, OfflineCache]]


@dataclass
class Series:
    """One labelled curve: parameter values to mean miss rates."""

    label: str
    points: "Dict[object, float]" = field(default_factory=dict)

    def values(self, params: Sequence[object]) -> List[float]:
        return [self.points[p] for p in params]


@dataclass
class SweepResult:
    """All curves from one sweep, plus the parameter axis."""

    parameter_name: str
    parameters: List[object]
    series: "Dict[str, Series]" = field(default_factory=dict)

    def add(self, label: str, parameter: object, value: float) -> None:
        self.series.setdefault(label, Series(label)).points[parameter] = value

    def curve(self, label: str) -> List[float]:
        return self.series[label].values(self.parameters)


def run_sweep(
    parameter_name: str,
    parameters: Sequence[object],
    factories: "Dict[str, CacheFactory]",
    traces: Sequence[parallel.TraceLike],
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    journal: Optional[ResultStore] = None,
    progress: Optional[bool] = None,
    timeout: Optional[float] = None,
) -> SweepResult:
    """Simulate every (parameter, factory) pair over ``traces``.

    The recorded value is the *mean miss rate across traces* — the
    paper averages miss rates over the SPEC benchmarks, not over pooled
    references, and we follow it.

    ``engine`` defaults to the process default engine and ``workers``
    to ``REPRO_WORKERS`` or 1 (see :mod:`repro.perf`); passing
    ``workers`` above 1 requires picklable factories and is cheapest
    with :class:`~repro.perf.parallel.TraceKey` traces.

    Cells run through the resilient envelope layer
    (:func:`repro.perf.parallel.run_labeled_cells`): worker crashes are
    retried on respawned workers, ``journal`` (a
    :class:`~repro.store.ResultStore`) resumes an interrupted sweep from
    its completed cells, and any cell that still fails raises
    :class:`~repro.perf.parallel.SweepCellError` naming each failed
    cell's (label, parameter, trace, engine) identity.

    Raises :class:`ValueError` when ``parameters`` or ``traces`` is
    empty: an empty sweep has no miss rates to average, and silently
    recording 0.0 would plant plausible-looking zeros in figures.
    """
    if not parameters:
        raise ValueError("run_sweep requires at least one parameter value")
    if not traces:
        raise ValueError(
            "run_sweep requires at least one trace; refusing to record "
            "a fake 0.0 mean miss rate for an empty trace set"
        )
    result = SweepResult(parameter_name=parameter_name, parameters=list(parameters))
    cells = [
        (label, factory, parameter, trace)
        for parameter in parameters
        for label, factory in factories.items()
        for trace in traces
    ]
    outcomes = parallel.run_labeled_cells(
        cells, engine=engine, workers=workers, timeout=timeout,
        journal=journal, progress=progress,
    )
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise parallel.SweepCellError(failures, len(outcomes))
    rates = [outcome.miss_rate for outcome in outcomes]
    per_trace = len(traces)
    position = 0
    for parameter in parameters:
        for label in factories:
            cell_rates = rates[position : position + per_trace]
            position += per_trace
            result.add(label, parameter, sum(cell_rates) / per_trace)
    return result


def per_trace_rates(
    factory: Callable[[], Union[Cache, OfflineCache]],
    traces: Sequence[parallel.TraceLike],
    engine: Optional[str] = None,
) -> "Dict[str, float]":
    """Miss rate of one configuration on each trace, keyed by trace name."""
    rates: "Dict[str, float]" = {}
    for trace_like in traces:
        trace = parallel.as_trace(trace_like)
        stats = engine_simulate(factory(), trace, engine=engine)
        rates[trace.name or f"trace{len(rates)}"] = stats.miss_rate
    return rates
