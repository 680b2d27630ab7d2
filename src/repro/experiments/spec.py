"""Declarative experiment specs: one pipeline from figure to results.

Every figure/table module used to hand-roll the same loop — build
traces, build models, simulate, average across benchmarks, memoise per
process — each with its own cache dict and its own (in)ability to use
the fast kernels, the worker pool, or the resume journal.  This module
replaces those loops with a single declarative layer:

* :class:`ExperimentSpec` describes an experiment — a *grid* (parameter
  axis x picklable model factories x trace recipes, with an optional
  custom per-cell metric evaluator and a ``collect`` post-processor), a
  *derived* transform over other specs' results (``base`` + ``derive``,
  e.g. Figure 5's percent-reduction over Figure 4), or an irregular
  *custom* computation (``compute``);
* :func:`run_spec` is the one executor: grid specs run through
  :func:`repro.perf.parallel.run_labeled_cells` (engine dispatch,
  process pool, per-cell envelopes, resume journal), derived specs
  recursively run their bases, and every result lands in a
  process-wide cache keyed by ``(spec fingerprint, trace budget)`` so
  derived figures share their base sweep and a ``REPRO_TRACE_SCALE``
  change can never serve stale results;
* :func:`register` / :func:`get_spec` maintain the central registry the
  CLI frontends and the differential tests iterate.

Grid cells journal under exactly the identity scheme the pre-spec sweep
runner used (the ``evaluator`` field joins the key payload only for
custom evaluators), so a journal written by the old runner resumes
under :func:`run_spec` unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.sweep import SweepResult
from ..env import max_refs
from ..obs import tracing as obs_tracing
from ..perf import parallel
from ..perf.parallel import CellEvaluator, CellOutcome, SweepCellError, TraceLike
from ..store import ResultStore
from .common import STANDARD_CURVES, all_trace_keys


# -- trace axes ----------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSuite:
    """The standard trace recipe: every SPEC benchmark, one kind.

    Resolved at run time so the recipes carry the *current*
    ``REPRO_TRACE_SCALE`` budget; the parameter is ignored (the same
    benchmarks back every point of a size or line-size sweep).
    """

    kind: str = "instruction"

    def for_parameter(self, parameter: object) -> Sequence[TraceLike]:
        return all_trace_keys(self.kind)


# -- the spec ------------------------------------------------------------------

#: A labelled model factory: ``factory(parameter) -> simulator``.  Must
#: be picklable (module-level callable or frozen dataclass) with an
#: address-free repr so its cells fan out to workers and journal.
FactoryPair = Tuple[str, Callable[[object], object]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, declaratively.

    Exactly one of the three shapes must be populated:

    * **grid** — ``parameter_name``/``parameters``/``factories``/
      ``traces`` (+ optional ``evaluator`` and ``collect``);
    * **derived** — ``base`` spec ids + a ``derive`` transform over
      their results;
    * **custom** — a ``compute`` thunk for experiments with no grid
      structure (e.g. the Section 3 analytic patterns).

    ``render`` turns the result into the report text; ``hidden`` keeps
    auxiliary base specs (the b=16B size sweep, the two-level hierarchy
    grid) out of the CLI listing while still letting derived specs and
    ``--only`` reach them.
    """

    id: str
    title: str
    # grid shape
    parameter_name: str = ""
    parameters: Tuple[object, ...] = ()
    factories: Tuple[FactoryPair, ...] = ()
    traces: Optional[object] = None
    evaluator: Optional[CellEvaluator] = None
    collect: Optional[Callable[["GridResult"], object]] = None
    # derived shape
    base: Tuple[str, ...] = ()
    derive: Optional[Callable[..., object]] = None
    # custom shape
    compute: Optional[Callable[[], object]] = None
    # presentation
    render: Optional[Callable[[object], str]] = None
    hidden: bool = False

    def __post_init__(self) -> None:
        shapes = [bool(self.parameters), self.derive is not None, self.compute is not None]
        if sum(shapes) != 1:
            raise ValueError(
                f"spec {self.id!r} must be exactly one of grid (parameters), "
                f"derived (derive), or custom (compute)"
            )
        if self.parameters and (not self.factories or self.traces is None):
            raise ValueError(f"grid spec {self.id!r} needs factories and traces")
        if self.derive is not None and not self.base:
            raise ValueError(f"derived spec {self.id!r} needs base spec ids")

    @property
    def kind(self) -> str:
        if self.parameters:
            return "grid"
        if self.derive is not None:
            return "derived"
        return "custom"

    def fingerprint(self) -> str:
        """An address-free content identity for the result cache.

        Built from stable prints of every defining field — deliberately
        *not* the id or title, so two specs describing the same
        computation share cached results (a
        ``size_sweep_spec(..., kind="data")`` built under any other id
        and the registered ``fig14`` spec are one cache entry) while
        any change in grid, factories, evaluator, or derivation chain
        is a different key.  Raises :class:`ValueError` for components
        whose repr embeds a memory address (lambdas, local closures) —
        those cannot be named stably across processes or sessions.
        """
        payload = {
            "kind": self.kind,
            "parameter_name": self.parameter_name,
            "parameters": [_stable_print(p, self.id) for p in self.parameters],
            "factories": [
                [label, _stable_print(factory, self.id)]
                for label, factory in self.factories
            ],
            "traces": _stable_print(self.traces, self.id),
            "evaluator": _stable_print(self.evaluator, self.id),
            "collect": _stable_print(self.collect, self.id),
            "base": list(self.base),
            "derive": _stable_print(self.derive, self.id),
            "compute": _stable_print(self.compute, self.id),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_digest(spec: "ExperimentSpec") -> str:
    """Short stable sha256 digest of a spec's content fingerprint.

    The form recorded in run manifests and served by ``repro.serve`` —
    compact enough for logs, stable across processes and sessions.
    """
    return hashlib.sha256(spec.fingerprint().encode("utf-8")).hexdigest()[:16]


def _stable_print(obj: object, spec_id: str) -> str:
    """A repr stable across processes, or a ValueError naming the spec."""
    if obj is None:
        return "-"
    if isinstance(obj, (types.FunctionType, types.MethodType)):
        qualname = getattr(obj, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ValueError(
                f"spec {spec_id!r} uses a lambda/local function {qualname!r}; "
                f"use a module-level function or frozen dataclass so the "
                f"spec fingerprints (and pickles) stably"
            )
        return f"{obj.__module__}.{qualname}"
    text = repr(obj)
    if " at 0x" in text or "object at" in text:
        raise ValueError(
            f"spec {spec_id!r} component {type(obj).__name__} reprs a memory "
            f"address; give it a stable repr (frozen dataclass) so the spec "
            f"fingerprints stably"
        )
    return text


# -- grid results --------------------------------------------------------------


@dataclass
class GridResult:
    """All cell metrics from one grid run, shaped for ``collect``.

    Cells are ordered parameter-major, then factory label, then trace —
    the same order the pre-spec ``run_sweep`` used — and every accessor
    preserves it, so collectors that average across traces reproduce
    the old figures bit-for-bit.
    """

    parameter_name: str
    parameters: List[object]
    labels: List[str]
    outcomes: List[CellOutcome] = field(default_factory=list)
    _traces: Dict[object, List[str]] = field(default_factory=dict)
    _cells: Dict[Tuple[str, object], List[Dict[str, float]]] = field(default_factory=dict)

    def trace_names(self, parameter: Optional[object] = None) -> List[str]:
        parameter = self.parameters[0] if parameter is None else parameter
        return list(self._traces[parameter])

    def cell_metrics(self, label: str, parameter: object) -> List[Dict[str, float]]:
        """Per-trace metric dicts for one (curve, parameter) pair."""
        return [dict(m) for m in self._cells[(label, parameter)]]

    def values(
        self, label: str, parameter: object, metric: str = "miss_rate"
    ) -> List[float]:
        return [m[metric] for m in self._cells[(label, parameter)]]

    def mean(self, label: str, parameter: object, metric: str = "miss_rate") -> float:
        values = self.values(label, parameter, metric)
        return sum(values) / len(values)

    def sweep_result(self, metric: str = "miss_rate") -> SweepResult:
        """The default collection: mean metric across traces per curve."""
        result = SweepResult(
            parameter_name=self.parameter_name, parameters=list(self.parameters)
        )
        for parameter in self.parameters:
            for label in self.labels:
                result.add(label, parameter, self.mean(label, parameter, metric))
        return result


def collect_sweep(grid: GridResult) -> SweepResult:
    """The default ``collect``: a mean-miss-rate :class:`SweepResult`."""
    return grid.sweep_result()


# -- registry ------------------------------------------------------------------

_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the central registry (import-time, one per id)."""
    existing = _REGISTRY.get(spec.id)
    if existing is not None and existing is not spec:
        raise ValueError(f"experiment spec {spec.id!r} is already registered")
    spec.fingerprint()  # fail at registration, not first run
    _REGISTRY[spec.id] = spec
    return spec


def get_spec(spec_id: str) -> ExperimentSpec:
    try:
        return _REGISTRY[spec_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown experiment spec {spec_id!r}; known: {known}") from None


def all_specs(include_hidden: bool = False) -> List[ExperimentSpec]:
    """Registered specs in registration order."""
    return [s for s in _REGISTRY.values() if include_hidden or not s.hidden]


# -- the executor --------------------------------------------------------------

#: (fingerprint, trace budget) -> collected result.  One entry per spec
#: per scale; derived figures therefore compute their base sweep once
#: per process, and a REPRO_TRACE_SCALE flip evicts everything computed
#: under the old budget (stale results can never be served, and dead
#: scales do not accumulate).
_RESULT_CACHE: Dict[Tuple[str, int], object] = {}


def clear_result_cache() -> None:
    """Drop every cached spec result (tests; scale changes do it lazily)."""
    _RESULT_CACHE.clear()


def remember_result(spec: ExperimentSpec, result: object) -> object:
    """Cache ``result`` as ``spec``'s value under the current trace budget.

    :func:`run_spec` records every result it computes here, and
    ``repro.serve`` records each value it folds from the result store,
    so a later :func:`run_spec` of the same spec — a derived figure, or
    Figure 12's render reading its base — is a cache hit either way.
    Entries from other budgets are evicted first.
    """
    budget = max_refs()
    for key in list(_RESULT_CACHE):  # a snapshot: serve threads write too
        if key[1] != budget:
            _RESULT_CACHE.pop(key, None)
    _RESULT_CACHE[(spec.fingerprint(), budget)] = result
    return result


def run_spec(
    spec: "ExperimentSpec | str",
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    journal: Optional[ResultStore] = None,
    progress: Optional[bool] = None,
    timeout: Optional[float] = None,
) -> object:
    """Execute a spec (or registered spec id) and return its result.

    Results are memoised by ``(fingerprint, trace budget)``; execution
    options (engine, workers, journal) are deliberately *not*
    part of the key because they cannot change the result, only how
    fast and how durably it is computed.  Grid cells run through the resilient
    sweep runner, so ``--workers``/``--resume-dir``/``--progress`` and
    worker-crash retry all apply; any cell failure raises
    :class:`~repro.perf.parallel.SweepCellError` naming the cells.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    cached = _RESULT_CACHE.get((spec.fingerprint(), max_refs()))
    if cached is not None:
        # A zero-length synthetic span keeps cache hits visible in the
        # trace without pretending any work happened.
        obs_tracing.record("run_spec", 0.0, spec=spec.id, cached=True)
        return cached

    with obs_tracing.span("run_spec", spec=spec.id, kind=spec.kind):
        if spec.compute is not None:
            result = spec.compute()
        elif spec.derive is not None:
            bases = [
                run_spec(base, engine=engine, workers=workers, journal=journal,
                         progress=progress, timeout=timeout)
                for base in spec.base
            ]
            result = spec.derive(*bases)
        else:
            grid = _run_grid(spec, engine, workers, journal, progress, timeout)
            result = collect_result(spec, grid)
    return remember_result(spec, result)


def grid_cells(
    spec: ExperimentSpec,
) -> "Tuple[List[parallel.LabeledCell], Dict[object, Sequence[TraceLike]]]":
    """Enumerate a grid spec's labelled cells (and traces per parameter).

    The cell order is the executor's contract — parameter-major, then
    factory label, then trace — and the trace recipes carry the current
    ``REPRO_TRACE_SCALE`` budget.  ``repro.serve`` uses this to compute
    every cell's content key *without* running anything, so a fully
    cached spec is answered straight from the result store.
    """
    if spec.kind != "grid":
        raise ValueError(f"spec {spec.id!r} is {spec.kind}, not a grid spec")
    traces_by_parameter: Dict[object, Sequence[TraceLike]] = {}
    cells: List[parallel.LabeledCell] = []
    for parameter in spec.parameters:
        traces = list(spec.traces.for_parameter(parameter))  # type: ignore[union-attr]
        if not traces:
            raise ValueError(
                f"spec {spec.id!r} produced no traces for parameter "
                f"{parameter!r}; refusing to average an empty cell set"
            )
        traces_by_parameter[parameter] = traces
        for label, factory in spec.factories:
            for trace in traces:
                cells.append((label, factory, parameter, trace))
    return cells, traces_by_parameter


def grid_from_outcomes(
    spec: ExperimentSpec,
    outcomes: "List[CellOutcome]",
    traces_by_parameter: "Dict[object, Sequence[TraceLike]]",
) -> GridResult:
    """Shape executed cell envelopes (in :func:`grid_cells` order) into a
    :class:`GridResult`; any failed envelope, or any ``optimal`` cell
    that misses more often than a ``direct-mapped`` or
    ``dynamic-exclusion`` cell on the same trace, raises
    :class:`~repro.perf.parallel.SweepCellError` naming its cells."""
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise SweepCellError(failures, len(outcomes))
    labels = [label for label, _ in spec.factories]
    grid = GridResult(
        parameter_name=spec.parameter_name,
        parameters=list(spec.parameters),
        labels=labels,
        outcomes=outcomes,
    )
    cells: Dict[Tuple[str, object], List[CellOutcome]] = {}
    position = 0
    for parameter in spec.parameters:
        traces = traces_by_parameter[parameter]
        grid._traces[parameter] = [
            str(getattr(trace, "name", "") or "<anonymous>") for trace in traces
        ]
        for label in labels:
            per_trace = outcomes[position : position + len(traces)]
            position += len(traces)
            cells[(label, parameter)] = per_trace
            grid._cells[(label, parameter)] = [o.metrics or {} for o in per_trace]
    violations = _lower_bound_violations(spec.parameters, cells)
    if violations:
        raise SweepCellError(violations, len(outcomes))
    return grid


def _lower_bound_violations(
    parameters: Sequence[object], cells: "Dict[Tuple[str, object], List[CellOutcome]]"
) -> List[CellOutcome]:
    """The ``optimal`` cells that miss more often than another standard
    curve on the same trace, each with an error naming the curve it beat
    and both rates.

    Belady with bypass is a lower bound on every replacement policy that
    may bypass, over the same sets, and the cells of one trace share its
    access count, so the comparison is exact.
    """
    *bounded, optimal = STANDARD_CURVES
    violations = []
    for parameter in parameters:
        rows = [(label, cells.get((label, parameter), [])) for label in bounded]
        for index, cell in enumerate(cells.get((optimal, parameter), [])):
            rate = cell.metrics.get("miss_rate", 0.0)
            beaten = [
                f"{label} {row[index].metrics['miss_rate']!r}"
                for label, row in rows
                if row and rate > row[index].metrics.get("miss_rate", rate)
            ]
            if beaten:
                error = f"optimal miss rate {rate!r} exceeds " + " and ".join(beaten)
                violations.append(dataclasses.replace(cell, error=error))
    return violations


def collect_result(spec: ExperimentSpec, grid: GridResult) -> object:
    """Apply the spec's ``collect`` (default: mean-miss-rate sweep)."""
    collect = spec.collect if spec.collect is not None else collect_sweep
    return collect(grid)


def _run_grid(
    spec: ExperimentSpec,
    engine: Optional[str],
    workers: Optional[int],
    journal: Optional[ResultStore],
    progress: Optional[bool],
    timeout: Optional[float],
) -> GridResult:
    cells, traces_by_parameter = grid_cells(spec)
    outcomes = parallel.run_labeled_cells(
        cells,
        engine=engine,
        workers=workers,
        timeout=timeout,
        journal=journal,
        progress=progress,
        evaluator=spec.evaluator,
    )
    return grid_from_outcomes(spec, outcomes, traces_by_parameter)


def render_spec(spec: "ExperimentSpec | str", result: Optional[object] = None) -> str:
    """The report text for a spec (running it first if needed)."""
    if isinstance(spec, str):
        spec = get_spec(spec)
    if result is None:
        result = run_spec(spec)
    if spec.render is None:
        return f"{spec.title}\n\n{result!r}"
    return spec.render(result)
