"""Cell identity, result envelopes, and single-cell execution.

The execution layer is built around per-cell **result envelopes**
(:class:`CellOutcome`) instead of bare ``future.result()`` calls: every
cell carries its full :class:`CellIdentity` — factory label and
fingerprint, parameter, trace recipe, engine — plus wall time and any
captured exception, so a failure names exactly which cell died instead
of aborting the whole grid anonymously.  Everything here is backend-
independent: the execution strategies in :mod:`repro.perf.backends`
consume these envelopes, and :mod:`repro.perf.parallel` orchestrates.

This module also owns the content keys the result store
(:mod:`repro.store`) indexes cells by: :func:`content_key` hashes a
:class:`CellIdentity` payload, and :func:`canonical_parameter` is the
single source of truth for which sweep parameter types survive a JSON
round trip — the sweep serialiser reuses it, so journal keys and
persisted sweeps agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import tracing as obs_tracing
from ..trace.trace import Trace
from . import engine as engine_mod
from .trace_cache import TraceLike, as_trace, is_trace_recipe


def canonical_parameter(value: object, where: str = "sweep parameter") -> object:
    """Return a JSON-stable form of a sweep parameter.

    Scalars (``str``/``int``/``float``/``bool``/``None``) pass through;
    tuples — including nested ones — become JSON arrays and are restored
    as tuples by :func:`parameter_from_json`, so ``Series.points``
    lookups keyed by tuple parameters still hit after a reload.
    Anything else (lists, dicts, arbitrary objects, non-finite floats)
    does not survive a JSON round trip losslessly and is rejected with a
    descriptive :class:`TypeError` instead of coming back subtly
    different.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise TypeError(f"{where} {value!r} is a non-finite float and has no stable JSON form")
        return value
    if isinstance(value, tuple):
        return [canonical_parameter(item, where=where) for item in value]
    raise TypeError(
        f"{where} {value!r} of type {type(value).__name__} does not survive a "
        f"JSON round trip; use str/int/float/bool/None or (nested) tuples of them"
    )


def parameter_from_json(value: object) -> object:
    """Restore a canonical parameter (JSON arrays come back as tuples)."""
    if isinstance(value, list):
        return tuple(parameter_from_json(item) for item in value)
    return value


def is_stable_parameter(value: object) -> bool:
    """Whether :func:`canonical_parameter` accepts ``value``."""
    try:
        canonical_parameter(value)
    except TypeError:
        return False
    return True


def content_key(payload: dict) -> str:
    """Deterministic hex digest of a cell-identity payload dict.

    ``allow_nan=False`` rejects non-finite floats outright: Python would
    otherwise serialise them as bare ``NaN``/``Infinity`` tokens, which
    are not JSON — and ``NaN != NaN``, so such a payload could never be
    a stable content address anyway.
    """
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise ValueError(
            f"cell-identity payload contains a non-finite float and has no "
            f"stable content key: {payload!r}"
        ) from None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CellIdentity:
    """Everything needed to name one sweep cell in an error, journal
    entry, or progress line: which curve (factory label + fingerprint),
    which parameter, which trace (with its reference budget, i.e. the
    ``max_refs``/``REPRO_TRACE_SCALE`` the run used), which engine."""

    label: str
    factory: str
    parameter: object
    trace_name: str
    trace_kind: str
    trace_refs: int
    engine: str
    trace_digest: str = ""
    journalable: bool = True
    evaluator: str = ""

    def describe(self) -> str:
        return (
            f"{self.label} | {self.parameter!r} | "
            f"{self.trace_name}({self.trace_kind}, {self.trace_refs} refs) | "
            f"engine={self.engine}"
        )

    def payload(self) -> dict:
        """The content-hashed identity dict (journal key material).

        The ``evaluator`` field is included only when a custom metric
        evaluator is in play, so default miss-rate cells hash to exactly
        the keys the pre-spec sweep runner wrote — an old journal
        resumes under the new pipeline unchanged.
        """
        payload = {
            "label": self.label,
            "factory": self.factory,
            "parameter": canonical_parameter(self.parameter)
            if self.journalable
            else repr(self.parameter),
            "trace_name": self.trace_name,
            "trace_kind": self.trace_kind,
            "trace_refs": self.trace_refs,
            "trace_digest": self.trace_digest,
            "engine": self.engine,
        }
        if self.evaluator:
            payload["evaluator"] = self.evaluator
        return payload

    def key(self) -> str:
        return content_key(self.payload())


def _factory_fingerprint(factory: object) -> Optional[str]:
    """A repr stable across processes, or None when there isn't one.

    Frozen-dataclass factories (``StandardFactory`` etc.) repr their
    configuration deterministically.  Lambdas and local closures repr a
    memory address, which a resumed run cannot be matched against — and
    a *reused* address must never cause a false journal hit — so such
    cells are executed but never journaled.
    """
    text = repr(factory)
    if " at 0x" in text or "<locals>" in text or "object at" in text:
        return None
    return text


def _trace_digest(trace: Trace) -> str:
    """Stable content digest of a raw (non-TraceKey) trace."""
    digest = hashlib.sha256()
    digest.update(trace.addrs.tobytes())
    digest.update(trace.kinds.tobytes())
    return digest.hexdigest()[:16]


def identity_for(
    label: str,
    factory: Callable[[object], object],
    parameter: object,
    trace: TraceLike,
    engine: str,
    digest: bool = False,
    evaluator: Optional[Callable] = None,
) -> CellIdentity:
    """Build the full identity envelope for one cell.

    ``digest`` asks for a content hash of raw Trace objects (needed only
    when journaling, where a name collision must not replay the wrong
    trace's result; trace recipes are already deterministic).
    """
    fingerprint = _factory_fingerprint(factory)
    if is_trace_recipe(trace):
        name, kind, refs, trace_dig = (
            str(trace.name), str(trace.kind), int(trace.max_refs), ""
        )
    else:
        name = trace.name or "<anonymous>"
        kind = "<trace>"
        refs = len(trace)
        trace_dig = _trace_digest(trace) if digest else ""
    evaluator_print = None
    if evaluator is not None:
        evaluator_print = _factory_fingerprint(evaluator)
    return CellIdentity(
        label=label,
        factory=fingerprint if fingerprint is not None else repr(factory),
        parameter=parameter,
        trace_name=name,
        trace_kind=kind,
        trace_refs=refs,
        engine=engine,
        trace_digest=trace_dig,
        journalable=(
            fingerprint is not None
            and is_stable_parameter(parameter)
            and (evaluator is None or evaluator_print is not None)
        ),
        evaluator=evaluator_print or "",
    )


@dataclass
class CellOutcome:
    """One cell's result envelope: identity + value or captured error.

    ``metrics`` carries every number the cell's evaluator produced; the
    default evaluator yields ``{"miss_rate": ...}`` and ``miss_rate``
    mirrors that entry for the existing single-metric callers.
    ``worker`` names the fleet worker that computed the cell (empty for
    single-process backends).
    """

    identity: CellIdentity
    miss_rate: Optional[float] = None
    metrics: Optional[Dict[str, float]] = None
    seconds: float = 0.0
    attempts: int = 0
    cached: bool = False
    error: Optional[str] = None
    worker: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None and self.metrics is not None


class SweepCellError(RuntimeError):
    """One or more sweep cells failed; carries every failed envelope.

    The message names each failed cell's full identity so a 500-cell
    overnight sweep reports "dynamic-exclusion @ 32768 on gcc under the
    fast engine died", not a bare traceback from an anonymous future.
    """

    def __init__(self, failures: Sequence[CellOutcome], total: int) -> None:
        self.failures = list(failures)
        self.total = total
        lines = [f"{len(self.failures)} of {total} sweep cell(s) failed:"]
        for outcome in self.failures:
            lines.append(f"  [{outcome.identity.describe()}] {outcome.error}")
        super().__init__("\n".join(lines))


# -- cell execution -----------------------------------------------------------

#: A labelled sweep cell: (label, factory, parameter, trace).  The
#: factory and the trace reference must be picklable when the cell runs
#: on the fleet — pass module-level callables / dataclass instances and
#: TraceKeys, not lambdas and raw Traces.
LabeledCell = Tuple[str, Callable[[object], object], object, TraceLike]


def simulate_cell(
    factory: Callable[[object], object],
    parameter: object,
    trace: TraceLike,
    engine: Optional[str] = None,
) -> float:
    """Build one simulator, run one trace, return the miss rate."""
    stats = engine_mod.simulate(factory(parameter), as_trace(trace), engine=engine)
    return stats.miss_rate


#: A custom per-cell measurement: ``(model, trace, engine) -> metrics``.
#: Must be picklable (module-level callable or frozen dataclass) when the
#: sweep fans out to workers; an address-free repr makes its cells
#: journalable.  The default (``None``) measures ``{"miss_rate": ...}``
#: through the engine dispatch.
CellEvaluator = Callable[[object, Trace, str], Dict[str, float]]


def evaluate_cell(
    factory: Callable[[object], object],
    parameter: object,
    trace: TraceLike,
    engine: Optional[str] = None,
    evaluator: Optional[CellEvaluator] = None,
) -> Dict[str, float]:
    """Build one model, run one trace, return the cell's metric dict."""
    engine = engine_mod.resolve_engine(engine)
    with obs_tracing.span("build_model", parameter=str(parameter)):
        model = factory(parameter)
    materialised = as_trace(trace)
    if evaluator is None:
        stats = engine_mod.simulate(model, materialised, engine=engine)
        return {"miss_rate": stats.miss_rate}
    metrics = evaluator(model, materialised, engine)
    if not isinstance(metrics, dict) or not metrics:
        raise TypeError(
            f"cell evaluator {evaluator!r} must return a non-empty dict of "
            f"floats, got {metrics!r}"
        )
    return {str(key): float(value) for key, value in metrics.items()}

