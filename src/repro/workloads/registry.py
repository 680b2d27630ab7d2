"""Benchmark registry: build traces by name.

This is the public face of :mod:`repro.workloads`: experiments ask for
``instruction_trace("gcc", max_refs=200_000)`` and get a deterministic
trace.  Programs and traces are *not* cached here (that is the job of
:mod:`repro.perf.trace_cache`, which memoises every trace recipe); the
registry only maps names to builders.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..trace.trace import Trace
from ..trace.transforms import only_data, only_instructions
from .program import Program
from .spec import SPEC_BUILDERS, SPEC_DESCRIPTIONS, SPEC_NAMES

#: Default reference budget per benchmark trace.  The paper uses the
#: first 10 M references of each benchmark; we default to 200 k so the
#: full figure suite runs in minutes on a laptop (see DESIGN.md §2).
DEFAULT_MAX_REFS = 200_000


def benchmark_names() -> List[str]:
    """The ten SPEC benchmark names, sorted."""
    return list(SPEC_NAMES)


def describe(name: str) -> str:
    """The paper's one-line description of a benchmark."""
    _require_known(name)
    return SPEC_DESCRIPTIONS[name]


def build_program(name: str) -> Program:
    """Construct a benchmark's synthetic program (deterministic)."""
    _require_known(name)
    return SPEC_BUILDERS[name]()


def mixed_trace(name: str, max_refs: Optional[int] = DEFAULT_MAX_REFS) -> Trace:
    """The benchmark's full instruction + data trace.

    With a ``max_refs`` budget the program repeats until the budget is
    exhausted; with ``max_refs=None`` it runs exactly once.
    """
    _require_budget(max_refs)
    program = build_program(name)
    repeat = 1 if max_refs is None else 1_000_000
    return program.trace(max_refs=max_refs, repeat=repeat, name=name)


def instruction_trace(name: str, max_refs: Optional[int] = DEFAULT_MAX_REFS) -> Trace:
    """Only the instruction fetches (paper Sections 3-6).

    ``max_refs`` bounds the *instruction* count, so an extra margin of
    mixed references is generated before filtering.
    """
    _require_budget(max_refs)
    if max_refs is None:
        return only_instructions(mixed_trace(name, None))
    mixed = mixed_trace(name, max_refs * 2)
    instructions = only_instructions(mixed)
    return instructions[:max_refs].with_name(name)


def data_trace(name: str, max_refs: Optional[int] = DEFAULT_MAX_REFS) -> Trace:
    """Only the data references (paper Section 7).

    Data references are sparser than instruction fetches, so the mixed
    budget is scaled up before filtering; the result may still be
    shorter than ``max_refs`` for instruction-heavy benchmarks.
    """
    _require_budget(max_refs)
    if max_refs is None:
        return only_data(mixed_trace(name, None))
    mixed = mixed_trace(name, max_refs * 6)
    data = only_data(mixed)
    return data[:max_refs].with_name(name)


_KIND_BUILDERS: Dict[str, Callable[[str, Optional[int]], Trace]] = {
    "instruction": instruction_trace,
    "data": data_trace,
    "mixed": mixed_trace,
}


def trace_by_kind(name: str, kind: str, max_refs: Optional[int] = DEFAULT_MAX_REFS) -> Trace:
    """Dispatch on ``kind`` in {"instruction", "data", "mixed"}."""
    try:
        builder = _KIND_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown trace kind {kind!r}; expected one of {sorted(_KIND_BUILDERS)}"
        ) from None
    return builder(name, max_refs)


def _require_known(name: str) -> None:
    if name not in SPEC_BUILDERS:
        raise ValueError(f"unknown benchmark {name!r}; known: {SPEC_NAMES}")


def _require_budget(max_refs: Optional[int]) -> None:
    if max_refs is not None and max_refs < 0:
        raise ValueError(f"max_refs must be non-negative, got {max_refs}")
