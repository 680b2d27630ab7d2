"""Tiny picklable experiment specs shared by the serve tests.

Registered once at import time, ``hidden=True`` so they never appear in
the CLI listing; every component is module-level (stable repr) so the
cells fingerprint, journal, and serve exactly like the real figures.
"""

from dataclasses import dataclass

from repro.experiments.spec import ExperimentSpec, register


@dataclass(frozen=True)
class TinyDirectFactory:
    """Direct-mapped cache factory over the parameter (cache size)."""

    line_size: int = 4

    def __call__(self, size):
        from repro.caches.direct_mapped import DirectMappedCache
        from repro.caches.geometry import CacheGeometry

        return DirectMappedCache(CacheGeometry(int(size), self.line_size))


@dataclass(frozen=True)
class TwoBenchmarks:
    """A two-benchmark trace recipe — enough to exercise averaging."""

    kind: str = "instruction"

    def for_parameter(self, parameter):
        from repro.experiments.common import all_trace_keys

        return all_trace_keys(self.kind)[:2]


def scale_means(sweep):
    """Derive: double every point of the base sweep (shape-preserving)."""
    from repro.analysis.sweep import SweepResult

    result = SweepResult(
        parameter_name=sweep.parameter_name, parameters=list(sweep.parameters)
    )
    for label, series in sweep.series.items():
        for parameter, value in series.points.items():
            result.add(label, parameter, 2.0 * value)
    return result


def constant_answer():
    return {"answer": 42}


@dataclass(frozen=True)
class PoisonedFactory:
    """A factory whose cells always fail: a run with failing cells."""

    def __call__(self, size):
        raise RuntimeError("poisoned cell")


GRID = register(
    ExperimentSpec(
        id="serve-test-grid",
        title="serve test grid",
        parameter_name="cache size",
        parameters=(1024, 2048),
        factories=(("dm", TinyDirectFactory()),),
        traces=TwoBenchmarks(),
        hidden=True,
    )
)

DERIVED = register(
    ExperimentSpec(
        id="serve-test-derived",
        title="serve test derived",
        base=("serve-test-grid",),
        derive=scale_means,
        hidden=True,
    )
)

POISONED = register(
    ExperimentSpec(
        id="serve-test-poisoned",
        title="serve test poisoned",
        parameter_name="cache size",
        parameters=(1024,),
        factories=(("bad", PoisonedFactory()),),
        traces=TwoBenchmarks(),
        hidden=True,
    )
)

CUSTOM = register(
    ExperimentSpec(
        id="serve-test-custom",
        title="serve test custom",
        compute=constant_answer,
        hidden=True,
    )
)
