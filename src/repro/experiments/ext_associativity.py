"""Extension: dynamic exclusion vs associativity and victim caches.

Not a numbered figure, but the comparison the paper's Sections 1-2
argue from: set-associative caches have lower miss rates but higher hit
times (Hill '87, Przybylski '88), and victim caches fix only small
conflict sets.  This experiment sweeps cache sizes for a direct-mapped
cache, 2-way and 4-way LRU, a 4-entry victim cache, and dynamic
exclusion — the miss-rate side of the trade-off — and then applies the
AMAT model from :mod:`repro.analysis.timing` at the reference size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.plot import sweep_chart
from ..analysis.report import format_sweep, format_table
from ..analysis.sweep import SweepResult
from ..analysis.timing import TimingModel, amat_comparison
from ..caches.direct_mapped import DirectMappedCache
from ..caches.geometry import CacheGeometry
from ..caches.set_associative import SetAssociativeCache
from ..caches.victim import VictimCache
from ..core.exclusion_cache import DynamicExclusionCache
from ..core.hitlast import IdealHitLastStore
from ..core.set_assoc_exclusion import SetAssociativeExclusionCache
from .common import REFERENCE_SIZE, SIZE_SWEEP_KB
from .spec import BenchmarkSuite, ExperimentSpec, register

TITLE = "Extension: dynamic exclusion vs associativity (b=4B)"

#: Hit times (cycles): the way-selection mux penalty grows with ways.
TIMING_MODELS: Dict[str, TimingModel] = {
    "direct-mapped": TimingModel(1.0, 20.0),
    "dynamic-exclusion": TimingModel(1.0, 20.0),
    "victim-4": TimingModel(1.0, 20.0),
    "2-way": TimingModel(1.4, 20.0),
    "2-way+DE": TimingModel(1.4, 20.0),
    "4-way": TimingModel(1.5, 20.0),
}

_LABELS = [
    "direct-mapped",
    "dynamic-exclusion",
    "victim-4",
    "2-way",
    "2-way+DE",
    "4-way",
]


@dataclass(frozen=True)
class AssocFactory:
    """Picklable size-sweep factory for one comparison curve.

    A frozen dataclass (unlike the plain class it replaced) so its
    repr is address-free: the cells now journal under ``--resume-dir``
    like every other sweep.
    """

    label: str

    def __call__(self, size: object):
        geometry = CacheGeometry(int(size), 4)  # type: ignore[call-overload]
        if self.label == "direct-mapped":
            return DirectMappedCache(geometry)
        if self.label == "dynamic-exclusion":
            return DynamicExclusionCache(geometry, store=IdealHitLastStore(default=True))
        if self.label == "victim-4":
            return VictimCache(geometry, entries=4)
        if self.label == "2-way":
            return SetAssociativeCache(
                CacheGeometry(int(size), 4, associativity=2)  # type: ignore[call-overload]
            )
        if self.label == "2-way+DE":
            return SetAssociativeExclusionCache(
                CacheGeometry(int(size), 4, associativity=2),  # type: ignore[call-overload]
                store=IdealHitLastStore(default=True),
            )
        if self.label == "4-way":
            return SetAssociativeCache(
                CacheGeometry(int(size), 4, associativity=4)  # type: ignore[call-overload]
            )
        raise ValueError(f"unknown curve {self.label!r}")


def _render(result: SweepResult) -> str:
    table = format_sweep(result, title=TITLE, value_format="{:.3%}")
    chart = sweep_chart(result, title="miss rate (%)")
    amats = amat_at_reference(result)
    amat_rows = [
        [label, f"{TIMING_MODELS[label].hit_time:.1f}", f"{amats[label]:.3f}"]
        for label in sorted(amats, key=amats.get)
    ]
    amat_table = format_table(
        ["configuration", "hit time (cy)", "AMAT (cy)"],
        amat_rows,
        title="AMAT at 32KB (miss penalty 20 cycles; best first)",
    )
    return f"{table}\n\n{chart}\n\n{amat_table}"


SPEC = register(
    ExperimentSpec(
        id="ext-assoc",
        title=TITLE,
        parameter_name="cache size",
        parameters=tuple(kb * 1024 for kb in SIZE_SWEEP_KB),
        factories=tuple((label, AssocFactory(label)) for label in _LABELS),
        traces=BenchmarkSuite("instruction"),
        render=_render,
    )
)


def amat_at_reference(result: SweepResult) -> Dict[str, float]:
    """AMAT of every configuration at the 32KB reference point."""
    miss_rates = {
        label: result.series[label].points[REFERENCE_SIZE]
        for label in result.series
    }
    return amat_comparison(miss_rates, TIMING_MODELS)
