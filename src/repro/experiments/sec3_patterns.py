"""Section 3: the analytic conflict patterns, simulated.

Regenerates the paper's worked miss-rate numbers for the three common
reference patterns (plus the three-way pathological case), comparing the
simulators against the closed-form counts in
:mod:`repro.workloads.patterns`.  Registered as a *custom* spec: the
traces are tiny analytic sequences and the results are exact integer
counts, so there is no grid to fan out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.report import format_table
from ..caches.direct_mapped import DirectMappedCache
from ..caches.geometry import CacheGeometry
from ..caches.optimal import OptimalDirectMappedCache
from ..core.exclusion_cache import DynamicExclusionCache
from ..workloads import patterns
from .common import REFERENCE_LINE, REFERENCE_SIZE
from .spec import ExperimentSpec, register

TITLE = "Section 3: miss rates on the common reference patterns"


@dataclass(frozen=True)
class PatternRow:
    name: str
    refs: int
    dm_misses: int
    dm_expected: int
    de_misses: int
    opt_misses: int
    opt_expected: int


def _compute() -> List[PatternRow]:
    geometry = CacheGeometry(REFERENCE_SIZE, REFERENCE_LINE)
    cases = [
        ("between loops (a^10 b^10)^10", patterns.between_loops(geometry),
         patterns.between_loops_misses_dm(), patterns.between_loops_misses_optimal()),
        ("loop level (a^10 b)^10", patterns.loop_level(geometry),
         patterns.loop_level_misses_dm(), patterns.loop_level_misses_optimal()),
        ("within loop (a b)^10", patterns.within_loop(geometry),
         patterns.within_loop_misses_dm(), patterns.within_loop_misses_optimal()),
        ("three-way (a b c)^10", patterns.three_way(geometry),
         patterns.three_way_misses_dm(), patterns.three_way_misses_optimal()),
    ]
    rows: List[PatternRow] = []
    for name, trace, dm_expected, opt_expected in cases:
        dm = DirectMappedCache(geometry).simulate(trace)
        de = DynamicExclusionCache(geometry).simulate(trace)
        opt = OptimalDirectMappedCache(geometry).simulate(trace)
        rows.append(
            PatternRow(
                name=name,
                refs=len(trace),
                dm_misses=dm.misses,
                dm_expected=dm_expected,
                de_misses=de.misses,
                opt_misses=opt.misses,
                opt_expected=opt_expected,
            )
        )
    return rows


def _render(rows: List[PatternRow]) -> str:
    table_rows: List[List[object]] = []
    for row in rows:
        table_rows.append(
            [
                row.name,
                row.refs,
                f"{row.dm_misses} (paper {row.dm_expected})",
                f"{row.de_misses}",
                f"{row.opt_misses} (paper {row.opt_expected})",
                f"{100 * row.dm_misses / row.refs:.0f}%",
                f"{100 * row.de_misses / row.refs:.0f}%",
                f"{100 * row.opt_misses / row.refs:.0f}%",
            ]
        )
    return format_table(
        ["pattern", "refs", "DM misses", "DE misses", "OPT misses",
         "m_DM", "m_DE", "m_OPT"],
        table_rows,
        title=TITLE,
    )


SPEC = register(
    ExperimentSpec(id="sec3", title=TITLE, compute=_compute, render=_render)
)
