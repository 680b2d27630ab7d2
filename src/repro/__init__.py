"""repro — a reproduction of McFarling, "Cache Replacement with Dynamic
Exclusion" (ISCA 1992).

The package is organised as:

* :mod:`repro.trace` — address traces (containers, I/O, statistics);
* :mod:`repro.workloads` — synthetic SPEC'89-like programs and the
  Section-3 conflict microkernels;
* :mod:`repro.caches` — baseline cache models (direct-mapped,
  set-associative, Belady-optimal-with-bypass, victim, stream buffer);
* :mod:`repro.core` — dynamic exclusion: the FSM, hit-last stores, the
  DE cache, long-line support, the hardware cost model;
* :mod:`repro.hierarchy` — two-level hierarchies with the Section-5
  hit-last storage strategies;
* :mod:`repro.analysis` — 3C classification, sweeps, tables, charts;
* :mod:`repro.perf` — fast compiled simulation kernels, engine
  dispatch, and the process-parallel sweep runner;
* :mod:`repro.experiments` — one module per paper figure/table, plus a
  CLI (``python -m repro.experiments``).

Quickstart::

    from repro import (CacheGeometry, DirectMappedCache,
                       DynamicExclusionCache, instruction_trace)

    geometry = CacheGeometry(size=32 * 1024, line_size=4)
    trace = instruction_trace("gcc")
    base = DirectMappedCache(geometry).simulate(trace)
    excl = DynamicExclusionCache(geometry).simulate(trace)
    print(base.miss_rate, excl.miss_rate)
"""

from .caches import (
    AccessResult,
    Cache,
    CacheGeometry,
    CacheStats,
    DirectMappedCache,
    FullyAssociativeCache,
    OptimalCache,
    OptimalDirectMappedCache,
    SetAssociativeCache,
    StreamBufferCache,
    VictimCache,
    percent_reduction,
)
from .core import (
    Decision,
    DynamicExclusionCache,
    DynamicExclusionFSM,
    HashedHitLastStore,
    IdealHitLastStore,
    L2BackedHitLastStore,
    LastLineBufferCache,
    LineState,
    make_long_line_exclusion_cache,
)
from .hierarchy import Strategy, TwoLevelCache, TwoLevelResult
from .trace import Reference, RefKind, Trace, TraceBuilder
from .workloads import (
    benchmark_names,
    build_program,
    data_trace,
    instruction_trace,
    mixed_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AccessResult",
    "Cache",
    "CacheGeometry",
    "CacheStats",
    "Decision",
    "DirectMappedCache",
    "DynamicExclusionCache",
    "DynamicExclusionFSM",
    "FullyAssociativeCache",
    "HashedHitLastStore",
    "IdealHitLastStore",
    "L2BackedHitLastStore",
    "LastLineBufferCache",
    "LineState",
    "OptimalCache",
    "OptimalDirectMappedCache",
    "Reference",
    "RefKind",
    "SetAssociativeCache",
    "Strategy",
    "StreamBufferCache",
    "Trace",
    "TraceBuilder",
    "TwoLevelCache",
    "TwoLevelResult",
    "VictimCache",
    "benchmark_names",
    "build_program",
    "data_trace",
    "instruction_trace",
    "make_long_line_exclusion_cache",
    "mixed_trace",
    "percent_reduction",
    "__version__",
]
