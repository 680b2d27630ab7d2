"""The experiment harness: one declarative spec per paper figure/table.

Every module defines an :class:`~repro.experiments.spec.ExperimentSpec`
and registers it on import; this package imports them all, so::

    from repro.experiments import all_specs, render_spec, run_spec

    result = run_spec("fig05")              # simulate (memoised)
    text = render_spec("fig05", result)     # the report, from that result

gives the full registry and the one way to run and render a figure.
Run everything with ``python -m repro.experiments``, list the registry
in presentation order with ``python -m repro.experiments --list``, or
run a single figure with ``python -m repro.experiments --only fig05``.
"""

from .spec import (
    ExperimentSpec,
    all_specs,
    collect_result,
    fingerprint_digest,
    get_spec,
    grid_cells,
    grid_from_outcomes,
    register,
    render_spec,
    run_spec,
)
from . import (
    ext_associativity,
    ext_context_switch,
    ext_hashed_bits,
    ext_split,
    ext_traffic,
    ext_warmup,
    fig02_benchmarks,
    fig03_per_benchmark,
    fig04_cache_size,
    fig05_improvement,
    fig07_l1_vs_l2,
    fig08_l2_missrate,
    fig09_l1_improvement,
    fig11_line_size,
    fig12_improvement_b16,
    fig13_efficiency,
    fig14_data_cache,
    fig15_mixed_cache,
    hierarchy_sweep,
    sec3_patterns,
)

__all__ = [
    "ExperimentSpec",
    "all_specs",
    "collect_result",
    "fingerprint_digest",
    "get_spec",
    "grid_cells",
    "grid_from_outcomes",
    "register",
    "render_spec",
    "run_spec",
]
