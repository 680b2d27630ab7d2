"""Shared infrastructure for the benchmarks.

``bench_figures.py`` times each registered figure's ``run_spec(id)``
once (``benchmark.pedantic`` with a single round — these are
minutes-scale workloads, not microbenchmarks) and writes its
``render_spec`` report to ``benchmarks/results/<id>.txt`` so the paper
comparison in EXPERIMENTS.md can be refreshed from the artefacts.

Trace length follows REPRO_TRACE_SCALE (default 1.0 = 200k references
per benchmark trace).
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_json_result(
    results_dir: pathlib.Path,
    name: str,
    config: dict,
    metrics: dict,
    gate: "list[str] | None" = None,
) -> pathlib.Path:
    """Persist a machine-readable twin of a bench's ``.txt`` report.

    ``metrics`` holds the numbers (throughputs in refs/sec under
    ``*_rps`` keys, ratios under ``*speedup*`` keys); ``gate`` names the
    metrics that ``tools/check_bench_regression.py`` compares against
    the committed baseline (ratio metrics by default — absolute refs/sec
    depend on the host and would make the CI gate flaky).
    """
    path = results_dir / f"{name}.json"
    payload = {
        "benchmark": name,
        "config": config,
        "metrics": metrics,
        "gate": sorted(gate) if gate is not None
        else sorted(k for k in metrics if "speedup" in k),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture
def figure_bench(benchmark, results_dir):
    """Run one spec once under the benchmark timer and persist its
    report."""
    from repro.experiments import render_spec, run_spec

    def _run(spec_id: str) -> str:
        result = benchmark.pedantic(run_spec, args=(spec_id,), rounds=1, iterations=1)
        report = render_spec(spec_id, result)
        (results_dir / f"{spec_id}.txt").write_text(report + "\n")
        print(f"\n{report}\n")
        return report

    return _run
