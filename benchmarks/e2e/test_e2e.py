"""Checks of the end-to-end benchmark itself, on its ``--smoke`` run (~35 s).

Run with ``python -m pytest benchmarks/e2e/test_e2e.py``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), out


def test_every_metric_is_printed_with_its_unit(smoke):
    lines, _, _ = smoke
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        pattern = re.compile(
            rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b"
        )
        assert any(pattern.match(line) for line in lines), metric["name"]


def test_result_line_is_correct_with_nothing_failed(smoke):
    _, result, _ = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_traced_self_times_cover_each_round(smoke):
    _, _, out = smoke
    results = json.loads(out.read_text(encoding="utf-8"))
    for name, workload in results["workloads"].items():
        for layers in workload["traced_rounds"]:
            assert layers["trace.coverage"] >= 0.95, name


def test_compare_finds_a_run_within_bound_of_itself(smoke):
    _, _, out = smoke
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "within bound" in proc.stdout
    assert "worse" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "registry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
