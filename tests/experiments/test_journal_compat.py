"""Resume-format compatibility: PR-3 journals must replay under run_spec.

``golden/pr3_journal_fig04.jsonl`` is a real sweep journal written by
the pre-spec pipeline (fig04, REPRO_TRACE_SCALE=0.05).  The spec layer
must produce byte-identical cell identities — same content-hash keys,
same payload fields — or every interrupted sweep on disk would silently
recompute from scratch after an upgrade.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

from repro.experiments.common import clear_trace_cache
from repro.experiments.spec import run_spec
from repro.store import JOURNAL_FILENAME, ResultStore

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE = GOLDEN_DIR / "pr3_journal_fig04.jsonl"

PARITY_SCALE = "0.05"


@pytest.fixture(autouse=True)
def tiny_traces():
    """Override the conftest fixture: the journal fixture was captured
    at the parity scale, and cell identities embed the trace budget."""
    yield


@pytest.fixture(autouse=True)
def parity_scale(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SCALE", PARITY_SCALE)
    clear_trace_cache()
    yield
    clear_trace_cache()


def test_pr3_journal_replays_every_fig04_cell(tmp_path, sweep_metrics):
    resume = tmp_path / "resume"
    resume.mkdir()
    shutil.copy(FIXTURE, resume / JOURNAL_FILENAME)
    store = ResultStore(resume)
    fixture_entries = len(store)
    assert fixture_entries > 0

    before = (resume / JOURNAL_FILENAME).read_text()
    run_spec("fig04", journal=store)

    cells = sweep_metrics.total("sweep.cells.total")
    cached = sweep_metrics.total("sweep.cells.cached")
    assert cells == fixture_entries, "fig04 grid size drifted from the PR-3 journal"
    assert cached == cells, (
        f"only {cached}/{cells} cells replayed from the PR-3 journal; "
        "cell identities (keys or payloads) have drifted"
    )
    # Nothing recomputed means nothing appended: the file is untouched.
    assert (resume / JOURNAL_FILENAME).read_text() == before


def test_spec_journal_round_trips_its_own_format(tmp_path, sweep_metrics):
    resume = tmp_path / "resume"
    run_spec("fig13", journal=ResultStore(resume))
    assert sweep_metrics.total("sweep.cells.cached") == 0

    from repro.experiments.spec import clear_result_cache

    clear_result_cache()
    sweep_metrics.clear()
    run_spec("fig13", journal=ResultStore(resume))
    second = sweep_metrics.total
    assert second("sweep.cells.cached") == second("sweep.cells.total") > 0
