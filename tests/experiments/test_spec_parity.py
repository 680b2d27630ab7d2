"""The differential gate for the spec refactor.

``tests/experiments/golden/<id>.json`` holds every experiment's
result as first captured from the per-module ``run()`` functions that
predate the declarative spec layer (REPRO_TRACE_SCALE=0.05); after an
intended figure change ``tools/generate_parity_goldens.py`` recaptures
them through ``run_spec(id, engine="reference")``, the per-reference
loops.  Each test here re-runs the experiment through ``run_spec``
under the default engine (``fast``), so it also holds the kernels to
that oracle on every spec, and compares field for field: same dict
keys in the same order, same list lengths, floats to 1e-9 relative
(``statistics.mean`` became ``sum/len``).

Any behaviour change to a figure — intended or not — fails here until
the goldens are regenerated.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import run_spec
from repro.experiments.common import clear_trace_cache
from repro.experiments.frontend import PRESENTATION_ORDER

from .parity_format import assert_parity

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The scale every golden was captured at.
PARITY_SCALE = "0.05"


@pytest.fixture(autouse=True)
def tiny_traces():
    """Override the conftest fixture: parity runs at the golden scale,
    and the result cache must survive across tests so the derived
    experiments (fig05/fig07/...) reuse their base sweeps instead of
    recomputing them per test."""
    yield


@pytest.fixture(scope="module", autouse=True)
def parity_scale():
    before = os.environ.get("REPRO_TRACE_SCALE")
    os.environ["REPRO_TRACE_SCALE"] = PARITY_SCALE
    clear_trace_cache()
    yield
    if before is None:
        os.environ.pop("REPRO_TRACE_SCALE", None)
    else:
        os.environ["REPRO_TRACE_SCALE"] = before
    clear_trace_cache()


def _golden(key: str) -> dict:
    path = GOLDEN_DIR / f"{key}.json"
    if not path.exists():
        pytest.fail(f"missing golden {path}; run tools/generate_parity_goldens.py")
    return json.loads(path.read_text())


@pytest.mark.parametrize("key", PRESENTATION_ORDER)
def test_spec_output_matches_prerefactor_golden(key):
    golden = _golden(key)
    assert golden["trace_scale"] == float(PARITY_SCALE)
    assert_parity(golden["result"], run_spec(key), where=key)
