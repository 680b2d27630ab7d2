"""Capture golden experiment outputs for the spec-pipeline parity gate.

Run from the repository root at the parity scale::

    REPRO_TRACE_SCALE=0.05 PYTHONPATH=src:tests python tools/generate_parity_goldens.py

Writes one ``tests/experiments/golden/<id>.json`` per experiment: the
serialized ``run_spec(id, engine="reference")`` result, in presentation
order.  The goldens come from the per-reference loops on purpose: the
parity test runs under the default (fast) engine, so it holds the
kernels to the reference oracle.  Run it only after an intended figure
change.  The journal fixture beside the
goldens (``pr3_journal_fig04.jsonl``) is a journal written by the
pre-spec sweep runner; it is never regenerated, because
``test_journal_compat.py`` exists to replay exactly those bytes.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from experiments.parity_format import to_jsonable  # noqa: E402

from repro.experiments import run_spec  # noqa: E402
from repro.experiments.frontend import PRESENTATION_ORDER  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "experiments" / "golden"

#: The scale every golden (and the parity test) uses.
PARITY_SCALE = "0.05"


def main() -> int:
    if os.environ.get("REPRO_TRACE_SCALE") != PARITY_SCALE:
        raise SystemExit(f"run with REPRO_TRACE_SCALE={PARITY_SCALE}")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for key in PRESENTATION_ORDER:
        print(f"capturing {key} ...", flush=True)
        payload = {
            "kind": "experiment-golden",
            "version": 1,
            "experiment": key,
            "trace_scale": float(PARITY_SCALE),
            "result": to_jsonable(run_spec(key, engine="reference")),
        }
        path = GOLDEN_DIR / f"{key}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
