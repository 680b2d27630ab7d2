"""CLI for the experiment harness.

Usage::

    python -m repro.experiments                 # run every figure
    python -m repro.experiments --only fig05    # one figure
    python -m repro.experiments --list          # what exists
    python -m repro.experiments --filter l2     # every L2 experiment
    python -m repro.experiments --svg figures/  # also save SVG charts
    REPRO_TRACE_SCALE=5 python -m repro.experiments --only fig04
    python -m repro.experiments --only fig04 --workers 4 \\
        --resume-dir runs/fig04 --progress

Every run uses the fast engine.  All the work happens in
:mod:`repro.experiments.frontend`, which ``python -m repro.cli
experiments`` shares.
"""

from __future__ import annotations

import sys

from .frontend import main

if __name__ == "__main__":
    sys.exit(main())
