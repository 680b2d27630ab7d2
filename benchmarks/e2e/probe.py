"""Host-speed probe: how much slower than the reference host a round ran.

On a shared host, other machines' load slows every process, by up to 2x
for minutes at a time, far more than the changes the benchmark must
resolve.  Each round therefore times two fixed probes, an interpreter
loop and a numpy ``unique``, just before and just after its timed phase.
The round's *slowness* is the geometric mean of the two probes' times
relative to the reference host.  Timings are divided by it (rates
multiplied), which reports them at the reference host's speed.

Measured on a 2-vCPU VM: through a noisy stretch this took the
run-to-run spread of registry and kernel-grid times from 21-33% to
6-9%; in quiet stretches it adds a point or two.  The probes are
benchmark code, so no change to the program can move them.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

#: Median probe times on the reference host (2-vCPU Intel Xeon VM) when
#: it was quiet.  They only set the scale: slowness 1.0 means "as fast
#: as the reference host".
REFERENCE_PYTHON_S = 7.0e-3
REFERENCE_NUMPY_S = 8.0e-3

_DATA = np.random.default_rng(0).integers(0, 1 << 20, size=50_000)


def probe(repeats: int = 10) -> List[float]:
    """Median interpreter-loop and numpy times, in seconds (~0.2 s)."""
    python_s: List[float] = []
    numpy_s: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value
        python_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        np.unique(_DATA)
        numpy_s.append(time.perf_counter() - started)
    return [statistics.median(python_s), statistics.median(numpy_s)]


def slowness(before: List[float], after: List[float]) -> float:
    """Host slowness over a phase bracketed by two probes."""
    python_s = (before[0] + after[0]) / 2
    numpy_s = (before[1] + after[1]) / 2
    return math.sqrt(python_s / REFERENCE_PYTHON_S * numpy_s / REFERENCE_NUMPY_S)
