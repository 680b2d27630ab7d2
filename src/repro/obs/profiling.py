"""The ``REPRO_PROFILE=1`` report: the hot functions of one run.

Tracing (``obs.tracing``) answers *which phase* was slow, and
``obs summarize`` renders that phase view; profiling answers *which
function inside the phase*.  Because cProfile multiplies the cost of
every Python call it is strictly opt-in: with ``REPRO_PROFILE=1`` (see
:func:`repro.env.profile_enabled`) the experiments front-end enables one
:class:`cProfile.Profile` around each experiment run and writes
:func:`profile_report` as ``profile.txt`` next to the run's
``trace.jsonl``.
"""

from __future__ import annotations

import cProfile
import io
import pstats

#: File name used inside a trace directory.
PROFILE_FILENAME = "profile.txt"


def profile_report(profile: cProfile.Profile, top: int = 20) -> str:
    """The ``top`` functions of ``profile`` by cumulative time."""
    buffer = io.StringIO()
    pstats.Stats(profile, stream=buffer).sort_stats("cumulative").print_stats(top)
    return (
        f"top {top} functions by cumulative time\n\n"
        f"{buffer.getvalue().rstrip()}\n"
    )
