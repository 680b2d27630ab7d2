"""Every registry trace is pinned by content.

``trace_digests.json`` holds the sha256 of ``addrs.tobytes() +
kinds.tobytes()`` for the ten benchmarks x three kinds at budgets 4,000
and 50,000 (``REPRO_TRACE_SCALE`` 0.02 and 0.25), captured from the
per-reference emitter that block emission replaced.  A change to how
traces are emitted must rebuild all 60 byte for byte; a change to what
they contain must re-capture the file on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads.registry import trace_by_kind

DIGESTS = json.loads(
    (Path(__file__).with_name("trace_digests.json")).read_text(encoding="utf-8")
)


def test_the_fixture_pins_sixty_traces():
    assert len(DIGESTS) == 60


@pytest.mark.parametrize("budget", [4_000, 50_000])
def test_registry_traces_match_their_digests(budget):
    mismatched = []
    for key, pinned in sorted(DIGESTS.items()):
        name, kind, refs = key.split("/")
        if int(refs) != budget:
            continue
        trace = trace_by_kind(name, kind, budget)
        digest = hashlib.sha256(
            trace.addrs.tobytes() + trace.kinds.tobytes()
        ).hexdigest()
        if (len(trace), digest) != (pinned["refs"], pinned["sha256"]):
            mismatched.append(key)
    assert mismatched == []
