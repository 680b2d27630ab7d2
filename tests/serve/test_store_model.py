"""Model-based test of the result store (a Hypothesis state machine).

After every step the live store's index must equal that of a freshly
opened store over the same directory, and both must equal a dict
model: the last record of a key wins, and a success evicts a cached
failure.  The steps cover every writer (``record``, ``record_many`` —
including batches that must be refused without writing a byte —
``record_errors``), ``compact``, ``refresh``, reopening, and a crash
that tears an append mid-line.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.store import JOURNAL_FILENAME, JOURNAL_VERSION, ResultStore

#: Hex prefixes land in different shards; the last key takes the CRC path.
KEYS = st.sampled_from(["00000000aa", "40000000bb", "80000000cc", "c0000000dd", "key-e"])
VALUES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
METRICS = st.one_of(
    VALUES,
    st.dictionaries(st.sampled_from(["miss_rate", "ipc", "traffic"]), VALUES, min_size=1),
)
BAD_VALUES = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), "0.5", None, True, [0.5]]
)
ERRORS = st.text(alphabet="abc xyz:", max_size=8)


def _replayed(metrics):
    """The metric dict a recorded value replays as."""
    if not isinstance(metrics, dict):
        return {"miss_rate": float(metrics)}
    return {name: float(value) for name, value in metrics.items()}


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="store-model-"))
        self.store = ResultStore(self.directory)
        self.results = {}
        self.errors = {}
        # A complete line a crash left without its newline: invisible
        # until the next append terminates it, lost to a compaction.
        self.unterminated = None

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    @property
    def journal(self):
        return self.directory / JOURNAL_FILENAME

    def _journal_bytes(self):
        return self.journal.read_bytes() if self.journal.exists() else b""

    def _appended(self):
        if self.unterminated is not None:
            self._succeeded(*self.unterminated)
            self.unterminated = None

    def _succeeded(self, key, metrics):
        self.results[key] = _replayed(metrics)
        self.errors.pop(key, None)

    @rule(key=KEYS, metrics=METRICS)
    def record(self, key, metrics):
        self.store.record(key, {"label": "dm"}, metrics, 0.0)
        self._appended()
        self._succeeded(key, metrics)

    @rule(batch=st.lists(st.tuples(KEYS, METRICS), max_size=4))
    def record_many(self, batch):
        self.store.record_many([(key, {"label": "dm"}, m, 0.0) for key, m in batch])
        if batch:
            self._appended()
        for key, metrics in batch:
            self._succeeded(key, metrics)

    @rule(
        batch=st.lists(st.tuples(KEYS, METRICS), min_size=1, max_size=4),
        data=st.data(),
        bad=BAD_VALUES,
    )
    def record_many_refused(self, batch, data, bad):
        position = data.draw(st.integers(0, len(batch) - 1))
        key, metrics = batch[position]
        metrics = dict(_replayed(metrics), ipc=bad)
        batch = [*batch[:position], (key, metrics), *batch[position + 1:]]
        before = self._journal_bytes()
        with pytest.raises(ValueError, match="refusing to record"):
            self.store.record_many([(k, {"label": "dm"}, m, 0.0) for k, m in batch])
        assert self._journal_bytes() == before

    @rule(
        failures=st.lists(st.tuples(KEYS, ERRORS), min_size=1, max_size=3),
        at=st.floats(min_value=0.0, max_value=2e9),
    )
    def record_errors(self, failures, at):
        self.store.record_errors(failures, at=at)
        self._appended()
        for key, error in failures:
            self.errors[key] = error

    @rule(shards=st.integers(1, 4))
    def compact(self, shards):
        self.store.compact(shards=shards)
        self.unterminated = None  # the primary is truncated

    @rule()
    def refresh(self):
        assert self.store.refresh() == 0

    @rule()
    def reopen(self):
        self.store = ResultStore(self.directory)

    @rule(key=KEYS, metrics=METRICS, data=st.data())
    def torn_append(self, key, metrics, data):
        """A writer dies mid-append, then the store is reopened.

        What it was writing is the line, after the newline the store
        puts in front of a primary that ends mid-line.
        """
        existing = self._journal_bytes()
        prefix = "\n" if existing and not existing.endswith(b"\n") else ""
        entry = {
            "kind": "sweep-cell",
            "version": JOURNAL_VERSION,
            "key": key,
            "label": "dm",
            "seconds": 0.0,
        }
        if isinstance(metrics, dict):
            entry["metrics"] = metrics
        else:
            entry["miss_rate"] = metrics
        text = prefix + json.dumps(entry, sort_keys=True) + "\n"
        cut = data.draw(st.integers(1, len(text) - 1))
        with self.journal.open("a", encoding="utf-8") as handle:
            handle.write(text[:cut])
        if prefix:
            self._appended()  # the newline landed first
        if cut == len(text) - 1:
            self.unterminated = (key, metrics)
        self.store = ResultStore(self.directory)

    @invariant()
    def index_matches_a_fresh_open_and_the_model(self):
        fresh = ResultStore(self.directory)
        for store in (self.store, fresh):
            assert {key: store.metrics(key) for key in store.keys()} == self.results
            assert {
                key: store.error_entry(key)["error"] for key in store.error_keys()
            } == self.errors


TestStoreModel = StoreMachine.TestCase
TestStoreModel.settings = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
