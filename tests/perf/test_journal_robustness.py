"""Robustness tests for the result store's journal lines.

The basics (torn tails, unknown kinds, future versions within one file)
live in test_resilient.py; this module covers the cross-file and
adversarial cases: duplicate keys across many journal files, non-finite
metric rejection at record time, and non-finite payload rejection at
content-key time.
"""

import json
import math
import threading

import pytest

from repro.perf.cells import content_key
from repro.store import JOURNAL_VERSION, ResultStore


class TestLastWins:
    def test_duplicate_key_last_line_wins_in_one_journal(self, tmp_path):
        journal = ResultStore(tmp_path)
        journal.record("k1", {"label": "dm"}, 0.1, 0.0)
        journal.record("k1", {"label": "dm"}, 0.9, 0.0)
        reloaded = ResultStore(tmp_path)
        assert reloaded.metrics("k1") == {"miss_rate": 0.9}

    def test_duplicate_key_across_files_later_source_wins(self, tmp_path):
        ResultStore(tmp_path / "old").record("k1", {}, 0.1, 0.0)
        ResultStore(tmp_path / "new").record("k1", {}, 0.9, 0.0)
        store = ResultStore(
            tmp_path / "store", [tmp_path / "old", tmp_path / "new"]
        )
        assert store.metrics("k1") == {"miss_rate": 0.9}
        assert store.stats().duplicates == 1


class TestCorruptionIsolation:
    def test_corrupted_and_future_lines_do_not_poison_neighbours(self, tmp_path):
        journal = ResultStore(tmp_path)
        journal.record("before", {}, 0.1, 0.0)
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write("{corrupted json\n")
            handle.write(
                json.dumps(
                    {
                        "kind": "sweep-cell",
                        "version": JOURNAL_VERSION + 1,
                        "key": "future",
                        "miss_rate": 0.5,
                    }
                )
                + "\n"
            )
        journal.record("after", {}, 0.2, 0.0)

        reloaded = ResultStore(tmp_path)
        assert reloaded.get("before") is not None
        assert reloaded.get("after") is not None
        assert reloaded.get("future") is None

        store = ResultStore(tmp_path / "store", [tmp_path])
        assert sorted(store.keys()) == ["after", "before"]
        assert store.stats().skipped == 2


class TestNonFiniteRejection:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_record_refuses_non_finite_metrics(self, tmp_path, bad):
        journal = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="non-finite"):
            journal.record("bad", {"label": "dm"}, bad, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            journal.record("bad", {"label": "dm"}, {"miss_rate": 0.1, "ipc": bad}, 0.0)
        # nothing was appended: the journal file stays fully parseable
        assert journal.get("bad") is None
        if journal.path.exists():
            for line in journal.path.read_text().splitlines():
                json.loads(line)

    def test_record_many_is_atomic_per_batch_validation(self, tmp_path):
        """Validation happens before any line of the batch is written."""
        journal = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="non-finite"):
            journal.record_many(
                [
                    ("good", {}, 0.1, 0.0),
                    ("bad", {}, float("nan"), 0.0),
                ]
            )
        assert journal.get("good") is None
        assert not journal.path.exists() or not journal.path.read_text()

    @pytest.mark.parametrize("bad", ["0.5", None, [0.5], {"v": 0.5}, True])
    def test_record_refuses_non_numeric_metrics(self, tmp_path, bad):
        """Regression: a string (or other non-numeric) metric used to
        crash ``math.isfinite`` with a raw TypeError; the journal now
        raises its own descriptive ValueError before writing anything."""
        journal = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="is not a number"):
            journal.record_many(
                [("bad", {"label": "dm"}, {"miss_rate": 0.1, "ipc": bad}, 0.0)]
            )
        assert journal.get("bad") is None
        assert not journal.path.exists() or not journal.path.read_text()

    def test_non_numeric_error_names_the_metric(self, tmp_path):
        journal = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="'ipc'"):
            journal.record("bad", {}, {"miss_rate": 0.1, "ipc": "fast"}, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_content_key_refuses_non_finite_payloads(self, bad):
        with pytest.raises(ValueError, match="stable content key"):
            content_key({"parameter": bad})

    def test_content_key_stable_for_finite_payloads(self):
        payload = {"parameter": 1024, "label": "dm"}
        assert content_key(payload) == content_key(dict(reversed(payload.items())))


class TestConcurrentReaders:
    def test_journal_reload_while_writer_appends(self, tmp_path):
        """Re-loading the journal directory mid-write never raises and
        never surfaces a half-written entry."""
        journal = ResultStore(tmp_path)
        total = 100
        done = threading.Event()

        def write():
            for i in range(total):
                journal.record(f"k{i}", {"label": "dm"}, i / total, 0.0)
            done.set()

        thread = threading.Thread(target=write)
        thread.start()
        while not done.is_set():
            snapshot = ResultStore(tmp_path)
            for key in snapshot.keys():
                metrics = snapshot.metrics(key)
                assert metrics is not None
                assert math.isfinite(metrics["miss_rate"])
        thread.join()
        assert len(ResultStore(tmp_path)) == total
