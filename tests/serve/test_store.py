"""Tests for repro.store — the content-addressed result store."""

import json
import threading

import pytest

from repro.perf.parallel import run_labeled_cells
from repro.store import (
    DEFAULT_SHARDS,
    JOURNAL_FILENAME,
    JOURNAL_VERSION,
    STORE_MANIFEST_FILENAME,
    ResultStore,
)

from ._specs import TinyDirectFactory, TwoBenchmarks


def _entry(key, miss_rate=0.25, version=JOURNAL_VERSION, kind="sweep-cell"):
    return {
        "kind": kind,
        "version": version,
        "key": key,
        "label": "dm",
        "miss_rate": miss_rate,
        "seconds": 0.01,
    }


def _write_journal(directory, entries):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / JOURNAL_FILENAME
    with path.open("a", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


class TestIndex:
    def test_record_then_get(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record("k1", {"label": "dm"}, {"miss_rate": 0.5}, 0.01)
        assert "k1" in store
        assert len(store) == 1
        assert store.metrics("k1") == {"miss_rate": 0.5}
        assert store.get("k1")["kind"] == "sweep-cell"
        # the entry is durable: a fresh store over the same dir sees it
        assert ResultStore(tmp_path / "store").metrics("k1") == {"miss_rate": 0.5}

    def test_get_returns_a_copy(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record("k1", {}, 0.5, 0.0)
        store.get("k1")["miss_rate"] = 99.0
        assert store.metrics("k1") == {"miss_rate": 0.5}

    def test_missing_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("nope") is None
        assert store.metrics("nope") is None
        assert "nope" not in store


class TestMerge:
    def test_extra_sources_merge_and_later_source_wins(self, tmp_path):
        _write_journal(tmp_path / "a", [_entry("k1", 0.1), _entry("k2", 0.2)])
        _write_journal(tmp_path / "b", [_entry("k2", 0.9), _entry("k3", 0.3)])
        store = ResultStore(
            tmp_path / "store", [tmp_path / "a", tmp_path / "b"]
        )
        assert sorted(store.keys()) == ["k1", "k2", "k3"]
        assert store.metrics("k2") == {"miss_rate": 0.9}
        assert store.stats().duplicates == 1

    def test_source_as_file_path(self, tmp_path):
        path = _write_journal(tmp_path / "a", [_entry("k1")])
        store = ResultStore(tmp_path / "store", [path])
        assert "k1" in store

    def test_duplicate_key_last_line_wins_within_one_file(self, tmp_path):
        _write_journal(tmp_path / "a", [_entry("k1", 0.1), _entry("k1", 0.7)])
        store = ResultStore(tmp_path / "store", [tmp_path / "a"])
        assert store.metrics("k1") == {"miss_rate": 0.7}

    def test_missing_source_is_tolerated_until_it_appears(self, tmp_path):
        store = ResultStore(tmp_path / "store", [tmp_path / "later"])
        assert len(store) == 0
        _write_journal(tmp_path / "later", [_entry("k1")])
        assert store.refresh() == 1
        assert "k1" in store


class TestIntegrity:
    def test_rejects_garbage_and_future_versions(self, tmp_path):
        path = _write_journal(
            tmp_path / "a",
            [
                _entry("good"),
                _entry("future", version=JOURNAL_VERSION + 1),
                _entry("wrong-kind", kind="telemetry"),
                {"kind": "sweep-cell", "version": 1, "key": 42, "miss_rate": 0.1},
                {"kind": "sweep-cell", "version": 1, "key": "no-metrics"},
            ],
        )
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        store = ResultStore(tmp_path / "store", [path])
        assert store.keys() == ["good"]
        assert store.stats().skipped == 5

    def test_torn_tail_is_not_consumed_until_complete(self, tmp_path):
        path = _write_journal(tmp_path / "a", [_entry("k1")])
        full_line = json.dumps(_entry("k2")) + "\n"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(full_line[:25])  # a writer caught mid-append
        store = ResultStore(tmp_path / "store", [path])
        assert store.keys() == ["k1"]
        assert store.stats().skipped == 0  # retried, not rejected
        with path.open("a", encoding="utf-8") as handle:
            handle.write(full_line[25:])
        assert store.refresh() == 1
        assert "k2" in store


class TestTornPrimary:
    """A record appended after a crash's torn tail must start its own
    line: glued onto the tail it would be served until restart and
    lost by every reopen."""

    def test_records_after_a_torn_tail_survive_reopen(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record("a", {"label": "dm"}, 0.1, 0.0)
        store.record("b", {"label": "dm"}, 0.2, 0.0)
        line = json.dumps(_entry("c", 0.3), sort_keys=True)
        with (tmp_path / JOURNAL_FILENAME).open("a", encoding="utf-8") as handle:
            handle.write(line[:40])  # the writer died mid-append
        store = ResultStore(tmp_path)
        store.record("c", {"label": "dm"}, 0.3, 0.0)
        store.record("d", {"label": "dm"}, 0.4, 0.0)
        assert sorted(store.keys()) == ["a", "b", "c", "d"]
        reopened = ResultStore(tmp_path)
        assert sorted(reopened.keys()) == ["a", "b", "c", "d"]
        assert reopened.stats().skipped == 1  # the fragment, on its own line

    def test_complete_unterminated_line_lands_with_the_next_append(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record("a", {"label": "dm"}, 0.1, 0.0)
        with (tmp_path / JOURNAL_FILENAME).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(_entry("b", 0.2), sort_keys=True))
        store = ResultStore(tmp_path)
        assert "b" not in store
        assert "b" not in ResultStore(tmp_path)
        store.record("c", {"label": "dm"}, 0.3, 0.0)
        assert sorted(store.keys()) == ["a", "b", "c"]
        reopened = ResultStore(tmp_path)
        assert sorted(reopened.keys()) == ["a", "b", "c"]
        assert reopened.metrics("b") == {"miss_rate": 0.2}


class TestOffsetDrift:
    """Regression: tailing must advance by *raw byte* length, not the
    length of the decoded-with-replacement text.  U+FFFD is 3 bytes in
    UTF-8, so a text-mode reader overshot the true offset on any line
    holding invalid bytes and then silently swallowed the head of every
    later append."""

    def test_garbage_bytes_do_not_desync_the_tail(self, tmp_path):
        directory = tmp_path / "a"
        directory.mkdir()
        path = directory / JOURNAL_FILENAME
        # Three invalid bytes decode to three U+FFFD (9 bytes of text):
        # a drifting reader would skip 6 bytes of the next line.
        path.write_bytes(b"\xff\xfe\xfd\n")
        store = ResultStore(tmp_path / "store", [directory])
        assert store.stats().skipped == 1

        with path.open("ab") as handle:
            handle.write((json.dumps(_entry("k1")) + "\n").encode("utf-8"))
        assert store.refresh() == 1
        assert store.metrics("k1") == {"miss_rate": 0.25}
        assert store.stats().skipped == 1  # nothing else was mangled

    def test_invalid_bytes_inside_a_string_value_keep_the_entry(self, tmp_path):
        """An entry whose label holds invalid bytes still parses (the
        bytes become U+FFFD inside the JSON string) and, crucially, the
        entries appended after it stay visible."""
        directory = tmp_path / "a"
        directory.mkdir()
        path = directory / JOURNAL_FILENAME
        entry = _entry("k-dirty")
        entry["label"] = "@"
        line = json.dumps(entry).encode("utf-8").replace(b"@", b"\xff\xff")
        path.write_bytes(line + b"\n")
        store = ResultStore(tmp_path / "store", [directory])
        assert "k-dirty" in store

        with path.open("ab") as handle:
            handle.write((json.dumps(_entry("k-clean")) + "\n").encode("utf-8"))
        assert store.refresh() == 1
        assert "k-clean" in store
        assert store.stats().skipped == 0


class TestNegativeCache:
    def test_record_then_lookup_and_reload(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record_errors([("bad1", "boom"), ("bad2", "crash")], at=123.0)
        entry = store.error_entry("bad1")
        assert entry["error"] == "boom"
        assert entry["recorded_at"] == 123.0
        assert sorted(store.error_keys()) == ["bad1", "bad2"]
        assert store.stats().errors == 2
        # failures are durable: a fresh store over the same dir sees them
        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.error_entry("bad2")["error"] == "crash"

    def test_error_entries_do_not_pollute_the_result_index(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record_errors([("bad", "boom")])
        assert len(store) == 0
        assert store.get("bad") is None
        assert store.metrics("bad") is None
        # nor a reopened store's: replay reads only successes
        store.record("good", {}, 0.1, 0.0)
        reopened = ResultStore(tmp_path / "store")
        assert reopened.keys() == ["good"]
        assert reopened.metrics("bad") is None

    def test_success_evicts_the_cached_failure(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record_errors([("k1", "boom")])
        store.record("k1", {"label": "dm"}, 0.5, 0.01)
        assert store.error_entry("k1") is None
        assert store.metrics("k1") == {"miss_rate": 0.5}
        # and the eviction survives a reload (journal replay order)
        assert ResultStore(tmp_path / "store").error_entry("k1") is None

    def test_later_failure_restarts_the_ttl_window(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record_errors([("k1", "first")], at=10.0)
        store.record_errors([("k1", "second")], at=20.0)
        entry = store.error_entry("k1")
        assert entry["error"] == "second"
        assert entry["recorded_at"] == 20.0


class TestCompaction:
    def _populate(self, store, count=20):
        for i in range(count):
            store.record(f"{i:08x}aa", {"label": "dm"}, 0.1 + i / 1000, 0.0)

    def test_round_trip_is_byte_identical(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._populate(store)
        store.record_errors([("deadbeef00", "boom")], at=99.0)
        before = {key: store.metrics(key) for key in store.keys()}

        stats = store.compact(shards=4)
        assert stats.generation == 1
        assert stats.entries == 20
        assert stats.errors == 1
        assert stats.shard_files <= 4
        assert stats.bytes_after > 0

        # the primary journal is empty; the manifest names the shards
        assert (tmp_path / "store" / JOURNAL_FILENAME).read_text() == ""
        manifest = json.loads(
            (tmp_path / "store" / STORE_MANIFEST_FILENAME).read_text()
        )
        assert manifest["generation"] == 1
        assert len(manifest["shards"]) == stats.shard_files

        # the live store still answers every key, as does a fresh load
        assert {key: store.metrics(key) for key in store.keys()} == before
        reloaded = ResultStore(tmp_path / "store")
        assert {key: reloaded.metrics(key) for key in reloaded.keys()} == before
        assert reloaded.error_entry("deadbeef00")["recorded_at"] == 99.0
        assert reloaded.generation == 1
        assert reloaded.stats().duplicates == 0

    def test_compaction_drops_superseded_lines(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for _ in range(5):  # 5 writes, 1 live entry
            store.record("00000001", {}, 0.5, 0.0)
        stats = store.compact(shards=1)
        assert stats.entries == 1
        assert stats.bytes_after < stats.bytes_before
        shard_lines = sum(
            len(path.read_text().splitlines())
            for path in (tmp_path / "store").glob("journal-*.jsonl")
        )
        assert shard_lines == 1

    def test_second_compact_sweeps_the_previous_generation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._populate(store, 8)
        store.compact(shards=2)
        gen1 = sorted(p.name for p in (tmp_path / "store").glob("journal-*.jsonl"))
        store.record("ffffffff01", {}, 0.9, 0.0)
        stats = store.compact(shards=2)
        assert stats.generation == 2
        gen2 = sorted(p.name for p in (tmp_path / "store").glob("journal-*.jsonl"))
        assert gen2 and not set(gen1) & set(gen2)
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 9
        assert reloaded.metrics("ffffffff01") == {"miss_rate": 0.9}

    def test_records_after_compact_append_and_reload(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._populate(store, 4)
        store.compact()
        store.record("aabbccdd02", {}, 0.7, 0.0)
        assert store.metrics("aabbccdd02") == {"miss_rate": 0.7}
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 5

    def test_extra_source_entries_become_self_contained(self, tmp_path):
        _write_journal(tmp_path / "extra", [_entry("feed0001")])
        store = ResultStore(tmp_path / "store", [tmp_path / "extra"])
        assert "feed0001" in store
        store.compact(shards=1)
        (tmp_path / "extra" / JOURNAL_FILENAME).unlink()
        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.metrics("feed0001") == {"miss_rate": 0.25}

    def test_extra_source_appends_after_compact_still_win(self, tmp_path):
        _write_journal(tmp_path / "extra", [_entry("feed0001", 0.1)])
        store = ResultStore(tmp_path / "store", [tmp_path / "extra"])
        store.compact(shards=1)
        _write_journal(tmp_path / "extra", [_entry("feed0001", 0.9)])
        assert store.refresh() == 0  # same key, updated value
        assert store.metrics("feed0001") == {"miss_rate": 0.9}

    def test_sharding_spreads_keys(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._populate(store, 32)
        stats = store.compact(shards=4)
        assert stats.shard_files == 4  # hex prefixes 0..31 hit every slot

    def test_non_hex_keys_still_shard(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record("not hex at all", {}, 0.5, 0.0)
        stats = store.compact(shards=4)
        assert stats.entries == 1
        assert ResultStore(tmp_path / "store").metrics("not hex at all") == {
            "miss_rate": 0.5
        }

    def test_bad_shard_count_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="at least 1"):
            store.compact(shards=0)

    def test_default_shard_count(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._populate(store, 2)
        assert store.compact().generation == 1
        assert DEFAULT_SHARDS >= 1

    def test_corrupt_manifest_degrades_to_journal_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record("00000001", {}, 0.5, 0.0)
        (tmp_path / "store" / STORE_MANIFEST_FILENAME).write_text("{torn")
        reloaded = ResultStore(tmp_path / "store")
        # journal still loads; the torn manifest is simply ignored
        assert reloaded.generation == 0
        assert "00000001" in reloaded


class TestStateToken:
    def test_changes_on_every_mutation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        t0 = store.state_token()
        store.record("00000001", {}, 0.5, 0.0)
        t1 = store.state_token()
        assert t1 != t0
        store.record_errors([("bad", "boom")])
        t2 = store.state_token()
        assert t2 != t1
        store.compact()
        t3 = store.state_token()
        assert t3 != t2
        assert len({t0, t1, t2, t3}) == 4

    def test_stable_when_nothing_changes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.record("00000001", {}, 0.5, 0.0)
        token = store.state_token()
        store.refresh()
        assert store.state_token() == token


class TestConcurrency:
    def test_reader_tails_a_live_writer(self, tmp_path):
        """One thread appends through one store while another store
        refreshes with that directory as an extra source; every
        committed entry must become visible and nothing may be skipped."""
        writer_dir = tmp_path / "writer"
        journal = ResultStore(writer_dir)
        store = ResultStore(tmp_path / "store", [writer_dir])
        total = 200

        def write():
            for i in range(total):
                journal.record(f"k{i}", {"label": "dm"}, 0.1, 0.0)

        thread = threading.Thread(target=write)
        thread.start()
        while len(store) < total:
            store.refresh()
        thread.join()
        assert len(store) == total
        assert store.stats().skipped == 0
        assert store.stats().duplicates == 0

    def test_concurrent_records_through_one_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        threads = [
            threading.Thread(
                target=lambda base=base: [
                    store.record(f"k{base}-{i}", {}, 0.1, 0.0) for i in range(50)
                ]
            )
            for base in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store) == 200
        # and the journal file itself holds every line, all valid JSON
        lines = (tmp_path / "store" / JOURNAL_FILENAME).read_text().splitlines()
        assert len(lines) == 200
        for line in lines:
            json.loads(line)


class TestJournalProtocol:
    def test_store_as_sweep_journal(self, tmp_path):
        """A store passed as ``journal=`` replays cached cells and
        records new ones into the primary journal."""
        cells = [
            ("dm", TinyDirectFactory(), size, trace)
            for size in (1024, 2048)
            for trace in TwoBenchmarks().for_parameter(size)
        ]
        store = ResultStore(tmp_path / "store")
        first = run_labeled_cells(cells, engine="fast", journal=store, progress=False)
        assert all(o.ok and not o.cached for o in first)
        assert len(store) == len(cells)

        second = run_labeled_cells(cells, engine="fast", journal=store, progress=False)
        assert all(o.ok and o.cached for o in second)
        assert [o.metrics for o in second] == [o.metrics for o in first]

        # a fresh store over the same directory replays the same cells
        reopened = ResultStore(tmp_path / "store")
        third = run_labeled_cells(cells, engine="fast", journal=reopened, progress=False)
        assert all(o.cached for o in third)

    def test_record_nan_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="non-finite"):
            store.record("bad", {}, float("nan"), 0.0)
        assert len(store) == 0
