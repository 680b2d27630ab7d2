"""Serving-tier latency benchmarks for the result-store daemon.

Three legs, each gating the machine-independent ratio that carries its
economic claim (``tools/check_bench_regression.py`` compares them
against the committed baselines):

* **warm vs cold** (``bench_serve.json``) — the same ``POST /run``
  twice: cold simulates every cell, warm answers from the index with
  zero simulations.  Gated: ``warm_vs_cold_speedup``.
* **compaction** (``bench_store_compact.json``) — a store whose journal
  holds many superseded lines per key loads much faster from compacted
  generation shards than by replaying the full append history.  Gated:
  ``compact_load_speedup``.
* **ETag/304** (``bench_serve_etag.json``) — a conditional
  ``GET /spec`` matching the server's ETag skips cell planning (key
  hashing for every cell) and body serialisation.  Gated:
  ``etag_304_speedup``.

Warm/repeat latencies are min-of-N to keep a loaded CI runner from
flaking the gates; the cold/first costs are reported but not gated on
their absolute values.
"""

import time

from conftest import write_json_result

from repro.serve import ResultServer, ServeClient
from repro.store import ResultStore

SPEC = "fig04"
WARM_ROUNDS = 5
SPEEDUP_FLOOR = 5.0  # measured ~40x at scale 0.05; generous CI margin


def test_serve_warm_vs_cold(results_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SCALE", "0.05")
    store = ResultStore(tmp_path / "store")
    with ResultServer(store, port=0) as server:
        client = ServeClient(server.url)

        start = time.perf_counter()
        cold = client.run(SPEC)
        cold_seconds = time.perf_counter() - start
        assert cold["manifest"]["cells_computed"] > 0

        warm_seconds = float("inf")
        for _ in range(WARM_ROUNDS):
            start = time.perf_counter()
            warm = client.run(SPEC)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
            assert warm["manifest"]["cells_computed"] == 0

    assert cold["result"] == warm["result"]
    speedup = cold_seconds / warm_seconds
    print(
        f"\ncold: {cold_seconds:.3f}s  warm(best of {WARM_ROUNDS}): "
        f"{warm_seconds:.3f}s  speedup: {speedup:.1f}x"
    )
    write_json_result(
        results_dir,
        "bench_serve",
        config={
            "spec": SPEC,
            "cells": cold["manifest"]["cells_total"],
            "trace_scale": 0.05,
            "warm_rounds": WARM_ROUNDS,
        },
        metrics={
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_vs_cold_speedup": round(speedup, 2),
        },
        gate=["warm_vs_cold_speedup"],
    )
    assert speedup > SPEEDUP_FLOOR, (
        f"warm serving only {speedup:.1f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


# -- compaction: load from shards vs replay the append history -----------------

COMPACT_KEYS = 2000
COMPACT_REWRITES = 8  # journal lines per key; only the last one is live
LOAD_ROUNDS = 3


def test_store_compact_load(results_dir, tmp_path):
    store_dir = tmp_path / "store"
    store = ResultStore(store_dir)
    for round_ in range(COMPACT_REWRITES):
        store.record_many(
            [
                (f"{i:08x}bb", {"label": "dm"}, 0.1 + round_ / 100, 0.0)
                for i in range(COMPACT_KEYS)
            ]
        )

    before_seconds = float("inf")
    for _ in range(LOAD_ROUNDS):
        start = time.perf_counter()
        replayed = ResultStore(store_dir)
        before_seconds = min(before_seconds, time.perf_counter() - start)
    assert len(replayed) == COMPACT_KEYS
    assert replayed.stats().duplicates == COMPACT_KEYS * (COMPACT_REWRITES - 1)

    stats = store.compact()
    assert stats.entries == COMPACT_KEYS

    after_seconds = float("inf")
    for _ in range(LOAD_ROUNDS):
        start = time.perf_counter()
        compacted = ResultStore(store_dir)
        after_seconds = min(after_seconds, time.perf_counter() - start)
    assert len(compacted) == COMPACT_KEYS
    assert compacted.stats().duplicates == 0
    assert compacted.metrics(f"{0:08x}bb") == replayed.metrics(f"{0:08x}bb")

    speedup = before_seconds / after_seconds
    print(
        f"\nload before compact: {before_seconds:.3f}s  after: "
        f"{after_seconds:.3f}s  speedup: {speedup:.1f}x  "
        f"({stats.bytes_before:,} -> {stats.bytes_after:,} bytes)"
    )
    write_json_result(
        results_dir,
        "bench_store_compact",
        config={
            "keys": COMPACT_KEYS,
            "rewrites": COMPACT_REWRITES,
            "shards": stats.shard_files,
            "load_rounds": LOAD_ROUNDS,
        },
        metrics={
            "load_before_seconds": round(before_seconds, 4),
            "load_after_seconds": round(after_seconds, 4),
            "bytes_before": stats.bytes_before,
            "bytes_after": stats.bytes_after,
            "compact_load_speedup": round(speedup, 2),
        },
        gate=["compact_load_speedup"],
    )
    assert speedup > 2.0, (
        f"compacted load only {speedup:.1f}x faster than journal replay"
    )


# -- ETag/304: conditional GET /spec skips planning ----------------------------

ETAG_ROUNDS = 20


def test_serve_etag_304(results_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SCALE", "0.05")
    store = ResultStore(tmp_path / "store")
    with ResultServer(store, port=0) as server:
        client = ServeClient(server.url)
        path = f"/spec/{SPEC}"

        full_seconds = float("inf")
        for _ in range(ETAG_ROUNDS):
            start = time.perf_counter()
            client._get_json(path)  # unconditional: plans every cell
            full_seconds = min(full_seconds, time.perf_counter() - start)

        client.spec(SPEC)  # prime the client's ETag cache
        conditional_seconds = float("inf")
        for _ in range(ETAG_ROUNDS):
            start = time.perf_counter()
            client.spec(SPEC)  # If-None-Match -> 304 from local cache
            conditional_seconds = min(
                conditional_seconds, time.perf_counter() - start
            )
        assert client.not_modified >= ETAG_ROUNDS

    speedup = full_seconds / conditional_seconds
    print(
        f"\nunconditional GET {path}: {full_seconds * 1000:.2f}ms  "
        f"304: {conditional_seconds * 1000:.2f}ms  speedup: {speedup:.1f}x"
    )
    write_json_result(
        results_dir,
        "bench_serve_etag",
        config={"spec": SPEC, "rounds": ETAG_ROUNDS, "trace_scale": 0.05},
        metrics={
            "full_get_seconds": round(full_seconds, 5),
            "not_modified_seconds": round(conditional_seconds, 5),
            "etag_304_speedup": round(speedup, 2),
        },
        gate=["etag_304_speedup"],
    )
    assert speedup > 1.5, (
        f"304 path only {speedup:.1f}x faster than a full GET /spec"
    )
