"""Tests for repro.obs.manifest — the per-run provenance record."""

import json
import os
import shutil
import signal
import sys
import time

import pytest

from repro.obs.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    build_manifest,
    environment_snapshot,
    git_sha,
    read_manifest,
    write_manifest,
)


def _manifest(**overrides):
    fields = dict(
        spec_id="fig05",
        spec_fingerprint="abc123",
        engine="fast",
        workers=4,
        wall_seconds=1.23456789,
        cpu_seconds=2.5,
        started_at=1700000000.123,
    )
    fields.update(overrides)
    return build_manifest(**fields)


class TestBuildManifest:
    def test_core_fields(self):
        manifest = _manifest()
        assert manifest["kind"] == "run-manifest"
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["spec"] == "fig05"
        assert manifest["spec_fingerprint"] == "abc123"
        assert manifest["engine"] == "fast"
        assert manifest["workers"] == 4
        assert manifest["wall_seconds"] == 1.234568  # rounded to 6dp
        assert manifest["cpu_seconds"] == 2.5

    def test_extra_fields_merge(self):
        manifest = _manifest(extra={"cells": 270})
        assert manifest["cells"] == 270

    def test_is_json_safe(self):
        json.dumps(_manifest())  # must not raise

    def test_environment_snapshot_captures_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.05")
        monkeypatch.setenv("REPRO_PROFILE", "1")
        snapshot = environment_snapshot()
        assert snapshot["repro"]["REPRO_TRACE_SCALE"] == "0.05"
        assert snapshot["repro"]["REPRO_PROFILE"] == "1"
        assert snapshot["python"]
        assert snapshot["platform"]


class TestGitSha:
    def test_inside_a_checkout(self):
        sha = git_sha()
        assert sha is not None
        assert len(sha) == 40
        int(sha, 16)  # hex

    def test_outside_a_checkout(self, tmp_path):
        assert git_sha(cwd=tmp_path) is None


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        manifest = _manifest()
        path = write_manifest(tmp_path / "run", manifest)
        assert path == tmp_path / "run" / MANIFEST_FILENAME
        assert read_manifest(tmp_path / "run") == manifest

    def test_no_temp_file_left_behind(self, tmp_path):
        write_manifest(tmp_path, _manifest())
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_FILENAME]

    def test_absent_reads_none(self, tmp_path):
        assert read_manifest(tmp_path) is None

    def test_corrupt_reads_none(self, tmp_path):
        (tmp_path / MANIFEST_FILENAME).write_text('{"torn": ')
        assert read_manifest(tmp_path) is None

    def test_non_object_reads_none(self, tmp_path):
        (tmp_path / MANIFEST_FILENAME).write_text("[1, 2, 3]\n")
        assert read_manifest(tmp_path) is None


class TestConcurrentWriters:
    def test_parallel_writes_never_tear_the_manifest(self, tmp_path):
        """Concurrent write_manifest calls into one directory each use a
        unique temp name, so the surviving manifest is always one
        writer's complete output — never a mix, never a torn file."""
        import threading

        manifests = [_manifest(extra={"writer": i}) for i in range(8)]
        threads = [
            threading.Thread(target=write_manifest, args=(tmp_path, manifest))
            for manifest in manifests
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        final = read_manifest(tmp_path)
        assert final is not None  # parseable, i.e. not torn
        assert any(final == manifest for manifest in manifests)
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_FILENAME]

    def test_repeated_writes_last_wins(self, tmp_path):
        for i in range(3):
            write_manifest(tmp_path, _manifest(extra={"round": i}))
        assert read_manifest(tmp_path)["round"] == 2


_CRASHED = 17


def _write_killed_at(directory, manifest, k):
    """Fork a child that writes ``manifest`` into ``directory`` and
    ``os._exit``s at the ``k``-th line it executes inside
    ``write_manifest``.

    Returns whether the child died there (False: the write finished in
    fewer lines).
    """
    traced = write_manifest.__code__
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            lines = 0

            def on_line(frame, event, arg):
                nonlocal lines
                if event == "line":
                    lines += 1
                    if lines == k:
                        os._exit(_CRASHED)
                return on_line

            sys.settrace(
                lambda frame, event, arg: on_line if frame.f_code is traced else None
            )
            write_manifest(directory, manifest)
            os._exit(0)
        finally:
            os._exit(1)  # never return into the test runner
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"manifest-writing child still running after 30 s (k={k})")
        time.sleep(0.001)
    code = os.waitstatus_to_exitcode(status)
    assert code in (0, _CRASHED), f"manifest-writing child exited {code}"
    return code == _CRASHED


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestManifestCrash:
    """Kill ``write_manifest`` at every line it runs: the manifest on
    disk is always absent, the complete old one, or the complete new
    one.  A killed writer may leave its own temp file behind; nothing
    sweeps it, because another live writer's temp file looks the same."""

    def _crash_everywhere(self, tmp_path, old):
        template = tmp_path / "template"
        template.mkdir()
        if old is not None:
            write_manifest(template, old)
        new = _manifest(extra={"writer": "new"})
        allowed = [new] + ([old] if old is not None else [None])
        crashes = 0
        while True:
            directory = tmp_path / f"crash-{crashes + 1}"
            shutil.copytree(template, directory)
            if not _write_killed_at(directory, new, crashes + 1):
                break
            crashes += 1
            assert read_manifest(directory) in allowed, f"crash at line {crashes}"
            shutil.rmtree(directory)
        assert read_manifest(directory) == new
        assert crashes > 5  # the trace did reach the writer's lines

    def test_into_an_empty_directory(self, tmp_path):
        self._crash_everywhere(tmp_path, old=None)

    def test_over_an_existing_manifest(self, tmp_path):
        self._crash_everywhere(tmp_path, old=_manifest(extra={"writer": "old"}))
