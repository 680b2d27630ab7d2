"""Machine-readable run manifests.

Every experiment run executed with ``--trace-dir`` leaves behind a
``run_manifest.json`` answering "what exactly produced these files?":
the spec identity and content fingerprint, the resolved engine and
worker count, the ``REPRO_*`` environment, the interpreter/platform,
the commit of the checkout the code was imported from, and the
measured wall/CPU time.  Results that cannot name their configuration
are not reproducible results.

The manifest is one JSON object per run directory — small, stable keys,
written atomically at the end of the run (unlike the trace, which
streams).  :func:`read_manifest` is the loading counterpart used by the
``obs summarize`` CLI and CI checks.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
import sys
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

MANIFEST_FILENAME = "run_manifest.json"
MANIFEST_VERSION = 1


def git_sha(cwd: "str | Path | None" = None) -> Optional[str]:
    """The current commit hash, or None outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if result.returncode != 0:
        return None
    sha = result.stdout.strip()
    return sha or None


@functools.lru_cache(maxsize=None)
def _code_sha() -> Optional[str]:
    """The commit of the checkout the ``repro`` package was imported
    from, read once per process (None outside a checkout), so a run
    started in any directory records the code that ran."""
    return git_sha(Path(__file__).resolve().parents[1])


def environment_snapshot() -> Dict[str, object]:
    """The run-relevant environment: every ``REPRO_*`` variable plus
    interpreter and platform identity."""
    return {
        "repro": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


def build_manifest(
    *,
    spec_id: str,
    spec_fingerprint: str,
    engine: str,
    workers: Optional[int],
    wall_seconds: float,
    cpu_seconds: float,
    started_at: float,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the manifest payload (JSON-safe, stable keys)."""
    manifest: Dict[str, object] = {
        "kind": "run-manifest",
        "version": MANIFEST_VERSION,
        "spec": spec_id,
        "spec_fingerprint": spec_fingerprint,
        "engine": engine,
        "workers": workers,
        "started_at": round(started_at, 3),
        "wall_seconds": round(wall_seconds, 6),
        "cpu_seconds": round(cpu_seconds, 6),
        "git_sha": _code_sha(),
        "env": environment_snapshot(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(directory: Union[str, Path], manifest: Dict[str, object]) -> Path:
    """Write ``run_manifest.json`` atomically (rename over temp file).

    The temp name embeds the pid and a random suffix: two concurrent
    runs sharing a directory each rename their *own* fully written file
    (last writer wins), instead of tearing a shared ``.tmp``.  The data
    is fsynced before the rename so the manifest that appears under the
    final name is never a partially flushed file, even across a crash.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_FILENAME
    tmp = directory / f".{MANIFEST_FILENAME}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    finally:
        # On any failure after creation (ENOSPC mid-write, a raced
        # unlink), don't leave the temp file behind.
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    return path


def read_manifest(directory: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Load a run directory's manifest, or None if absent/corrupt."""
    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return manifest if isinstance(manifest, dict) else None
