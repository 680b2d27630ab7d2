"""One home for the environment knobs every entry point parses.

Both CLIs, the experiments' trace budget, and the parallel sweep runner
read the same two environment variables; before this module each of
them carried its own copy of the parsing and error wording.  The rules:

* ``REPRO_TRACE_SCALE`` — positive float multiplier on every
  experiment's per-trace reference budget (default 1.0; the base budget
  is :data:`BASE_MAX_REFS` references, see DESIGN.md §2);
* ``REPRO_WORKERS`` — default worker count for sweeps (integer
  >= 1; unset means sequential unless ``--workers`` says otherwise);
* ``REPRO_LOG_LEVEL`` — stderr chatter verbosity for both CLIs
  (``debug``/``info``/``warning``/``error``/``quiet``, default
  ``info``; see :mod:`repro.obs.logs`);
* ``REPRO_PROFILE`` — when truthy (``1``/``true``/``yes``/``on``),
  each experiment run executes under one cProfile and writes its hot
  functions (see :mod:`repro.obs.profiling`);
* ``REPRO_FLEET_HOSTS`` — comma-separated fleet worker endpoints
  (``local``, an SSH host, or a full worker command template; unset
  means ``--workers`` local workers).  Set, it sends every sweep with
  pending cells to the fleet, whatever the worker count (see
  :mod:`repro.perf.parallel`);
* ``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT`` — bind address for the
  ``repro serve`` result-store daemon (default ``127.0.0.1:8377``;
  port 0 asks the OS for an ephemeral port);
* ``REPRO_SERVE_STORE`` — default store directory for ``repro serve``
  (unset means the CLI's ``--store`` flag is required);
* ``REPRO_SERVE_URL`` — default base URL for ``repro query`` and the
  serve client (default ``http://<host>:<port>`` from the two knobs
  above).

:func:`validate` is the eager startup check both CLIs run so a typo'd
variable fails before any trace is generated, with one shared error
message per variable.
"""

from __future__ import annotations

import os
from typing import Optional

#: Base number of references per benchmark trace.  The paper uses the
#: first 10 M references; 200 k keeps the full suite laptop-fast while
#: preserving the miss-rate shapes (see DESIGN.md §2).
BASE_MAX_REFS = 200_000


def trace_scale() -> float:
    """The REPRO_TRACE_SCALE multiplier (default 1.0)."""
    raw = os.environ.get("REPRO_TRACE_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_TRACE_SCALE must be a number, got {raw!r}") from None
    if scale <= 0:
        raise ValueError("REPRO_TRACE_SCALE must be positive")
    return scale


def max_refs() -> int:
    """The per-trace reference budget after scaling (never below 1).

    A tiny ``REPRO_TRACE_SCALE`` (anything below 1/BASE_MAX_REFS) used
    to truncate the budget to 0, and every downstream sweep then failed
    with a confusing empty-trace error; the floor keeps even absurd
    scales runnable.
    """
    return max(1, int(BASE_MAX_REFS * trace_scale()))


def env_workers() -> Optional[int]:
    """The validated REPRO_WORKERS setting (None when unset)."""
    raw = os.environ.get("REPRO_WORKERS")
    if raw is None:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError("REPRO_WORKERS must be at least 1")
    return workers


def env_fleet_hosts() -> "list[str]":
    """The parsed REPRO_FLEET_HOSTS endpoint list (empty when unset).

    Comma-separated; each entry is ``local`` (a worker process on this
    machine), a bare SSH destination (``user@host``), or — when it
    contains whitespace — a full worker command template.  A non-empty
    list sends every sweep with pending cells to the fleet.  Blank
    entries are rejected rather than skipped: a trailing comma almost
    always means a host was lost to a shell quoting mistake.
    """
    raw = os.environ.get("REPRO_FLEET_HOSTS")
    if raw is None or not raw.strip():
        return []
    hosts = [entry.strip() for entry in raw.split(",")]
    if any(not entry for entry in hosts):
        raise ValueError(
            f"REPRO_FLEET_HOSTS must be a comma-separated list of non-empty "
            f"endpoints, got {raw!r}"
        )
    return hosts


# -- result-store daemon (repro serve / repro query) ---------------------------

#: Default bind address for the serve daemon.
DEFAULT_SERVE_HOST = "127.0.0.1"
#: Default TCP port for the serve daemon (0 = OS-assigned ephemeral).
DEFAULT_SERVE_PORT = 8377


def serve_host() -> str:
    """The REPRO_SERVE_HOST bind address (default ``127.0.0.1``)."""
    raw = os.environ.get("REPRO_SERVE_HOST", DEFAULT_SERVE_HOST).strip()
    if not raw:
        raise ValueError("REPRO_SERVE_HOST must be a non-empty host name")
    return raw


def serve_port() -> int:
    """The validated REPRO_SERVE_PORT setting (default 8377; 0 = ephemeral)."""
    raw = os.environ.get("REPRO_SERVE_PORT")
    if raw is None:
        return DEFAULT_SERVE_PORT
    try:
        port = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_SERVE_PORT must be an integer, got {raw!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"REPRO_SERVE_PORT must be in 0..65535, got {port}")
    return port


def serve_store() -> Optional[str]:
    """The REPRO_SERVE_STORE default store directory (None when unset)."""
    raw = os.environ.get("REPRO_SERVE_STORE")
    if raw is None:
        return None
    raw = raw.strip()
    if not raw:
        raise ValueError("REPRO_SERVE_STORE must be a non-empty directory path")
    return raw


def serve_url() -> str:
    """The client-side base URL (REPRO_SERVE_URL, or built from host/port)."""
    raw = os.environ.get("REPRO_SERVE_URL")
    if raw is None:
        return f"http://{serve_host()}:{serve_port()}"
    raw = raw.strip().rstrip("/")
    if not raw.startswith(("http://", "https://")):
        raise ValueError(
            f"REPRO_SERVE_URL must start with http:// or https://, got {raw!r}"
        )
    return raw


#: Accepted ``REPRO_LOG_LEVEL`` values (mirrors repro.obs.logs.LOG_LEVELS;
#: duplicated here so env stays import-leaf).
LOG_LEVELS = ("debug", "info", "warning", "error", "quiet")

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off", "")


def log_level() -> str:
    """The validated REPRO_LOG_LEVEL setting (default ``info``)."""
    raw = os.environ.get("REPRO_LOG_LEVEL", "info").strip().lower()
    if raw not in LOG_LEVELS:
        options = ", ".join(LOG_LEVELS)
        raise ValueError(
            f"REPRO_LOG_LEVEL must be one of {options}, got {raw!r}"
        )
    return raw


def profile_enabled() -> bool:
    """Whether REPRO_PROFILE asks for the opt-in profiling path."""
    raw = os.environ.get("REPRO_PROFILE", "").strip().lower()
    if raw in _TRUTHY:
        return True
    if raw in _FALSY:
        return False
    raise ValueError(
        f"REPRO_PROFILE must be a boolean (1/true/yes/on or 0/false/no/off), "
        f"got {raw!r}"
    )


def validate() -> None:
    """Parse every repro environment variable, raising on the first bad one.

    Run this at CLI startup: a malformed ``REPRO_WORKERS`` used to
    surface only when the first sweep spun up its pool, minutes into a
    run, and a malformed ``REPRO_TRACE_SCALE`` when the first trace was
    generated.
    """
    env_workers()
    env_fleet_hosts()
    trace_scale()
    log_level()
    profile_enabled()
    serve_host()
    serve_port()
    serve_store()
    serve_url()
