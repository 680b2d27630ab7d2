"""Module-level factories for the fleet backend tests.

A ``local`` fleet worker is forked on Linux, but on platforms whose
default start method is not ``fork`` — and for SSH or command-template
endpoints — it is a fresh ``python -m repro.cli worker`` process, so
everything a cell pickles must resolve by qualified module name on the
worker's import path.  These live in their own module — importable as
``tests.perf.fleet_helpers`` from the repo root, which is on an exec'd
worker's path because ``python -m`` prepends the parent's working
directory — instead of inside a test file that pytest may import under
a rewritten name.
"""

import os
import signal
import sys
from dataclasses import dataclass

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry


@dataclass(frozen=True)
class WellBehavedFactory:
    """A clean direct-mapped factory (the fleet green path)."""

    line_size: int = 4

    def __call__(self, size: object) -> DirectMappedCache:
        return DirectMappedCache(CacheGeometry(int(size), self.line_size))  # type: ignore[call-overload]


@dataclass(frozen=True)
class UnprofiledFactory:
    """A direct-mapped factory that refuses to run under a profile hook
    (a worker that inherited its parent's cProfile)."""

    def __call__(self, size: object) -> DirectMappedCache:
        if sys.getprofile() is not None:
            raise RuntimeError(f"cell runs under profile hook {sys.getprofile()!r}")
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]


@dataclass(frozen=True)
class KillOnceFactory:
    """SIGKILLs its worker for the poisoned parameter, exactly once.

    The sentinel file arms the kill; the factory removes it *before*
    dying so the re-dispatched attempt (on a surviving or respawned
    worker) completes.  Models an OOM-killed worker that behaves after
    a restart.
    """

    poison: int
    sentinel: str

    def __call__(self, size: object) -> DirectMappedCache:
        if int(size) == self.poison:  # type: ignore[call-overload]
            # Removing the sentinel claims the kill: two workers can run
            # poisoned cells (one per trace) at the same moment, and only
            # the one whose remove succeeds may die.
            try:
                os.remove(self.sentinel)
            except FileNotFoundError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]


@dataclass(frozen=True)
class KillAlwaysFactory:
    """SIGKILLs its worker for the poisoned parameter, every attempt.

    Exhausts the per-cell crash budget so the sweep must fail the cell
    with exact worker attribution instead of retrying forever.
    """

    poison: int

    def __call__(self, size: object) -> DirectMappedCache:
        if int(size) == self.poison:  # type: ignore[call-overload]
            os.kill(os.getpid(), signal.SIGKILL)
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]


def raise_for_2048(size):
    """A deterministic failure: raises for parameter 2048, else clean."""
    if int(size) == 2048:
        raise RuntimeError(f"poisoned parameter {size}")
    return DirectMappedCache(CacheGeometry(int(size), 4))


@dataclass(frozen=True)
class SlowFactory:
    """Sleeps forever (well past any test timeout) for the poison."""

    poison: int
    delay: float = 60.0

    def __call__(self, size: object) -> DirectMappedCache:
        if int(size) == self.poison:  # type: ignore[call-overload]
            import time

            time.sleep(self.delay)
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]
