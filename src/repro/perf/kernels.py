"""Compiled program-order simulation kernels.

Every kernel is a loop in ``kernels.c`` that walks the trace's line
addresses (:meth:`~repro.trace.trace.Trace.lines`) once, in program
order, and makes the decisions of its reference model's ``access``,
with the per-set state in flat arrays and the hit-last bits in a hash
map.  Program order needs no argument that sets run independently, so
a hashed hit-last table may be smaller than the cache, and two-level
hierarchies share their L2 and hit-last bits across L1 sets as the
reference does.  The functions here are thin ``ctypes`` wrappers:
each passes the line array in and turns the loop's counts into a
checked :class:`~repro.caches.stats.CacheStats`.  A last-line buffer
needs no kernel of its own: :func:`~repro.caches.base.simulate_line_events`
runs the inner model's kernel on the line events.  Every kernel's
result is field-for-field identical to its reference simulator's
(``tests/perf/test_engine_equivalence.py`` proves it differentially),
and every result passes :meth:`~repro.caches.stats.CacheStats.check`
before it is returned, so a kernel bug fails loudly instead of skewing
a figure.

The library is built on first use with the system ``cc -O2 -shared
-fPIC`` into this package's ``__pycache__`` (or, if that is not
writable, a per-user directory under :func:`tempfile.gettempdir`),
named by a digest of the source and the platform, and moved into
place atomically, so concurrent builders never load a partial file and
later processes only load it; the compile is the ``kernels.build``
span.  Without a compiler, or when the build fails, :func:`library`
warns once, with the compiler's output, and returns None; the engine
then runs every model's reference loop.
"""

from __future__ import annotations

import ctypes
import functools
import getpass
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..caches.geometry import CacheGeometry
from ..caches.stats import CacheStats, ExclusionEvents
from ..core.hitlast import HashedHitLastStore
from ..hierarchy.two_level import Strategy, TwoLevelResult
from ..obs import tracing as obs_tracing
from ..trace.trace import Trace

_SOURCE = Path(__file__).with_name("kernels.c")
_FLAGS = ("-O2", "-shared", "-fPIC")

_ARRAY = ctypes.c_void_p
_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_INT = ctypes.c_int

#: C function -> its argument types after ``(lines, n)``; each takes
#: an ``int64`` output array last and returns 0 or -1 (out of memory).
_SIGNATURES = {
    "sim_direct_mapped": (_U64,),
    "sim_victim": (_U64, _I64),
    "sim_dynamic_exclusion": (_U64, _INT, _U64),
    "sim_set_associative_exclusion": (_U64, _I64, _INT),
    "sim_lru": (_U64, _I64),
    "sim_belady": (_U64, _I64),
    "sim_two_level": (_U64, _U64, _INT, _U64),
}

#: What the direct-mapped loop behind ``sim_direct_mapped``,
#: ``sim_dynamic_exclusion`` and ``sim_two_level`` counts: L1 hits, cold
#: misses, evictions, bypasses, hit-last loads and flips, then L2 hits,
#: cold misses, evictions and bypasses.
_DIRECT_MAPPED_COUNTS = 10

#: The order ``sim_two_level`` numbers the hit-last strategies in.
_STRATEGIES = (
    Strategy.DIRECT_MAPPED,
    Strategy.IDEAL,
    Strategy.ASSUME_HIT,
    Strategy.ASSUME_MISS,
    Strategy.HASHED,
)


class BuildError(RuntimeError):
    """The kernel library could not be compiled."""


def _compiler() -> Optional[str]:
    """The C compiler the library is built with: ``cc`` on ``PATH``."""
    return shutil.which("cc")


def _build_dirs() -> "tuple[Path, Path]":
    """The package's ``__pycache__``, then the per-user fallback."""
    owner = os.getuid() if hasattr(os, "getuid") else getpass.getuser()
    private = Path(tempfile.gettempdir()) / f"repro-kernels-{owner}"
    return Path(__file__).with_name("__pycache__"), private


def _library_name() -> str:
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(f"{sys.platform} {platform.machine()} {_FLAGS}".encode())
    return f"kernels-{digest.hexdigest()[:16]}.so"


def _private(directory: Path) -> Path:
    """Create ``directory`` for this user alone; raise :class:`OSError` if
    anyone else can write to it (they could plant a library there)."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = directory.stat()
    if info.st_mode & 0o022 or (hasattr(os, "getuid") and info.st_uid != os.getuid()):
        raise PermissionError(f"{directory} is writable by other users")
    return directory


def _build(directory: Path, name: str) -> Path:
    """Compile the library into ``directory``; the finished file replaces
    ``name`` atomically, so no process ever loads a partial one.  The
    compile is a span of its own, so a first-use build does not hide in
    the self time of whatever span asked for the library."""
    compiler = _compiler()
    if compiler is None:
        raise BuildError("no C compiler (cc) on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix=f"{name}.", dir=directory)
    os.close(fd)
    try:
        try:
            with obs_tracing.span("kernels.build", library=name):
                done = subprocess.run(
                    [compiler, *_FLAGS, "-o", partial, str(_SOURCE)],
                    capture_output=True,
                    text=True,
                )
        except OSError as exc:
            raise BuildError(f"{compiler} could not be started: {exc}") from exc
        if done.returncode != 0:
            raise BuildError(
                f"{compiler} exited with {done.returncode}: {done.stderr.strip()}"
            )
        os.replace(partial, directory / name)
        return directory / name
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _locate() -> Path:
    """The library's path, built on first use."""
    name = _library_name()
    package, private = _build_dirs()
    if (package / name).is_file():
        return package / name
    try:
        return _build(package, name)
    except OSError:
        pass  # an unwritable package directory: use the private one
    if (_private(private) / name).is_file():
        return private / name
    return _build(private, name)


@functools.lru_cache(maxsize=None)
def library() -> Optional[ctypes.CDLL]:
    """The compiled kernels, built on first use; None if they cannot be
    built or loaded (after one warning carrying the reason)."""
    try:
        lib = ctypes.CDLL(str(_locate()))
    except (BuildError, OSError) as exc:
        warnings.warn(
            f"compiled kernels unavailable, every model runs its reference "
            f"loop: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    for name, argtypes in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = (_ARRAY, _I64, *argtypes, _ARRAY)
        function.restype = _INT
    return lib


def _run(name: str, lines: np.ndarray, *args: int, counts: int) -> List[int]:
    """Call kernel ``name`` on a line-address array; its ``counts`` outputs."""
    lib = library()
    if lib is None:
        raise RuntimeError("the compiled kernels are unavailable")
    lines = np.ascontiguousarray(lines, dtype=np.uint64)
    out = np.zeros(counts, dtype=np.int64)
    if getattr(lib, name)(lines.ctypes.data, len(lines), *args, out.ctypes.data):
        raise MemoryError(f"{name}: out of memory")
    return out.tolist()


def _require_direct_mapped(geometry: CacheGeometry) -> None:
    if geometry.associativity != 1:
        raise ValueError("this kernel requires associativity 1")


def _stats(
    n: int,
    hits: int,
    cold: int,
    evictions: int,
    bypasses: int = 0,
    buffer_hits: int = 0,
) -> CacheStats:
    """A kernel's checked :class:`CacheStats` over ``n`` references."""
    stats = CacheStats(
        accesses=n,
        hits=hits,
        misses=n - hits,
        bypasses=bypasses,
        evictions=evictions,
        buffer_hits=buffer_hits,
        cold_misses=cold,
    )
    stats.check()
    return stats


def simulate_direct_mapped(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Models :class:`~repro.caches.direct_mapped.DirectMappedCache`
    (always-allocate)."""
    _require_direct_mapped(geometry)
    counts = _run(
        "sim_direct_mapped",
        trace.lines(geometry.offset_bits),
        geometry.num_sets,
        counts=_DIRECT_MAPPED_COUNTS,
    )
    return _stats(len(trace), *counts[:3])


def simulate_victim(
    trace: Trace, geometry: CacheGeometry, entries: int
) -> CacheStats:
    """Models :class:`~repro.caches.victim.VictimCache`: a cold
    direct-mapped L1 behind an ``entries``-deep LRU victim buffer."""
    _require_direct_mapped(geometry)
    if entries < 1:
        raise ValueError("victim buffer needs at least one entry")
    hits, buffer_hits, cold, evictions = _run(
        "sim_victim",
        trace.lines(geometry.offset_bits),
        geometry.num_sets,
        entries,
        counts=4,
    )
    return _stats(len(trace), hits, cold, evictions, buffer_hits=buffer_hits)


def simulate_dynamic_exclusion(
    trace: Trace,
    geometry: CacheGeometry,
    default_hit_last: bool = True,
    num_bits: "int | None" = None,
) -> CacheStats:
    """Models :class:`~repro.core.exclusion_cache.DynamicExclusionCache`
    with ``sticky_levels=1``, starting from a cold cache and a fresh
    store whose cold value is ``default_hit_last``: an
    :class:`~repro.core.hitlast.IdealHitLastStore` when ``num_bits`` is
    None, else a :class:`~repro.core.hitlast.HashedHitLastStore` of
    ``num_bits`` bits.  Publishes the run's ``fsm.*`` events.
    """
    _require_direct_mapped(geometry)
    if num_bits is not None:
        HashedHitLastStore.validate(num_bits)
    hits, cold, evictions, bypasses, loads, flips, *_ = _run(
        "sim_dynamic_exclusion",
        trace.lines(geometry.offset_bits),
        geometry.num_sets,
        int(default_hit_last),
        num_bits or 0,
        counts=_DIRECT_MAPPED_COUNTS,
    )
    ExclusionEvents(
        sticky_saves=bypasses, hit_last_loads=loads, exclusion_flips=flips
    ).publish(trace.name, engine="fast")
    return _stats(len(trace), hits, cold, evictions, bypasses)


def simulate_belady(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Models :class:`~repro.caches.optimal.OptimalCache` (and therefore
    :class:`~repro.caches.optimal.OptimalDirectMappedCache`) at any
    associativity."""
    hits, cold, evictions, bypasses = _run(
        "sim_belady",
        trace.lines(geometry.offset_bits),
        geometry.num_sets,
        geometry.associativity,
        counts=4,
    )
    return _stats(len(trace), hits, cold, evictions, bypasses)


def simulate_lru(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Models :class:`~repro.caches.set_associative.SetAssociativeCache`
    with the ``lru`` policy at any associativity."""
    counts = _run(
        "sim_lru",
        trace.lines(geometry.offset_bits),
        geometry.num_sets,
        geometry.associativity,
        counts=4,
    )
    return _stats(len(trace), *counts)


def simulate_set_associative_exclusion(
    trace: Trace, geometry: CacheGeometry, default_hit_last: bool = True
) -> CacheStats:
    """Models :class:`~repro.core.set_assoc_exclusion.SetAssociativeExclusionCache`
    with ``sticky_levels=1`` and a fresh
    :class:`~repro.core.hitlast.IdealHitLastStore` (cold value
    ``default_hit_last``) at any associativity.  At associativity 1 the
    result equals :func:`simulate_dynamic_exclusion`'s."""
    hits, cold, evictions, bypasses = _run(
        "sim_set_associative_exclusion",
        trace.lines(geometry.offset_bits),
        geometry.num_sets,
        geometry.associativity,
        int(default_hit_last),
        counts=4,
    )
    return _stats(len(trace), hits, cold, evictions, bypasses)


def simulate_two_level(
    trace: Trace,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    strategy: "Strategy | str",
    hashed_bits_per_line: int = 4,
) -> TwoLevelResult:
    """Models a cold :class:`~repro.hierarchy.two_level.TwoLevelCache`
    of any strategy with ``sticky_levels=1`` and equal L1 and L2 line
    sizes.  Publishes no ``fsm.*`` events, matching the reference
    hierarchy."""
    strategy = Strategy(strategy)
    if l1_geometry.line_size != l2_geometry.line_size:
        raise ValueError("the two-level kernel requires equal L1 and L2 line sizes")
    _require_direct_mapped(l1_geometry)
    _require_direct_mapped(l2_geometry)
    table_bits = 0
    if strategy is Strategy.HASHED:
        table_bits = l1_geometry.num_lines * hashed_bits_per_line
        HashedHitLastStore.validate(table_bits)
    counts = _run(
        "sim_two_level",
        trace.lines(l1_geometry.offset_bits),
        l1_geometry.num_sets,
        l2_geometry.num_sets,
        _STRATEGIES.index(strategy),
        table_bits,
        counts=_DIRECT_MAPPED_COUNTS,
    )
    l1 = _stats(len(trace), *counts[:4])
    l2 = _stats(l1.misses, *counts[6:])
    return TwoLevelResult(strategy=strategy, l1=l1, l2=l2)
