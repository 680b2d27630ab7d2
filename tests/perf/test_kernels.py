"""Unit tests for the compiled kernels on hand-checkable traces, of the
two-level kernel's L1 against the lone-cache kernels, and of how the
kernel library is built, cached and replaced by the reference loops
when it cannot be built."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.caches.stats import CacheStats
from repro.caches.victim import VictimCache
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import HashedHitLastStore, IdealHitLastStore
from repro.hierarchy.two_level import Strategy
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.perf import engine, kernels
from repro.perf.kernels import (
    simulate_direct_mapped,
    simulate_dynamic_exclusion,
    simulate_set_associative_exclusion,
    simulate_two_level,
    simulate_victim,
)
from repro.trace.trace import Trace
from repro.workloads.registry import benchmark_names, instruction_trace

from .test_engine_equivalence import spec_trace
from .test_engine_properties import FACTORIES


def itrace(addrs):
    return Trace(addrs, [0] * len(addrs))


GEOMETRY = CacheGeometry(64, 4)  # 16 lines, so 64 aliases with 0


@pytest.mark.usefixtures("compiled_kernels")
class TestDirectMappedKernel:
    def test_empty_trace(self):
        assert simulate_direct_mapped(Trace.empty(), GEOMETRY) == CacheStats()

    def test_requires_direct_mapped_geometry(self):
        with pytest.raises(ValueError):
            simulate_direct_mapped(itrace([0]), CacheGeometry(64, 4, associativity=2))

    def test_thrashing_pair(self):
        # 0 and 64 alias in the same set: every access past the first
        # fill misses and evicts; only the initial fill is cold.
        stats = simulate_direct_mapped(itrace([0, 64] * 10), GEOMETRY)
        assert stats.accesses == 20
        assert stats.misses == 20
        assert stats.cold_misses == 1
        assert stats.evictions == 19
        assert stats == DirectMappedCache(GEOMETRY).simulate(itrace([0, 64] * 10))

    def test_pure_hits_after_cold(self):
        stats = simulate_direct_mapped(itrace([0, 0, 0, 4, 4]), GEOMETRY)
        assert stats.hits == 3
        assert stats.cold_misses == 2
        assert stats.evictions == 0

    def test_matches_reference_on_interleaved_sets(self):
        # Two sets active at once: partitioning must keep per-set order.
        addrs = [0, 4, 64, 68, 0, 4, 64, 68, 128, 132]
        trace = itrace(addrs)
        assert simulate_direct_mapped(trace, GEOMETRY) == DirectMappedCache(
            GEOMETRY
        ).simulate(trace)


@pytest.mark.usefixtures("compiled_kernels")
class TestDynamicExclusionKernel:
    def test_empty_trace(self):
        assert simulate_dynamic_exclusion(Trace.empty(), GEOMETRY) == CacheStats()

    def test_requires_direct_mapped_geometry(self):
        with pytest.raises(ValueError):
            simulate_dynamic_exclusion(
                itrace([0]), CacheGeometry(64, 4, associativity=2)
            )

    def test_single_conflict_pair_learns_to_exclude(self):
        # (a b)^10 in one set: the FSM settles into keeping one word.
        trace = itrace([0, 64] * 10)
        reference = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=True)
        ).simulate(trace)
        assert simulate_dynamic_exclusion(trace, GEOMETRY) == reference
        # DE must beat the 100% miss rate of the direct-mapped cache.
        assert reference.hits > 0

    @pytest.mark.parametrize("default", [True, False])
    def test_cold_polarity_matches_reference(self, default):
        trace = itrace([0, 64, 0, 64, 4, 68, 4, 68, 0, 64])
        reference = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=default)
        ).simulate(trace)
        fast = simulate_dynamic_exclusion(trace, GEOMETRY, default_hit_last=default)
        assert fast == reference

    def test_run_compression_boundaries(self):
        # Runs of every length through every FSM edge: repeated words,
        # single bypasses, bypass-then-reload, cold runs.
        addrs = [0, 0, 64, 64, 64, 0, 64, 0, 0, 64, 64, 4, 4, 4, 68, 68]
        trace = itrace(addrs)
        reference = DynamicExclusionCache(
            GEOMETRY, store=IdealHitLastStore(default=True)
        ).simulate(trace)
        assert simulate_dynamic_exclusion(trace, GEOMETRY) == reference

    def test_seeded_random_traces(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 2000))
            addrs = (rng.integers(0, 256, size=n) * 4).tolist()
            trace = itrace(addrs)
            for default in (True, False):
                reference = DynamicExclusionCache(
                    GEOMETRY, store=IdealHitLastStore(default=default)
                ).simulate(trace)
                fast = simulate_dynamic_exclusion(
                    trace, GEOMETRY, default_hit_last=default
                )
                assert fast == reference


def runs_trace(seed, words=256):
    """Runs of one to three references to ``words`` random words."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 1500))
    repeats = rng.integers(1, 4, size=n)
    return itrace((np.repeat(rng.integers(0, words, size=n), repeats) * 4).tolist())


@pytest.mark.usefixtures("compiled_kernels")
class TestHashedDynamicExclusionKernel:
    def test_shared_bit_matches_reference(self):
        # 16 sets, 16 bits: 0 and 64 share set 0 *and* bit 0, so the
        # bit 64 writes back is the one 0 reads.
        trace = itrace([0, 64, 0, 64, 128, 0, 64, 64, 0] * 5)
        for default in (True, False):
            reference = DynamicExclusionCache(
                GEOMETRY, store=HashedHitLastStore(16, default=default)
            ).simulate(trace)
            fast = simulate_dynamic_exclusion(
                trace, GEOMETRY, default_hit_last=default, num_bits=16
            )
            assert fast == reference

    @pytest.mark.parametrize("num_bits", [1, 8])
    def test_tables_smaller_than_the_cache_match_reference(self, num_bits):
        # 16 sets share 1 or 8 bits, so words of different sets share
        # a bit; program order needs no independence between sets.
        for seed in range(10):
            trace = runs_trace(seed)
            for default in (True, False):
                reference = DynamicExclusionCache(
                    GEOMETRY, store=HashedHitLastStore(num_bits, default=default)
                ).simulate(trace)
                fast = simulate_dynamic_exclusion(
                    trace, GEOMETRY, default_hit_last=default, num_bits=num_bits
                )
                assert fast == reference

    def test_rejects_non_power_of_two_tables(self):
        with pytest.raises(ValueError):
            simulate_dynamic_exclusion(itrace([0]), GEOMETRY, num_bits=24)


@pytest.mark.usefixtures("compiled_kernels")
class TestSetAssociativeExclusionKernel:
    @pytest.mark.parametrize("default", [True, False])
    def test_one_way_equals_dynamic_exclusion(self, default):
        # The model's contract: at associativity 1 it is exactly DE.
        for seed in range(10):
            trace = runs_trace(seed)
            assert simulate_set_associative_exclusion(
                trace, GEOMETRY, default_hit_last=default
            ) == simulate_dynamic_exclusion(trace, GEOMETRY, default_hit_last=default)

    def test_cyclic_pattern_pins_ways(self):
        # (a b c)^n over one 2-way set: LRU misses everything, the
        # exclusion gate keeps two of the three words.
        geometry = CacheGeometry(64, 4, associativity=2)  # 8 sets
        stats = simulate_set_associative_exclusion(
            itrace([0, 32, 64] * 20), geometry
        )
        assert stats.accesses == 60
        assert stats.cold_misses == 2
        assert stats.hits > 0
        assert stats.bypasses > 0


@pytest.mark.usefixtures("compiled_kernels")
class TestVictimKernel:
    def test_swap_pair_hits_in_the_buffer(self):
        # 0 and 64 alias in L1: after the two cold-ish misses every
        # reference swaps the pair through the one-entry buffer.
        trace = itrace([0, 64] * 10)
        stats = simulate_victim(trace, GEOMETRY, entries=1)
        assert stats.cold_misses == 1
        assert stats.evictions == 1
        assert stats.buffer_hits == 18
        assert stats == VictimCache(GEOMETRY, entries=1).simulate(trace)

    @pytest.mark.parametrize("entries", [1, 2, 4])
    def test_seeded_random_traces(self, entries):
        for seed in range(10):
            trace = runs_trace(seed)
            assert simulate_victim(trace, GEOMETRY, entries) == VictimCache(
                GEOMETRY, entries=entries
            ).simulate(trace)

    def test_empty_trace(self):
        assert simulate_victim(Trace.empty(), GEOMETRY, 4) == CacheStats()


@pytest.mark.usefixtures("compiled_kernels")
@pytest.mark.parametrize("ratio", [1, 4, 64])
@pytest.mark.parametrize("kb", [1, 32, 256])
@pytest.mark.parametrize("name", benchmark_names())
def test_two_level_l1_is_the_lone_cache(name, kb, ratio):
    # Neither L1 reads L2: the direct-mapped L1 keeps no bits, and the
    # ideal store keeps them apart from L2's contents.
    trace = spec_trace(name)
    l1 = CacheGeometry(kb * 1024, 4)
    l2 = CacheGeometry(kb * 1024 * ratio, 4)
    assert simulate_two_level(
        trace, l1, l2, Strategy.DIRECT_MAPPED
    ).l1 == simulate_direct_mapped(trace, l1)
    assert simulate_two_level(trace, l1, l2, Strategy.IDEAL).l1 == (
        simulate_dynamic_exclusion(trace, l1, default_hit_last=True)
    )


# -- building, caching and falling back ----------------------------------------

SRC = Path(kernels.__file__).resolve().parents[2]

#: Loads the library from the two build directories named on the
#: command line and runs one kernel; with ``--no-compiler`` a build
#: would fail, and with ``--wait FILE`` it starts once FILE exists.
CHILD = """
import sys, time
from pathlib import Path
from repro.caches.geometry import CacheGeometry
from repro.perf import kernels
from repro.trace.trace import Trace

package, private, *flags = sys.argv[1:]
kernels._build_dirs = lambda: (Path(package), Path(private))
if "--no-compiler" in flags:
    kernels._compiler = lambda: None
if "--wait" in flags:
    go = Path(flags[flags.index("--wait") + 1])
    while not go.exists():
        time.sleep(0.001)
if kernels.library() is None:
    sys.exit("no library")
trace = Trace([0, 64, 0, 64, 4, 0], [0] * 6)
print(kernels.simulate_dynamic_exclusion(trace, CacheGeometry(64, 4)))
"""


@pytest.fixture
def build_dirs(monkeypatch, tmp_path):
    """Empty build directories for the library, and no library loaded."""
    dirs = (tmp_path / "package", tmp_path / "private")
    monkeypatch.setattr(kernels, "_build_dirs", lambda: dirs)
    kernels.library.cache_clear()
    yield dirs
    kernels.library.cache_clear()


def child(dirs, *flags):
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, *map(str, dirs), *flags],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish(process):
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return out


def expected_child_output():
    trace = Trace([0, 64, 0, 64, 4, 0], [0] * 6)
    return f"{DynamicExclusionCache(CacheGeometry(64, 4)).simulate(trace)}\n"


def test_failed_build_runs_every_model_on_the_reference(build_dirs, monkeypatch):
    compiler = build_dirs[0].parent / "cc"
    compiler.write_text("#!/bin/sh\necho 'cc: simulated failure' >&2\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setattr(kernels, "_compiler", lambda: str(compiler))
    geometry = CacheGeometry(1024, 16, associativity=2)
    trace = instruction_trace("gcc", 5_000)
    registry = obs_metrics.install_registry(MetricsRegistry())
    try:
        with pytest.warns(RuntimeWarning, match="simulated failure") as caught:
            for factory in FACTORIES.values():
                model = factory(geometry)
                assert engine.kernel_for(model) is None
                fast = engine.simulate(model, trace)
                assert fast == factory(geometry).simulate(trace)
    finally:
        obs_metrics.uninstall_registry()
    assert len([w for w in caught if w.category is RuntimeWarning]) == 1
    dispatched = {
        (entry["labels"]["model"], entry["labels"]["engine_used"])
        for entry in registry.export()
        if entry["name"] == "engine.dispatch"
    }
    assert dispatched == {(model.__name__, "reference") for model in FACTORIES}
    assert not list(build_dirs[0].iterdir()), "a failed build left files"


@pytest.mark.usefixtures("compiled_kernels")
def test_a_build_is_one_span_and_a_load_none(build_dirs):
    tracer = obs_tracing.install_tracer(Tracer())
    try:
        assert kernels.library() is not None
        builds = [span for span in tracer.spans if span.name == "kernels.build"]
        assert len(builds) == 1
        kernels.library.cache_clear()
        assert kernels.library() is not None  # loads what the build left
    finally:
        obs_tracing.uninstall_tracer()
    assert [span for span in tracer.spans if span.name == "kernels.build"] == builds


@pytest.mark.usefixtures("compiled_kernels")
def test_fresh_process_loads_the_built_library_without_compiling(build_dirs):
    assert kernels.library() is not None
    (built,) = build_dirs[0].iterdir()
    stamp = built.stat().st_mtime_ns
    # The child has no compiler: it can only load what is there.
    assert finish(child(build_dirs, "--no-compiler")) == expected_child_output()
    assert [path.name for path in build_dirs[0].iterdir()] == [built.name]
    assert built.stat().st_mtime_ns == stamp


@pytest.mark.usefixtures("compiled_kernels")
def test_concurrent_builds_both_load_a_complete_library(build_dirs):
    go = build_dirs[0].parent / "go"
    processes = [child(build_dirs, "--wait", go) for _ in range(2)]
    time.sleep(0.5)  # both children are waiting at the start line
    go.touch()
    outputs = [finish(process) for process in processes]
    assert outputs == [expected_child_output()] * 2
    # One finished library, no partial file left behind.
    assert [path.suffix for path in build_dirs[0].iterdir()] == [".so"]


@pytest.mark.usefixtures("compiled_kernels")
def test_unwritable_package_directory_builds_in_the_private_one(
    build_dirs, monkeypatch, tmp_path
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    private = tmp_path / "private"
    monkeypatch.setattr(kernels, "_build_dirs", lambda: (blocker / "sub", private))
    assert kernels.library() is not None
    assert [path.suffix for path in private.iterdir()] == [".so"]
    assert private.stat().st_mode & 0o077 == 0
