"""Batch-aware sweep scheduling: grouping, journals, and fallbacks.

``--engine batch`` is a scheduling strategy, not a different
simulation, so these tests pin the observable contract: outcomes equal
to the fast tier cell for cell, journal keys byte-identical (batch and
fast sweeps resume each other), every pending cell dispatched exactly
once no matter how the grouping falls out (a hypothesis property), and
failures attributed to single cells with the rest of the group
surviving.
"""

import json
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.caches.direct_mapped import DirectMappedCache
from repro.caches.geometry import CacheGeometry
from repro.core.exclusion_cache import DynamicExclusionCache
from repro.core.hitlast import IdealHitLastStore
from repro.perf import parallel
from repro.perf.backends.batched import group_pending
from repro.perf.batch import DEBatchSpec
from repro.perf.journal import JOURNAL_FILENAME
from repro.perf.parallel import (
    DEFAULT_BATCH_CELLS,
    TraceKey,
    resolve_batch_cells,
    run_labeled_cells,
)

TRACES = [
    TraceKey("gcc", "data", 2_000),
    TraceKey("li", "data", 2_000),
    TraceKey("espresso", "data", 2_000),
]
SIZES = [1024, 2048, 8192]


@dataclass(frozen=True)
class DEFactory:
    """DE factory speaking the batch_spec protocol."""

    default_hit_last: bool = True

    def __call__(self, size: object) -> DynamicExclusionCache:
        return DynamicExclusionCache(
            CacheGeometry(int(size), 4),  # type: ignore[call-overload]
            store=IdealHitLastStore(default=self.default_hit_last),
        )

    def batch_spec(self, size: object) -> DEBatchSpec:
        return DEBatchSpec(
            CacheGeometry(int(size), 4),  # type: ignore[call-overload]
            default_hit_last=self.default_hit_last,
        )


@dataclass(frozen=True)
class PlainDEFactory:
    """Same models, no batch_spec method — exercises the model path."""

    def __call__(self, size: object) -> DynamicExclusionCache:
        return DynamicExclusionCache(
            CacheGeometry(int(size), 4),  # type: ignore[call-overload]
            store=IdealHitLastStore(),
        )


@dataclass(frozen=True)
class DirectFactory:
    """No batch kernel at all — must fall back to per-cell fast."""

    def __call__(self, size: object) -> DirectMappedCache:
        return DirectMappedCache(CacheGeometry(int(size), 4))  # type: ignore[call-overload]


@dataclass(frozen=True)
class PoisonFactory:
    """Raises for one poisoned parameter."""

    poison: int

    def __call__(self, size: object) -> DynamicExclusionCache:
        if int(size) == self.poison:  # type: ignore[call-overload]
            raise RuntimeError(f"poisoned parameter {size}")
        return DynamicExclusionCache(
            CacheGeometry(int(size), 4), store=IdealHitLastStore()  # type: ignore[call-overload]
        )


def _grid(factories, traces=TRACES, sizes=SIZES):
    return [
        (label, factory, size, trace)
        for size in sizes
        for label, factory in factories.items()
        for trace in traces
    ]


FACTORIES = {
    "de": DEFactory(),
    "de-miss": DEFactory(default_hit_last=False),
    "de-plain": PlainDEFactory(),
    "direct": DirectFactory(),
}


class TestBatchEqualsFast:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_grid_matches_fast(self, workers):
        cells = _grid(FACTORIES)
        fast = run_labeled_cells(cells, engine="fast", workers=1,
                                 progress=False)
        batch = run_labeled_cells(cells, engine="batch", workers=workers,
                                  progress=False)
        assert all(outcome.ok for outcome in batch)
        for expected, got in zip(fast, batch):
            assert got.identity.payload() == expected.identity.payload()
            assert got.miss_rate == expected.miss_rate

    def test_reference_differential(self):
        """Three traces x mixed geometries: batch == reference engine."""
        cells = _grid({"de": DEFactory()}, sizes=[1024, 8192])
        reference = run_labeled_cells(cells, engine="reference", workers=1,
                                      progress=False)
        batch = run_labeled_cells(cells, engine="batch", workers=1,
                                  progress=False)
        assert [o.miss_rate for o in batch] == [o.miss_rate for o in reference]

    def test_raw_trace_objects_group_by_identity(self):
        """Raw Trace cells (no recipe) batch too, keyed by object id."""
        trace = TRACES[0].load()
        cells = [("de", DEFactory(), size, trace) for size in SIZES]
        fast = run_labeled_cells(cells, engine="fast", workers=1,
                                 progress=False)
        batch = run_labeled_cells(cells, engine="batch", workers=1,
                                  progress=False)
        assert [o.miss_rate for o in batch] == [o.miss_rate for o in fast]


class TestJournalCompatibility:
    def test_journal_keys_identical_to_fast(self, tmp_path):
        cells = _grid({"de": DEFactory()})
        run_labeled_cells(cells, engine="fast", workers=1,
                          journal=tmp_path / "fast", progress=False)
        run_labeled_cells(cells, engine="batch", workers=1,
                          journal=tmp_path / "batch", progress=False)

        def keys(directory):
            lines = (directory / JOURNAL_FILENAME).read_text().splitlines()
            return [json.loads(line)["key"] for line in lines if line]

        # Batched sweeps journal group by group, so entry order may
        # differ, but the key set must be byte-identical — that is what
        # makes batch and fast sweeps resume each other.
        fast_keys = keys(tmp_path / "fast")
        batch_keys = keys(tmp_path / "batch")
        assert len(batch_keys) == len(fast_keys)
        assert set(batch_keys) == set(fast_keys)

    @pytest.mark.parametrize("first,second", [("batch", "fast"),
                                              ("fast", "batch")])
    def test_cross_engine_resume(self, tmp_path, first, second):
        cells = _grid({"de": DEFactory()})
        cold = run_labeled_cells(cells, engine=first, workers=1,
                                 journal=tmp_path, progress=False)
        warm = run_labeled_cells(cells, engine=second, workers=1,
                                 journal=tmp_path, progress=False)
        assert all(outcome.cached for outcome in warm)
        assert [o.miss_rate for o in warm] == [o.miss_rate for o in cold]


class TestGroupingProperty:
    @given(
        trace_of_cell=st.lists(st.integers(min_value=0, max_value=4),
                               min_size=1, max_size=40),
        pending_mask=st.lists(st.booleans(), min_size=40, max_size=40),
        limit=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_pending_cell_dispatched_exactly_once(
        self, trace_of_cell, pending_mask, limit
    ):
        cells = [
            (f"c{i}", DEFactory(), 1024, TRACES[t % len(TRACES)])
            for i, t in enumerate(trace_of_cell)
        ]
        pending = [i for i in range(len(cells)) if pending_mask[i]]
        groups = group_pending(cells, pending, limit)
        dispatched = [index for group in groups for index in group]
        # exactly-once, regardless of grouping
        assert sorted(dispatched) == sorted(pending)
        for group in groups:
            assert 1 <= len(group) <= limit
            # one shared trace per group, so one kernel invocation works
            group_keys = {id(cells[index][3]) for index in group}
            assert len(group_keys) == 1

    def test_resolve_batch_cells(self, monkeypatch):
        assert resolve_batch_cells() == DEFAULT_BATCH_CELLS
        assert resolve_batch_cells(7) == 7
        monkeypatch.setenv("REPRO_BATCH_CELLS", "5")
        assert resolve_batch_cells() == 5
        assert resolve_batch_cells(3) == 3
        with pytest.raises(ValueError):
            resolve_batch_cells(0)


class TestFailureHandling:
    def test_poisoned_cell_fails_alone(self):
        cells = _grid({"bad": PoisonFactory(poison=2048)})
        outcomes = run_labeled_cells(cells, engine="batch", workers=1,
                                     progress=False)
        failed = [o for o in outcomes if not o.ok]
        assert {o.identity.parameter for o in failed} == {2048}
        assert all("poisoned parameter 2048" in o.error for o in failed)
        assert all(o.ok for o in outcomes if o.identity.parameter != 2048)

    def test_poisoned_cell_fails_alone_pooled(self):
        cells = _grid({"bad": PoisonFactory(poison=2048)})
        outcomes = run_labeled_cells(cells, engine="batch", workers=2,
                                     progress=False)
        failed = [o for o in outcomes if not o.ok]
        assert {o.identity.parameter for o in failed} == {2048}
        assert all(o.ok for o in outcomes if o.identity.parameter != 2048)

    def test_evaluator_cells_bypass_batching(self):
        """Cells with a custom evaluator never enter the batched path."""
        def evaluator(model, trace, engine):
            stats = parallel.engine_mod.simulate(model, trace, engine="fast")
            return {"miss_rate": stats.miss_rate}

        cells = [("de", DEFactory(), size, TRACES[0]) for size in SIZES]
        outcomes = run_labeled_cells(cells, engine="batch", workers=1,
                                     progress=False, evaluator=evaluator)
        fast = run_labeled_cells(cells, engine="fast", workers=1,
                                 progress=False)
        assert [o.miss_rate for o in outcomes] == [o.miss_rate for o in fast]
