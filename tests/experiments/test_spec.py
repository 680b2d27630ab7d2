"""Unit tests for the declarative spec layer (repro.experiments.spec)."""

from dataclasses import dataclass

import pytest

from repro.experiments import common
from repro.experiments.spec import (
    BenchmarkSuite,
    ExperimentSpec,
    SweepCellError,
    _RESULT_CACHE,
    all_specs,
    clear_result_cache,
    get_spec,
    register,
    run_spec,
)


@dataclass(frozen=True)
class TinyFactory:
    line_size: int = 4

    def __call__(self, size):
        from repro.caches.direct_mapped import DirectMappedCache
        from repro.caches.geometry import CacheGeometry

        return DirectMappedCache(CacheGeometry(int(size), self.line_size))


@dataclass(frozen=True)
class BoomFactory:
    def __call__(self, size):
        raise RuntimeError("boom")


@dataclass(frozen=True)
class NoAllocateFactory:
    """Misses on every reference: far above any real optimal curve."""

    def __call__(self, size):
        from repro.caches.direct_mapped import DirectMappedCache
        from repro.caches.geometry import CacheGeometry

        return DirectMappedCache(CacheGeometry(int(size), 4), allocate_on_miss=False)


def _grid_spec(spec_id="test-grid", **overrides):
    fields = dict(
        id=spec_id,
        title="test grid",
        parameter_name="cache size",
        parameters=(1024, 2048),
        factories=(("dm", TinyFactory()),),
        traces=BenchmarkSuite("instruction"),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _count_compute():
    _count_compute.calls += 1
    return {"calls": _count_compute.calls}


_count_compute.calls = 0


class TestShapes:
    def test_no_shape_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentSpec(id="x", title="x")

    def test_two_shapes_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            _grid_spec(compute=_count_compute)

    def test_grid_needs_traces(self):
        with pytest.raises(ValueError, match="factories and traces"):
            _grid_spec(traces=None)

    def test_derived_needs_base(self):
        with pytest.raises(ValueError, match="base spec ids"):
            ExperimentSpec(id="x", title="x", derive=_count_compute)

    def test_kind(self):
        assert _grid_spec().kind == "grid"
        assert ExperimentSpec(id="x", title="x", compute=_count_compute).kind == "custom"
        assert (
            ExperimentSpec(
                id="x", title="x", base=("fig04",), derive=_count_compute
            ).kind
            == "derived"
        )


class TestFingerprint:
    def test_id_and_title_are_not_identity(self):
        a = _grid_spec("one", title="one title")
        b = _grid_spec("two", title="two title")
        assert a.fingerprint() == b.fingerprint()

    def test_grid_changes_change_identity(self):
        assert _grid_spec().fingerprint() != _grid_spec(
            parameters=(1024,)
        ).fingerprint()
        assert _grid_spec().fingerprint() != _grid_spec(
            factories=(("dm", TinyFactory(line_size=16)),)
        ).fingerprint()
        assert _grid_spec().fingerprint() != _grid_spec(
            traces=BenchmarkSuite("data")
        ).fingerprint()

    def test_lambda_component_rejected(self):
        spec = _grid_spec(collect=lambda grid: grid)
        with pytest.raises(ValueError, match="lambda"):
            spec.fingerprint()

    def test_address_bearing_repr_rejected(self):
        class Plain:
            def __call__(self, size):  # pragma: no cover - never invoked
                return None

        spec = _grid_spec(factories=(("dm", Plain()),))
        with pytest.raises(ValueError, match="memory"):
            spec.fingerprint()


class TestRegistry:
    def test_all_real_specs_registered(self):
        visible = {spec.id for spec in all_specs()}
        from repro.experiments.frontend import PRESENTATION_ORDER

        assert visible == set(PRESENTATION_ORDER)
        assert len(PRESENTATION_ORDER) == len(visible)

    def test_hidden_specs_excluded_but_reachable(self):
        assert "hierarchy" not in {s.id for s in all_specs()}
        assert get_spec("hierarchy").hidden
        assert "fig04-b16" in {s.id for s in all_specs(include_hidden=True)}

    def test_duplicate_id_rejected(self):
        register(_grid_spec("test-dup"))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register(_grid_spec("test-dup", parameters=(4096,)))
        finally:
            from repro.experiments.spec import _REGISTRY

            _REGISTRY.pop("test-dup", None)

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment spec"):
            get_spec("fig99")

    def test_registration_fingerprints_eagerly(self):
        with pytest.raises(ValueError, match="lambda"):
            register(_grid_spec("test-bad", collect=lambda grid: grid))


class TestRunSpec:
    def test_grid_produces_sweep(self):
        result = run_spec(_grid_spec())
        assert result.parameters == [1024, 2048]
        assert set(result.series) == {"dm"}
        for value in result.series["dm"].points.values():
            assert 0.0 <= value <= 1.0

    def test_results_are_memoised_per_fingerprint(self):
        _count_compute.calls = 0
        a = ExperimentSpec(id="memo-a", title="a", compute=_count_compute)
        b = ExperimentSpec(id="memo-b", title="b", compute=_count_compute)
        assert run_spec(a) is run_spec(b)  # same fingerprint, one computation
        assert _count_compute.calls == 1

    def test_scale_change_evicts_and_recomputes(self, monkeypatch):
        _count_compute.calls = 0
        spec = ExperimentSpec(id="memo-scale", title="x", compute=_count_compute)
        run_spec(spec)
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.01")
        run_spec(spec)
        assert _count_compute.calls == 2
        budget = common.max_refs()
        assert all(key[1] == budget for key in _RESULT_CACHE)

    def test_failing_cell_raises_sweep_cell_error(self):
        spec = _grid_spec("test-boom", factories=(("boom", BoomFactory()),))
        with pytest.raises(SweepCellError):
            run_spec(spec)

    def test_optimal_above_direct_mapped_raises(self):
        spec = _grid_spec(
            "test-lower-bound",
            parameters=(1024,),
            factories=(
                ("direct-mapped", TinyFactory()),
                ("optimal", NoAllocateFactory()),
            ),
        )
        with pytest.raises(SweepCellError) as info:
            run_spec(spec)
        failures = info.value.failures
        assert failures and {f.identity.label for f in failures} == {"optimal"}
        assert "optimal | 1024 | " in str(info.value)
        assert "optimal miss rate 1.0 exceeds direct-mapped 0." in str(info.value)

    def test_engine_hint_matches_reference(self):
        reference = run_spec(_grid_spec(), engine="reference")
        clear_result_cache()  # the memo would answer the fast run
        fast = run_spec(_grid_spec(), engine="fast")
        for size in reference.parameters:
            assert fast.series["dm"].points[size] == pytest.approx(
                reference.series["dm"].points[size]
            )

    def test_concurrent_remembers_keep_every_entry(self):
        """Serve handler threads record folded values concurrently; the
        eviction scan must neither raise nor drop another thread's entry."""
        import sys
        import threading

        from repro.experiments.spec import remember_result

        per_thread = [
            [_grid_spec("test-thread", parameters=(1024 * (1000 * i + j + 1),))
             for j in range(300)]
            for i in range(8)
        ]
        errors = []

        def remember(specs):
            try:
                for spec in specs:
                    remember_result(spec, spec.parameters)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=remember, args=(specs,))
                       for specs in per_thread]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        budget = common.max_refs()
        for specs in per_thread:
            for spec in specs:
                assert _RESULT_CACHE[(spec.fingerprint(), budget)] == spec.parameters

    def test_empty_trace_axis_rejected(self):
        @dataclass(frozen=True)
        class NoTraces:
            def for_parameter(self, parameter):
                return []

        with pytest.raises(ValueError, match="no traces"):
            run_spec(_grid_spec("test-empty", traces=NoTraces()))
