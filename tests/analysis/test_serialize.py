"""Tests for result serialisation."""

import io

import pytest

from repro.analysis.serialize import (
    dumps,
    load,
    loads,
    save,
    stats_from_dict,
    sweep_from_dict,
)
from repro.analysis.sweep import SweepResult
from repro.caches.stats import CacheStats
from repro.hierarchy.two_level import Strategy, TwoLevelResult


def sample_stats():
    return CacheStats(accesses=10, hits=6, misses=4, bypasses=1,
                      evictions=2, buffer_hits=1, cold_misses=2)


def sample_sweep():
    result = SweepResult("cache size", [1024, 2048])
    result.add("dm", 1024, 0.1)
    result.add("dm", 2048, 0.05)
    result.add("de", 1024, 0.08)
    result.add("de", 2048, 0.04)
    return result


class TestRoundTrips:
    def test_cache_stats(self):
        restored = loads(dumps(sample_stats()))
        assert restored == sample_stats()

    def test_sweep(self):
        restored = loads(dumps(sample_sweep()))
        assert restored.parameter_name == "cache size"
        assert restored.curve("dm") == [0.1, 0.05]
        assert restored.curve("de") == [0.08, 0.04]

    def test_two_level(self):
        result = TwoLevelResult(
            strategy=Strategy.ASSUME_MISS,
            l1=sample_stats(),
            l2=CacheStats(accesses=4, hits=1, misses=3),
        )
        restored = loads(dumps(result))
        assert restored.strategy is Strategy.ASSUME_MISS
        assert restored.l1 == sample_stats()
        assert restored.l2.misses == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "stats.json"
        save(sample_stats(), path)
        assert load(path) == sample_stats()

    def test_file_object_round_trip(self):
        buffer = io.StringIO()
        save(sample_sweep(), buffer)
        buffer.seek(0)
        restored = load(buffer)
        assert restored.curve("dm") == [0.1, 0.05]


class TestValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps({"not": "a result"})

    def test_non_document_rejected(self):
        with pytest.raises(ValueError, match="not a repro result"):
            loads("[1, 2, 3]")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown result kind"):
            loads('{"kind": "martian"}')

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            stats_from_dict({"kind": "sweep"})

    def test_future_version_rejected(self):
        document = dumps(sample_stats()).replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError, match="newer"):
            loads(document)
        # A version that is not an integer is unsupported too.
        for version in ('"1"', "null", "true", "1.0"):
            document = dumps(sample_stats()).replace(
                '"version": 1', f'"version": {version}'
            )
            with pytest.raises(ValueError, match="version"):
                loads(document)

    def test_inconsistent_stats_rejected(self):
        document = dumps(sample_stats()).replace('"hits": 6', '"hits": 9')
        with pytest.raises(AssertionError):
            loads(document)

    def test_ragged_sweep_rejected(self):
        with pytest.raises(ValueError, match="values"):
            sweep_from_dict(
                {
                    "kind": "sweep",
                    "version": 1,
                    "parameter_name": "x",
                    "parameters": [1, 2],
                    "series": {"dm": [0.1]},
                }
            )

    def test_missing_optional_counters_default_to_zero(self):
        document = (
            '{"kind": "cache-stats", "version": 1, '
            '"accesses": 2, "hits": 1, "misses": 1}'
        )
        stats = loads(document)
        assert stats.bypasses == 0


class TestParameterStability:
    def test_tuple_parameters_round_trip_as_tuples(self):
        result = SweepResult("config", [(1024, 4), (2048, 8)])
        result.add("dm", (1024, 4), 0.1)
        result.add("dm", (2048, 8), 0.05)
        restored = loads(dumps(result))
        assert restored.parameters == [(1024, 4), (2048, 8)]
        # Series.points lookups by the original tuple still hit.
        assert restored.curve("dm") == [0.1, 0.05]
        assert restored.series["dm"].points[(1024, 4)] == 0.1

    def test_nested_tuple_parameters_round_trip(self):
        parameter = ("l1", (1024, 4))
        result = SweepResult("config", [parameter])
        result.add("dm", parameter, 0.2)
        restored = loads(dumps(result))
        assert restored.parameters == [parameter]
        assert restored.series["dm"].points[parameter] == 0.2

    def test_list_parameter_rejected(self):
        result = SweepResult("config", [[1024, 4]])
        result.add("dm", (1024, 4), 0.1)
        with pytest.raises(TypeError, match="JSON round trip"):
            dumps(result)

    def test_object_parameter_rejected(self):
        geometry = object()
        result = SweepResult("config", [geometry])
        result.add("dm", geometry, 0.1)
        with pytest.raises(TypeError, match="JSON round trip"):
            dumps(result)

    def test_non_finite_float_parameter_rejected(self):
        result = SweepResult("size", [float("nan")])
        result.add("dm", float("nan"), 0.1)
        with pytest.raises(TypeError, match="non-finite"):
            dumps(result)


class TestPartialSweep:
    def test_missing_point_names_series_and_parameter(self):
        result = sample_sweep()
        del result.series["de"].points[2048]
        with pytest.raises(ValueError, match=r"partial sweep.*'de'.*2048"):
            dumps(result)

    def test_message_counts_points(self):
        result = sample_sweep()
        del result.series["de"].points[2048]
        with pytest.raises(ValueError, match="1 of 2 points present"):
            dumps(result)

    def test_complete_sweep_still_serialises(self):
        assert loads(dumps(sample_sweep())).curve("de") == [0.08, 0.04]
