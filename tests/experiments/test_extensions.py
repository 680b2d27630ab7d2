"""Focused tests for the extension experiments (beyond the generic
smoke tests in test_experiments_smoke)."""

import pytest

from repro.experiments import (
    ext_associativity,
    ext_context_switch,
    ext_hashed_bits,
    ext_split,
    run_spec,
)


class TestAssociativity:
    def test_all_configs_swept(self):
        result = run_spec("ext-assoc")
        assert set(result.series) == {
            "direct-mapped", "dynamic-exclusion", "victim-4",
            "2-way", "2-way+DE", "4-way",
        }

    def test_amat_covers_every_config(self):
        amats = ext_associativity.amat_at_reference(run_spec("ext-assoc"))
        assert set(amats) == set(ext_associativity.TIMING_MODELS)
        for value in amats.values():
            assert value >= 1.0

    def test_four_way_miss_rate_not_worse_than_two_way(self):
        result = run_spec("ext-assoc")
        for size in result.parameters:
            two = result.series["2-way"].points[size]
            four = result.series["4-way"].points[size]
            assert four <= two + 0.01


class TestContextSwitch:
    def test_all_quanta_present(self):
        rows = run_spec("ext-context")
        assert sorted(rows) == sorted(ext_context_switch.QUANTA)

    def test_policy_ordering_preserved_under_sharing(self):
        for rates in run_spec("ext-context").values():
            assert rates["optimal"] <= rates["dynamic-exclusion"] + 1e-12
            assert rates["dynamic-exclusion"] <= rates["direct-mapped"] + 1e-12

    def test_reductions_match_rates(self):
        rows = run_spec("ext-context")
        reductions = ext_context_switch.reductions(rows)
        for quantum, rates in rows.items():
            dm = rates["direct-mapped"]
            de = rates["dynamic-exclusion"]
            expected = 100.0 * (dm - de) / dm if dm else 0.0
            assert reductions[quantum] == pytest.approx(expected)


class TestHashedBits:
    def test_every_size_swept(self):
        rates = run_spec("ext-hashed")
        for bits in ext_hashed_bits.BITS_PER_LINE:
            assert bits in rates
        assert "ideal" in rates and "direct-mapped" in rates

    def test_hashed_never_worse_than_direct_mapped(self):
        rates = run_spec("ext-hashed")
        for bits in ext_hashed_bits.BITS_PER_LINE:
            assert rates[bits] <= rates["direct-mapped"] + 0.01

    def test_four_bits_matches_ideal(self):
        """The paper's sizing claim, at a generous tolerance."""
        rates = run_spec("ext-hashed")
        assert ext_hashed_bits.four_bits_close_to_ideal(rates, tolerance=0.05)


class TestSplit:
    def test_configs_and_sizes(self):
        result = run_spec("ext-split")
        assert set(result.series) == {
            "unified DM", "unified DE", "split DM", "split DM+DE(I)",
        }
        assert len(result.parameters) == len(ext_split.SIZES_KB)

    def test_unified_de_beats_unified_dm(self):
        result = run_spec("ext-split")
        for size in result.parameters:
            de = result.series["unified DE"].points[size]
            dm = result.series["unified DM"].points[size]
            assert de <= dm + 1e-12

    def test_exclusion_helps_the_split_design_too(self):
        result = run_spec("ext-split")
        mid = result.parameters[len(result.parameters) // 2]
        assert (
            result.series["split DM+DE(I)"].points[mid]
            <= result.series["split DM"].points[mid] + 1e-12
        )


class TestTraffic:
    def test_all_configs_present(self):
        results = run_spec("ext-traffic")
        assert set(results) == {"direct-mapped", "dynamic-exclusion", "2-way"}

    def test_traffic_tracks_misses(self):
        results = run_spec("ext-traffic")
        dm = results["direct-mapped"]
        de = results["dynamic-exclusion"]
        if de["miss_rate"] < dm["miss_rate"]:
            assert de["fetch_bytes_per_kiloref"] < dm["fetch_bytes_per_kiloref"]

    def test_nonnegative_traffic(self):
        for values in run_spec("ext-traffic").values():
            assert values["fetch_bytes_per_kiloref"] >= 0
            assert values["write_bytes_per_kiloref"] >= 0
