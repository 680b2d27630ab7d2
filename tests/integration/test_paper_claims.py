"""End-to-end checks of the paper's evaluation claims (shape, not
absolute numbers — see EXPERIMENTS.md for the full comparison).

Each test names the figure it guards.  Traces are 50k references
(scale 0.25), so thresholds are deliberately looser than the full-run
numbers recorded in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    fig05_improvement,
    fig07_l1_vs_l2,
    fig08_l2_missrate,
    fig11_line_size,
    fig15_mixed_cache,
    run_spec,
)
from repro.hierarchy.two_level import Strategy

#: Benchmarks the paper shows with high miss rates and big improvements.
HOT_BENCHMARKS = ["gcc", "li", "spice", "doduc"]

#: The small numeric kernels that fit any realistic cache.
COLD_BENCHMARKS = ["matrix300", "nasa7", "tomcatv"]


class TestFig03PerBenchmark:
    def test_hot_benchmarks_improve_substantially(self):
        results = run_spec("fig03")
        for name in HOT_BENCHMARKS:
            rates = results[name]
            reduction = 1 - rates["dynamic-exclusion"] / rates["direct-mapped"]
            assert reduction > 0.15, name

    def test_cold_benchmarks_nearly_unaffected(self):
        results = run_spec("fig03")
        for name in COLD_BENCHMARKS:
            rates = results[name]
            assert abs(rates["dynamic-exclusion"] - rates["direct-mapped"]) < 0.002, name

    def test_optimal_bounds_exclusion_everywhere(self):
        for name, rates in run_spec("fig03").items():
            assert rates["optimal"] <= rates["dynamic-exclusion"] + 1e-12, name

    def test_hot_benchmarks_have_high_miss_rates(self):
        results = run_spec("fig03")
        for name in HOT_BENCHMARKS:
            assert results[name]["direct-mapped"] > 0.05, name
        for name in COLD_BENCHMARKS:
            assert results[name]["direct-mapped"] < 0.01, name


class TestFig04Fig05SizeSweep:
    def test_miss_rates_fall_with_size(self):
        result = run_spec("fig04")
        dm = result.curve("direct-mapped")
        assert dm[0] > dm[-1]
        assert dm[-1] < 0.05

    def test_policy_ordering_at_every_size(self):
        result = run_spec("fig04")
        for size in result.parameters:
            dm = result.series["direct-mapped"].points[size]
            de = result.series["dynamic-exclusion"].points[size]
            opt = result.series["optimal"].points[size]
            assert opt <= de + 1e-12
            assert de <= dm + 1e-12

    def test_improvement_peaks_at_middle_size(self):
        """The paper's Figure 5 shape: a single interior peak."""
        result = run_spec("fig05")
        size, value = fig05_improvement.peak(result)
        sizes = result.parameters
        assert sizes[0] < size < sizes[-1]
        assert value > 20.0

    def test_improvement_small_at_extremes(self):
        result = run_spec("fig05")
        curve = result.curve("dynamic-exclusion")
        peak = max(curve)
        assert curve[0] < peak / 2
        assert curve[-1] < peak / 2

    def test_optimal_reduction_dominates_exclusion(self):
        result = run_spec("fig05")
        for size in result.parameters:
            de = result.series["dynamic-exclusion"].points[size]
            opt = result.series["optimal"].points[size]
            assert opt >= de - 1e-9


class TestFig07Fig08Hierarchy:
    def test_assume_hit_degenerates_at_equal_sizes(self):
        assert fig07_l1_vs_l2.assume_hit_degenerates(run_spec("fig07"))

    def test_assume_hit_converges_to_ideal_with_big_l2(self):
        sweep = run_spec("hierarchy")
        big = sweep.ratios[-1]
        ideal = sweep.points[(Strategy.IDEAL, big)].l1_miss_rate
        assume_hit = sweep.points[(Strategy.ASSUME_HIT, big)].l1_miss_rate
        assert assume_hit == pytest.approx(ideal, rel=0.05)

    def test_most_benefit_by_ratio_four(self):
        """Paper: 'most of the performance is achieved as long as the L2
        is at least 4 times as large as the L1'."""
        sweep = run_spec("hierarchy")
        baseline = sweep.points[(Strategy.DIRECT_MAPPED, 1)].l1_miss_rate
        ideal = sweep.points[(Strategy.IDEAL, sweep.ratios[-1])].l1_miss_rate
        at_four = sweep.points[(Strategy.ASSUME_HIT, 4)].l1_miss_rate
        full_gain = baseline - ideal
        gain_at_four = baseline - at_four
        assert gain_at_four > 0.5 * full_gain

    def test_hashed_is_independent_of_l2(self):
        sweep = run_spec("hierarchy")
        rates = {sweep.points[(Strategy.HASHED, r)].l1_miss_rate for r in sweep.ratios}
        assert max(rates) - min(rates) < 1e-9

    def test_exclusive_strategies_cut_l2_misses(self):
        assert fig08_l2_missrate.exclusive_strategies_win(run_spec("fig08"))

    def test_assume_hit_l2_matches_conventional(self):
        """Paper: the assume-hit hierarchy's L2 curve is the
        direct-mapped curve."""
        sweep = run_spec("hierarchy")
        for ratio in sweep.ratios:
            conventional = sweep.points[(Strategy.DIRECT_MAPPED, ratio)]
            assume_hit = sweep.points[(Strategy.ASSUME_HIT, ratio)]
            assert assume_hit.l2_global_miss_rate == pytest.approx(
                conventional.l2_global_miss_rate, rel=0.02
            )


class TestFig11Fig12LineSizes:
    def test_longer_lines_lower_absolute_miss_rates(self):
        result = run_spec("fig11")
        dm = result.curve("direct-mapped")
        assert all(earlier > later for earlier, later in zip(dm, dm[1:]))

    def test_exclusion_improves_at_every_line_size(self):
        reductions = fig11_line_size.improvements(run_spec("fig11"))
        for line_size, reduction in reductions.items():
            assert reduction > 10.0, f"{line_size}B"

    def test_optimal_bounds_exclusion(self):
        result = run_spec("fig11")
        for b in result.parameters:
            de = result.series["dynamic-exclusion"].points[b]
            opt = result.series["optimal"].points[b]
            assert opt <= de + 1e-12

    def test_b16_sweep_still_shows_interior_peak(self):
        reductions = run_spec("fig12")
        curve = reductions.curve("dynamic-exclusion")
        peak = max(curve)
        assert peak > 15.0
        assert curve[-1] < peak / 2


class TestFig13Efficiency:
    def test_size_overhead_is_small(self):
        result = run_spec("fig13")
        assert result.exclusion.delta_size_percent < 5.0

    def test_doubling_costs_full_capacity(self):
        result = run_spec("fig13")
        assert result.doubling.delta_size_percent > 90.0

    def test_exclusion_is_far_more_efficient(self):
        """Paper: 'roughly 15 times more efficient than adding
        capacity'. We require > 3x on scaled-down traces."""
        assert run_spec("fig13").advantage > 3.0

    def test_doubling_reduces_misses_more_in_absolute_terms(self):
        result = run_spec("fig13")
        assert result.doubled_miss_rate < result.exclusion_miss_rate


class TestFig14Fig15DataAndMixed:
    def test_data_improvement_is_small(self):
        """Paper: 'for small cache sizes there is a small improvement'
        but nothing like the instruction-cache factors."""
        result = run_spec("fig14")
        for size in result.parameters:
            dm = result.series["direct-mapped"].points[size]
            de = result.series["dynamic-exclusion"].points[size]
            if dm > 0:
                assert (dm - de) / dm < 0.20, size

    def test_direct_mapped_closer_to_optimal_for_data(self):
        """Paper: 'a normal direct-mapped cache is closer to optimal for
        data references than for instruction references'."""
        instr = run_spec("fig04")
        data = run_spec("fig14")
        size = 16 * 1024
        instr_gap = 1 - instr.series["optimal"].points[size] / instr.series["direct-mapped"].points[size]
        data_gap = 1 - data.series["optimal"].points[size] / data.series["direct-mapped"].points[size]
        assert data_gap < instr_gap

    def test_mixed_improvement_largest_at_small_sizes(self):
        """Paper: instruction misses dominate small combined caches, so
        the improvement is large there and shrinks for big caches."""
        reductions = fig15_mixed_cache.reductions(run_spec("fig15"))
        sizes = sorted(reductions)
        mid = [reductions[s] for s in sizes[2:6]]
        assert max(mid) > 10.0
        assert reductions[sizes[-1]] < 5.0
