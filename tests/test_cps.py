"""Shadow price system construction and pricing tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidask import (
    ConsistencyError,
    FgbmSpec,
    GridSpec,
    PricingProblem,
    SampledPath,
    ScalarFunctionSpec,
    UncertaintyBand,
    black_scholes_closed_form,
    build_shadow_path,
    cps_price,
    delta_processes,
    extract_stopping_times,
    retirement_walk,
    simulate_asset_paths,
    simulate_fgbm_asset,
)
from bidask.paths import ControlProcess

BAND = UncertaintyBand(0.0, 0.05, 0.1, 0.3)


def exp_path(n=4097, horizon=math.log(2.0)):
    t = np.linspace(0.0, horizon, n)
    return SampledPath(t, np.exp(t), positive=True)


def const_path(n=101, level=5.0):
    return SampledPath(np.linspace(0.0, 1.0, n), np.full(n, level), positive=True)


class TestStoppingTimes:
    def test_constant_path_retires_immediately(self):
        taus, signs = extract_stopping_times(const_path(), 0.1)
        assert list(taus) == [100]
        assert list(signs) == [0]

    def test_exponential_path_crossing_ladder(self):
        # S = e^t exits the 10% band every ln(1.1); ln(2)/ln(1.1) = 7.27.
        # Each grid crossing overshoots by up to one step and the overshoots
        # accumulate, so crossing n sits within n steps of n ln(1.1).
        path = exp_path()
        dt = path.times[1]
        taus, signs = extract_stopping_times(path, 0.1)
        assert list(signs) == [1] * 7 + [0]
        times = path.times[taus]
        for n, tm in enumerate(times[:-1], start=1):
            assert n * math.log(1.1) - 1e-12 <= tm <= n * (math.log(1.1) + dt) + 1e-12

    def test_single_step_overshoot_is_one_crossing(self):
        t = np.array([0.0, 0.5, 1.0])
        vals = np.array([100.0, 100.0 * 1.1**2, 100.0 * 1.1**2])
        taus, signs = extract_stopping_times(SampledPath(t, vals, positive=True), 0.1)
        assert list(taus) == [1, 2]
        assert list(signs) == [1, 0]

    def test_downward_crossings_have_negative_sign(self):
        t = np.linspace(0.0, 1.0, 2049)
        path = SampledPath(t, np.exp(-t), positive=True)
        _, signs = extract_stopping_times(path, 0.2)
        assert set(signs[:-1]) == {-1}

    def test_rejects_nonpositive_path(self):
        p = SampledPath(np.linspace(0, 1, 5), np.array([1.0, 2.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            extract_stopping_times(p, 0.1)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            extract_stopping_times(const_path(), 0.0)


class TestRetirementWalk:
    def test_hand_computed_example(self):
        levels = retirement_walk([1, 1, -1, 0], 100.0, 0.1)
        assert np.allclose(levels, [110.0, 121.0, 110.0, 110.0], rtol=1e-15)

    def test_up_down_returns_exactly(self):
        levels = retirement_walk([1, -1, 0], 100.0, 0.1)
        assert levels[1] == 100.0  # integer exponents: exact inverse

    def test_all_zero_signs_constant(self):
        levels = retirement_walk([0, 0, 0], 42.0, 0.25)
        assert np.all(levels == 42.0)

    def test_recursion_within_one_ulp_per_step(self):
        rng = np.random.default_rng(13)
        signs = rng.choice([-1, 1], size=64).tolist() + [0]
        levels = retirement_walk(signs, 100.0, 0.05)
        for n in range(1, len(levels)):
            step = levels[n - 1] * (1.05 ** signs[n])
            assert abs(levels[n] - step) <= 2 * np.spacing(step)

    def test_rejects_sign_after_retirement(self):
        with pytest.raises(ValueError, match="retirement"):
            retirement_walk([1, 0, -1], 100.0, 0.1)

    def test_rejects_invalid_signs(self):
        with pytest.raises(ValueError):
            retirement_walk([2, 0], 100.0, 0.1)

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            retirement_walk([0], -5.0, 0.1)

    @pytest.mark.parametrize("signs, named", [
        ([1, 0.5], "sign 0.5 at index 1"),  # once truncated to a retirement
        ([1.7, -1, 0], "sign 1.7 at index 0"),  # once walked as +1
        ([1, math.nan], "sign nan at index 1"),
    ])
    def test_rejects_a_sign_that_is_not_a_unit_integer(self, signs, named):
        with pytest.raises(ValueError, match=f"{named} is not -1, 0 or \\+1"):
            retirement_walk(signs, 100.0, 0.1)

    @pytest.mark.parametrize("signs", [[[1, -1], [0, 0]], [[1], [-1]], 1])
    def test_rejects_signs_that_are_not_1d(self, signs):
        # a 2-d array was once walked flattened
        with pytest.raises(ValueError, match="1-d"):
            retirement_walk(np.array(signs), 100.0, 0.1)

    @pytest.mark.parametrize("signs", [[1.0, -1.0, 1.0, 0.0], [], [True, False]])
    def test_reads_values_not_dtype(self, signs):
        # signs rebuilt from report rows by np.array may come as floats
        as_int = np.asarray(signs).astype(int)
        assert np.array_equal(retirement_walk(np.array(signs), 100.0, 0.1),
                              retirement_walk(as_int, 100.0, 0.1))


class TestShadowPath:
    def test_constant_path_shadow_is_source(self):
        cps = build_shadow_path(const_path(), 0.1)
        assert np.array_equal(cps.shadow.values, cps.source.values)
        assert cps.ratio_min == cps.ratio_max == 1.0

    def test_anchors_hit_walk_levels_exactly(self):
        path = exp_path()
        cps = build_shadow_path(path, 0.1)
        assert np.array_equal(cps.shadow.values[cps.tau_indices], cps.levels)
        assert np.allclose(cps.levels[:3], [1.1, 1.21, 1.331], rtol=1e-14)

    def test_sandwich_bound_on_exponential(self):
        cps = build_shadow_path(exp_path(), 0.1)
        bound = 1.1**3
        assert 1.0 / bound <= cps.ratio_min and cps.ratio_max <= bound

    def test_sandwich_on_fractional_asset_paths(self):
        spec = FgbmSpec(0.7, BAND, tuple(np.linspace(0.0, 1.0, 1025)))
        paths = simulate_fgbm_asset(spec, 0.0, 100.0, 0.2, seed=12, n_paths=20)
        for eps in (0.05, 0.1):
            bound = (1.0 + eps) ** 3
            for p in paths:
                cps = build_shadow_path(p, eps)
                ratio = cps.shadow.values / cps.source.values
                assert ratio.min() >= 1.0 / bound - 1e-12
                assert ratio.max() <= bound + 1e-12

    def test_overshoots_recorded(self):
        t = np.array([0.0, 0.5, 1.0])
        vals = np.array([100.0, 100.0 * 1.1**2, 100.0 * 1.1**2])
        cps = build_shadow_path(SampledPath(t, vals, positive=True), 0.1)
        assert cps.overshoots[0] == pytest.approx(math.log(1.1), rel=1e-12)
        assert cps.overshoots[-1] == 0.0

    def test_idempotent_on_walk_skeleton(self):
        source = exp_path()
        cps = build_shadow_path(source, 0.1)
        anchor_t = np.concatenate(([0.0], source.times[cps.tau_indices]))
        anchor_v = np.concatenate(([source.values[0]], cps.levels))
        skeleton = SampledPath(anchor_t, anchor_v, positive=True)
        again = build_shadow_path(skeleton, 0.1)
        assert np.array_equal(again.levels[:-1], cps.levels[:-1])
        assert np.array_equal(again.signs[:-1], cps.signs[:-1])

    def test_refinement_moves_crossings_at_most_one_coarse_step(self):
        fine = exp_path(n=4097)
        coarse = SampledPath(fine.times[::2], fine.values[::2], positive=True)
        tf, sf = extract_stopping_times(fine, 0.1)
        tc, sc = extract_stopping_times(coarse, 0.1)
        assert len(tf) == len(tc)
        dt_coarse = coarse.times[1] - coarse.times[0]
        for a, b in zip(fine.times[tf], coarse.times[tc]):
            assert abs(a - b) <= dt_coarse + 1e-12

    def test_gross_jump_breaks_sandwich_loudly(self):
        t = np.array([0.0, 0.5, 1.0])
        vals = np.array([100.0, 100.0 * 1.1**6, 100.0 * 1.1**6])
        with pytest.raises(ConsistencyError, match="sandwich"):
            build_shadow_path(SampledPath(t, vals, positive=True), 0.1)

    def test_gross_jump_error_names_the_step_in_walk_units(self):
        t = np.array([0.0, 0.5, 1.0])
        vals = np.array([100.0, 100.0 * 1.1**6, 100.0 * 1.1**6])
        with pytest.raises(ConsistencyError, match=r"largest step \|d log S\| is 6 log"):
            build_shadow_path(SampledPath(t, vals, positive=True), 0.1)

    def test_sandwich_ok_is_the_shadow_paths_own_check(self):
        # the report's flag is build_shadow_path's check, with its 1e-12 slack
        cps = build_shadow_path(exp_path(), 0.1)
        assert cps.width == (1.0 + 0.1) ** 3
        assert cps.sandwich_ok
        assert replace(cps, ratio_max=cps.width * (1.0 + 5e-13)).sandwich_ok
        assert not replace(cps, ratio_max=cps.width * (1.0 + 2e-12)).sandwich_ok
        assert replace(cps, ratio_min=1.0 / cps.width * (1.0 - 5e-13)).sandwich_ok
        assert not replace(cps, ratio_min=1.0 / cps.width * (1.0 - 2e-12)).sandwich_ok

    @settings(max_examples=200, deadline=None)
    @given(eps=st.sampled_from([0.005, 0.01, 0.05, 0.2]),
           unit_steps=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=300))
    def test_anchor_gap_bound_when_steps_stay_within_one_level(self, eps, unit_steps):
        # every |d log S| <= log(1+eps): interior anchors lie within one
        # level of the source, the horizon within two, so the sandwich holds
        step = math.log1p(eps)
        log_s = np.concatenate(([0.0], np.cumsum(unit_steps))) * step
        path = SampledPath(np.linspace(0.0, 1.0, len(log_s)), 50.0 * np.exp(log_s),
                           positive=True)
        cps = build_shadow_path(path, eps)
        gap = np.abs(np.log(cps.levels) - np.log(path.values[cps.tau_indices])) / step
        assert np.all(gap[:-1] < 1.0 + 1e-9)
        assert gap[-1] < 2.0 + 1e-9

    @pytest.mark.parametrize("hurst", [0.5, 0.7])
    def test_criterion7_paths_build_at_eps_one_percent(self, hurst):
        # exits measured from the walk level keep the anchor gaps from
        # accumulating, so these fine paths build at a band below criterion 7's
        spec = FgbmSpec(hurst, BAND, tuple(np.linspace(0.0, 1.0, 1025)))
        paths = simulate_fgbm_asset(spec, 0.0, 100.0, 0.2, seed=4242, n_paths=25)
        bound = 1.01**3
        for p in paths:
            cps = build_shadow_path(p, 0.01)
            assert 1.0 / bound <= cps.ratio_min and cps.ratio_max <= bound


class TestDeltaProcesses:
    def test_identity_ratio_case(self):
        # a path that never exits the band and ends where it started:
        # both anchors carry unit ratio, so the shadow equals the source
        t = np.linspace(0.0, 1.0, 257)
        path = SampledPath(t, 100.0 * np.exp(0.04 * np.sin(2 * np.pi * t)),
                           positive=True)
        cps = build_shadow_path(path, 0.1)
        assert np.array_equal(cps.shadow.values, path.values)
        d1, d2 = delta_processes(cps)
        assert np.all(d1.values == 0.0)
        assert np.allclose(d2.values, 0.5, rtol=1e-12)

    def test_constant_source_flags_every_step(self):
        cps = build_shadow_path(const_path(n=51), 0.1)
        d1, d2 = delta_processes(cps)
        assert np.all(d1.values == 0.0)
        assert np.all(np.isnan(d2.values))
        assert cps.delta_stats.flagged_steps == 50

    def test_fractional_paths_keep_delta1_within_eps(self):
        spec = FgbmSpec(0.7, BAND, tuple(np.linspace(0.0, 1.0, 1025)))
        paths = simulate_fgbm_asset(spec, 0.0, 100.0, 0.2, seed=3, n_paths=10)
        for p in paths:
            cps = build_shadow_path(p, 0.05)
            assert cps.delta_stats.frac_delta1_within >= 0.99


class TestCpsPrice:
    def problem(self, band):
        half = 8.0 * band.sigma_hi
        return PricingProblem(ScalarFunctionSpec.call(100.0), 1.0, 0.05, band,
                              (100.0 * math.exp(-half), 100.0 * math.exp(half)))

    def test_flat_band_midpoint_matches_black_scholes(self):
        band = UncertaintyBand(0.05, 0.05, 0.2, 0.2)
        c = ControlProcess.constant(0.05, 0.2, band=band)
        path = simulate_asset_paths(c, 100.0, np.linspace(0, 1, 513), seed=4,
                                    n_paths=1)[0]
        res = cps_price(path, self.problem(band), 0.05, GridSpec(300, 300))
        oracle = black_scholes_closed_form(100, 100, 0.05, 0.2, 1.0, "call")
        assert res.ask.value == pytest.approx(oracle, rel=2e-3)
        assert res.bid.value == pytest.approx(oracle, rel=2e-3)
        assert res.ask.lower <= res.ask.value <= res.ask.upper

    def test_quotes_rescale_by_the_shadow_width(self):
        c = ControlProcess.constant(0.03, 0.2, band=BAND)
        path = simulate_asset_paths(c, 100.0, np.linspace(0, 1, 257), seed=3,
                                    n_paths=1)[0]
        res = cps_price(path, self.problem(BAND), 0.05, GridSpec(64, 64))
        for quote in (res.ask, res.bid):
            assert (quote.lower, quote.upper) == (quote.value / res.cps.width,
                                                  quote.value * res.cps.width)

    def test_interval_tightens_with_eps(self):
        band = UncertaintyBand(0.0, 0.05, 0.1, 0.3)
        c = ControlProcess.constant(0.03, 0.2, band=band)
        path = simulate_asset_paths(c, 100.0, np.linspace(0, 1, 513), seed=9,
                                    n_paths=1)[0]
        res_tight = cps_price(path, self.problem(band), 0.05, GridSpec(100, 100))
        res_wide = cps_price(path, self.problem(band), 0.1, GridSpec(100, 100))
        assert res_tight.ask.upper - res_tight.ask.lower < \
            res_wide.ask.upper - res_wide.ask.lower
        assert res_wide.ask.lower <= res_tight.ask.lower
        assert res_tight.ask.upper <= res_wide.ask.upper

    def test_ask_dominates_bid(self):
        band = UncertaintyBand(0.0, 0.05, 0.1, 0.3)
        c = ControlProcess.constant(0.03, 0.2, band=band)
        path = simulate_asset_paths(c, 100.0, np.linspace(0, 1, 257), seed=2,
                                    n_paths=1)[0]
        res = cps_price(path, self.problem(band), 0.05, GridSpec(100, 100))
        assert res.ask.value >= res.bid.value

    def test_short_path_rejected(self):
        band = UncertaintyBand(0.0, 0.05, 0.1, 0.3)
        t = np.linspace(0.0, 0.5, 65)
        path = SampledPath(t, np.full(65, 100.0), positive=True)
        with pytest.raises(ValueError, match="maturity"):
            cps_price(path, self.problem(band), 0.05, GridSpec(64, 64))

    def test_path_may_end_within_the_time_tolerance_of_a_short_maturity(self):
        # T = 0.5: a path may end 1e-9 max(1, T) short of it, as a hedge path may
        problem = PricingProblem(ScalarFunctionSpec.call(100.0), 0.5, 0.05, BAND,
                                 (20.0, 500.0))

        def path(end):
            return SampledPath(np.linspace(0.0, end, 65), np.full(65, 100.0), positive=True)

        assert cps_price(path(0.5 - 8e-10), problem, 0.05, GridSpec(16, 16)).ask.value > 0.0
        with pytest.raises(ValueError, match="maturity"):
            cps_price(path(0.5 - 2e-9), problem, 0.05, GridSpec(16, 16))
