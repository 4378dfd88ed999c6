"""Scenario simulation, deflator, MC pricing, integration, hedging tests."""

import io
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidask import (
    BangBangRule,
    ControlProcess,
    DomainExitError,
    GridSpec,
    McEstimate,
    PathEnsemble,
    PriceSurface,
    PricingProblem,
    SampledPath,
    ScalarFunctionSpec,
    SingularControlError,
    UncertaintyBand,
    bang_bang_control_from_surface,
    black_scholes_closed_form,
    default_control_family,
    deflator_path,
    estimate_tube_capacity,
    hedge_verify,
    holder_exponent,
    mc_ask_bid,
    read_ensemble_file,
    read_path_file,
    riemann_stieltjes,
    simulate_asset_paths,
    simulate_gbm_increments,
    solve_bsb_ask,
    solve_bsb_pair,
    write_ensemble_file,
    write_path_file,
)
from bidask import paths as paths_mod

BAND = UncertaintyBand(0.01, 0.05, 0.1, 0.3)
GRID = np.linspace(0.0, 1.0, 257)


def grid_of(n, horizon=1.0):
    return np.linspace(0.0, horizon, n + 1)


class TestTypes:
    def test_path_requires_zero_start(self):
        with pytest.raises(ValueError, match="start at 0"):
            SampledPath(np.array([0.5, 1.0]), np.array([1.0, 2.0]))

    def test_path_requires_increasing_times(self):
        with pytest.raises(ValueError):
            SampledPath(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_positive_flag_enforced(self):
        with pytest.raises(ValueError):
            SampledPath(np.array([0.0, 1.0]), np.array([1.0, -2.0]), positive=True)

    @pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, 0.5, math.inf]],
                             ids=["nan_point", "inf_end"])
    def test_path_times_must_be_finite(self, times):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            SampledPath(np.array(times), np.ones(3))
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            PathEnsemble(np.array(times), np.ones((2, 3)))

    def test_positive_path_rejects_nan(self):
        # so a NaN never reaches the shadow path's sandwich check
        with pytest.raises(ValueError, match="nonpositive or NaN"):
            SampledPath(np.array([0.0, 0.5, 1.0]), np.array([1.0, math.nan, 2.0]), positive=True)
        SampledPath(np.array([0.0, 0.5, 1.0]), np.array([1.0, math.nan, 2.0]))

    def test_control_levels_must_stay_in_band(self):
        with pytest.raises(ValueError, match="band"):
            ControlProcess.constant(0.05, 0.5, band=BAND)
        with pytest.raises(ValueError, match="band"):
            ControlProcess.constant(0.2, 0.2, band=BAND)

    def test_control_breakpoints_start_at_zero(self):
        with pytest.raises(ValueError):
            ControlProcess((0.5,), (0.2,), (0.05,))

    def test_control_breakpoints_must_be_finite(self):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            ControlProcess((0.0, math.nan), (0.2, 0.3), (0.0, 0.0))

    @pytest.mark.parametrize("sigma, mu, match", [
        ((math.nan,), (0.03,), "levels must be finite"),
        ((0.2,), (math.inf,), "levels must be finite"),
        (((0.2,),), (0.03,), "one sigma and one mu level per breakpoint"),
        ((0.2,), ((0.03,),), "one sigma and one mu level per breakpoint"),
    ], ids=["nan_sigma", "inf_mu", "2d_sigma", "2d_mu"])
    def test_control_levels_must_be_finite_one_per_breakpoint(self, sigma, mu, match):
        # without a band nothing else stops them: NaN or inf paths, or a
        # broadcast error in every simulator
        with pytest.raises(ValueError, match=match):
            ControlProcess((0.0,), sigma, mu)

    def test_control_lookup(self):
        c = ControlProcess((0.0, 0.5), (0.1, 0.3), (0.02, 0.04))
        assert c.sigma_at(0.25) == 0.1
        assert c.sigma_at(0.5) == 0.3
        assert c.mu_at(0.75) == 0.04

    def test_default_family_spans_band(self):
        fam = default_control_family(BAND)
        assert len(fam) == 27
        sigmas = {c.sigma_levels[0] for c in fam}
        assert min(sigmas) == BAND.sigma_lo and max(sigmas) == BAND.sigma_hi


class TestDrivingNoise:
    def test_terminal_variance_constant_control(self):
        c = ControlProcess.constant(0.05, 0.3, band=BAND)
        paths = simulate_gbm_increments(c, GRID, seed=42, n_paths=20000)
        bt = np.array([p.values[-1] for p in paths])
        target = 0.09
        se = target * math.sqrt(2.0 / len(bt))  # SE of a Gaussian variance estimate
        assert abs(bt.var(ddof=1) - target) < 3 * se

    def test_piecewise_variance_adds(self):
        c = ControlProcess((0.0, 0.5), (0.1, 0.3), (0.0, 0.0))
        paths = simulate_gbm_increments(c, GRID, seed=1, n_paths=20000)
        bt = np.array([p.values[-1] for p in paths])
        target = 0.1**2 * 0.5 + 0.3**2 * 0.5
        se = target * math.sqrt(2.0 / len(bt))
        assert abs(bt.var(ddof=1) - target) < 3 * se

    def test_same_seed_same_paths(self):
        c = ControlProcess.constant(0.05, 0.2)
        a = simulate_gbm_increments(c, GRID, seed=7, n_paths=2)
        b = simulate_gbm_increments(c, GRID, seed=7, n_paths=2)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_paths_stable_under_n_paths_growth(self):
        c = ControlProcess.constant(0.05, 0.2)
        one = simulate_gbm_increments(c, GRID, seed=7, n_paths=1)[0]
        many = simulate_gbm_increments(c, GRID, seed=7, n_paths=5000)[0]
        assert np.array_equal(one.values, many.values)

    def test_out_of_band_control_rejected(self):
        c = ControlProcess.constant(0.05, 0.9)
        with pytest.raises(ValueError, match="band"):
            simulate_gbm_increments(c, GRID, seed=0, n_paths=1, band=BAND)

    def test_misaligned_breakpoint_rejected(self):
        c = ControlProcess((0.0, 1.0 / 3.0), (0.1, 0.3), (0.0, 0.0))
        with pytest.raises(ValueError, match="aligned"):
            simulate_gbm_increments(c, grid_of(10), seed=0, n_paths=1)


class TestAssetPaths:
    def test_zero_vol_is_deterministic_exponential(self):
        c = ControlProcess.constant(0.05, 0.0)
        p = simulate_asset_paths(c, 100.0, GRID, seed=0, n_paths=1)[0]
        assert np.allclose(p.values, 100.0 * np.exp(0.05 * GRID), rtol=1e-12)

    def test_lognormal_mean(self):
        c = ControlProcess.constant(0.05, 0.2)
        paths = simulate_asset_paths(c, 100.0, grid_of(64), seed=9, n_paths=40000)
        st = np.array([p.values[-1] for p in paths])
        target = 100.0 * math.exp(0.05)
        se = st.std(ddof=1) / math.sqrt(len(st))
        assert abs(st.mean() - target) < 3 * se

    def test_positivity(self):
        c = ControlProcess.constant(0.01, 0.3)
        paths = simulate_asset_paths(c, 0.5, grid_of(32), seed=3, n_paths=50)
        for p in paths:
            assert p.positive and np.all(p.values > 0)

    def test_rejects_nonpositive_start(self):
        c = ControlProcess.constant(0.05, 0.2)
        with pytest.raises(ValueError):
            simulate_asset_paths(c, 0.0, GRID, seed=0, n_paths=1)


class TestDeflator:
    def test_mu_equals_rate_is_pure_discounting(self):
        c = ControlProcess.constant(0.05, 0.2)
        b = simulate_gbm_increments(c, GRID, seed=3, n_paths=1)[0]
        h = deflator_path(c, 0.05, b)
        assert np.array_equal(h.values, np.exp(-0.05 * GRID))

    def test_starts_at_one(self):
        c = ControlProcess.constant(0.02, 0.15)
        b = simulate_gbm_increments(c, GRID, seed=5, n_paths=1)[0]
        h = deflator_path(c, 0.05, b)
        assert h.values[0] == 1.0

    def test_exponential_martingale_mean_one(self):
        # r = 0 with nonzero drift: E[H_T] = 1
        c = ControlProcess.constant(0.1, 0.2)
        paths = simulate_gbm_increments(c, grid_of(64), seed=11, n_paths=4000)
        ht = np.array([deflator_path(c, 0.0, p).values[-1] for p in paths])
        se = ht.std(ddof=1) / math.sqrt(len(ht))
        assert abs(ht.mean() - 1.0) < 3 * se

    def test_zero_vol_with_premium_is_singular(self):
        c = ControlProcess.constant(0.1, 0.0)
        b = SampledPath(GRID, np.zeros_like(GRID))
        with pytest.raises(SingularControlError):
            deflator_path(c, 0.05, b)

    def test_zero_vol_without_premium_is_fine(self):
        c = ControlProcess.constant(0.05, 0.0)
        b = SampledPath(GRID, np.zeros_like(GRID))
        h = deflator_path(c, 0.05, b)
        assert np.array_equal(h.values, np.exp(-0.05 * GRID))

    def test_state_feedback_rule_rejected(self):
        rule = bang_bang_control_from_surface(solve_bsb_ask(make_problem(BAND),
                                                            GridSpec(64, 64)))
        b = simulate_gbm_increments(ControlProcess.constant(0.05, 0.2), GRID, seed=3,
                                    n_paths=1)[0]
        with pytest.raises(ValueError, match="state-feedback rule has no deflator path"):
            deflator_path(rule, 0.05, b)


def make_problem(band, payoff=None, rate=0.05, maturity=1.0):
    payoff = payoff or ScalarFunctionSpec.call(100.0)
    half = 8.0 * band.sigma_hi * math.sqrt(maturity)
    return PricingProblem(payoff, maturity, rate, band,
                          (100.0 * math.exp(-half), 100.0 * math.exp(half)))


class TestMcAskBid:
    def test_flat_band_matches_black_scholes(self):
        band = UncertaintyBand(0.01, 0.05, 0.2, 0.2)
        prob = make_problem(band)
        c = ControlProcess.constant(0.03, 0.2, band=band)
        ask, bid = mc_ask_bid(prob, [c], grid_of(128), seed=11, spot=100.0,
                              n_paths=40000)
        oracle = black_scholes_closed_form(100, 100, 0.05, 0.2, 1.0, "call")
        assert ask.value == bid.value  # single control
        assert abs(ask.value - oracle) < 3 * ask.std_error

    def test_convex_payoff_endpoints(self):
        prob = make_problem(BAND)
        controls = [ControlProcess.constant(0.03, s, band=BAND)
                    for s in np.linspace(0.1, 0.3, 5)]
        ask, bid = mc_ask_bid(prob, controls, grid_of(128), seed=21, spot=100.0,
                              n_paths=40000)
        hi = black_scholes_closed_form(100, 100, 0.05, 0.3, 1.0, "call")
        lo = black_scholes_closed_form(100, 100, 0.05, 0.1, 1.0, "call")
        assert abs(ask.value - hi) < 3 * ask.std_error
        assert abs(bid.value - lo) < 3 * bid.std_error
        assert ask.control_id.endswith("sigma=0.3")
        assert bid.control_id.endswith("sigma=0.1")

    def test_ask_dominates_bid(self):
        prob = make_problem(BAND)
        ask, bid = mc_ask_bid(prob, default_control_family(BAND), grid_of(32),
                              seed=5, spot=100.0, n_paths=2000)
        assert ask.value >= bid.value

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            mc_ask_bid(make_problem(BAND), [], grid_of(32), seed=0, spot=100.0,
                       n_paths=10)

    def test_grid_must_end_at_maturity(self):
        with pytest.raises(ValueError, match="maturity"):
            mc_ask_bid(make_problem(BAND), [ControlProcess.constant(0.03, 0.2)],
                       grid_of(32, horizon=2.0), seed=0, spot=100.0, n_paths=10)


class TestBangBangRule:
    def test_convex_payoff_gives_constant_upper_vol(self):
        surf = solve_bsb_ask(make_problem(BAND), GridSpec(100, 100))
        rule = bang_bang_control_from_surface(surf)
        assert isinstance(rule, BangBangRule)
        for t in (0.0, 0.5, 0.9):
            s = np.array([50.0, 100.0, 180.0])
            assert np.all(rule.sigma_state(t, s) == BAND.sigma_hi)
        assert rule.mu_value == BAND.mu_hi  # rate 0.05 clamps to mu_hi

    def test_flat_band_rule_is_trivially_constant(self):
        band = UncertaintyBand(0.0, 0.0, 0.2, 0.2)
        surf = solve_bsb_ask(make_problem(band), GridSpec(64, 64))
        rule = bang_bang_control_from_surface(surf)
        assert np.all(rule.sigma_state(0.3, np.linspace(60, 150, 7)) == 0.2)

    def test_butterfly_rule_beats_constant_controls(self):
        bfly = ScalarFunctionSpec.piecewise_linear(
            [(60.0, 0.0), (80.0, 0.0), (100.0, 20.0), (120.0, 0.0), (140.0, 0.0)])
        prob = make_problem(BAND, payoff=bfly)
        surf = solve_bsb_ask(prob, GridSpec(200, 200))
        rule = bang_bang_control_from_surface(surf)
        consts = [ControlProcess.constant(0.05, s, band=BAND)
                  for s in np.linspace(0.1, 0.3, 9)]
        best_const, _ = mc_ask_bid(prob, consts, grid_of(64), seed=7, spot=100.0,
                                   n_paths=20000)
        rule_est, _ = mc_ask_bid(prob, [rule], grid_of(64), seed=7, spot=100.0,
                                 n_paths=20000)
        slack = 3 * math.hypot(rule_est.std_error, best_const.std_error)
        assert rule_est.value >= best_const.value - slack

    def test_requires_fine_enough_surface(self):
        from bidask import PriceSurface
        s = PriceSurface(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                         np.zeros((2, 2)), "ask", band=BAND)
        with pytest.raises(ValueError, match="coarse"):
            bang_bang_control_from_surface(s)

    def test_requires_band(self):
        from bidask import PriceSurface
        s = PriceSurface(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]),
                         np.zeros((2, 3)), "ask")
        with pytest.raises(ValueError, match="band"):
            bang_bang_control_from_surface(s)


class TestRuleUnderItsBand:
    """A rule is checked against the band it runs under, as a time-based
    control is: its sigma table and its drift must lie inside it."""

    WIDE = UncertaintyBand(0.01, 0.05, 0.1, 0.5)
    NARROW_SIGMA = UncertaintyBand(0.01, 0.05, 0.1, 0.2)
    NARROW_MU = UncertaintyBand(0.0, 0.02, 0.1, 0.5)  # the rule's drift is 0.05

    @pytest.fixture(scope="class")
    def rule(self):
        rule = bang_bang_control_from_surface(solve_bsb_ask(make_problem(self.WIDE),
                                                            GridSpec(64, 64)))
        assert rule.sigma_table.max() == 0.5 and rule.mu_value == 0.05
        return rule

    @staticmethod
    def center():
        return SampledPath(grid_of(64), 100.0 * np.exp(0.05 * grid_of(64)), positive=True)

    @pytest.mark.parametrize("band, which", [(NARROW_SIGMA, "sigma"), (NARROW_MU, "mu")])
    def test_simulate_asset_paths(self, rule, band, which):
        with pytest.raises(ValueError, match=f"{which} levels leave the uncertainty band"):
            simulate_asset_paths(rule, 100.0, grid_of(32), seed=1, n_paths=10, band=band)

    @pytest.mark.parametrize("band, which", [(NARROW_SIGMA, "sigma"), (NARROW_MU, "mu")])
    def test_mc_ask_bid(self, rule, band, which):
        with pytest.raises(ValueError, match=f"{which} levels leave the uncertainty band"):
            mc_ask_bid(make_problem(band), [rule], grid_of(32), seed=1, spot=100.0,
                       n_paths=10)

    @pytest.mark.parametrize("band, which", [(NARROW_SIGMA, "sigma"), (NARROW_MU, "mu")])
    def test_estimate_tube_capacity(self, rule, band, which):
        with pytest.raises(ValueError, match=f"{which} levels leave the uncertainty band"):
            estimate_tube_capacity(self.center(), 5.0, band, [rule], seed=1, n_paths=10)

    def test_accepted_under_its_own_band(self, rule):
        simulate_asset_paths(rule, 100.0, grid_of(32), seed=1, n_paths=10, band=self.WIDE)
        mc_ask_bid(make_problem(self.WIDE), [rule], grid_of(32), seed=1, spot=100.0,
                   n_paths=10)
        estimate_tube_capacity(self.center(), 5.0, self.WIDE, [rule], seed=1, n_paths=10)


@pytest.mark.parametrize("estimate", [
    lambda: mc_ask_bid(make_problem(BAND), [], GRID, seed=1, spot=100.0, n_paths=10),
    lambda: estimate_tube_capacity(SampledPath(GRID, np.full(len(GRID), 100.0)), 5.0,
                                   BAND, [], seed=1, n_paths=10),
], ids=["mc_ask_bid", "estimate_tube_capacity"])
def test_empty_control_family_is_rejected(estimate):
    with pytest.raises(ValueError, match="control family must be nonempty"):
        estimate()


class TestTubeCapacity:
    def setup_method(self):
        self.center = SampledPath(grid_of(64), 100.0 * np.exp(0.05 * grid_of(64)),
                                  positive=True)
        self.controls = [ControlProcess.constant(0.05, 0.2)]

    def test_huge_tube_has_full_capacity(self):
        cap = estimate_tube_capacity(self.center, 1e6, BAND, self.controls,
                                     seed=3, n_paths=500)
        assert cap == 1.0

    def test_null_tube_has_zero_capacity(self):
        cap = estimate_tube_capacity(self.center, 0.0, BAND, self.controls,
                                     seed=3, n_paths=500)
        assert cap == 0.0

    def test_monotone_in_radius(self):
        caps = [estimate_tube_capacity(self.center, eta, BAND, self.controls,
                                       seed=3, n_paths=2000)
                for eta in (5.0, 15.0, 40.0)]
        assert caps[0] <= caps[1] <= caps[2]

    def test_monotone_in_control_family(self):
        small = [ControlProcess.constant(0.01, 0.3)]
        large = small + [ControlProcess.constant(0.05, 0.1)]
        c1 = estimate_tube_capacity(self.center, 10.0, BAND, small, seed=3,
                                    n_paths=2000)
        c2 = estimate_tube_capacity(self.center, 10.0, BAND, large, seed=3,
                                    n_paths=2000)
        assert c2 >= c1

    def test_deterministic_limit_fills_tube(self):
        # a band with tiny lower volatility: the control at (mu_hi, sigma_lo)
        # hugs the drift curve, so even a narrow tube captures every path
        band = UncertaintyBand(0.0, 0.05, 1e-4, 0.3)
        tiny = ControlProcess.constant(0.05, band.sigma_lo, band=band)
        cap = estimate_tube_capacity(self.center, 1.0, band, [tiny], seed=3,
                                     n_paths=1000)
        assert cap == 1.0

    def test_empty_controls_rejected(self):
        with pytest.raises(ValueError):
            estimate_tube_capacity(self.center, 1.0, BAND, [], seed=0, n_paths=10)


class TestHolderExponent:
    def test_linear_path(self):
        t = grid_of(10000)
        h = holder_exponent(SampledPath(t, 3.0 * t))
        assert h.exponent == pytest.approx(1.0, abs=1e-9)

    def test_constant_path_flagged(self):
        h = holder_exponent(SampledPath(grid_of(100), np.full(101, 2.0)))
        assert h.exponent == 1.0 and h.zero_variation

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            holder_exponent(SampledPath(grid_of(10), np.zeros(11)))

    def test_brownian_scenario_near_half(self):
        c = ControlProcess.constant(0.0, 1.0)
        paths = simulate_gbm_increments(c, grid_of(10000), seed=77, n_paths=6)
        ests = [holder_exponent(p).exponent for p in paths]
        assert abs(np.mean(ests) - 0.5) < 0.1
        for e in ests:
            assert 0.35 < e < 0.65

    def test_diagnostics_present(self):
        c = ControlProcess.constant(0.0, 1.0)
        p = simulate_gbm_increments(c, grid_of(4096), seed=2, n_paths=1)[0]
        h = holder_exponent(p)
        assert len(h.scales) == len(h.max_increments) >= 3
        assert 0.0 <= h.r_squared <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # a NaN once read as a Lipschitz path, an infinity as exponent NaN
        t = grid_of(100)
        values = t.copy()
        values[40] = bad
        with pytest.raises(ValueError, match=r"path value .* at t=0\.4 is not finite"):
            holder_exponent(SampledPath(t, values))


class TestRiemannStieltjes:
    def test_constant_integrand_telescopes_exactly(self):
        t = grid_of(512)
        rng = np.random.default_rng(8)
        s = SampledPath(t, np.cumsum(np.concatenate(([0.0], rng.normal(size=512)))))
        theta = SampledPath(t, np.full_like(t, 2.5))
        value, rep = riemann_stieltjes(theta, s)
        expect = 2.5 * (s.values[-1] - s.values[0])
        assert value == pytest.approx(expect, rel=1e-14)
        assert np.allclose(rep.refinement_values, expect, rtol=1e-14)

    def test_smooth_oracle_two_thirds(self):
        t = grid_of(1024)
        value, _ = riemann_stieltjes(SampledPath(t, t), SampledPath(t, t**2))
        assert value == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_first_order_mesh_convergence(self):
        errs = []
        for n in (256, 512, 1024):
            t = grid_of(n)
            v, _ = riemann_stieltjes(SampledPath(t, t), SampledPath(t, t**2))
            errs.append(abs(v - 2.0 / 3.0))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.05)

    def test_bilinear_in_integrand(self):
        t = grid_of(128)
        rng = np.random.default_rng(3)
        s = SampledPath(t, np.cumsum(np.concatenate(([0.0], rng.normal(size=128)))))
        th1 = SampledPath(t, np.sin(t))
        th2 = SampledPath(t, t**2)
        combo = SampledPath(t, 2.0 * np.sin(t) - 3.0 * t**2)
        v1, _ = riemann_stieltjes(th1, s)
        v2, _ = riemann_stieltjes(th2, s)
        vc, _ = riemann_stieltjes(combo, s)
        assert vc == pytest.approx(2.0 * v1 - 3.0 * v2, rel=1e-12)

    def test_resamples_mismatched_grids(self):
        t_fine = grid_of(256)
        t_coarse = grid_of(64)
        s = SampledPath(t_fine, t_fine**2)
        theta = SampledPath(t_coarse, t_coarse)  # linear: resampling is exact
        v, _ = riemann_stieltjes(theta, s)
        ref, _ = riemann_stieltjes(SampledPath(t_fine, t_fine), s)
        assert v == pytest.approx(ref, rel=1e-12)

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            riemann_stieltjes(SampledPath(grid_of(16), np.zeros(17)),
                              SampledPath(grid_of(16, horizon=2.0), np.zeros(17)))

    @pytest.mark.parametrize("n", [16, 128])  # 128 points: the roughness is estimated
    @pytest.mark.parametrize("which", ["integrand", "integrator"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, n, which, bad):
        t = grid_of(n)
        values = np.sin(t)
        values[n // 2] = bad
        paths = {"integrand": SampledPath(t, t), "integrator": SampledPath(t, t**2),
                 which: SampledPath(t, values)}
        with pytest.raises(ValueError, match=f"{which} value .* is not finite"):
            riemann_stieltjes(paths["integrand"], paths["integrator"])

    def test_young_budget_reported(self):
        t = grid_of(1024)
        theta = SampledPath(t, np.sin(2 * np.pi * t))
        s = SampledPath(t, t**2)
        _, rep = riemann_stieltjes(theta, s)
        assert rep.gamma_integrand + rep.alpha_integrator > 1.0
        assert not rep.young_violation


class TestHedgeVerify:
    def test_identity_payoff_static_hedge_is_exact(self):
        band = UncertaintyBand(0.0, 0.05, 0.1, 0.3)
        prob = make_problem(band, payoff=ScalarFunctionSpec.identity())
        surf = solve_bsb_ask(prob, GridSpec(100, 100))
        c = ControlProcess.constant(0.03, 0.2, band=band)
        path = simulate_asset_paths(c, 100.0, grid_of(200), seed=6, n_paths=1)[0]
        rep = hedge_verify(surf, path)
        assert rep.terminal_shortfall < 1e-6
        # wealth tracks the spot up to the surface's own O(h^2) error
        assert np.allclose(rep.wealth.values, path.values, rtol=5e-5)

    def test_flat_band_replication_improves_with_steps(self):
        band = UncertaintyBand(0.05, 0.05, 0.2, 0.2)
        prob = make_problem(band)
        surf = solve_bsb_ask(prob, GridSpec(400, 400))
        c = ControlProcess.constant(0.05, 0.2, band=band)
        means = []
        for n_steps in (250, 1000):
            shorts = []
            for p in simulate_asset_paths(c, 100.0, grid_of(n_steps), seed=99,
                                          n_paths=60, band=band):
                shorts.append(hedge_verify(surf, p).terminal_shortfall)
            means.append(np.mean(shorts))
        ask0 = surf.value_at(0.0, 100.0)
        assert means[1] < 0.02 * ask0  # replication up to discretisation noise
        assert means[1] < means[0]

    def test_cost_process_nearly_monotone_for_inband_path(self):
        prob = make_problem(BAND)
        surf = solve_bsb_ask(prob, GridSpec(300, 300))
        c = ControlProcess.constant(0.03, 0.15, band=BAND)
        viol = [hedge_verify(surf, p).cost_monotonicity_violation
                for p in simulate_asset_paths(c, 100.0, grid_of(1000), seed=17,
                                              n_paths=20, band=BAND)]
        # per-step surplus noise is O(Gamma S^2 sigma^2 dt); stay within a
        # small multiple of the initial capital
        assert max(viol) < 0.02 * surf.value_at(0.0, 100.0)

    def test_domain_exit_reported_with_time(self):
        prob = PricingProblem(ScalarFunctionSpec.call(100.0), 1.0, 0.05, BAND,
                              (80.0, 125.0))
        surf = solve_bsb_ask(prob, GridSpec(64, 64))
        t = grid_of(4)
        path = SampledPath(t, np.array([100.0, 110.0, 130.0, 120.0, 115.0]),
                           positive=True)
        with pytest.raises(DomainExitError) as exc:
            hedge_verify(surf, path)
        assert exc.value.exit_time == pytest.approx(0.5)

    def test_path_past_the_surface_is_rejected(self):
        surf = solve_bsb_ask(make_problem(BAND), GridSpec(64, 64))
        values = np.array([100.0, 104.0, 98.0, 101.0, 103.0])
        with pytest.raises(ValueError, match=r"t=1\.5, past the surface's last time 1"):
            hedge_verify(surf, SampledPath(grid_of(4, 1.5), values, positive=True))
        # a path that ends at the maturity, up to round-off, is hedged
        end = SampledPath(grid_of(4, 1.0 + 1e-10), values, positive=True)
        assert hedge_verify(surf, end).wealth.horizon == 1.0 + 1e-10


class TestPathFiles:
    def test_single_path_round_trip(self, tmp_path):
        p = SampledPath(grid_of(16), np.linspace(1.0, 3.0, 17), positive=True)
        f = tmp_path / "p.csv"
        write_path_file(p, f)
        q = read_path_file(f, positive=True)
        assert np.allclose(q.times, p.times, rtol=1e-11)
        assert np.allclose(q.values, p.values, rtol=1e-11)

    def test_header_required(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_path_file(f)

    def test_ensemble_round_trip(self, tmp_path):
        c = ControlProcess.constant(0.05, 0.2)
        paths = simulate_asset_paths(c, 100.0, grid_of(8), seed=2, n_paths=3)
        f = tmp_path / "ens.csv"
        write_ensemble_file(paths, f)
        got = read_ensemble_file(f)
        assert len(got) == 3
        for a, b in zip(got, paths):
            assert np.allclose(a.values, b.values, rtol=1e-11)

    def test_ensemble_file_is_the_whole_matrix_format(self, tmp_path):
        values = np.random.default_rng(3).standard_normal((40, 33)) * 10.0 ** np.arange(-16, 17)
        values[0, :3] = -0.0, 1e-300, -1e300
        paths = PathEnsemble(grid_of(32), values)
        write_ensemble_file(paths, tmp_path / "ens.csv")
        line = ",".join(["{:.12g}"] * 41) + "\n"
        want = "time," + ",".join(f"value_{j}" for j in range(40)) + "\n" + "".join(
            line.format(t, *row) for t, row in zip(paths.times.tolist(), values.T.tolist()))
        assert (tmp_path / "ens.csv").read_text() == want

    def test_ensemble_file_is_written_a_row_at_a_time(self, tmp_path):
        # 500 paths of 1024 steps: 4.1 MB of values, as Python floats all at
        # once about 16 MB; one row is 500 floats and a line of text
        import tracemalloc

        paths = simulate_asset_paths(ControlProcess.constant(0.05, 0.2), 100.0, grid_of(1024),
                                     seed=4, n_paths=500)
        tracemalloc.start()
        try:
            write_ensemble_file(paths, tmp_path / "ens.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6

    @pytest.mark.parametrize("reader, text, message", [
        (read_path_file, "time,value\n", "path file has no data rows"),
        (read_path_file, "time,value\n0.0\n1.0\n", "path file has no value columns"),
        (read_ensemble_file, "time,value_0\n", "ensemble file has no data rows"),
        (read_ensemble_file, "time,value_0\n0.0\n1.0\n", "ensemble file has no value columns"),
    ])
    def test_file_without_values_rejected(self, tmp_path, reader, text, message):
        f = tmp_path / "x.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            reader(f)

    @pytest.mark.parametrize("reader, kind", [(read_path_file, "path"),
                                              (read_ensemble_file, "ensemble")])
    def test_ragged_rows_name_the_row(self, tmp_path, reader, kind):
        f = tmp_path / "x.csv"
        f.write_text("time,value_0,value_1\n0.0,1.0,2.0\n1.0,3.0\n")
        with pytest.raises(ValueError) as exc:
            reader(f)
        assert str(exc.value) == f"{kind} file row 2 has 2 fields, expected 3"

    @pytest.mark.parametrize("reader, kind", [(read_path_file, "path"),
                                              (read_ensemble_file, "ensemble")])
    def test_bad_number_names_the_row_and_field(self, tmp_path, reader, kind):
        f = tmp_path / "x.csv"
        f.write_text("time,value_0\n0.0,1.0\n1.0,abc\n")
        with pytest.raises(ValueError) as exc:
            reader(f)
        assert str(exc.value) == f"{kind} file row 2 field 2 is not a number: 'abc'"

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", " NaN"])
    @pytest.mark.parametrize("reader, kind", [(read_path_file, "path"),
                                              (read_ensemble_file, "ensemble")])
    def test_non_finite_number_names_the_row_and_field(self, tmp_path, reader, kind, field):
        f = tmp_path / "x.csv"
        f.write_text(f"time,value_0\n0.0,1.0\n0.5,2.0\n1.0,{field}\n")
        with pytest.raises(ValueError) as exc:
            reader(f)
        assert str(exc.value) == (f"{kind} file row 3 field 2 is not finite: "
                                  f"{field.strip()!r}")

    def test_writers_format_each_value_at_12_digits(self):
        # reference: the value-by-value formatting the writers must keep
        paths = simulate_asset_paths(ControlProcess.constant(0.05, 0.2), 100.0,
                                     grid_of(8), seed=2, n_paths=3)
        buf = io.StringIO()
        write_ensemble_file(paths, buf)
        assert buf.getvalue() == "time,value_0,value_1,value_2\n" + "".join(
            f"{t:.12g}," + ",".join(f"{p.values[i]:.12g}" for p in paths) + "\n"
            for i, t in enumerate(paths.times))
        buf = io.StringIO()
        write_path_file(paths[1], buf)
        assert buf.getvalue() == "time,value\n" + "".join(
            f"{t:.12g},{v:.12g}\n" for t, v in zip(paths.times, paths[1].values))


def butterfly_problem():
    bfly = ScalarFunctionSpec.piecewise_linear(
        [(60.0, 0.0), (80.0, 0.0), (100.0, 20.0), (120.0, 0.0), (140.0, 0.0)])
    return make_problem(BAND, payoff=bfly)


def butterfly_rule():
    # on the butterfly the rule switches volatility; a call pins sigma_hi
    return bang_bang_control_from_surface(solve_bsb_ask(butterfly_problem(),
                                                        GridSpec(200, 200)))


class TestTerminalStatistics:
    """Time-based controls priced from log S_T and the deflator exponent."""

    @staticmethod
    def full_path_estimate(prob, control, grid, seed, n_paths):
        # the full-path route: every path, every deflator term from the
        # driving increments dB and the standard noise dB / sigma
        S = simulate_asset_paths(control, 100.0, grid, seed, n_paths, band=prob.band).values
        dB = np.diff(simulate_gbm_increments(control, grid, seed, n_paths,
                                             band=prob.band).values, axis=1)
        dt = np.diff(grid)
        sig, mu = control.sigma_at(grid[:-1]), control.mu_at(grid[:-1])
        lam = np.divide(mu - prob.rate, sig, out=np.zeros(len(dt)), where=sig != 0.0)
        dw = np.divide(dB, sig, out=np.zeros(dB.shape), where=sig != 0.0)
        h_T = np.exp(-(prob.rate * grid[-1] + np.sum(lam * dw + 0.5 * lam * lam * dt, axis=1)))
        y = h_T * prob.payoff(S[:, -1])
        return float(np.mean(y)), float(np.std(y, ddof=1) / math.sqrt(n_paths))

    @classmethod
    def piece_grid_estimate(cls, prob, control, grid, seed, n_paths):
        # the full-path route on the control's piece grid, one step per
        # piece: a level takes effect at the first time of ``grid`` at or
        # after its breakpoint, so the control runs with its breakpoints
        # moved there
        starts = grid[np.searchsorted(grid, control.breakpoints)]
        on_grid = ControlProcess(tuple(starts), control.sigma_levels, control.mu_levels)
        return cls.full_path_estimate(prob, on_grid, np.append(starts, grid[-1]), seed,
                                      n_paths)

    @pytest.mark.parametrize("control, band", [
        (ControlProcess.constant(0.05, 0.2), BAND),  # mu = r
        (ControlProcess((0.0, 0.25, 0.625), (0.1, 0.3, 0.2), (0.05, 0.05, 0.05)), BAND),
        (ControlProcess((0.0, 0.5), (0.3, 0.1), (0.01, 0.03)), BAND),  # mu != r
        (ControlProcess.constant(0.01, 0.3), BAND),  # mu != r
        (ControlProcess.constant(0.05, 0.0), UncertaintyBand(0.0, 0.05, 0.0, 0.3)),
        # a breakpoint past a grid time by less than the alignment tolerance:
        # its level starts one step later, at 17/64
        (ControlProcess((0.0, 0.25 + 1e-10), (0.3, 0.1), (0.01, 0.03)), BAND),
    ])
    def test_matches_the_full_path_estimate(self, control, band):
        prob = make_problem(band)
        grid = grid_of(64)
        est, _ = mc_ask_bid(prob, [control], grid, seed=19, spot=100.0, n_paths=3000)
        value, se = self.piece_grid_estimate(prob, control, grid, 19, 3000)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=1e-15)

    def test_zero_volatility_with_premium_is_singular(self):
        band = UncertaintyBand(0.0, 0.05, 0.0, 0.3)
        family = [ControlProcess.constant(0.05, 0.2), ControlProcess.constant(0.01, 0.0)]
        with pytest.raises(SingularControlError):
            mc_ask_bid(make_problem(band), family, grid_of(32), seed=0, spot=100.0,
                       n_paths=10)

    def test_misaligned_breakpoint_rejected(self):
        family = [ControlProcess.constant(0.05, 0.2),
                  ControlProcess((0.0, 0.3), (0.1, 0.3), (0.05, 0.05))]
        with pytest.raises(ValueError, match="aligned"):
            mc_ask_bid(make_problem(BAND), family, grid_of(32), seed=0, spot=100.0,
                       n_paths=10)

    def test_rule_in_a_mixed_family_prices_as_alone(self, monkeypatch):
        rule = butterfly_rule()
        family = [ControlProcess.constant(0.05, 0.1), rule,
                  ControlProcess.constant(0.01, 0.3)]
        made = []

        def record(*args):
            made.append(McEstimate(*args))
            return made[-1]

        monkeypatch.setattr(paths_mod, "McEstimate", record)
        args = (butterfly_problem(), family, grid_of(64), 23, 100.0, 4000)
        mc_ask_bid(*args)
        in_family = made[1]
        made.clear()
        mc_ask_bid(args[0], [rule], *args[2:])
        assert in_family.control_id == rule.label
        assert in_family.value == made[0].value
        assert in_family.std_error == made[0].std_error
        # a constant among constants: one piece, the same draw as alone
        constants = [family[0], ControlProcess.constant(0.03, 0.2), family[2]]
        made.clear()
        mc_ask_bid(args[0], constants, *args[2:])
        in_family = made[1]
        made.clear()
        mc_ask_bid(args[0], [constants[1]], *args[2:])
        assert in_family == made[0]


class TestTableDrivenAdversary:
    @staticmethod
    def sigma_state_loop(rule, S0, grid, z):
        """The kernel's reference: every step reads each path's sigma with
        ``sigma_state``, the per-node lookup.  Returns the paths and the
        (n_paths, n_steps) sigma each step used."""
        n_paths, n_steps = z.shape
        dt = np.diff(grid)
        ref_S = np.empty((n_paths, n_steps + 1))
        ref_S[:, 0] = S0
        ref_sig = np.empty((n_paths, n_steps))
        for i in range(n_steps):
            s = ref_S[:, i]
            sg = rule.sigma_state(grid[i], s)
            ref_S[:, i + 1] = s * np.exp((rule.mu_value - 0.5 * sg * sg) * dt[i]
                                         + sg * math.sqrt(dt[i]) * z[:, i])
            ref_sig[:, i] = sg
        return ref_S, ref_sig

    def assert_kernel_is_the_loop(self, rule, grid, n_paths, seed, S0=100.0):
        z = paths_mod._draw_normals(seed, n_paths, len(grid) - 1)
        ref_S, ref_sig = self.sigma_state_loop(rule, S0, grid, z)
        assert np.array_equal(paths_mod._paths_from_normals(rule, S0, grid, z), ref_S)
        return ref_sig

    def test_paths_match_a_per_step_sigma_state_loop(self):
        # steps fall between the surface's time rows
        sig = self.assert_kernel_is_the_loop(butterfly_rule(), grid_of(173), 600, 31)
        # the rule switches: both band ends are used
        share_lo = float(np.mean(sig == BAND.sigma_lo))
        assert 0.5 < share_lo < 0.95
        assert np.all((sig == BAND.sigma_lo) | (sig == BAND.sigma_hi))

    @pytest.mark.parametrize("side", ["ask", "bid"])
    def test_constant_rule_matches_the_loop(self, side):
        # every row of a call's rule holds one band end
        surface = solve_bsb_pair(make_problem(BAND), GridSpec(100, 100))[side == "bid"]
        sig = self.assert_kernel_is_the_loop(bang_bang_control_from_surface(surface),
                                             grid_of(173), 600, 32)
        assert np.all(sig == (BAND.sigma_hi if side == "ask" else BAND.sigma_lo))

    @staticmethod
    def mixed_rule():
        """Constant rows, switching rows, and rows that differ from a
        constant one only at an end node, which the paths reach on three
        nodes."""
        lo, hi = BAND.sigma_lo, BAND.sigma_hi
        patterns = [(lo, lo, lo), (hi, lo, hi), (lo, lo, hi), (hi, hi, hi), (lo, hi, hi),
                    (hi, lo, lo)]
        times = grid_of(11)
        return BangBangRule(times=times, nodes=np.array([70.0, 100.0, 130.0]),
                            sigma_table=np.array([patterns[i % 6] for i in range(12)]),
                            mu_value=0.03, label="mixed", scale=np.exp(0.05 * (1.0 - times)))

    def test_mixed_table_matches_the_loop(self):
        rule = self.mixed_rule()
        sig = self.assert_kernel_is_the_loop(rule, grid_of(157), 800, 33)
        # the end node of the rows (lo, lo, hi) is reached: both ends used there
        steps = paths_mod._in_force(rule.times, grid_of(157)[:-1]) % 6 == 2
        assert set(np.unique(sig[:, steps])) == {BAND.sigma_lo, BAND.sigma_hi}

    @pytest.mark.parametrize("kind", ["call", "butterfly", "mixed"])
    def test_mc_ask_bid_prices_the_loop_paths(self, kind):
        # the estimate is, bitwise, the deflated payoff over the reference
        # loop's paths and sigmas, with mc_ask_bid's deflator expression
        if kind == "call":
            prob = make_problem(BAND)
            rule = bang_bang_control_from_surface(solve_bsb_ask(prob, GridSpec(100, 100)))
        else:
            prob = butterfly_problem()
            rule = butterfly_rule() if kind == "butterfly" else self.mixed_rule()
        grid, seed, n_paths, spot = grid_of(157), 34, 700, 100.0
        est, _ = mc_ask_bid(prob, [rule], grid, seed, spot, n_paths)

        z = paths_mod._draw_normals(seed, n_paths, len(grid) - 1)
        S, sig = self.sigma_state_loop(rule, spot, grid, z)
        r, tau = prob.rate, np.diff(grid)
        lam = paths_mod._market_price_of_risk(rule.mu_value - r, sig)
        h_T = np.exp(-(r * grid[-1] + 0.5 * np.sum(lam * lam * tau, axis=-1)
                       + np.einsum("...j,...j->...", z, lam * np.sqrt(tau))))
        y = h_T * prob.payoff(S[:, -1])
        assert est.value == float(np.mean(y))
        assert est.std_error == float(np.std(y, ddof=1) / math.sqrt(n_paths))

    @pytest.mark.parametrize("own_columns", [False, True], ids=["shared-z", "in-place"])
    def test_kernel_writes_a_path_major_matrix(self, own_columns):
        # the time-major layout is pinned above (a new matrix) and by
        # simulate_asset_paths (z is the matrix's own columns)
        rule, grid, S0 = self.mixed_rule(), grid_of(157), 100.0
        z = paths_mod._draw_normals(35, 500, len(grid) - 1)
        S = np.empty((500, len(grid)))
        if own_columns:
            S[:, 1:] = z
        got = paths_mod._paths_from_normals(rule, S0, grid, S[:, 1:] if own_columns else z, S)
        assert got is S
        assert np.array_equal(S, self.sigma_state_loop(rule, S0, grid, z)[0])

    def test_sigma_state_looks_up_only_rows_that_switch(self, monkeypatch):
        rule = self.mixed_rule()
        t = grid_of(157)[:-1]
        s = 100.0 * np.exp(np.random.default_rng(5).normal(0.0, 0.2, (300, len(t))))
        i = paths_mod._in_force(rule.times, t)
        every_node = rule.sigma_table[i, paths_mod._nearest_node(rule.nodes, s * rule.scale[i])]
        looked_up = []
        real = paths_mod._nearest_node
        monkeypatch.setattr(paths_mod, "_nearest_node",
                            lambda nodes, x: looked_up.append(np.size(x)) or real(nodes, x))
        assert np.array_equal(rule.sigma_state(t, s), every_node)
        switching = ~np.all(rule.sigma_table == rule.sigma_table[:, :1], axis=1)
        assert looked_up == [len(s) * np.count_nonzero(switching[i])] and 0 < looked_up[0] < s.size

    def test_nearest_node_ties_go_right(self):
        nodes = np.array([1.0, 2.0, 4.0])
        got = paths_mod._nearest_node(nodes, [0.0, 1.4, 1.5, 3.0, 3.1, 9.0])
        assert got.tolist() == [0, 0, 1, 2, 2, 2]


class TestOneDrawPerFamily:
    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = paths_mod._draw_normals

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(paths_mod, "_draw_normals", counted)
        return calls

    @pytest.mark.parametrize("extra, n_pieces", [
        (None, 32),  # the butterfly rule: its volatility may change at every step
        ([], 1),
        # pieces start at 0, 1/4 (first control's sigma) and 3/4 (second's mu;
        # its levels agree across 1/2, so no piece starts there)
        ([ControlProcess((0.0, 0.25), (0.1, 0.3), (0.05, 0.05)),
          ControlProcess((0.0, 0.5, 0.75), (0.2, 0.2, 0.2), (0.02, 0.02, 0.04))], 3),
    ], ids=["rule", "constants", "piecewise"])
    def test_mc_ask_bid_draws_once(self, draws, extra, n_pieces):
        family = default_control_family(BAND) + ([butterfly_rule()] if extra is None else extra)
        mc_ask_bid(butterfly_problem(), family, grid_of(32), seed=4, spot=100.0,
                   n_paths=200)
        assert draws == [(4, 200, n_pieces)]

    def test_tube_capacity_draws_once(self, draws):
        center = SampledPath(grid_of(64), 100.0 * np.exp(0.05 * grid_of(64)),
                             positive=True)
        family = default_control_family(BAND)[:4] + [butterfly_rule()]
        estimate_tube_capacity(center, 5.0, BAND, family, seed=6, n_paths=300)
        assert draws == [(6, 300, 64)]

    def test_family_leaves_the_shared_draw_unchanged(self, monkeypatch):
        # the rule runs first, so the time-based controls read z after it
        drawn = []
        real = paths_mod._draw_normals

        def kept(*args):
            z = real(*args)
            drawn.append((z, z.copy()))
            return z

        monkeypatch.setattr(paths_mod, "_draw_normals", kept)
        family = [butterfly_rule()] + default_control_family(BAND)[:3]
        mc_ask_bid(butterfly_problem(), family, grid_of(32), seed=4, spot=100.0, n_paths=200)
        center = SampledPath(grid_of(64), 100.0 * np.exp(0.05 * grid_of(64)), positive=True)
        estimate_tube_capacity(center, 5.0, BAND, family, seed=6, n_paths=300)
        assert len(drawn) == 2
        for z, before in drawn:
            assert z.tobytes() == before.tobytes()

    def test_family_capacity_is_the_best_single_control(self):
        center = SampledPath(grid_of(64), 100.0 * np.exp(0.05 * grid_of(64)),
                             positive=True)
        family = default_control_family(BAND) + [butterfly_rule()]
        alone = [estimate_tube_capacity(center, 6.0, BAND, [c], seed=8, n_paths=400)
                 for c in family]
        assert estimate_tube_capacity(center, 6.0, BAND, family, seed=8,
                                      n_paths=400) == max(alone)


def full_path_capacities(center, etas, controls, seed, n_paths):
    """The full-matrix estimate at each eta: every control's full paths
    from the kernel, the fraction of them inside the tube by np.mean."""
    grid = center.times
    S0 = float(center.values[0])
    z = paths_mod._draw_normals(seed, n_paths, len(grid) - 1)
    best = [0.0] * len(etas)
    for control in controls:
        S = paths_mod._paths_from_normals(control, S0, grid, z)
        sup = np.max(np.abs(S - center.values[None, :]), axis=1)  # NaN stays outside
        best = [max(b, float(np.mean(sup < eta))) for b, eta in zip(best, etas)]
    return best


class TestTubeCapacityToTheExit:
    """A time-based control simulates each path up to its tube exit and
    stops once it cannot beat the best control; the estimate is, bitwise,
    the full-matrix one."""

    ETAS = (0.0, 0.5, 2.0, 5.0, 8.0, 1e6)

    @staticmethod
    def center(kind):
        if kind == "sample":  # 512 steps
            return read_path_file(resources.files("bidask").joinpath("data/sample_path.csv"),
                                  positive=True)
        grid = grid_of(128)
        if kind == "gbm":
            return simulate_asset_paths(ControlProcess.constant(0.03, 0.2), 100.0, grid,
                                        seed=3, n_paths=1)[0]
        return SampledPath(grid, np.full(len(grid), 100.0), positive=True)

    @pytest.fixture(scope="class")
    def families(self):
        # breakpoints inside every grid, between and on chunk ends
        piecewise = [ControlProcess((0.0, 0.25), (0.3, 0.1), (0.01, 0.05), band=BAND),
                     ControlProcess((0.0, 0.375, 0.75), (0.1, 0.2, 0.12), (0.05, 0.02, 0.04),
                                    band=BAND)]
        constants = default_control_family(BAND)
        return {"constants": constants,
                "piecewise": piecewise + constants[::4],
                "rule": [ControlProcess.constant(0.05, 0.1, band=BAND), butterfly_rule()]
                + piecewise}

    @pytest.mark.parametrize("n_paths", [1, 200, 4097])  # 4097 crosses a draw block
    @pytest.mark.parametrize("family", ["constants", "piecewise", "rule"])
    @pytest.mark.parametrize("center", ["sample", "gbm", "flat"])
    def test_equals_the_full_path_estimate(self, families, center, family, n_paths):
        center, controls = self.center(center), families[family]
        got = [estimate_tube_capacity(center, eta, BAND, controls, seed=21, n_paths=n_paths)
               for eta in self.ETAS]
        assert got == full_path_capacities(center, self.ETAS, controls, 21, n_paths)

    @settings(max_examples=40, deadline=None)
    @given(n_steps=st.integers(1, 80), eta=st.floats(0.0, 20.0), n_paths=st.integers(1, 300),
           seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_random_grids_and_piecewise_controls(self, n_steps, eta, n_paths, seed, data):
        grid = grid_of(n_steps)
        center = SampledPath(grid, 100.0 * np.exp(0.05 * grid), positive=True)
        controls = []
        for _ in range(data.draw(st.integers(1, 4))):
            starts = data.draw(st.lists(st.integers(1, n_steps), max_size=3, unique=True))
            bps = (0.0,) + tuple(grid[sorted(i for i in starts if i < n_steps)])
            levels = st.floats(BAND.sigma_lo, BAND.sigma_hi)
            drifts = st.floats(BAND.mu_lo, BAND.mu_hi)
            controls.append(ControlProcess(
                bps, tuple(data.draw(levels) for _ in bps), tuple(data.draw(drifts) for _ in bps),
                band=BAND))
        got = estimate_tube_capacity(center, eta, BAND, controls, seed=seed, n_paths=n_paths)
        assert [got] == full_path_capacities(center, [eta], controls, seed, n_paths)

    def test_one_point_center(self):
        # no steps to march: the start alone decides, inside when eta > 0
        center = SampledPath([0.0], [100.0], positive=True)
        controls = [ControlProcess.constant(0.05, 0.2)]
        got = [estimate_tube_capacity(center, eta, BAND, controls, seed=1, n_paths=5)
               for eta in (0.0, 1.0)]
        assert got == full_path_capacities(center, (0.0, 1.0), controls, 1, 5) == [0.0, 1.0]


def selection_table(surface):
    """The rule's table built entry by entry from the march's selection
    record: row i from march step n - 1 - i (the maturity row from step 0),
    an end node from its neighbour, True (candidate 1) as sigma_hi."""
    n = len(surface.times) - 1
    m = len(surface.space_nodes)
    band = surface.band
    table = np.empty((n + 1, m))
    for i in range(n + 1):
        step = n - 1 - min(i, n - 1)
        for j in range(m):
            picked = surface.selection[step, min(max(j, 1), m - 2) - 1]
            table[i, j] = band.sigma_hi if picked else band.sigma_lo
    return table


class TestSigmaTable:
    @pytest.mark.parametrize("payoff", ["call", "butterfly"])
    @pytest.mark.parametrize("side", ["ask", "bid"])
    def test_rows_are_the_mapped_selection_record(self, payoff, side):
        prob = make_problem(BAND) if payoff == "call" else butterfly_problem()
        surface = solve_bsb_pair(prob, GridSpec(120, 90))[side == "bid"]
        rule = bang_bang_control_from_surface(surface)
        assert np.array_equal(rule.sigma_table, selection_table(surface))
        if payoff == "butterfly":  # the rule switches: both ends are picked
            assert set(np.unique(rule.sigma_table)) == {BAND.sigma_lo, BAND.sigma_hi}

    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    @pytest.mark.parametrize("n", [100, 400])
    def test_call_rules_hold_one_band_end(self, n, stretching):
        # the kink decides the start and the wings keep it: no round-off cell
        ask, bid = solve_bsb_pair(make_problem(BAND), GridSpec(n, n, stretching))
        assert np.all(bang_bang_control_from_surface(ask).sigma_table == BAND.sigma_hi)
        assert np.all(bang_bang_control_from_surface(bid).sigma_table == BAND.sigma_lo)

    def test_surface_without_a_selection_record_is_rejected(self):
        surface = solve_bsb_ask(make_problem(BAND), GridSpec(32, 16))
        hand_built = PriceSurface(surface.times, surface.space_nodes, surface.values, "ask",
                                  band=BAND, rate=0.05)
        with pytest.raises(ValueError, match="selection record"):
            bang_bang_control_from_surface(hand_built)


class TestDeltaHedge:
    def test_each_row_is_the_one_path_hedge(self):
        surface = solve_bsb_ask(butterfly_problem(), GridSpec(120, 90))
        grid = grid_of(150)
        paths = simulate_asset_paths(ControlProcess.constant(0.03, 0.2, band=BAND), 100.0,
                                     grid, seed=41, n_paths=50)
        wealth = paths_mod._delta_hedge(surface, grid, paths.values)
        u = surface.value_at(grid, paths.values.T).T
        for j, path in enumerate(paths):
            rep = hedge_verify(surface, path)
            assert np.array_equal(wealth[j], rep.wealth.values)
            assert np.array_equal(wealth[j] - u[j], rep.cost.values)


class TestPathEnsemble:
    def test_sequence_of_row_views(self):
        values = np.arange(12.0).reshape(3, 4) + 1.0
        ens = PathEnsemble(grid_of(3), values, positive=True)
        assert len(ens) == 3
        assert isinstance(ens[1], SampledPath)
        assert np.array_equal(ens[1].values, values[1])
        assert np.array_equal(ens[-1].values, values[2])
        assert ens[0].times is ens.times and ens[0].positive
        assert [p.values[-1] for p in ens] == [4.0, 8.0, 12.0]
        with pytest.raises(IndexError):
            ens[3]

    def test_slice_is_an_ensemble(self):
        ens = PathEnsemble(grid_of(3), np.arange(12.0).reshape(3, 4), positive=False)
        part = ens[1:]
        assert isinstance(part, PathEnsemble)
        assert len(part) == 2 and np.array_equal(part.values, ens.values[1:])
        assert part.times is ens.times

    def test_integer_like_index_gives_a_row(self):
        values = np.arange(12.0).reshape(3, 4)
        ens = PathEnsemble(grid_of(3), values)
        assert np.array_equal(ens[np.int64(2)].values, values[2])
        assert np.array_equal(ens[np.array(1)].values, values[1])

    @pytest.mark.parametrize("index", [[0, 1], np.array([0, 1]), (0, 1), 1.0,
                                       np.array([True, False, True]), None],
                             ids=["list", "array", "tuple", "float", "mask", "none"])
    def test_other_index_raises_type_error(self, index):
        # each once gave a SampledPath whose values were not one path
        ens = PathEnsemble(grid_of(3), np.arange(12.0).reshape(3, 4))
        with pytest.raises(TypeError):
            ens[index]

    def test_one_point_grid(self):
        ens = PathEnsemble([0.0], [[1.0], [2.0]])
        assert len(ens) == 2 and len(ens[0]) == 1 and ens[1].horizon == 0.0

    @pytest.mark.parametrize("times, values, positive, message", [
        (grid_of(3), np.ones(4), False, "2-d"),
        (grid_of(3), np.ones((2, 5)), False, "one value per time"),
        (np.ones((1, 4)), np.ones((2, 4)), False, "1-d"),
        (np.array([0.5, 1.0]), np.ones((2, 2)), False, "start at 0"),
        (np.array([0.0, 1.0, 1.0]), np.ones((2, 3)), False, "strictly increasing"),
        (grid_of(2), np.array([[1.0, 2.0, 3.0], [1.0, 0.0, 1.0]]), True, "nonpositive"),
    ])
    def test_checked_once_as_a_sampled_path_is(self, times, values, positive, message):
        with pytest.raises(ValueError, match=message):
            PathEnsemble(times, values, positive=positive)


class TestSimulatorsReturnTheirMatrix:
    @pytest.mark.parametrize("control", [
        ControlProcess((0.0, 0.25), (0.1, 0.3), (0.01, 0.05), band=BAND),
        "rule",
    ])
    def test_asset_paths(self, control):
        control = butterfly_rule() if control == "rule" else control
        grid = grid_of(64)
        ens = simulate_asset_paths(control, 100.0, grid, seed=5, n_paths=40)
        S = paths_mod._paths_from_normals(control, 100.0, grid,
                                          paths_mod._draw_normals(5, 40, 64))
        assert isinstance(ens, PathEnsemble)
        assert np.array_equal(ens.times, grid) and np.array_equal(ens.values, S)

    def test_driving_increments(self):
        control = ControlProcess((0.0, 0.5), (0.3, 0.1), (0.01, 0.03), band=BAND)
        grid = grid_of(32)
        ens = simulate_gbm_increments(control, grid, seed=6, n_paths=30)
        z = paths_mod._draw_normals(6, 30, 32)
        sig, _ = paths_mod._step_levels(control, grid)
        assert isinstance(ens, PathEnsemble)
        assert np.all(ens.values[:, 0] == 0.0)
        assert np.array_equal(ens.values[:, 1:],
                              np.cumsum(sig * np.sqrt(np.diff(grid)) * z, axis=1))

    def test_ensemble_file(self, tmp_path):
        ens = simulate_asset_paths(ControlProcess.constant(0.05, 0.2), 100.0, grid_of(8),
                                   seed=2, n_paths=3)
        write_ensemble_file(ens, tmp_path / "e.csv")
        got = read_ensemble_file(tmp_path / "e.csv", positive=True)
        assert isinstance(got, PathEnsemble) and got.values.shape == (3, 9) and got.positive


class TestBlockDraw:
    """Every draw equals, bitwise, its rows of whole blocks, each block
    drawn in full from its own counter-offset stream."""

    @staticmethod
    def by_block(seed, n_paths, n_steps):
        z = np.empty((n_paths, n_steps))
        for block, lo in enumerate(range(0, n_paths, 4096)):
            full = paths_mod._block_rng(seed, block).standard_normal((4096, n_steps))
            z[lo:lo + 4096] = full[:n_paths - lo]
        return z

    @pytest.mark.parametrize("n_paths", [1, 4096, 4097, 3 * 4096 + 17, 20000])
    def test_equals_the_block_loop(self, n_paths):
        assert paths_mod._RNG_BLOCK == 4096
        assert np.array_equal(paths_mod._draw_normals(9, n_paths, 24),
                              self.by_block(9, n_paths, 24))


def full_matrix_paths(control, S0, grid, seed, n_paths):
    """The kernel's reference: one path-major draw, then a time-based
    control's paths by its full-matrix formula, a rule's by the per-step
    ``sigma_state`` loop."""
    z = paths_mod._draw_normals(seed, n_paths, len(grid) - 1)
    if isinstance(control, BangBangRule):
        return TestTableDrivenAdversary.sigma_state_loop(control, S0, grid, z)[0]
    dt = np.diff(grid)
    sig, mu = paths_mod._step_levels(control, grid)
    log_inc = (mu - 0.5 * sig * sig) * dt + sig * np.sqrt(dt) * z
    S = np.empty((n_paths, len(grid)))
    S[:, 0] = S0
    S[:, 1:] = S0 * np.exp(np.cumsum(log_inc, axis=1))
    return S


def full_matrix_hedge(surface, times, S):
    """The batch hedge's reference: every theta, c and a of the batch at
    once, then one cumulative sum over all dates."""
    r = surface.rate
    S = np.ascontiguousarray(S.T)
    theta = surface.delta_at(times[:-1], S[:-1])
    dt = np.diff(times)[:, None]
    growth = np.concatenate(([[1.0]], np.cumprod(1.0 + r * dt, axis=0)))
    c = theta * (np.diff(S, axis=0) - S[:-1] * r * dt)
    a = np.concatenate((surface.value_at(times[0], S[:1]), c / growth[1:]))
    return (np.cumsum(a, axis=0) * growth).T


# chunk and block edges of the draw: 256-path chunks, 4096-path blocks
DRAW_EDGES = [1, 255, 256, 257, 4096, 4097, 2 * 4096 + 300]


class TestDrawIntoTheKernelsLayout:
    """Simulators draw straight into the matrix they return, a chunk of
    paths at a time, and step it in place; every value is, bitwise, the
    full-matrix one from a path-major draw."""

    @pytest.mark.parametrize("n_paths", DRAW_EDGES)
    def test_chunked_draw_continues_each_block_stream(self, n_paths):
        z = paths_mod._draw_normals(13, n_paths, 5)
        view = np.empty((5, n_paths)).T  # time-major
        assert paths_mod._draw_normals(13, n_paths, 5, out=view) is view
        assert np.array_equal(view, z)
        with_start = np.empty((n_paths, 6))  # path-major rows with a column before
        paths_mod._draw_normals(13, n_paths, 5, out=with_start[:, 1:])
        assert np.array_equal(with_start[:, 1:], z)

    @pytest.mark.parametrize("n_paths", DRAW_EDGES)
    @pytest.mark.parametrize("kind", ["rule", "constant", "piecewise"])
    def test_asset_paths_are_the_full_matrix_ones(self, kind, n_paths):
        control = {"rule": butterfly_rule(),
                   "constant": ControlProcess.constant(0.03, 0.2, band=BAND),
                   "piecewise": ControlProcess((0.0, 0.25, 0.5), (0.1, 0.3, 0.2),
                                               (0.01, 0.05, 0.02), band=BAND)}[kind]
        grid = grid_of(12)
        ens = simulate_asset_paths(control, 100.0, grid, seed=17, n_paths=n_paths)
        assert np.array_equal(ens.values, full_matrix_paths(control, 100.0, grid, 17, n_paths))
        # the layout that reductions over the ensemble read, which fixes
        # their summation order: time-major for a rule, path-major otherwise
        flags = ens.values.flags
        assert flags.f_contiguous if kind == "rule" else flags.c_contiguous

    def test_time_based_kernel_writes_a_time_major_matrix(self):
        control = ControlProcess((0.0, 0.25, 0.5), (0.1, 0.3, 0.2), (0.01, 0.05, 0.02))
        grid = grid_of(12)
        z = paths_mod._draw_normals(17, 300, 12)
        S = np.empty((len(grid), 300)).T
        assert paths_mod._paths_from_normals(control, 100.0, grid, z, S) is S
        assert np.array_equal(S, full_matrix_paths(control, 100.0, grid, 17, 300))

    @pytest.mark.parametrize("n_paths", DRAW_EDGES)
    def test_driving_increments_are_the_full_matrix_ones(self, n_paths):
        control = ControlProcess((0.0, 0.5), (0.3, 0.1), (0.01, 0.03), band=BAND)
        grid = grid_of(12)
        ens = simulate_gbm_increments(control, grid, seed=18, n_paths=n_paths)
        z = paths_mod._draw_normals(18, n_paths, 12)
        sig, _ = paths_mod._step_levels(control, grid)
        want = np.concatenate((np.zeros((n_paths, 1)),
                               np.cumsum(sig * np.sqrt(np.diff(grid)) * z, axis=1)), axis=1)
        assert np.array_equal(ens.values, want) and ens.values.flags.c_contiguous

    @pytest.fixture(scope="class")
    def surfaces(self):
        return {r: solve_bsb_ask(make_problem(BAND, rate=r), GridSpec(100, 100))
                for r in (0.0, 0.05)}

    @pytest.mark.parametrize("layout", ["path", "time"])
    @pytest.mark.parametrize("n_paths", [1, 7, 1024])  # 1024 paths: 64-date blocks
    @pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_hedge_is_the_full_matrix_one(self, surfaces, r, n_steps, n_paths, layout):
        surface, grid = surfaces[r], grid_of(n_steps)
        S = simulate_asset_paths(ControlProcess.constant(0.03, 0.2, band=BAND), 100.0, grid,
                                 seed=19, n_paths=n_paths).values
        if layout == "time":
            S = np.asfortranarray(S)
        assert paths_mod._delta_hedge(surface, grid, S).tobytes() == \
            full_matrix_hedge(surface, grid, S).tobytes()

    @staticmethod
    def traced_peak(call):
        import tracemalloc

        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_rule_simulation_holds_its_paths_and_one_chunk(self):
        # 2000 x 500: the paths are 8.0 MB, one chunk of normals 1.0 MB; a
        # full path-major draw beside the paths would add 8.0 MB
        rule = bang_bang_control_from_surface(solve_bsb_ask(make_problem(BAND), GridSpec(64, 64)))
        ens, peak = self.traced_peak(
            lambda: simulate_asset_paths(rule, 100.0, grid_of(500), seed=20, n_paths=2000))
        assert peak <= ens.values.nbytes + 1.5e6

    def test_time_based_simulation_holds_its_paths_and_one_chunk(self):
        # 1000 x 256: 2.1 MB of paths and 0.5 MB of chunk
        ens, peak = self.traced_peak(
            lambda: simulate_asset_paths(ControlProcess.constant(0.03, 0.2), 100.0,
                                         grid_of(256), seed=21, n_paths=1000))
        assert peak <= ens.values.nbytes + 1.0e6

    def test_hedge_holds_its_wealth_and_a_few_blocks(self, surfaces):
        # 1000 x 1000: 8.0 MB of wealth; 65-date blocks of 0.5 MB each.  A
        # batch-sized theta, c or a would add 8.0 MB each
        grid = grid_of(1000)
        S = simulate_asset_paths(bang_bang_control_from_surface(surfaces[0.05]), 100.0, grid,
                                 seed=22, n_paths=1000).values
        Y, peak = self.traced_peak(lambda: paths_mod._delta_hedge(surfaces[0.05], grid, S))
        assert peak <= Y.nbytes + 2.5e6


class TestPositiveCheck:
    """A positive path's check reads the minimum: it rejects a
    nonpositive value or a NaN, warns of neither, and passes an empty
    ensemble."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, -math.inf])
    def test_rejects_a_bad_value_anywhere(self, bad):
        values = np.full((3, 5), 2.0)
        values[2, 3] = bad
        with pytest.raises(ValueError, match="nonpositive or NaN"):
            PathEnsemble(grid_of(4), values, positive=True)
        with pytest.raises(ValueError, match="nonpositive or NaN"):
            SampledPath(grid_of(4), values[2], positive=True)

    def test_empty_slice_of_a_positive_ensemble(self):
        ens = simulate_asset_paths(ControlProcess.constant(0.03, 0.2), 100.0, grid_of(4),
                                   seed=1, n_paths=2)
        assert len(ens[5:]) == 0 and ens[5:].positive
