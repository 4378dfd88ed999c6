"""Finite-difference solver tests against closed-form and structural oracles."""

import io
import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.special import ndtr

from bidask import (
    GridSpec,
    NumericalFailure,
    PriceSurface,
    PricingProblem,
    ScalarFunctionSpec,
    UncertaintyBand,
    black_scholes_closed_form,
    g_normal_expectation,
    solve_bsb_ask,
    solve_bsb_bid,
    solve_bsb_pair,
    solve_g_heat,
    write_surface_file,
)
from bidask import pde

S0 = 100.0
K = 100.0
R = 0.05
T = 1.0


def log_domain(sigma_hi, maturity=T, spot=S0):
    half = 8.0 * sigma_hi * math.sqrt(maturity)
    return (spot * math.exp(-half), spot * math.exp(half))


def call_problem(band, rate=R, maturity=T, strike=K):
    return PricingProblem(ScalarFunctionSpec.call(strike), maturity, rate, band,
                          log_domain(band.sigma_hi, maturity))


BAND_FLAT = UncertaintyBand(0.01, 0.05, 0.2, 0.2)
BAND_WIDE = UncertaintyBand(0.01, 0.05, 0.1, 0.3)
BUTTERFLY = ScalarFunctionSpec.piecewise_linear(
    [(60.0, 0.0), (80.0, 0.0), (100.0, 20.0), (120.0, 0.0), (140.0, 0.0)])


def butterfly_problem(band):
    return PricingProblem(BUTTERFLY, T, R, band, log_domain(band.sigma_hi))


class TestClosedForm:
    def test_published_atm_value(self):
        # frozen reference: S=K=100, r=5%, sigma=20%, T=1
        assert black_scholes_closed_form(100, 100, 0.05, 0.2, 1.0, "call") == \
            pytest.approx(10.4506, abs=5e-5)

    def test_deterministic_limit(self):
        v = black_scholes_closed_form(100, 80, 0.05, 1e-10, 1.0, "call")
        assert v == pytest.approx(100 - 80 * math.exp(-0.05), rel=1e-12)

    def test_put_call_parity(self):
        c = black_scholes_closed_form(100, 90, 0.03, 0.25, 2.0, "call")
        p = black_scholes_closed_form(100, 90, 0.03, 0.25, 2.0, "put")
        assert c - p == pytest.approx(100 - 90 * math.exp(-0.06), rel=1e-12)

    def test_matches_the_ndtr_form(self):
        # the normal CDF is 0.5 erfc(-d sqrt(1/2)); scipy's ndtr form, built
        # here, agrees to 1e-15 relative to the larger of the value and the
        # spot (an out-of-the-money value, a difference of two CDF terms,
        # can lose digits relative to itself in either form)
        grid = itertools.product((50.0, 90.0, 100.0, 110.0, 200.0), (60.0, 100.0, 150.0),
                                 (-0.02, 0.0, 0.05), (0.05, 0.2, 0.6), (0.01, 0.5, 1.0, 5.0))
        for S, K, r, sig, T in grid:
            srt = sig * math.sqrt(T)
            d1 = (math.log(S / K) + (r + 0.5 * sig * sig) * T) / srt
            disc = K * math.exp(-r * T)
            call = float(S * ndtr(d1) - disc * ndtr(d1 - srt))
            put = float(disc * ndtr(srt - d1) - S * ndtr(-d1))
            for kind, want in (("call", call), ("put", put)):
                assert black_scholes_closed_form(S, K, r, sig, T, kind) == \
                    pytest.approx(want, rel=1e-15, abs=1e-15 * S)

    def test_out_of_the_money_put_matches_mpmath(self):
        # the put is K e^{-rT} N(-d2) - S N(-d1), two terms at most ~93 times
        # the put on this grid (d/(sigma sqrt T) <= 93), each good to a few
        # ulps (d^2 of them from rounding erfc's argument): 2e-13 at worst.
        # Parity, call - S + K e^{-rT}, errs by ulps of S: 1e-8 at the deepest
        import mpmath
        grid = itertools.product((80.0, 90.0, 95.0), (0.0, 0.03), (0.1, 0.2, 0.3),
                                 (0.25, 1.0, 2.0))
        with mpmath.workdps(50):
            for K, r, sig, T in grid:
                S, srt = mpmath.mpf(100), mpmath.mpf(sig) * mpmath.sqrt(T)
                d1 = (mpmath.log(S / K) + (r + mpmath.mpf(sig) ** 2 / 2) * T) / srt
                want = (K * mpmath.exp(-mpmath.mpf(r) * T) * mpmath.ncdf(srt - d1)
                        - S * mpmath.ncdf(-d1))
                assert black_scholes_closed_form(100.0, K, r, sig, T, "put") == \
                    pytest.approx(float(want), rel=5e-13, abs=0)

    def test_rejects_nonpositive_inputs(self):
        for bad in [dict(spot=-1.0), dict(sigma=0.0), dict(T=0.0), dict(strike=0.0)]:
            kw = dict(spot=100.0, strike=100.0, r=0.05, sigma=0.2, T=1.0)
            kw.update(bad)
            with pytest.raises(ValueError):
                black_scholes_closed_form(kw["spot"], kw["strike"], kw["r"],
                                          kw["sigma"], kw["T"], "call")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            black_scholes_closed_form(100, 100, 0.05, 0.2, 1.0, "straddle")


class TestValidation:
    def test_grid_too_coarse(self):
        with pytest.raises(ValueError):
            GridSpec(8, 100)
        with pytest.raises(ValueError):
            GridSpec(100, 8)

    def test_unknown_stretching(self):
        with pytest.raises(ValueError):
            GridSpec(100, 100, "chebyshev")

    def test_problem_rejects_negative_payoff(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PricingProblem(ScalarFunctionSpec.negation(), 1.0, 0.05, BAND_FLAT,
                           (1.0, 200.0))

    @pytest.mark.parametrize("payoff, domain", [
        (ScalarFunctionSpec.power(400.0), (20.0, 500.0)),    # overflows at the top
        (ScalarFunctionSpec.power(1e308), (20.0, 500.0)),
        (ScalarFunctionSpec.power(-1.0), (0.0, 500.0)),      # divides by 0 at the bottom
        (ScalarFunctionSpec.power(-1.0).negated(), (0.0, 500.0)),  # -inf, with a finite max
    ], ids=["400", "1e308", "-1", "-1_negated"])
    def test_problem_rejects_a_payoff_that_is_not_finite(self, payoff, domain):
        # no numpy warning escapes: the suite turns warnings into errors
        with pytest.raises(ValueError, match="power payoff is not finite on the spot domain"):
            PricingProblem(payoff, 1.0, 0.05, BAND_FLAT, domain)

    def test_problem_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            PricingProblem(ScalarFunctionSpec.call(100.0), 1.0, 0.05, BAND_FLAT,
                           (-1.0, 200.0))
        with pytest.raises(ValueError):
            PricingProblem(ScalarFunctionSpec.call(100.0), 1.0, 0.05, BAND_FLAT,
                           (200.0, 100.0))

    def test_problem_rejects_nonpositive_maturity(self):
        with pytest.raises(ValueError):
            PricingProblem(ScalarFunctionSpec.call(100.0), 0.0, 0.05, BAND_FLAT,
                           (1.0, 200.0))

    def test_payoff_dip_between_probe_points_rejected(self):
        # negative only on (500.35, 500.65): no point of a 1025-point probe
        # of [1, 1025] lands there, the exact minimum does
        dip = ScalarFunctionSpec.piecewise_linear(
            [(1.0, 1.0), (500.2, 1.0), (500.5, -1.0), (500.8, 1.0), (1025.0, 1.0)])
        with pytest.raises(ValueError, match="nonnegative"):
            PricingProblem(dip, 1.0, 0.05, BAND_FLAT, (1.0, 1025.0))

    def test_problem_rejects_rate_past_float_range(self):
        # the domain carried to maturity, x e^{rT}, must stay a float range
        for rate in (800.0, -800.0):
            with pytest.raises(ValueError, match="float range"):
                PricingProblem(ScalarFunctionSpec.call(100.0), 1.0, rate, BAND_FLAT,
                               (1.0, 200.0))

    def test_log_grid_needs_positive_domain(self):
        prob = PricingProblem(ScalarFunctionSpec.call(100.0), 1.0, 0.05, BAND_FLAT,
                              (0.0, 400.0))
        with pytest.raises(ValueError, match="positive"):
            solve_bsb_ask(prob, GridSpec(64, 64, "uniform_log"))

    def test_surface_shape_mismatch(self):
        with pytest.raises(ValueError):
            PriceSurface(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                         np.zeros((3, 2)), "ask")

    @pytest.mark.parametrize("times, nodes", [([0.0, math.nan, 1.0], [1.0, 2.0]),
                                              ([0.0, 0.5, 1.0], [1.0, math.nan])],
                             ids=["nan_time", "nan_node"])
    def test_surface_grids_must_be_finite(self, times, nodes):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            PriceSurface(np.array(times), np.array(nodes), np.zeros((3, 2)), "ask")


class TestBlackScholesReduction:
    def test_atm_call_within_a_tenth_percent(self):
        ask, bid = solve_bsb_pair(call_problem(BAND_FLAT), GridSpec(400, 400))
        oracle = black_scholes_closed_form(S0, K, R, 0.2, T, "call")
        assert ask.value_at(0.0, S0) == pytest.approx(oracle, rel=1e-3)
        assert bid.value_at(0.0, S0) == pytest.approx(oracle, rel=1e-3)

    def test_ask_equals_bid_when_band_flat(self):
        ask, bid = solve_bsb_pair(call_problem(BAND_FLAT), GridSpec(200, 200))
        assert np.allclose(ask.values, bid.values, atol=1e-9 * S0)

    def test_put_reduction(self):
        prob = PricingProblem(ScalarFunctionSpec.put(K), T, R, BAND_FLAT,
                              log_domain(0.2))
        ask = solve_bsb_ask(prob, GridSpec(400, 400))
        oracle = black_scholes_closed_form(S0, K, R, 0.2, T, "put")
        assert ask.value_at(0.0, S0) == pytest.approx(oracle, rel=1.5e-3)

    def test_grid_convergence_first_order_or_better(self):
        oracle = black_scholes_closed_form(S0, K, R, 0.2, T, "call")
        errs = []
        for n in (100, 200, 400):
            ask = solve_bsb_ask(call_problem(BAND_FLAT), GridSpec(n, n))
            errs.append(abs(ask.value_at(0.0, S0) - oracle))
        assert errs[0] / errs[1] >= 2.0
        assert errs[1] / errs[2] >= 2.0

    def test_uniform_price_stretching(self):
        prob = PricingProblem(ScalarFunctionSpec.call(K), T, R, BAND_FLAT,
                              (20.0, 320.0))
        ask = solve_bsb_ask(prob, GridSpec(400, 400, "uniform_price"))
        oracle = black_scholes_closed_form(S0, K, R, 0.2, T, "call")
        assert ask.value_at(0.0, S0) == pytest.approx(oracle, rel=5e-3)


class TestConvexEndpoints:
    def test_call_ask_hits_upper_vol(self):
        ask = solve_bsb_ask(call_problem(BAND_WIDE), GridSpec(400, 400))
        oracle = black_scholes_closed_form(S0, K, R, 0.3, T, "call")
        assert ask.value_at(0.0, S0) == pytest.approx(oracle, rel=2e-3)

    def test_call_bid_hits_lower_vol(self):
        bid = solve_bsb_bid(call_problem(BAND_WIDE), GridSpec(400, 400))
        oracle = black_scholes_closed_form(S0, K, R, 0.1, T, "call")
        assert bid.value_at(0.0, S0) == pytest.approx(oracle, rel=2e-3)

    def test_scheme_preserves_convexity(self):
        # convex to roundoff on the inner +-6 sigma core; the layer where the
        # Dirichlet asymptote truncates the domain may dip by its O(1e-6)
        # error, diffused O(sigma sqrt(T)/h) nodes inward
        ask = solve_bsb_ask(call_problem(BAND_WIDE), GridSpec(200, 200))
        x = ask.space_nodes
        for i in (0, 50, 100, 150, 200):
            u = ask.values[i]
            hm = x[1:-1] - x[:-2]
            hp = x[2:] - x[1:-1]
            d2 = 2.0 * ((u[2:] - u[1:-1]) / hp - (u[1:-1] - u[:-2]) / hm) / (hm + hp)
            assert d2[32:-32].min() >= -1e-10
            assert d2.min() >= -1e-6


class TestStructure:
    def test_linear_payoff_is_forward_value(self):
        # d2u/dx2 = 0 makes the equation linear; u(t, x) = x at every time,
        # read on slice i's own spots
        prob = PricingProblem(ScalarFunctionSpec.identity(), T, R, BAND_WIDE,
                              log_domain(0.3))
        ask = solve_bsb_ask(prob, GridSpec(200, 200))
        for i in (0, 77, 200):
            spots = ask.space_nodes * np.exp(-R * (T - ask.times[i]))
            assert np.allclose(ask.values[i], spots, rtol=1e-12, atol=0.0)

    def test_zero_payoff_stays_zero(self):
        zero = ScalarFunctionSpec.piecewise_linear([(1.0, 0.0), (1000.0, 0.0)])
        prob = PricingProblem(zero, T, R, BAND_WIDE, log_domain(0.3))
        bid = solve_bsb_bid(prob, GridSpec(100, 100))
        assert np.all(bid.values == 0.0)

    def test_terminal_slice_is_exact_payoff(self):
        ask = solve_bsb_ask(call_problem(BAND_WIDE), GridSpec(150, 64))
        payoff = ScalarFunctionSpec.call(K)(ask.space_nodes)
        assert np.array_equal(ask.values[-1], payoff)

    def test_strike_node_is_snapped(self):
        ask = solve_bsb_ask(call_problem(BAND_WIDE), GridSpec(150, 64))
        assert np.min(np.abs(ask.space_nodes - K)) == 0.0

    def test_ask_dominates_bid_pointwise(self):
        ask, bid = solve_bsb_pair(call_problem(BAND_WIDE), GridSpec(150, 150))
        assert np.all(ask.values - bid.values >= -1e-8)

    def test_band_widening_monotonicity(self):
        base_ask, base_bid = solve_bsb_pair(call_problem(BAND_WIDE), GridSpec(100, 100))
        wider = UncertaintyBand(0.01, 0.05, 0.05, 0.35)
        prob = PricingProblem(ScalarFunctionSpec.call(K), T, R, wider,
                              log_domain(0.3))  # same domain, same nodes
        wide_ask, wide_bid = solve_bsb_pair(prob, GridSpec(100, 100))
        assert np.all(wide_ask.values - base_ask.values >= -1e-8)
        assert np.all(wide_bid.values - base_bid.values <= 1e-8)

    def test_comparison_principle(self):
        lo = PricingProblem(ScalarFunctionSpec.call(110.0), T, R, BAND_WIDE,
                            log_domain(0.3))
        hi = PricingProblem(ScalarFunctionSpec.call(90.0), T, R, BAND_WIDE,
                            log_domain(0.3))
        u_lo = solve_bsb_ask(lo, GridSpec(100, 100))
        u_hi = solve_bsb_ask(hi, GridSpec(100, 100))
        assert np.all(u_hi.values - u_lo.values >= -1e-8)
        b_lo = solve_bsb_bid(lo, GridSpec(100, 100))
        b_hi = solve_bsb_bid(hi, GridSpec(100, 100))
        assert np.all(b_hi.values - b_lo.values >= -1e-8)


def widened(band):
    """Acceptance criterion 3's wider band: sigma_lo - 0.03, sigma_hi + 0.05."""
    return UncertaintyBand(band.mu_lo, band.mu_hi, max(0.0, band.sigma_lo - 0.03),
                           band.sigma_hi + 0.05)


# Problems 10 and 45 of acceptance criterion 3 (seed 20240811).  Widened,
# their sigma_lo is about 0.02 with r > 0, so the variance band straddles
# the central-difference admissibility threshold of many nodes.
PUT_10 = (ScalarFunctionSpec.put(110.60468671163636), 0.7341472368246068,
          0.03514863480687804,
          UncertaintyBand(0.0, 0.03516906218478931, 0.052889107353801694,
                          0.28608268954980925))
HAT_45 = (ScalarFunctionSpec.piecewise_linear(
              [(42.769094824206505, 0.0), (68.9216885030973, 0.0),
               (95.07428218198808, 15.73150709871304),
               (121.22687586087886, 0.0), (147.37946953976967, 0.0)]),
          0.5322305669641288, 0.05398767925233879,
          UncertaintyBand(0.0, 0.054796864070180605, 0.050035314997968226,
                          0.21343832869509216))
# Problems 11 and 33 of the same draw: widened, at r = 0 on a 128^2
# uniform_price grid, their asks make 1.70 and 1.78 solves per step, the
# most of the draw.
PIECE_11 = (ScalarFunctionSpec.piecewise_linear(
                [(50.0, 1.6844354318879906), (75.99837840232667, 1.6844354318879906),
                 (80.26617283976417, 23.356136593423283),
                 (131.86409836283502, 19.97788208462693),
                 (133.79208721047877, 6.457417587138976),
                 (151.17983504849377, 16.628442892894768), (170.0, 16.628442892894768)]),
            0.5094476491688043, 0.06879997533038555,
            UncertaintyBand(0.0, 0.06692592916753784, 0.1705594095364379,
                            0.2877530816867874))
PIECE_33 = (ScalarFunctionSpec.piecewise_linear(
                [(50.0, 29.99146989321111), (64.75836558084953, 29.99146989321111),
                 (90.73922907246714, 25.122140486222765),
                 (107.12653512813844, 27.968045110745084),
                 (117.45313782296485, 3.5788693329343815),
                 (133.8104970808019, 12.220734179878782), (170.0, 12.220734179878782)]),
            1.5961645100204453, 0.055920246585442604,
            UncertaintyBand(0.0, 0.07166113504246589, 0.1498470292002374,
                            0.20591865903995443))


def criterion3_pair(case, band, stretching):
    payoff, maturity, rate, base = case
    domain = log_domain(widened(base).sigma_hi, maturity)
    prob = PricingProblem(payoff, maturity, rate, band, domain)
    return solve_bsb_pair(prob, GridSpec(128, 128, stretching))


class TestPolicyIteration:
    @pytest.mark.parametrize("case", [PUT_10, HAT_45], ids=["put_10", "hat_45"])
    def test_howard_selection_converges_across_threshold(self, case):
        ask, bid = criterion3_pair(case, widened(case[3]), "uniform_log")
        scale = max(1.0, float(np.abs(ask.values).max()))
        assert np.all(ask.values - bid.values >= -1e-9 * scale)

    def test_widening_band_is_monotone_on_price_grid(self):
        ask, bid = criterion3_pair(PUT_10, PUT_10[3], "uniform_price")
        ask_w, bid_w = criterion3_pair(PUT_10, widened(PUT_10[3]), "uniform_price")
        tol = 1e-9 * max(1.0, float(np.abs(ask.values).max()))
        assert np.all(ask_w.values - ask.values >= -tol)
        assert np.all(bid_w.values - bid.values <= tol)

    def test_non_convergence_reports_true_diagnostics(self, monkeypatch):
        monkeypatch.setattr(pde, "POLICY_MAX_ITERS", 1)
        with pytest.raises(NumericalFailure) as info:
            solve_bsb_bid(call_problem(BAND_WIDE), GridSpec(64, 48, "uniform_price"))
        diag = info.value.diagnostics
        assert diag["residual"] > 0.0
        assert diag["step"] == 0
        assert (diag["side"], diag["stretching"]) == ("bid", "uniform_price")
        assert (diag["n_space"], diag["n_time"]) == (64, 48)

    def test_failure_carries_the_payoff(self, monkeypatch):
        # the diagnostics alone rebuild the failing call
        monkeypatch.setattr(pde, "POLICY_MAX_ITERS", 1)
        put = ScalarFunctionSpec.put(K)
        with pytest.raises(NumericalFailure) as info:
            solve_bsb_ask(PricingProblem(put, T, R, BAND_WIDE, log_domain(0.3)),
                          GridSpec(64, 48))
        assert info.value.diagnostics["payoff"] == put
        phi = ScalarFunctionSpec.call(0.1)
        with pytest.raises(NumericalFailure) as info:
            solve_g_heat(phi, UncertaintyBand(0.0, 0.0, 0.1, 0.3), 1.0, GridSpec(32, 32))
        assert info.value.diagnostics["payoff"] == phi


def reference_march(u0, rows, dt, n_time, boundary_of, context):
    """The march as ``scipy.linalg.solve_banded`` ran it: a banded matrix
    rebuilt on every iterate, every step picking on its start value, and
    a solve of a repeated selection before the step ends.  Its solve
    counts read zero."""
    n = len(u0)
    cols = np.arange(n - 2)
    system = np.stack([-dt * rows[2], 1.0 - dt * rows[1], -dt * rows[0]])
    out = np.empty((n_time + 1, n))
    out[0] = u0
    u = out[0].copy()
    for step in range(n_time):
        bc_lo, bc_hi = boundary_of(step)
        sel = None
        u_iter = u
        for _ in range(pde.POLICY_MAX_ITERS):
            sel_new = np.argmax(rows[0] * u_iter[:-2] + rows[1] * u_iter[1:-1]
                                + rows[2] * u_iter[2:], axis=0)
            chosen = system[:, sel_new, cols]
            ab = np.zeros((3, n))
            ab[1, 0] = ab[1, -1] = 1.0
            ab[0, 2:] = chosen[0]
            ab[1, 1:-1] = chosen[1]
            ab[2, :-2] = chosen[2]
            rhs = u.copy()
            rhs[0] = bc_lo
            rhs[-1] = bc_hi
            u_new = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True)
            change = float(np.max(np.abs(u_new - u_iter)))
            if change < pde.POLICY_RESIDUAL_TOL or (
                    sel is not None and np.array_equal(sel_new, sel)):
                break
            sel, u_iter = sel_new, u_new
        else:
            raise NumericalFailure("policy iteration did not stabilise", step=step,
                                   residual=change)
        u = u_new
        out[step + 1] = u
    return out, 0, 0


def assert_matches_reference(got, ref):
    """The march agrees with the reference to 1e-12 of the surface's size:
    the two pick differently only where candidates tie up to round-off."""
    scale = float(np.abs(ref.values).max())
    assert np.abs(got.values - ref.values).max() <= 1e-12 * scale


def per_step_march(u0, rows, dt, n_time, boundary_of, context):
    """``pde._march`` one step at a time, as it ran before steps were run
    ahead on held factors: every solve is its own step's iterate.  The
    march must give bitwise the same slices, counters, record and
    failures."""
    n = len(u0)
    n_cand = rows.shape[1]
    diagnostics = {"n_space": n - 1, "n_time": n_time, **context}
    # rows of I - dt L_k below, on and above the diagonal, interleaved by
    # node, then the Dirichlet sentinel column
    bands = np.empty((3, (n - 2) * n_cand + 1))
    bands[:, :-1] = np.stack([-dt * rows[0], 1.0 - dt * rows[1],
                              -dt * rows[2]]).transpose(0, 2, 1).reshape(3, -1)
    bands[:, -1] = (0.0, 1.0, 0.0)
    if not (np.isfinite(bands).all() and np.isfinite(u0).all()):
        raise NumericalFailure("operator or initial slice is not finite", **diagnostics)
    base = np.arange(n - 2) * n_cand
    at = np.full(n, bands.shape[1] - 1)
    band = np.empty((3, n))
    out = np.empty((n_time + 1, n))
    out[0] = u0
    u = out[0]
    solves = max_step_solves = factorizations = 0
    # a tie bound per unit of |v|_inf
    tie = 32.0 * np.finfo(float).eps * float(np.abs(rows).sum(axis=0).max())

    if n_cand == 2:
        diff = rows[:, 1] - rows[:, 0]

        def select(v, v_max, sel):
            g = diff[0] * v[:-2] + diff[1] * v[1:-1] + diff[2] * v[2:]
            bound = tie * v_max
            return (g > bound) | (sel & (g >= -bound))

        def first_pick(v, v_max):
            g = diff[0] * v[:-2] + diff[1] * v[1:-1] + diff[2] * v[2:]
            bound = tie * v_max
            pick = g > bound
            near = pde._nearest_decided(np.abs(g) > bound)
            # at a tie either candidate is within round-off of the other
            return pick if near is None else pick[near]
    else:
        cols = np.arange(n - 2)

        def select(v, v_max, sel):
            g = rows[0] * v[:-2] + rows[1] * v[1:-1] + rows[2] * v[2:]
            best = g.argmax(axis=0)
            return np.where(g[best, cols] - g[sel, cols] > tie * v_max, best, sel)

        def first_pick(v, v_max):
            g = rows[0] * v[:-2] + rows[1] * v[1:-1] + rows[2] * v[2:]
            best = g.argmax(axis=0)
            tied = g[best, cols] - g <= tie * v_max  # within round-off of the best
            sel = np.where(tied[0], 0, best)
            near = pde._nearest_decided(tied.sum(axis=0) == 1)
            if near is None:
                return sel
            # a tied node takes the nearest decided pick where that is one of its ties
            pick = sel[near]
            return np.where(tied[pick, cols], pick, sel)

    sel = first_pick(u, float(np.abs(u).max()))
    # the selection that gave each step's value, one byte per node
    record = np.empty((n_time, n - 2), dtype=bool if n_cand == 2 else np.int8)
    factored = None
    for step in range(n_time):
        bc_lo, bc_hi = boundary_of(step)
        u_iter = u
        solves_before = solves
        for it in range(1, pde.POLICY_MAX_ITERS + 1):
            key = sel.tobytes()
            if key != factored:
                np.add(base, sel, out=at[1:-1])
                bands.take(at, axis=1, out=band)
                *lu, info = dgttrf(band[0, 1:], band[1], band[2, :-1])
                factorizations += 1
                if info != 0:
                    raise NumericalFailure("implicit step has no finite solution", step=step,
                                           info=info, residual=math.nan, **diagnostics)
                factored = key
            # gttrs overwrites only its right-hand side
            rhs = u.copy()
            rhs[0] = bc_lo
            rhs[-1] = bc_hi
            u_new, info = dgttrs(*lu, rhs, overwrite_b=1)
            solves += 1
            u_max = float(np.abs(u_new).max())
            if info != 0 or not math.isfinite(u_max):
                raise NumericalFailure("implicit step has no finite solution", step=step,
                                       info=info, residual=float(np.abs(u_new - u_iter).max()),
                                       **diagnostics)
            record[step] = sel
            sel_new = select(u_new, u_max, sel)
            if sel_new.tobytes() == key and it < pde.POLICY_MAX_ITERS:
                break
            change = float(np.abs(u_new - u_iter).max())
            if change < pde.POLICY_RESIDUAL_TOL * u_max:
                sel = sel_new
                break
            if it == pde.POLICY_MAX_ITERS:
                raise NumericalFailure(
                    "policy iteration did not stabilise",
                    step=step,
                    max_iters=pde.POLICY_MAX_ITERS,
                    residual=change,
                    **diagnostics,
                )
            sel, u_iter = sel_new, u_new
        max_step_solves = max(max_step_solves, solves - solves_before)
        u = u_new
        out[step + 1] = u
    return out, solves, max_step_solves, factorizations, record


class TestMarchOracle:
    """The march agrees with the banded reference above."""

    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    @pytest.mark.parametrize("side", ["ask", "bid"])
    def test_bsb_matches_reference(self, monkeypatch, side, stretching, rate):
        # problem 10 of criterion 3 on its widened band, which straddles the
        # admissibility threshold of many nodes when the rate is positive
        payoff, maturity, _, base = PUT_10
        band = widened(base)
        prob = PricingProblem(payoff, maturity, rate, band,
                              log_domain(band.sigma_hi, maturity))
        solve = solve_bsb_ask if side == "ask" else solve_bsb_bid
        grid = GridSpec(96, 80, stretching)
        got = solve(prob, grid)
        monkeypatch.setattr(pde, "_march", reference_march)
        assert_matches_reference(got, solve(prob, grid))

    @pytest.mark.parametrize("mu", [(0.0, 0.0), (-0.02, 0.05)], ids=["no_drift", "drift"])
    def test_g_heat_matches_reference(self, monkeypatch, mu):
        band = UncertaintyBand(*mu, 0.1, 0.3)
        phi = ScalarFunctionSpec.call(0.05)
        got = solve_g_heat(phi, band, 1.0, GridSpec(96, 80))
        monkeypatch.setattr(pde, "_march", reference_march)
        assert_matches_reference(got, solve_g_heat(phi, band, 1.0, GridSpec(96, 80)))

    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    def test_bid_zeros_are_positive(self, stretching):
        # the bid marches the negated payoff; its zeros, far below the
        # strike, come back as +0, as a march of the payoff itself gives them
        bid = solve_bsb_bid(call_problem(BAND_WIDE), GridSpec(64, 48, stretching))
        assert np.any(bid.values == 0.0) and not np.any(np.signbit(bid.values))

    def test_counts_solves_per_step(self):
        # the butterfly's curvature changes sign, so the wide band's ask
        # switches selection in some steps, each switch one more solve in
        # its step
        ask = solve_bsb_ask(butterfly_problem(BAND_WIDE), GridSpec(64, 48))
        assert ask.max_step_solves > 1
        assert 48 < ask.linear_solves < 48 * ask.max_step_solves

    def test_singular_step_is_a_numerical_failure(self):
        # rows with L = I / dt leave the interior of I - dt L all zero
        rows = np.zeros((3, 1, 4))
        rows[1] = 1.0
        with pytest.raises(NumericalFailure) as info:
            pde._march(np.ones(6), rows, 1.0, 3, lambda step: (1.0, 1.0),
                       {"side": "heat"})
        diag = info.value.diagnostics
        assert diag["info"] > 0 and diag["step"] == 0
        assert (diag["n_space"], diag["n_time"], diag["side"]) == (5, 3, "heat")

    def test_overflowing_iterate_is_a_numerical_failure(self):
        # a regular system whose diagonal is one ulp below 1 away from zero
        # carries data near the float limit past it
        rows = np.zeros((3, 1, 4))
        rows[1] = np.nextafter(1.0, 0.0)
        u0 = np.array([1.0, 1e300, 1e300, 1e300, 1e300, 1.0])
        with pytest.raises(NumericalFailure) as info, np.errstate(all="ignore"):
            pde._march(u0, rows, 1.0, 3, lambda step: (1.0, 1.0),
                       {"side": "heat"})
        diag = info.value.diagnostics
        assert str(info.value) == "implicit step has no finite solution"
        assert diag["info"] == 0 and diag["step"] == 0
        assert not math.isfinite(diag["residual"])


def march_outcome(solve):
    """What ``solve()`` gives: each surface's bytes, selection record and
    counters, or the failure's type, message and diagnostics."""
    try:
        got = solve()
    except NumericalFailure as exc:
        return type(exc), str(exc), repr(exc.diagnostics)
    surfaces = got if isinstance(got, tuple) else [got]
    return [(s.values.tobytes(), s.selection.tobytes(), s.selection.dtype, s.linear_solves,
             s.max_step_solves, s.factorizations) for s in surfaces]


def assert_march_is_per_step(monkeypatch, solve):
    got = march_outcome(solve)
    with monkeypatch.context() as m:
        m.setattr(pde, "_march", per_step_march)
        assert got == march_outcome(solve)


def case_problem(case, rate):
    """A (payoff, maturity, rate, band) case on its widened band at ``rate``."""
    payoff, maturity, _, base = case
    band = widened(base)
    return PricingProblem(payoff, maturity, rate, band, log_domain(band.sigma_hi, maturity))


# (payoff, maturity, rate, base band) cases: a call, a put and the butterfly
# under BAND_WIDE once widened, then criterion 3's problems
RUN_AHEAD_CASES = {
    "call": (ScalarFunctionSpec.call(K), T, R, BAND_WIDE),
    "put": (ScalarFunctionSpec.put(K), T, R, BAND_WIDE),
    "butterfly": (BUTTERFLY, T, R, BAND_WIDE),
    "put_10": PUT_10,
    "hat_45": HAT_45,
    "piece_11": PIECE_11,
    "piece_33": PIECE_33,
}


class TestRunAhead:
    """Steps run ahead on held factors and picked together give what the
    march gives one step at a time: the same bytes, selection records and
    counters, and the same failures."""

    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    @pytest.mark.parametrize("case", list(RUN_AHEAD_CASES))
    def test_bsb_pair(self, monkeypatch, case, stretching, rate):
        prob = case_problem(RUN_AHEAD_CASES[case], rate)
        assert_march_is_per_step(monkeypatch,
                                 lambda: solve_bsb_pair(prob, GridSpec(128, 128, stretching)))

    @pytest.mark.parametrize("n", [256, 400])
    def test_high_switch_pair_on_fine_grids(self, monkeypatch, n):
        prob = case_problem(PIECE_33, 0.0)
        grid = GridSpec(n, n, "uniform_price")
        ask, _ = solve_bsb_pair(prob, grid)
        assert ask.linear_solves > 1.5 * n
        assert_march_is_per_step(monkeypatch, lambda: solve_bsb_pair(prob, grid))

    @pytest.mark.parametrize("phi", [ScalarFunctionSpec.call(0.05), ScalarFunctionSpec.put(0.1),
                                     ScalarFunctionSpec.piecewise_linear(
                                         [(-0.4, 0.0), (0.0, 0.3), (0.4, 0.0)])],
                             ids=["call", "put", "hat"])
    @pytest.mark.parametrize("mu", [(0.0, 0.0), (-0.02, 0.05)], ids=["no_drift", "drift"])
    def test_g_heat(self, monkeypatch, mu, phi):
        band = UncertaintyBand(*mu, 0.1, 0.3)
        assert_march_is_per_step(monkeypatch,
                                 lambda: solve_g_heat(phi, band, 1.0, GridSpec(128, 96)))

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    @pytest.mark.parametrize("solve", [
        lambda: solve_bsb_bid(call_problem(BAND_WIDE), GridSpec(64, 48, "uniform_price")),
        lambda: solve_bsb_ask(butterfly_problem(BAND_WIDE), GridSpec(64, 48)),
        lambda: solve_bsb_pair(case_problem(PIECE_33, 0.0), GridSpec(128, 128, "uniform_price")),
        lambda: solve_bsb_pair(PricingProblem(AFFINE, T, R, BAND_WIDE, (20.0, 500.0)),
                               GridSpec(64, 48)),
        lambda: solve_g_heat(ScalarFunctionSpec.put(0.1), UncertaintyBand(-0.02, 0.05, 0.1, 0.3),
                             1.0, GridSpec(64, 48)),
    ], ids=["call_bid", "butterfly_ask", "piece_33", "affine", "g_heat_drift"])
    def test_policy_iteration_limits(self, monkeypatch, max_iters, solve):
        # at one iterate a repeated pick ends no step: only the residual
        # test does, so no run may start
        monkeypatch.setattr(pde, "POLICY_MAX_ITERS", max_iters)
        assert_march_is_per_step(monkeypatch, solve)

    @staticmethod
    def failure(march, rows, u0, dt, n_time, boundary_of):
        with pytest.raises(NumericalFailure) as info:
            march(u0, rows, dt, n_time, boundary_of, {"side": "heat"})
        return type(info.value), str(info.value), repr(info.value.diagnostics)

    def test_non_finite_iterate_after_a_run(self):
        # the diagonal of I - dt L is 2^-53, so every step multiplies the
        # interior by 2^53: step 19 leaves the float range, inside a run
        rows = np.zeros((3, 1, 4))
        rows[1] = np.nextafter(1.0, 0.0)
        args = (rows, np.ones(6), 1.0, 40, lambda step: (1.0, 1.0))
        got = self.failure(pde._march, *args)
        assert got == self.failure(per_step_march, *args)
        assert got[1] == "implicit step has no finite solution" and "'step': 19" in got[2]

    def test_singular_selection_after_a_run(self):
        # candidate 1's rows are I / dt, singular in I - dt L; a pick moves
        # there once the boundary has raised the interior, at step 25
        rows = np.zeros((3, 2, 4))
        rows[:, 0] = np.array([1.0, -2.0, 1.0])[:, None]
        rows[1, 1] = 1.0
        args = (rows, np.zeros(6), 1.0, 40, lambda step: (0.0, 0.0) if step < 24 else (1.0, 1.0))
        got = self.failure(pde._march, *args)
        assert got == self.failure(per_step_march, *args)
        assert "'step': 25" in got[2] and "'residual': nan" in got[2]

    def test_failed_solve_inside_a_run(self, monkeypatch):
        # gttrs reports info -5 on the right-hand side of step 20, marked by
        # its boundary value: a run meets it first, and the step's own solve
        # raises it as the step-by-step march does
        real = scipy.linalg.lapack.dgttrs

        def failing(*args, **kwargs):
            marked = args[5][0] == 20.0
            x, info = real(*args, **kwargs)
            return x, -5 if marked else info

        monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", failing)
        monkeypatch.setitem(globals(), "dgttrs", failing)  # per_step_march's own
        rows = np.zeros((3, 1, 4))
        rows[:, 0] = np.array([1.0, -2.0, 1.0])[:, None]
        args = (rows, np.zeros(6), 1.0, 40, lambda step: (float(step), float(step)))
        got = self.failure(pde._march, *args)
        assert got == self.failure(per_step_march, *args)
        assert "'step': 20" in got[2] and "'info': -5" in got[2]

    def test_each_slice_is_picked_against_its_own_size(self):
        # the interior doubles every step and candidate 1 beats candidate 0
        # by a quarter of the round-off bound of each slice's own |v|_inf:
        # a tie at every step, though not against an earlier slice's bound
        rows = np.zeros((3, 2, 4))
        rows[1, 0] = 0.5
        tie = 32.0 * np.finfo(float).eps * 0.5
        rows[1, 1] = 0.5 + tie / 4.0
        args = (np.ones(6), rows, 1.0, 16, lambda step: (1.0, 1.0), {"side": "heat"})
        slices, solves, max_step, factorizations, record = pde._march(*args)
        assert (solves, max_step, factorizations) == (16, 1, 1) and not record.any()
        want = per_step_march(*args)
        assert slices.tobytes() == want[0].tobytes() and record.tobytes() == want[4].tobytes()

    def test_discarded_solves_are_not_counted(self, monkeypatch):
        # runs solve slices past the first whose pick moves; the march drops
        # them, so the counters are those of the step-by-step march
        calls = []
        real = scipy.linalg.lapack.dgttrs

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", counted)
        prob, grid = case_problem(PIECE_33, 0.0), GridSpec(400, 400, "uniform_price")
        ask = solve_bsb_ask(prob, grid)
        assert len(calls) > ask.linear_solves
        monkeypatch.setattr(pde, "_march", per_step_march)
        assert ask.linear_solves == solve_bsb_ask(prob, grid).linear_solves


MARCH_GRIDS = st.builds(GridSpec, st.integers(24, 96), st.integers(24, 96),
                        st.sampled_from(["uniform_log", "uniform_price"]))


@st.composite
def sigma_bands(draw, mu_lo, mu_hi):
    sigma_lo = draw(st.floats(0.05, 0.2))
    return UncertaintyBand(draw(mu_lo), draw(mu_hi), sigma_lo,
                           draw(st.floats(sigma_lo + 1e-6, 0.4)))


@st.composite
def criterion3_problems(draw):
    """Criterion 3's kind of problem: a call, put, hat or 5-knot piecewise
    payoff on its base or widened band, r in [0, 0.08] and T in [0.25, 2],
    on the domain of the widened band."""
    strike = draw(st.floats(80.0, 125.0))
    kind = draw(st.sampled_from(["call", "put", "hat", "piecewise"]))
    if kind in ("call", "put"):
        payoff = getattr(ScalarFunctionSpec, kind)(strike)
    elif kind == "hat":
        w, h = draw(st.floats(10.0, 30.0)), draw(st.floats(5.0, 25.0))
        payoff = ScalarFunctionSpec.piecewise_linear(
            [(strike - 2 * w, 0.0), (strike - w, 0.0), (strike, h), (strike + w, 0.0),
             (strike + 2 * w, 0.0)])
    else:
        xs = sorted(draw(st.lists(st.floats(60.0, 160.0), min_size=5, max_size=5, unique=True)))
        ys = draw(st.lists(st.floats(0.0, 30.0), min_size=5, max_size=5))
        payoff = ScalarFunctionSpec.piecewise_linear(
            [(50.0, ys[0]), *zip(xs, ys), (170.0, ys[-1])])
    base = draw(sigma_bands(st.just(0.0), st.floats(0.0, 0.08)))
    maturity = draw(st.floats(0.25, 2.0))
    return PricingProblem(payoff, maturity, draw(st.floats(0.0, 0.08)),
                          draw(st.sampled_from([base, widened(base)])),
                          log_domain(widened(base).sigma_hi, maturity))


@st.composite
def heat_payoffs(draw):
    k = draw(st.floats(-0.2, 0.2))
    return draw(st.sampled_from([
        ScalarFunctionSpec.call(k), ScalarFunctionSpec.put(k),
        ScalarFunctionSpec.piecewise_linear([(k - 0.4, 0.0), (k, 0.3), (k + 0.4, 0.0)])]))


class TestMarchProperty:
    """On random problems the march gives what it gives one step at a time.
    The class's own MonkeyPatch.context() swaps the march: a function-scoped
    fixture would not be undone between examples."""

    @settings(max_examples=150, deadline=None)
    @given(problem=criterion3_problems(), grid=MARCH_GRIDS)
    def test_bsb_pair(self, problem, grid):
        assert_march_is_per_step(pytest.MonkeyPatch, lambda: solve_bsb_pair(problem, grid))

    @settings(max_examples=60, deadline=None)
    @given(phi=heat_payoffs(), band=sigma_bands(st.floats(-0.05, 0.0), st.floats(0.01, 0.08)),
           horizon=st.floats(0.25, 2.0), grid=MARCH_GRIDS)
    def test_g_heat_under_a_drift_band(self, phi, band, horizon, grid):
        assert_march_is_per_step(pytest.MonkeyPatch,
                                 lambda: solve_g_heat(phi, band, horizon, grid))


@settings(max_examples=200, deadline=None)
@given(problem=criterion3_problems(), grid=MARCH_GRIDS)
def test_pair_dominates_and_is_monotone_in_the_band(problem, grid):
    # criterion 3's invariants at every node, on both stretchings: the ask
    # is above the bid, and widening the band raises the ask and lowers the bid
    ask, bid = solve_bsb_pair(problem, grid)
    ask_w, bid_w = solve_bsb_pair(replace(problem, band=widened(problem.band)), grid)
    tol = 1e-9 * max(1.0, float(np.abs(ask.values).max()))
    assert np.all(ask.values - bid.values >= -tol)
    assert np.all(ask_w.values - ask.values >= -tol)
    assert np.all(bid_w.values - bid.values <= tol)


class TestFactorizations:
    """A selection is factorised once, however many solves reuse it."""

    @pytest.mark.parametrize("mu", [(0.0, 0.0), (-0.02, 0.05)], ids=["no_drift", "drift"])
    def test_g_heat_call_factorises_once(self, mu):
        # the selection holds through every step of the 400^2 call
        surf = solve_g_heat(ScalarFunctionSpec.call(0.0), UncertaintyBand(*mu, 0.1, 0.3),
                            1.0, GridSpec(400, 400, "uniform_price"))
        assert (surf.factorizations, surf.linear_solves) == (1, 400)

    def test_criterion_2_bid_factorises_once(self):
        # a convex claim's bid sits at sigma_lo everywhere, where it starts
        bid = solve_bsb_bid(call_problem(BAND_WIDE), GridSpec(400, 400))
        assert (bid.factorizations, bid.linear_solves) == (1, 400)

    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    @pytest.mark.parametrize("side", ["ask", "bid"])
    def test_bsb_counts_are_bounded_by_solves(self, side, stretching, rate):
        payoff, maturity, _, base = PUT_10
        for band in (base, widened(base)):
            prob = PricingProblem(payoff, maturity, rate, band,
                                  log_domain(band.sigma_hi, maturity))
            surf = (solve_bsb_ask if side == "ask" else solve_bsb_bid)(
                prob, GridSpec(96, 80, stretching))
            assert 1 <= surf.factorizations <= surf.linear_solves

    def test_switching_selection_refactorises(self):
        # the butterfly's ask switches selection in some steps under the
        # wide band, and each switch needs its own factors
        ask = solve_bsb_ask(butterfly_problem(BAND_WIDE), GridSpec(64, 48))
        assert 1 < ask.factorizations <= ask.linear_solves

    def test_surface_not_built_by_a_solver_counts_none(self):
        surf = PriceSurface(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
                            np.zeros((2, 2)), "ask")
        assert surf.factorizations == 0
        assert surf.selection is None

    def test_selection_record_must_fit_the_surface(self):
        with pytest.raises(ValueError, match="selection shape"):
            PriceSurface(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]),
                         np.zeros((2, 3)), "ask", selection=np.zeros((2, 1), dtype=bool))

    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    def test_criterion_2_pair_takes_one_solve_per_step(self, stretching):
        # a tied node starts at the pick of the nearest decided node, the
        # kink: the call's ask starts at sigma_hi and its bid at sigma_lo,
        # and neither leaves it in the linear wings
        for surf in solve_bsb_pair(call_problem(BAND_WIDE), GridSpec(400, 400, stretching)):
            assert surf.linear_solves <= 1.05 * 400
            assert surf.factorizations == 1

    def test_g_heat_put_with_drift_factorises_once(self):
        # the four-candidate start: the wings tie in volatility, and take the
        # kink's (mu_lo, sigma_hi) instead of an argmax over round-off
        surf = solve_g_heat(ScalarFunctionSpec.put(0.1), UncertaintyBand(0.01, 0.05, 0.1, 0.3),
                            1.0, GridSpec(128, 128))
        assert (surf.factorizations, surf.linear_solves) == (1, 128)
        assert np.all(surf.selection == 2)


class TestSelectionRecord:
    """Row s of the record is the selection whose system gave step s."""

    def test_resolving_each_step_with_its_record_gives_the_step(self):
        prob = butterfly_problem(BAND_WIDE)
        grid = GridSpec(64, 48)
        f, w = pde._build_space_nodes(prob, grid)
        stencil = pde._forward_stencil(f, w, grid.stretching)
        rows = np.stack([0.5 * s**2 * stencil for s in (0.1, 0.3)], axis=1)
        u0 = np.asarray(BUTTERFLY(f), dtype=float)
        dt = T / grid.n_time
        slices, *_, record = pde._march(u0, rows, dt, grid.n_time,
                                        lambda step: (u0[0], u0[-1]), {"side": "ask"})
        assert record.shape == (48, 63) and record.dtype == bool
        assert np.any(record[1:] != record[:-1])  # the butterfly switches
        for step, picks in enumerate(record):
            lo, di, hi = np.where(picks, rows[:, 1], rows[:, 0])
            *lu, info = dgttrf(np.append(-dt * lo, 0.0), np.pad(1.0 - dt * di, 1,
                                                                constant_values=1.0),
                               np.insert(-dt * hi, 0, 0.0))
            rhs = slices[step].copy()
            rhs[[0, -1]] = u0[[0, -1]]
            got, info = dgttrs(*lu, rhs)
            assert np.array_equal(got, slices[step + 1])

    def test_solver_surfaces_carry_the_record(self):
        ask, bid = solve_bsb_pair(call_problem(BAND_WIDE), GridSpec(32, 16))
        for surf in (ask, bid):
            assert surf.selection.shape == (16, 31) and surf.selection.dtype == bool
        # four (drift, volatility) corners: the record holds their index
        heat = solve_g_heat(ScalarFunctionSpec.call(0.0), UncertaintyBand(-0.02, 0.05, 0.1, 0.3),
                            1.0, GridSpec(32, 16))
        assert heat.selection.shape == (16, 31) and heat.selection.dtype == np.int8


AFFINE = ScalarFunctionSpec.piecewise_linear([(1.0, 3.0), (2000.0, 1002.5)])  # 2.5 + x/2


class TestLinearClaims:
    """A claim a x + b is worth a x + b exp(-r (T - t)); the forward
    stencils are exact on it, so the scheme prices it to round-off."""

    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    @pytest.mark.parametrize("payoff, a, b", [(ScalarFunctionSpec.identity(), 1.0, 0.0),
                                              (AFFINE, 0.5, 2.5)],
                             ids=["identity", "affine"])
    def test_priced_exactly(self, payoff, a, b, stretching, rate):
        # AFFINE's knots lie outside the domain, so none is snapped
        prob = PricingProblem(payoff, T, rate, BAND_WIDE, log_domain(0.3))
        for surface in solve_bsb_pair(prob, GridSpec(200, 200, stretching)):
            disc = np.exp(-rate * (T - surface.times))[:, None]
            exact = a * surface.space_nodes * disc + b * disc
            np.testing.assert_allclose(surface.values, exact, rtol=1e-12, atol=0.0)
            assert surface.value_at(0.0, S0) == pytest.approx(
                a * S0 + b * math.exp(-rate * T), rel=1e-12)


HEAT_BANDS = (UncertaintyBand(0.0, 0.0, 0.1, 0.3), UncertaintyBand(-0.02, 0.05, 0.1, 0.3),
              UncertaintyBand(0.0, 0.0, 1e5, 3e5))


@lru_cache(maxsize=None)
def heat_surface(band, scale=1.0):
    phi = replace(ScalarFunctionSpec.call(0.0), scale=scale)
    return solve_g_heat(phi, band, 1.0, GridSpec(128, 128)).values


@lru_cache(maxsize=None)
def bsb_surfaces(stretching, scale=1.0):
    payoff, maturity, rate, base = PUT_10
    band = widened(base)
    prob = PricingProblem(replace(payoff, scale=scale), maturity, rate, band,
                          log_domain(band.sigma_hi, maturity))
    return [s.values for s in solve_bsb_pair(prob, GridSpec(96, 80, stretching))]


def assert_scaled(got, base, lam):
    assert np.abs(got - lam * base).max() <= 1e-10 * lam * np.abs(base).max()


class TestScaleInvariance:
    """Payoff x lambda gives surface x lambda: the pick's round-off bound
    and the march's exit scale with the solution.  The widest G-heat band
    is one whose solution near 1e5 once failed the absolute exit."""

    @settings(max_examples=12, deadline=None)
    @given(exponent=st.floats(-6.0, 6.0))
    @example(exponent=-6.0)
    @example(exponent=6.0)
    def test_g_heat(self, exponent):
        lam = 10.0 ** exponent
        for band in HEAT_BANDS:
            assert_scaled(heat_surface(band, lam), heat_surface(band), lam)

    @settings(max_examples=12, deadline=None)
    @given(exponent=st.floats(-6.0, 6.0))
    @example(exponent=-6.0)
    @example(exponent=6.0)
    def test_bsb_pair(self, exponent):
        lam = 10.0 ** exponent
        for stretching in ("uniform_log", "uniform_price"):
            for got, base in zip(bsb_surfaces(stretching, lam), bsb_surfaces(stretching)):
                assert_scaled(got, base, lam)


class TestGHeat:
    def test_linear_data_zero_drift_is_invariant(self):
        band = UncertaintyBand(0.0, 0.0, 0.1, 0.3)
        surf = solve_g_heat(ScalarFunctionSpec.identity(), band, 1.0,
                            GridSpec(128, 128))
        for i in (0, 64, 128):
            assert np.allclose(surf.values[i], surf.space_nodes, atol=1e-9)

    def test_linear_data_picks_upper_drift(self):
        band = UncertaintyBand(0.01, 0.05, 0.1, 0.3)
        surf = solve_g_heat(ScalarFunctionSpec.identity(), band, 1.0,
                            GridSpec(128, 128))
        for t in (0.25, 0.5, 1.0):
            assert surf.value_at(t, 0.0) == pytest.approx(0.05 * t, abs=1e-8)

    def test_negated_linear_data_picks_lower_drift(self):
        band = UncertaintyBand(0.01, 0.05, 0.1, 0.3)
        surf = solve_g_heat(ScalarFunctionSpec.negation(), band, 1.0,
                            GridSpec(128, 128))
        assert surf.value_at(1.0, 0.0) == pytest.approx(-0.01, abs=1e-8)

    def test_quadratic_data_grows_at_upper_variance(self):
        band = UncertaintyBand(0.0, 0.0, 0.1, 0.3)
        surf = solve_g_heat(ScalarFunctionSpec.power(2), band, 1.0,
                            GridSpec(200, 200))
        assert surf.value_at(1.0, 0.0) == pytest.approx(0.09, rel=1e-6)

    def test_variance_past_float_range_is_a_numerical_failure(self):
        band = UncertaintyBand(0.0, 0.0, 0.1, 1e200)
        with pytest.raises(NumericalFailure) as info, np.errstate(all="ignore"):
            solve_g_heat(ScalarFunctionSpec.call(0.0), band, 1.0, GridSpec(32, 32))
        diag = info.value.diagnostics
        assert (diag["side"], diag["n_space"], diag["band"]) == ("heat", 32, band)

    def test_call_takes_at_most_1_2_solves_per_step(self):
        # the selection holds where the candidates tie up to round-off, so
        # the linear wings do not cost a second solve per step
        surf = solve_g_heat(ScalarFunctionSpec.call(0.0), UncertaintyBand(0.0, 0.0, 0.1, 0.3),
                            1.0, GridSpec(400, 400, "uniform_price"))
        assert surf.linear_solves <= 1.2 * 400

    def test_rejects_nonpositive_horizon(self):
        band = UncertaintyBand(0.0, 0.0, 0.1, 0.3)
        with pytest.raises(ValueError):
            solve_g_heat(ScalarFunctionSpec.identity(), band, -1.0, GridSpec(64, 64))

    def test_kink_within_round_off_of_the_origin_keeps_the_grid(self):
        # the origin keeps its node, and the kink is not pushed onto the next
        # node 6.2e-82 away, where the rows would overflow
        band = UncertaintyBand(0.0, 0.0, 0.1, 0.3)
        phi = ScalarFunctionSpec.call(6.2e-82)
        surf = solve_g_heat(phi, band, 1.0, GridSpec(400, 400))
        assert np.all(np.diff(surf.space_nodes) > 0.5 * np.diff(surf.space_nodes).max())
        assert g_normal_expectation(phi, band, 1.0) == pytest.approx(
            0.3 / math.sqrt(2.0 * math.pi), abs=2e-3)


class TestSurfaceLookup:
    def test_bilinear_interpolation_between_slices(self):
        times = np.array([0.0, 1.0])
        nodes = np.array([0.0, 1.0, 2.0])
        vals = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]])
        s = PriceSurface(times, nodes, vals, "heat")
        assert s.value_at(0.5, 1.0) == pytest.approx(1.5)
        assert s.value_at(0.0, 0.5) == pytest.approx(0.5)

    def test_delta_of_linear_surface(self):
        times = np.array([0.0, 1.0])
        nodes = np.linspace(0.0, 4.0, 9)
        vals = np.vstack([3.0 * nodes, 3.0 * nodes])
        s = PriceSurface(times, nodes, vals, "heat")
        assert np.allclose(s.delta_at(0.3, nodes), 3.0)

    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("stretching", ["uniform_log", "uniform_price"])
    def test_dated_reads_equal_the_scalar_reads(self, stretching, rate):
        # dates off and on the surface's 90 rows, before 0 and after T;
        # spots inside and beyond the domain.  Then dates in no order, two
        # read blocks and part of a third
        surface = solve_bsb_ask(call_problem(BAND_WIDE, rate=rate),
                                GridSpec(120, 90, stretching))
        t = np.concatenate(([-0.5, -1e-9], np.linspace(0.0, T, 151), surface.times[::7],
                            [T + 1e-9, T + 0.5]))
        lo, hi = log_domain(BAND_WIDE.sigma_hi)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.5 * lo, 1.5 * hi, size=(len(t), 4))
        x[:, 0] = S0
        n = 2 * pde._READ_BLOCK + 3
        unordered = (rng.uniform(-0.1, T + 0.1, size=n),
                     rng.uniform(0.5 * lo, 1.5 * hi, size=(n, 4)))
        for dates, spots in ((t, x), unordered):
            for read in (surface.value_at, surface.delta_at):
                many = read(dates, spots)
                one = read(dates, spots[:, 0])
                assert many.shape == spots.shape and one.shape == dates.shape
                for i in range(len(dates)):
                    assert np.array_equal(many[i], read(dates[i], spots[i]))
                    assert one[i] == read(dates[i], spots[i, 0])
        # and a scalar read is the slice blended in time, then interpolated
        nodes, times, values = surface.space_nodes, surface.times, surface.values
        for ti, xi in zip(t, x):
            k = min(max(int(np.searchsorted(times, ti, side="right")) - 1, 0), len(times) - 2)
            w = min(max((ti - times[k]) / (times[k + 1] - times[k]), 0.0), 1.0)
            sl = values[k] if w == 0.0 else values[k + 1] if w == 1.0 else (
                (1.0 - w) * values[k] + w * values[k + 1])
            scale = surface.forward_factor(ti)
            assert np.array_equal(surface.value_at(ti, xi), np.interp(xi * scale, nodes, sl))
            assert np.array_equal(surface.delta_at(ti, xi),
                                  np.interp(xi * scale, nodes, np.gradient(sl, nodes) * scale))
        with pytest.raises(ValueError, match=r"x\[i\] read at t\[i\]"):
            surface.value_at(t, x[1:])

    def test_matrix_serialization_round_trip(self):
        ask = solve_bsb_ask(call_problem(BAND_WIDE), GridSpec(32, 16))
        buf = io.StringIO()
        write_surface_file(ask, buf)
        lines = buf.getvalue().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time\\space"
        assert len(header) == len(ask.space_nodes) + 1
        assert len(lines) == len(ask.times) + 1
        row = lines[-1].split(",")
        assert float(row[0]) == pytest.approx(ask.times[-1])
        got = np.array([float(v) for v in row[1:]])
        assert np.allclose(got, ask.values[-1], rtol=1e-11)

    def test_surface_file_formats_each_value_at_12_digits(self):
        # reference: the value-by-value formatting the writer must keep
        ask = solve_bsb_ask(call_problem(BAND_WIDE), GridSpec(32, 16))
        buf = io.StringIO()
        write_surface_file(ask, buf)
        assert buf.getvalue() == (
            "time\\space," + ",".join(format(v, ".12g") for v in ask.space_nodes) + "\n"
            + "".join(format(t, ".12g") + "," + ",".join(format(v, ".12g") for v in row)
                      + "\n" for t, row in zip(ask.times, ask.values)))

    def test_surface_file_written_to_a_path_matches_the_buffer(self, tmp_path):
        ask = solve_bsb_ask(call_problem(BAND_WIDE), GridSpec(32, 16))
        buf = io.StringIO()
        write_surface_file(ask, buf)
        dest = tmp_path / "surface.csv"
        write_surface_file(ask, dest)
        assert dest.read_text(encoding="utf-8") == buf.getvalue()
        write_surface_file(ask, str(dest))
        assert dest.read_text(encoding="utf-8") == buf.getvalue()
