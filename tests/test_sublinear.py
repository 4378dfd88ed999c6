"""Band, G-function, and worst-case expectation tests."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from bidask import (
    ScalarFunctionSpec,
    UncertaintyBand,
    g_drift_vol,
    g_normal_expectation,
    g_vol,
    maximal_expectation,
)
from bidask.sublinear import KINDS

BAND = UncertaintyBand(mu_lo=0.01, mu_hi=0.05, sigma_lo=0.1, sigma_hi=0.3)


def gaussian_expectation(phi, sigma, t):
    """Quadrature oracle: E[phi(X)], X ~ N(0, sigma^2 t)."""
    s = sigma * math.sqrt(t)
    val, _ = quad(lambda x: phi(x) * norm.pdf(x, scale=s), -12 * s, 12 * s, limit=200)
    return val


class TestBand:
    def test_rejects_inverted_mu(self):
        with pytest.raises(ValueError, match="mu_lo"):
            UncertaintyBand(0.05, 0.01, 0.1, 0.3)

    def test_rejects_inverted_sigma(self):
        with pytest.raises(ValueError, match="sigma_lo"):
            UncertaintyBand(0.0, 0.0, 0.4, 0.2)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            UncertaintyBand(0.0, 0.0, -0.1, 0.2)

    def test_rejects_zero_volatility_band(self):
        with pytest.raises(ValueError, match="degenerate"):
            UncertaintyBand(0.0, 0.0, 0.0, 0.0)

    def test_zero_drift_helper(self):
        zb = BAND.zero_drift()
        assert zb.mu_lo == zb.mu_hi == 0.0
        assert zb.sigma_lo == BAND.sigma_lo and zb.sigma_hi == BAND.sigma_hi


class TestGVol:
    def test_zero(self):
        assert g_vol(0.0, BAND) == 0.0

    def test_positive_branch(self):
        # 0.5 * 0.3^2 * 2 = 0.09, by hand
        assert g_vol(2.0, BAND) == pytest.approx(0.09, abs=1e-15)

    def test_negative_branch(self):
        # -0.5 * 0.1^2 * 2 = -0.01, by hand
        assert g_vol(-2.0, BAND) == pytest.approx(-0.01, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            g_vol(float("nan"), BAND)
        with pytest.raises(ValueError):
            g_vol(float("inf"), BAND)

    def test_sublinearity(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            a, b = rng.normal(scale=5.0, size=2)
            lam = rng.uniform(0.0, 4.0)
            assert g_vol(a + b, BAND) <= g_vol(a, BAND) + g_vol(b, BAND) + 1e-12
            assert g_vol(lam * a, BAND) == pytest.approx(lam * g_vol(a, BAND), abs=1e-12)

    def test_linearity_collapse(self):
        flat = UncertaintyBand(0.0, 0.0, 0.2, 0.2)
        for a in (-3.0, -0.5, 0.0, 0.7, 2.0):
            assert g_vol(a, flat) == pytest.approx(-g_vol(-a, flat), abs=1e-16)

    def test_strictly_sublinear_when_band_wide(self):
        assert g_vol(1.0, BAND) > -g_vol(-1.0, BAND)


class TestGDriftVol:
    def test_drift_vanishes(self):
        for a in (-2.0, 0.0, 1.5):
            assert g_drift_vol(0.0, a, BAND) == g_vol(a, BAND)

    def test_positive_drift_branch(self):
        assert g_drift_vol(1.0, 0.0, BAND) == pytest.approx(0.05, abs=1e-15)

    def test_negative_drift_branch(self):
        assert g_drift_vol(-1.0, 0.0, BAND) == pytest.approx(-0.01, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            g_drift_vol(float("inf"), 0.0, BAND)

    def test_sublinearity_joint(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            e1, e2, a1, a2 = rng.normal(scale=3.0, size=4)
            lhs = g_drift_vol(e1 + e2, a1 + a2, BAND)
            rhs = g_drift_vol(e1, a1, BAND) + g_drift_vol(e2, a2, BAND)
            assert lhs <= rhs + 1e-12


class TestScalarFunctionSpec:
    def test_call_put_identity_negation(self):
        x = np.array([80.0, 100.0, 130.0])
        assert np.allclose(ScalarFunctionSpec.call(100.0)(x), [0.0, 0.0, 30.0])
        assert np.allclose(ScalarFunctionSpec.put(100.0)(x), [20.0, 0.0, 0.0])
        assert np.allclose(ScalarFunctionSpec.identity()(x), x)
        assert np.allclose(ScalarFunctionSpec.negation()(x), -x)

    def test_piecewise_linear_extrapolates_with_end_slopes(self):
        f = ScalarFunctionSpec.piecewise_linear([(0.0, 0.0), (1.0, 2.0)])
        assert f(2.0) == pytest.approx(4.0)
        assert f(-1.0) == pytest.approx(-2.0)

    def test_table_extrapolates_constant(self):
        f = ScalarFunctionSpec.table([(0.0, 1.0), (1.0, 3.0)])
        assert f(5.0) == pytest.approx(3.0)
        assert f(-5.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_kind_has_a_constructor_taking_its_field(self, kind):
        field = KINDS[kind]
        value = {"strike": 100.0, "exponent": 2.0, "knots": ((0.0, 1.0), (1.0, 2.0))}.get(field)
        spec = getattr(ScalarFunctionSpec, kind)(*([] if field is None else [value]))
        assert spec.kind == kind
        if field is not None:
            assert getattr(spec, field) == value

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "straddle"}, "unknown function kind 'straddle'"),
        ({"kind": "call", "strike": math.nan}, "strike must be finite"),
        ({"kind": "put", "strike": -math.inf}, "strike must be finite"),
        ({"kind": "power", "exponent": math.inf}, "exponent must be finite"),
        ({"kind": "identity", "scale": math.nan}, "scale must be finite"),
        ({"kind": "table", "knots": ((0.0, math.nan), (1.0, 1.0))}, "knots must be finite"),
        ({"kind": "piecewise_linear", "knots": ((math.inf, 0.0), (1.0, 1.0))},
         "knots must be finite"),
        ({"kind": "table", "knots": ((0.0, 1.0),)}, "table needs at least two knots"),
        ({"kind": "piecewise_linear", "knots": ((1.0, 0.0), (1.0, 1.0))},
         "knot abscissae must be strictly increasing"),
    ], ids=["unknown_kind", "nan_strike", "infinite_strike", "infinite_exponent",
            "nan_scale", "nan_knot", "infinite_knot", "one_knot", "repeated_abscissa"])
    def test_rejects_what_the_family_does_not_hold(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScalarFunctionSpec(**fields)

    def test_rejects_unsorted_knots(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ScalarFunctionSpec.piecewise_linear([(1.0, 0.0), (0.5, 1.0)])

    def test_negated_stays_in_family(self):
        f = ScalarFunctionSpec.call(50.0)
        g = f.negated()
        x = np.linspace(0.0, 100.0, 11)
        assert np.allclose(g(x), -f(x))

    def test_knot_points(self):
        assert ScalarFunctionSpec.call(7.0).knot_points() == (7.0,)
        assert ScalarFunctionSpec.identity().knot_points() == ()


class TestMaximalExpectation:
    def test_identity_takes_upper_end(self):
        assert maximal_expectation(ScalarFunctionSpec.identity(), 0.01, 0.05) == 0.05

    def test_negation_takes_lower_end(self):
        assert maximal_expectation(ScalarFunctionSpec.negation(), 0.01, 0.05) == -0.01

    def test_hat_peak(self):
        hat = ScalarFunctionSpec.piecewise_linear([(0.01, 0.0), (0.03, 1.0), (0.05, 0.0)])
        assert maximal_expectation(hat, 0.01, 0.05) == pytest.approx(hat(0.03), abs=1e-12)

    def test_matches_brute_force_oracle(self):
        # a linearly interpolated table attains its max at a knot, so the
        # exact oracle is max(ys); a dense scan must come in slightly below
        rng = np.random.default_rng(5)
        xs = np.linspace(0.0, 1.0, 40)
        ys = rng.normal(size=40)
        f = ScalarFunctionSpec.table(list(zip(xs, ys)))
        oracle = float(np.max(ys))
        got = maximal_expectation(f, 0.0, 1.0)
        assert got == pytest.approx(oracle, abs=1e-12)
        scan = float(np.max(f(np.linspace(0.0, 1.0, 200001))))
        assert scan <= got <= scan + 1e-4

    def test_dominates_every_grid_point(self):
        f = ScalarFunctionSpec.power(2)
        m = maximal_expectation(f, -1.5, 2.0)
        for v in np.linspace(-1.5, 2.0, 257):
            assert m >= f(v) - 1e-12

    def test_lower_variant_via_negation(self):
        f = ScalarFunctionSpec.power(2)
        lower = -maximal_expectation(f.negated(), 0.5, 2.0)
        assert lower == pytest.approx(0.25, abs=1e-9)  # min of x^2 on [0.5, 2]

    def test_interior_zero_of_even_power_is_exact(self):
        f = ScalarFunctionSpec.power(2).negated()
        for lo, hi in ((-1.0, 2.0), (-0.7, 2.3)):
            assert maximal_expectation(f, lo, hi) == 0.0

    def test_point_interval(self):
        assert maximal_expectation(ScalarFunctionSpec.identity(), 0.3, 0.3) == 0.3

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty interval"):
            maximal_expectation(ScalarFunctionSpec.identity(), 1.0, 0.0)

    def test_fractional_power_below_zero_is_rejected(self):
        root = ScalarFunctionSpec.power(0.5)
        with pytest.raises(ValueError, match="below 0"):
            maximal_expectation(root, -1.0, 1.0)
        with pytest.raises(ValueError, match="below 0"):
            root(np.array([0.25, -0.5]))
        assert maximal_expectation(root, 0.0, 4.0) == 2.0
        # integer exponents stay defined on the whole line
        assert maximal_expectation(ScalarFunctionSpec.power(3.0), -2.0, -1.0) == -1.0


class TestGNormalExpectation:
    def test_identity_is_centered(self):
        v = g_normal_expectation(ScalarFunctionSpec.identity(), BAND.zero_drift(), 1.0)
        assert abs(v) < 1e-8

    def test_second_moment_takes_upper_variance(self):
        v = g_normal_expectation(ScalarFunctionSpec.power(2), BAND.zero_drift(), 1.0)
        assert v == pytest.approx(BAND.sigma_hi**2, rel=1e-6)

    def test_second_moment_scales_with_time(self):
        v = g_normal_expectation(ScalarFunctionSpec.power(2), BAND.zero_drift(), 0.25)
        assert v == pytest.approx(0.25 * BAND.sigma_hi**2, rel=1e-6)

    def test_positive_part_against_quadrature_oracle(self):
        band = UncertaintyBand(0.0, 0.0, 0.1, 0.2)
        phi = ScalarFunctionSpec.call(0.0)
        oracle = gaussian_expectation(phi, band.sigma_hi, 1.0)  # = 0.2/sqrt(2 pi)
        assert oracle == pytest.approx(0.2 / math.sqrt(2 * math.pi), rel=1e-9)
        v = g_normal_expectation(phi, band, 1.0)
        assert v == pytest.approx(oracle, rel=2e-3)

    @pytest.mark.parametrize("phi", [
        ScalarFunctionSpec.call(0.5),
        ScalarFunctionSpec.power(2),
        ScalarFunctionSpec.piecewise_linear([(-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)]),
    ])
    def test_upper_dominates_lower(self, phi):
        band = BAND.zero_drift()
        upper = g_normal_expectation(phi, band, 0.5)
        lower = -g_normal_expectation(phi.negated(), band, 0.5)
        assert upper >= lower - 1e-9

    def test_convex_payoff_hits_upper_volatility(self):
        band = UncertaintyBand(0.0, 0.0, 0.1, 0.3)
        phi = ScalarFunctionSpec.call(0.1)
        v = g_normal_expectation(phi, band, 1.0)
        assert v == pytest.approx(gaussian_expectation(phi, 0.3, 1.0), rel=3e-3)

    def test_concave_payoff_hits_lower_volatility(self):
        band = UncertaintyBand(0.0, 0.0, 0.1, 0.3)
        # concave hat, Lipschitz: worst case is the smallest variance
        hat = ScalarFunctionSpec.piecewise_linear(
            [(-8.0, -8.0), (0.0, 0.0), (8.0, -8.0)])
        v = g_normal_expectation(hat, band, 1.0)
        assert v == pytest.approx(gaussian_expectation(hat, 0.1, 1.0), rel=3e-3)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_horizon_rule_is_the_heat_solvers(self, t):
        with pytest.raises(ValueError, match=f"^horizon must be positive, got {t!r}$"):
            g_normal_expectation(ScalarFunctionSpec.identity(), BAND, t)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            g_normal_expectation(ScalarFunctionSpec.identity(), BAND, 0.0)
