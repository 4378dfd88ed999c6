"""Fractional noise: covariance, kernel, simulation, conditional means."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.linalg import cholesky
from scipy.special import beta, hyp2f1

from bidask import (
    ControlProcess,
    FgbmSpec,
    SampledPath,
    UncertaintyBand,
    fgbm_conditional_mean,
    fgbm_covariance,
    holder_exponent,
    moving_avg_constant,
    simulate_fgbm,
    simulate_fgbm_asset,
    simulate_gbm_increments,
    volterra_kernel,
)
import bidask.fgbm
from bidask import NumericalFailure
from bidask.fgbm import (_circulant_eigenvalues, _fgn_autocovariance, _kernel,
                         _kernel_matrix)
from bidask.paths import _draw_normals

BAND = UncertaintyBand(0.0, 0.0, 0.1, 0.3)


def unit_cov(s, t, H):
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


def quadrature_kernel(t, s, H):
    """Oracle for H > 1/2: c s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du by
    adaptive quadrature, after u = s + (t-s) w^2 weakens the singularity."""
    c = math.sqrt(H * (2.0 * H - 1.0) / beta(2.0 - 2.0 * H, H - 0.5))

    def f(w):
        return 2.0 * (t - s) ** (H - 0.5) * w ** (2.0 * H - 2.0) \
            * (s + (t - s) * w * w) ** (H - 0.5)

    val, _ = quad(f, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    return c * s ** (0.5 - H) * val


def quadrature_kernel_below_half(t, s, H):
    """Oracle for H < 1/2: c [(t/s)^(H-1/2) (t-s)^(H-1/2)
    - (H-1/2) s^(1/2-H) int_s^t u^(H-3/2) (u-s)^(H-1/2) du] by adaptive
    quadrature after u = s + (t-s) w^2, split where u = 2s."""
    c = math.sqrt(2.0 * H / ((1.0 - 2.0 * H) * beta(1.0 - 2.0 * H, H + 0.5)))

    def f(w):
        return 2.0 * (t - s) ** (H + 0.5) * w ** (2.0 * H) \
            * (s + (t - s) * w * w) ** (H - 1.5)

    split = math.sqrt(s / (t - s))
    val, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200,
                  points=[split] if split < 1.0 else None)
    direct = (t / s) ** (H - 0.5) * (t - s) ** (H - 0.5)
    return c * (direct - (H - 0.5) * s ** (0.5 - H) * val)


def hyp2f1_kernel(t, s, H):
    """The kernel's Molchan-Golosov form through scipy's hyp2f1:
    c_H (t-s)^(H-1/2) 2F1(H-1/2, 1/2-H; H+1/2; 1-t/s)."""
    return moving_avg_constant(H) * (t - s) ** (H - 0.5) \
        * hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t / s)


class TestCovariance:
    def test_diagonal(self):
        up, lo = fgbm_covariance(0.7, 0.7, 0.4, BAND)
        assert up == pytest.approx(0.09 * 0.7**0.8, rel=1e-14)
        assert lo == pytest.approx(0.01 * 0.7**0.8, rel=1e-14)

    def test_half_hurst_is_min(self):
        up, _ = fgbm_covariance(0.3, 0.8, 0.5, BAND)
        assert up == pytest.approx(0.09 * 0.3, rel=1e-14)

    def test_zero_time_vanishes(self):
        assert fgbm_covariance(0.0, 1.0, 0.7, BAND) == (0.0, 0.0)

    def test_upper_dominates_lower(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s, t = rng.uniform(0.0, 2.0, size=2)
            h = rng.uniform(0.05, 0.95)
            up, lo = fgbm_covariance(s, t, h, BAND)
            assert up >= lo

    def test_equality_iff_flat_band(self):
        flat = UncertaintyBand(0.0, 0.0, 0.2, 0.2)
        up, lo = fgbm_covariance(0.5, 1.0, 0.7, flat)
        assert up == lo

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            fgbm_covariance(-0.1, 1.0, 0.7, BAND)
        # times that are not finite
        for s, t in ((math.nan, 1.0), (0.5, math.inf), (np.array([0.5, math.nan]), 1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                fgbm_covariance(s, t, 0.7, BAND)

    def test_rejects_bad_hurst(self):
        with pytest.raises(ValueError):
            fgbm_covariance(0.5, 1.0, 1.2, BAND)


class TestMovingAvgConstant:
    def test_half_is_one(self):
        assert moving_avg_constant(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 40
        h = mpmath.mpf(3) / 4
        oracle = (mpmath.sqrt(2 * h * mpmath.sin(mpmath.pi * h) * mpmath.gamma(2 * h))
                  / mpmath.gamma(h + mpmath.mpf(1) / 2))
        assert moving_avg_constant(0.75) == pytest.approx(float(oracle), rel=1e-13)

    def test_finite_positive_across_range(self):
        for h in np.linspace(0.05, 0.95, 19):
            c = moving_avg_constant(float(h))
            assert math.isfinite(c) and c > 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            moving_avg_constant(1.0)


class TestVolterraKernel:
    def test_half_is_identity(self):
        for s, t in ((0.1, 0.4), (0.5, 1.0), (0.2, 0.21)):
            assert volterra_kernel(t, s, 0.5) == 1.0

    def test_positive_above_half(self):
        for s in (0.1, 0.4, 0.9):
            assert volterra_kernel(1.0, s, 0.7) > 0.0

    @pytest.mark.parametrize("H", [0.3, 0.7])
    @pytest.mark.parametrize("pair", [(0.5, 1.0), (0.25, 0.75)])
    def test_reproduces_covariance(self, H, pair):
        # integral of K(t,u) K(s,u) over u in (0, min(s,t)) equals the
        # closed-form fractional covariance
        s, t = pair
        m = min(s, t)
        val, _ = quad(lambda u: volterra_kernel(t, u, H) * volterra_kernel(s, u, H),
                      0.0, m, epsabs=1e-10, epsrel=1e-9, limit=400,
                      points=[m * 1e-6, m * (1 - 1e-9)])
        assert val == pytest.approx(unit_cov(s, t, H), rel=1e-6)

    def test_unit_variance(self):
        for H in (0.3, 0.7):
            val, _ = quad(lambda u: volterra_kernel(1.0, u, H) ** 2, 0.0, 1.0,
                          epsabs=1e-10, limit=400)
            assert val == pytest.approx(1.0, rel=1e-7)

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9, 0.99])
    def test_closed_form_matches_quadrature(self, H):
        for t in (1.0, 0.3):
            for frac in (1e-8, 1e-4, 0.25, 0.5, 0.9, 1.0 - 1e-6):
                s = frac * t
                assert volterra_kernel(t, s, H) == pytest.approx(
                    quadrature_kernel(t, s, H), rel=1e-9)

    @pytest.mark.parametrize("H", [0.05, 0.3, 0.45, 0.499])
    def test_closed_form_matches_quadrature_below_half(self, H):
        # s/t = 1e-12 only where quad converges (not at H <= 0.3)
        fracs = (1e-8, 1e-4, 0.25, 0.5, 0.9, 1.0 - 1e-6) + ((1e-12,) if H > 0.3 else ())
        for t in (1.0, 0.3):
            for frac in fracs:
                s = frac * t
                assert volterra_kernel(t, s, H) == pytest.approx(
                    quadrature_kernel_below_half(t, s, H), rel=1e-9)

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_matrix_matches_scalar_kernel(self, H):
        grid = np.concatenate(([0.0], np.cumsum(np.linspace(0.01, 0.1, 12))))
        mids = 0.5 * (grid[:-1] + grid[1:])
        K = _kernel_matrix(grid, H)
        for i in range(len(mids)):
            for j in range(len(mids)):
                want = volterra_kernel(grid[i + 1], mids[j], H) if j <= i else 0.0
                assert K[i, j] == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("H, rel", [
        *((H, 1e-13) for H in (0.001, 0.01, 0.1, 0.3, 0.45, 0.4999, 0.5001, 0.55,
                               0.7, 0.9, 0.95, 0.99)),
        (0.999, 1e-12),
    ])
    def test_series_match_the_hyp2f1_form(self, H, rel):
        # s/t from 1e-12 to 1 - 1e-12: x = 1 - s/t crosses the switch
        # between the two series at 1/2, which the grid holds exactly
        fracs = np.concatenate((np.logspace(-12, -1, 45), np.linspace(0.1, 0.9, 81),
                                1.0 - np.logspace(-1, -12, 45)))
        for t in (1e-3, 0.3, 1.0, 7.0):
            s = fracs * t
            np.testing.assert_allclose(_kernel(t, s, H), hyp2f1_kernel(t, s, H),
                                       rtol=rel, atol=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            volterra_kernel(0.5, 0.5, 0.7)
        with pytest.raises(ValueError):
            volterra_kernel(0.5, 0.7, 0.7)
        with pytest.raises(ValueError):
            volterra_kernel(1.0, 0.5, 0.0)
        for t, s, H in ((math.inf, 0.5, 0.7), (math.inf, 0.5, 0.3),
                        (math.nan, 0.5, 0.7), (1.0, math.nan, 0.3)):
            with pytest.raises(ValueError):
                volterra_kernel(t, s, H)


class TestSpecValidation:
    def test_hurst_range(self):
        with pytest.raises(ValueError):
            FgbmSpec(0.0, BAND, (0.0, 1.0))

    def test_grid_monotone(self):
        with pytest.raises(ValueError):
            FgbmSpec(0.7, BAND, (0.0, 1.0, 0.5))

    @pytest.mark.parametrize("grid", [(-0.5, 1.0), (0.5, 1.0, 1.5)])
    def test_grid_starts_at_zero(self, grid):
        with pytest.raises(ValueError, match="start at 0"):
            FgbmSpec(0.7, BAND, grid)


class TestSimulation:
    def test_starts_at_zero(self):
        spec = FgbmSpec(0.7, BAND, tuple(np.linspace(0, 1, 33)))
        for p in simulate_fgbm(spec, 0.2, seed=1, n_paths=5):
            assert p.values[0] == 0.0

    def test_half_hurst_increments_are_iid(self):
        spec = FgbmSpec(0.5, BAND, tuple(np.linspace(0, 1, 17)))
        paths = simulate_fgbm(spec, 0.2, seed=8, n_paths=20000)
        inc = np.array([np.diff(p.values) for p in paths])
        dt = 1.0 / 16.0
        var = inc.var(axis=0, ddof=1)
        se = 0.04 * dt * math.sqrt(2.0 / len(paths))
        assert np.all(np.abs(var - 0.04 * dt) < 4 * se)
        corr = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(paths))

    def test_empirical_covariance_matches_closed_form(self):
        spec = FgbmSpec(0.7, BAND, tuple(np.linspace(0, 1, 33)))
        paths = simulate_fgbm(spec, 0.2, seed=3, n_paths=30000)
        b_half = np.array([p.values[16] for p in paths])
        b_one = np.array([p.values[-1] for p in paths])
        prod = b_half * b_one
        target = 0.04 * unit_cov(0.5, 1.0, 0.7)
        se = prod.std(ddof=1) / math.sqrt(len(prod))
        assert abs(prod.mean() - target) < 3 * se

    def test_self_similar_variance_scaling(self):
        H = 0.7
        spec = FgbmSpec(H, BAND, tuple(np.linspace(0, 1, 33)))
        paths = simulate_fgbm(spec, 0.2, seed=5, n_paths=30000)
        v_quarter = np.array([p.values[8] for p in paths])
        v_one = np.array([p.values[-1] for p in paths])
        ratio = v_one.var(ddof=1) / v_quarter.var(ddof=1)
        target = 4.0 ** (2 * H)
        se = target * math.sqrt(4.0 / len(paths))  # two variance estimates
        assert abs(ratio - target) < 3 * se

    def test_determinism_and_stability_under_growth(self):
        spec = FgbmSpec(0.3, BAND, tuple(np.linspace(0, 1, 17)))
        a = simulate_fgbm(spec, 0.2, seed=9, n_paths=1)[0]
        b = simulate_fgbm(spec, 0.2, seed=9, n_paths=100)[0]
        assert np.array_equal(a.values, b.values)

    def test_sigma_outside_band_rejected(self):
        spec = FgbmSpec(0.7, BAND, (0.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="band"):
            simulate_fgbm(spec, 0.9, seed=0, n_paths=1)

    def test_time_varying_sigma_rejected(self):
        spec = FgbmSpec(0.7, BAND, (0.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="constant"):
            simulate_fgbm(spec, np.array([0.1, 0.3]), seed=0, n_paths=1)

    def test_constant_sigma_array_accepted(self):
        spec = FgbmSpec(0.7, BAND, (0.0, 0.5, 1.0))
        a = simulate_fgbm(spec, np.array([0.2, 0.2]), seed=4, n_paths=1)[0]
        b = simulate_fgbm(spec, 0.2, seed=4, n_paths=1)[0]
        assert np.array_equal(a.values, b.values)

    def test_volterra_synthesis_at_half_matches_driving_noise(self):
        # identity kernel: synthesis must equal the plain cumulative noise
        grid = np.linspace(0, 1, 33)
        spec = FgbmSpec(0.5, BAND, tuple(grid))
        synth = simulate_fgbm(spec, 0.2, seed=12, n_paths=3, method="volterra")
        plain = simulate_gbm_increments(ControlProcess.constant(0.0, 0.2),
                                        grid, seed=12, n_paths=3)
        for a, b in zip(synth, plain):
            assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-15)

    def test_volterra_close_to_exact_covariance(self):
        grid = np.linspace(0, 1, 17)
        spec = FgbmSpec(0.7, BAND, tuple(grid))
        paths = simulate_fgbm(spec, 0.2, seed=6, n_paths=8000, method="volterra")
        v_one = np.array([p.values[-1] for p in paths])
        # midpoint-discretised kernel slightly undershoots the exact variance
        assert v_one.var(ddof=1) == pytest.approx(0.04, rel=0.08)

    def test_holder_roughness_tracks_hurst(self):
        spec = FgbmSpec(0.8, BAND, tuple(np.linspace(0, 1, 8193)))
        paths = simulate_fgbm(spec, 0.2, seed=21, n_paths=4)
        ests = [holder_exponent(p).exponent for p in paths]
        assert abs(np.mean(ests) - 0.8) < 0.1


class TestSimulatorsReturnTheirMatrix:
    @pytest.mark.parametrize("grid, method", [
        (tuple(np.linspace(0.0, 1.0, 33)), "factorization"),   # circulant
        ((0.0, 0.1, 0.25, 0.5, 0.6, 1.0), "factorization"),    # Cholesky
        (tuple(np.linspace(0.0, 1.0, 17)), "volterra"),
    ])
    def test_noise(self, grid, method):
        spec = FgbmSpec(0.3, BAND, grid)
        ens = simulate_fgbm(spec, 0.2, seed=8, n_paths=20, method=method)
        assert isinstance(ens, bidask.PathEnsemble)
        assert np.array_equal(ens.times, spec.grid_array)
        assert ens.values.tobytes() == concatenated_noise(spec, 0.2, 8, 20, method).tobytes()
        assert ens.values.flags.c_contiguous

    def test_asset(self):
        spec = FgbmSpec(0.7, BAND, tuple(np.linspace(0.0, 1.0, 33)))
        ens = simulate_fgbm_asset(spec, 0.02, 50.0, 0.2, seed=9, n_paths=20)
        noise = concatenated_noise(spec, 0.2, 9, 20, "factorization")
        log_inc = np.full(32, 0.02) * np.diff(spec.grid_array) + np.diff(noise, axis=1)
        assert isinstance(ens, bidask.PathEnsemble) and ens.positive
        assert np.all(ens.values[:, 0] == 50.0)
        assert np.array_equal(ens.values[:, 1:], 50.0 * np.exp(np.cumsum(log_inc, axis=1)))


class TestCirculantEmbedding:
    @pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 16, 1024])
    def test_eigenvalues_nonnegative_and_invert_to_autocovariance(self, H, n):
        gamma = _fgn_autocovariance(n, H)
        # gamma(k) = Cov(B_H(1) - B_H(0), B_H(k+1) - B_H(k)); the difference
        # cancels terms of size (n+1)^2H, hence the scaled tolerance
        want = [unit_cov(1.0, k + 1.0, H) - unit_cov(1.0, k, H) for k in range(n + 1)]
        assert np.allclose(gamma, want, rtol=0.0, atol=1e-14 * (n + 1) ** (2 * H))
        lam = _circulant_eigenvalues(gamma, H)
        assert lam.shape == (n + 1,) and lam.min() >= 0.0
        assert np.max(np.abs(np.fft.irfft(lam, 2 * n)[:n + 1] - gamma)) <= 1e-12

    @pytest.mark.parametrize("H", [0.01, 0.1, 0.3, 0.45, 0.5001, 0.7, 0.9, 0.99, 0.9999])
    def test_autocovariance_against_high_precision_oracle(self, H):
        import mpmath

        ks = sorted({*range(0, 65537, 37), 1, 2, 3, 65536})
        gamma = _fgn_autocovariance(65536, H)
        with mpmath.workdps(40):
            a = 2 * mpmath.mpf(H)
            worst = max(abs(gamma[k] / ((mpmath.mpf(k + 1) ** a - 2 * mpmath.mpf(k) ** a
                                         + abs(mpmath.mpf(k - 1)) ** a) / 2) - 1)
                        for k in ks)
        assert worst <= 1e-13

    def test_autocovariance_is_white_at_half(self):
        assert np.array_equal(_fgn_autocovariance(4096, 0.5), np.eye(1, 4097)[0])

    def test_circulant_route_near_one(self):
        # the three-term difference lost enough digits here for the smallest
        # circulant eigenvalue to read -8.4e-5
        spec = FgbmSpec(0.9999, BAND, tuple(np.linspace(0.0, 1.0, 65537)))
        assert np.isfinite(simulate_fgbm(spec, 0.2, seed=1, n_paths=1).values).all()

    def test_negative_eigenvalue_raises_with_its_value(self):
        with pytest.raises(NumericalFailure) as exc:
            _circulant_eigenvalues(np.array([1.0, 0.9, -0.8]), 0.7)
        d = exc.value.diagnostics
        # row (1, 0.9, -0.8, 0.9): eigenvalues 2, 1.8, -1.6
        assert d["min_eigenvalue"] == pytest.approx(-1.6, abs=1e-12)
        assert d["n_points"] == 2 and d["hurst"] == 0.7

    def test_uniform_grid_builds_no_factor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Cholesky factor built on a uniform grid")

        monkeypatch.setattr(scipy.linalg, "cholesky", refuse)
        spec = FgbmSpec(0.63, BAND, tuple(np.linspace(0, 2, 101)))
        paths = simulate_fgbm(spec, 0.2, seed=1, n_paths=3)
        assert all(len(p) == 101 and p.values[0] == 0.0 for p in paths)

    def test_non_uniform_grid_is_the_cholesky_matvec(self):
        H, sig, seed = 0.7, 0.2, 17
        grid = np.concatenate(([0.0], np.cumsum(np.linspace(0.01, 0.1, 12))))
        paths = simulate_fgbm(FgbmSpec(H, BAND, tuple(grid)), sig, seed=seed, n_paths=4)
        tt, ss = grid[1:, None], grid[None, 1:]
        R = 0.5 * (tt ** (2 * H) + ss ** (2 * H) - np.abs(tt - ss) ** (2 * H))
        L = cholesky(R, lower=True)
        z = _draw_normals(seed, 4, len(grid) - 1)
        for j, p in enumerate(paths):
            assert p.values[0] == 0.0
            assert np.array_equal(p.values[1:], sig * (L @ z[j]))

    def test_single_step(self):
        # n = 1: eigenvalues 2^(2H-1) and 2 - 2^(2H-1) of the 2x2 circulant,
        # and B_H(1) = sigma (sqrt(lam0/2) z0 + sqrt(lam1/2) z1)
        H, sig = 0.8, 0.25
        spec = FgbmSpec(H, BAND, (0.0, 1.0))
        paths = simulate_fgbm(spec, sig, seed=3, n_paths=20000)
        z = _draw_normals(3, 20000, 2)
        lam0, lam1 = 2.0 ** (2 * H - 1), 2.0 - 2.0 ** (2 * H - 1)
        want = sig * (math.sqrt(lam0 / 2) * z[:, 0] + math.sqrt(lam1 / 2) * z[:, 1])
        got = np.array([p.values[-1] for p in paths])
        assert np.allclose(got, want, rtol=1e-13, atol=1e-16)
        assert all(p.values[0] == 0.0 and len(p) == 2 for p in paths)
        se = sig**2 * math.sqrt(2.0 / len(got))
        assert abs(got.var(ddof=1) - sig**2) < 4 * se


class TestConditionalMean:
    def test_zero_history_is_zero(self):
        grid = np.linspace(0, 1, 17)
        drv = SampledPath(grid, np.zeros_like(grid))
        assert fgbm_conditional_mean(drv, 0.0, 1.0, 0.7) == 0.0

    def test_half_hurst_returns_current_value(self):
        grid = np.linspace(0, 1, 33)
        c = ControlProcess.constant(0.0, 0.2)
        drv = simulate_gbm_increments(c, grid, seed=2, n_paths=1)[0]
        v = 0.5
        got = fgbm_conditional_mean(drv, v, 1.0, 0.5)
        assert got == pytest.approx(np.interp(v, drv.times, drv.values), rel=1e-12)

    def test_consistent_with_volterra_synthesis(self):
        # forecasting at the history's end reproduces the synthesised value
        grid = np.linspace(0, 1, 17)
        spec = FgbmSpec(0.7, BAND, tuple(grid))
        c = ControlProcess.constant(0.0, 0.2)
        drv = simulate_gbm_increments(c, grid, seed=12, n_paths=1)[0]
        synth = simulate_fgbm(spec, 0.2, seed=12, n_paths=1, method="volterra")[0]
        k = 8
        got = fgbm_conditional_mean(drv, grid[k], grid[k], 0.7)
        assert got == pytest.approx(synth.values[k], rel=1e-10)

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_matches_scalar_sum(self, H):
        grid = np.concatenate(([0.0], np.cumsum(np.linspace(0.01, 0.1, 12))))
        c = ControlProcess.constant(0.0, 0.2)
        drv = simulate_gbm_increments(c, grid, seed=3, n_paths=1)[0]
        t, v = grid[-1], grid[7]
        want = sum(volterra_kernel(t, 0.5 * (a + b), H) * (yb - ya)
                   for a, b, ya, yb in zip(grid[:7], grid[1:8],
                                           drv.values[:7], drv.values[1:8]))
        got = fgbm_conditional_mean(drv, v, t, H)
        assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_v_after_t(self):
        grid = np.linspace(0, 1, 17)
        drv = SampledPath(grid, np.zeros_like(grid))
        with pytest.raises(ValueError):
            fgbm_conditional_mean(drv, 0.9, 0.5, 0.7)
        # v past the driving path's end, and dates that are not finite
        short = SampledPath(grid[:9], np.zeros(9))
        for v, t in ((0.9, 1.0), (0.3, math.nan), (math.nan, 1.0), (0.3, math.inf)):
            with pytest.raises(ValueError):
                fgbm_conditional_mean(short, v, t, 0.7)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_driving_path_that_is_not_finite(self, bad):
        grid = np.linspace(0, 1, 17)
        values = np.zeros_like(grid)
        values[3] = bad
        with pytest.raises(ValueError, match="driving path value .* at t=0.1875 is not finite"):
            fgbm_conditional_mean(SampledPath(grid, values), 0.5, 1.0, 0.7)


class TestFractionalAsset:
    def test_zero_vol_is_exponential_of_integrated_drift(self):
        band = UncertaintyBand(0.0, 0.0, 0.0, 0.3)
        grid = np.linspace(0, 1, 33)
        spec = FgbmSpec(0.7, band, tuple(grid))
        p = simulate_fgbm_asset(spec, 0.04, 100.0, 0.0, seed=5, n_paths=1)[0]
        assert np.allclose(p.values, 100.0 * np.exp(0.04 * grid), rtol=1e-12)

    def test_half_hurst_log_increments_are_gaussian_scenario(self):
        grid = np.linspace(0, 1, 17)
        spec = FgbmSpec(0.5, BAND, tuple(grid))
        paths = simulate_fgbm_asset(spec, 0.0, 100.0, 0.2, seed=31, n_paths=20000)
        logs = np.array([np.diff(np.log(p.values)) for p in paths])
        dt = 1.0 / 16.0
        assert abs(logs.mean()) < 3 * logs.std() / math.sqrt(logs.size)
        var = logs.var(ddof=1)
        assert var == pytest.approx(0.04 * dt, rel=0.05)

    @pytest.mark.parametrize("grid", [
        np.linspace(0, 1, 65),
        np.concatenate(([0.0], np.cumsum(np.linspace(0.01, 0.1, 12)))),
    ])
    # any real number is a drift rate: an int and a numpy integer too
    @pytest.mark.parametrize("b", [0.03, 0, np.int64(1)], ids=["0.03", "int", "np.int64"])
    def test_exponentiates_the_noise_simulate_fgbm_draws(self, grid, b):
        spec = FgbmSpec(0.7, BAND, tuple(grid))
        noise = np.array([p.values for p in simulate_fgbm(spec, 0.2, seed=7, n_paths=6)])
        b_dt = np.full(len(grid) - 1, b) * np.diff(grid)
        want = 100.0 * np.exp(np.cumsum(b_dt + np.diff(noise, axis=1), axis=1))
        got = np.array([p.values for p in
                        simulate_fgbm_asset(spec, b, 100.0, 0.2, seed=7, n_paths=6)])
        assert np.all(got[:, 0] == 100.0)
        assert np.array_equal(got[:, 1:], want)

    def test_positivity(self):
        spec = FgbmSpec(0.3, BAND, tuple(np.linspace(0, 1, 65)))
        for p in simulate_fgbm_asset(spec, 0.0, 1e-3, 0.3, seed=8, n_paths=20):
            assert p.positive and np.all(p.values > 0)


def complex_half_spectrum_sample(z, lam):
    """The circulant sample's reference: the half-spectrum built as
    complex numbers, (z_{k+1} + i z_{n+k}) sqrt(1/2)."""
    n = len(lam) - 1
    w = np.empty((len(z), n + 1), dtype=complex)
    w[:, 0] = z[:, 0]
    w[:, n] = z[:, 1]
    w[:, 1:n] = (z[:, 2:n + 1] + 1j * z[:, n + 1:]) * math.sqrt(0.5)
    w *= np.sqrt(2 * n * lam)
    return np.fft.irfft(w, 2 * n, axis=1)[:, :n]


def concatenated_noise(spec, sigma, seed, n_paths, method):
    """The noise matrix's reference: each route's values in their own
    array, a zero column concatenated in front."""
    grid, H = spec.grid_array, spec.hurst
    z = _draw_normals(seed, n_paths, bidask.fgbm._normals_per_path(grid, method))
    if method == "volterra":
        K = _kernel_matrix(grid, H)
        vals = np.array([K @ (sigma * np.sqrt(np.diff(grid)) * row) for row in z])
    elif bidask.fgbm._uniform_step(grid) is not None:
        lam = _circulant_eigenvalues(_fgn_autocovariance(len(grid) - 1, H), H)
        dt = bidask.fgbm._uniform_step(grid)
        vals = np.cumsum(sigma * dt**H * complex_half_spectrum_sample(z, lam), axis=1)
    else:
        L = bidask.fgbm._unit_cholesky(grid[1:], H)
        vals = np.array([sigma * (L @ row) for row in z])
    return np.concatenate((np.zeros((n_paths, 1)), vals), axis=1)


def chunk_rows(grid, method):
    """Paths per chunk of ``simulate_fgbm``'s draw on ``grid``."""
    per_path = bidask.fgbm._normals_per_path(np.asarray(grid), method)
    return max(1, bidask.fgbm._CHUNK_NORMALS // per_path)


def chunk_edges(grid, method):
    """Path counts at and around the chunk size m, and at the 4096-path
    block edges of the draw."""
    m = chunk_rows(grid, method)
    return sorted({1, m - 1, m, m + 1, 2 * m + 1, 4095, 4096, 4097} - {0})


class TestSpectrumAndNoiseInPlace:
    """The half-spectrum is filled through its real and imaginary parts, in
    a buffer that serves every chunk, and the noise is summed a chunk at a
    time: bitwise the complex-arithmetic and concatenating references."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 2048])
    def test_circulant_sample_is_the_complex_one(self, n):
        lam = _circulant_eigenvalues(_fgn_autocovariance(n, 0.7), 0.7)
        z = _draw_normals(23, 32, 2 * n)
        z[1, ::3] = 0.0  # signed zeros among nonzero normals
        z[2, 1::4] = -0.0
        w = np.zeros((32, n + 1), dtype=complex)
        scale = np.sqrt(2 * n * lam)
        want = complex_half_spectrum_sample(z, lam).tobytes()
        assert bidask.fgbm._circulant_sample(z, scale, w).tobytes() == want
        # the buffer, filled by that call, serves the next one unchanged
        assert np.all(w.imag[:, [0, n]] == 0.0) and not np.signbit(w.imag[:, [0, n]]).any()
        assert bidask.fgbm._circulant_sample(z, scale, w).tobytes() == want

    @pytest.mark.parametrize("grid, method", [
        (tuple(np.linspace(0.0, 1.0, 2)), "factorization"),     # circulant, n = 1
        (tuple(np.linspace(0.0, 2.0, 257)), "factorization"),   # circulant
        ((0.0, 0.1, 0.25, 0.5, 0.6, 1.0), "factorization"),     # Cholesky
        (tuple(np.linspace(0.0, 1.0, 33)), "volterra"),
    ])
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.8])
    def test_noise_matrix_is_the_concatenated_one(self, grid, method, H):
        spec = FgbmSpec(H, BAND, grid)
        for n_paths in [20, *chunk_edges(grid, method)]:
            got = simulate_fgbm(spec, 0.2, 24, n_paths, method).values
            want = concatenated_noise(spec, 0.2, 24, n_paths, method)
            assert got.tobytes() == want.tobytes(), n_paths
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("grid", [
        tuple(np.linspace(0.0, 1.0, 2)),                        # circulant, n = 1
        tuple(np.linspace(0.0, 1.0, 65)),                       # circulant
        (0.0, 0.1, 0.25, 0.5, 0.6, 1.0),                        # Cholesky
    ], ids=["circulant_n1", "circulant", "cholesky"])
    def test_asset_is_the_full_matrix_one(self, grid):
        spec = FgbmSpec(0.7, BAND, grid)
        b_dt = 0.03 * np.diff(spec.grid_array)
        for n_paths in chunk_edges(grid, "factorization"):
            noise = concatenated_noise(spec, 0.2, 25, n_paths, "factorization")
            want = np.empty_like(noise)
            want[:, 0] = 100.0
            want[:, 1:] = 100.0 * np.exp(np.cumsum(b_dt + np.diff(noise, axis=1), axis=1))
            got = simulate_fgbm_asset(spec, 0.03, 100.0, 0.2, 25, n_paths).values
            assert got.tobytes() == want.tobytes(), n_paths


@pytest.mark.parametrize("sample", [
    lambda spec: simulate_fgbm(spec, 0.2, 1, 2000),
    lambda spec: simulate_fgbm_asset(spec, 0.01, 100.0, 0.2, 1, 2000),
], ids=["noise", "asset"])
def test_holds_its_output_and_one_chunk_at_scale(sample):
    # 2000 paths of 2048 steps: 32.8 MB of output.  A whole draw of 2n
    # normals per path would add 65.5 MB, its half-spectrum as much again
    import tracemalloc

    spec = FgbmSpec(0.7, BAND, tuple(np.linspace(0.0, 1.0, 2049)))
    sample(FgbmSpec(0.7, BAND, (0.0, 0.5, 1.0)))  # the modules a first call imports
    tracemalloc.start()
    try:
        ens = sample(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ens.values.nbytes + 1.0e6
