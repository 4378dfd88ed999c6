"""Fractional driving noise with volatility uncertainty.

The process is centered Gaussian per scenario with the classical
fractional covariance  R(s,t) = (s^2H + t^2H - |t-s|^2H)/2  scaled by a
scenario volatility sigma^2; the band's two ends give the upper and lower
covariance envelopes.  Two sampling methods are exposed:

* exact sampling (``factorization``, the default), by one of two routes
  chosen from the grid:
  - on a uniform grid the increments are stationary fractional Gaussian
    noise, sampled by Davies-Harte circulant embedding: the
    autocovariance is embedded in a circulant of twice the size, whose
    eigenvalues (one real FFT) are nonnegative for every H, and each path
    is one inverse FFT of 2n scaled normals, O(n log n);
  - on any other grid, Cholesky of R on the grid, one lower-triangular
    matvec per path, O(n^3) to factor and O(n^2) per path;
* discrete Volterra synthesis (``volterra``): B_H(t_i) ~= sum_j K_H(t_i,
  s_j*) dB_j with the square-integrable kernel K_H evaluated at increment
  midpoints, which also powers conditional means given the driving noise.
  The kernel is in closed form, one Gauss hypergeometric function for
  every H.

Every grid starts at 0, where the noise is 0.  Nothing is cached between
calls: each call builds its eigenvalues, factor or kernel matrix afresh.

Only constant-sigma scenarios are supported: scaling the covariance by a
constant is exact, while a time-varying volatility has no closed
covariance here.

scipy is imported inside the two calls that use it: ``cholesky`` when a
non-uniform grid is factorised and ``hyp2f1`` when the Volterra kernel is
evaluated.  So exact sampling on a uniform grid loads neither
``scipy.linalg`` nor ``scipy.special``, whose import takes longer than
such a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .paths import (PathEnsemble, SampledPath, _as_grid, _check_start, _draw_normals,
                    _time_tol)
from .sublinear import UncertaintyBand

__all__ = [
    "FgbmSpec",
    "fgbm_covariance",
    "moving_avg_constant",
    "volterra_kernel",
    "simulate_fgbm",
    "fgbm_conditional_mean",
    "simulate_fgbm_asset",
]

METHODS = ("factorization", "volterra")


def hurst_violation(H) -> str | None:
    """None when the Hurst index H lies in (0, 1) (a NaN does not), else the
    message naming it."""
    return None if 0.0 < H < 1.0 else f"Hurst index must lie in (0, 1), got {H!r}"


@dataclass(frozen=True)
class FgbmSpec:
    """Hurst index, volatility band, and simulation grid (starting at 0)."""

    hurst: float
    band: UncertaintyBand
    grid: tuple

    def __post_init__(self):
        if msg := hurst_violation(self.hurst):
            raise ValueError(msg)
        _as_grid(self.grid)

    @property
    def grid_array(self) -> np.ndarray:
        return np.asarray(self.grid, dtype=float)


def _unit_covariance(s, t, H: float):
    """Unit-volatility noise covariance (s^2H + t^2H - |t-s|^2H) / 2, s, t >= 0."""
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - np.abs(t - s) ** (2 * H))


def fgbm_covariance(s: float, t: float, H: float, band: UncertaintyBand):
    """Upper/lower covariance envelope of the fractional noise at (s, t):
    sigma^2 (s^2H + t^2H - |t-s|^2H) / 2 at the band's two volatility ends."""
    if msg := hurst_violation(H):
        raise ValueError(msg)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= s) & (s < np.inf) & (0.0 <= t) & (t < np.inf)):
        raise ValueError("covariance times must be finite and nonnegative")
    base = _unit_covariance(s, t, H)
    upper = band.sigma_hi**2 * base
    lower = band.sigma_lo**2 * base
    if np.ndim(base) == 0:
        return float(upper), float(lower)
    return upper, lower


def moving_avg_constant(H: float) -> float:
    """Normalisation of the moving-average representation of the noise:
    sqrt(2H sin(pi H) Gamma(2H)) / Gamma(H + 1/2), which is also the
    constant c_H of ``volterra_kernel``.  Equals 1 at H = 1/2."""
    if msg := hurst_violation(H):
        raise ValueError(msg)
    num = math.sqrt(2.0 * H * math.sin(math.pi * H) * math.gamma(2.0 * H))
    return num / math.gamma(H + 0.5)


# ---------------------------------------------------------------------------
# Volterra kernel
# ---------------------------------------------------------------------------


def _kernel(t, s, H: float) -> np.ndarray:
    """K_H(t, s) elementwise over broadcast arrays with 0 < s < t (unchecked):
    the Molchan-Golosov form c_H (t-s)^(H-1/2) 2F1(H-1/2, 1/2-H; H+1/2; 1-t/s),
    c_H = moving_avg_constant(H), for every H in (0, 1); exactly 1 at H = 1/2."""
    from scipy.special import hyp2f1

    return moving_avg_constant(H) * (t - s) ** (H - 0.5) \
        * hyp2f1(H - 0.5, 0.5 - H, H + 0.5, 1.0 - t / s)


def volterra_kernel(t: float, s: float, H: float) -> float:
    """Square-integrable kernel writing the fractional noise as an integral
    against ordinary driving noise: B_H(t) = int_0^t K_H(t, s) dB_s.

    One Gauss hypergeometric closed form for every Hurst index, so nothing
    is integrated numerically; at H = 1/2 it is the identity, the driving
    noise being already the process.  Needs 0 < s < t < inf.
    """
    if msg := hurst_violation(H):
        raise ValueError(msg)
    if not (0.0 < s < t < math.inf):
        raise ValueError(f"kernel needs 0 < s < t < inf, got s={s!r}, t={t!r}")
    return float(_kernel(t, s, H))


def _kernel_matrix(grid: np.ndarray, H: float) -> np.ndarray:
    """K_H(t_i, s_j*) at increment midpoints s_j*, lower triangular (j <= i).

    Midpoints avoid the s -> 0 divergence of the kernel, and s_j* < t_i
    holds on the whole lower triangle.
    """
    mids = 0.5 * (grid[:-1] + grid[1:])
    n = len(mids)
    i, j = np.tril_indices(n)
    K = np.zeros((n, n))
    K[i, j] = _kernel(grid[1:][i], mids[j], H)
    return K


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def _unit_cholesky(times: np.ndarray, H: float) -> np.ndarray:
    """Lower Cholesky factor of the unit-volatility covariance on ``times``.

    Tiny diagonal regularisation (up to 1e-12 relative) is attempted before
    declaring the matrix numerically indefinite.
    """
    from scipy.linalg import cholesky

    R = _unit_covariance(times[None, :], times[:, None], H)
    scale = float(R.diagonal().max())
    L = None
    for jitter in (0.0, 1e-14, 1e-13, 1e-12):
        try:
            L = cholesky(R + jitter * scale * np.eye(len(times)), lower=True,
                         check_finite=False)
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise NumericalFailure(
            "covariance matrix not positive definite after regularisation",
            n_points=len(times), hurst=H, max_jitter=1e-12)
    return L


def _scenario_sigma(sigma, band: UncertaintyBand) -> float:
    s = np.asarray(sigma, dtype=float)
    if s.ndim > 0 and np.ptp(s) != 0.0:
        raise ValueError("only constant-volatility scenarios are supported "
                         "for fractional simulation")
    if msg := band.violation(sigma=s):
        raise ValueError(msg)
    return float(s.flat[0])


def _uniform_step(grid: np.ndarray) -> float | None:
    """The step of a grid from 0 with equal steps (to 1e-9 relative, which
    round-off in ``linspace`` stays far inside), else None."""
    dt = grid[-1] / (len(grid) - 1)
    if np.all(np.abs(np.diff(grid) - dt) <= 1e-9 * dt):
        return float(dt)
    return None


def _fgn_autocovariance(n: int, H: float) -> np.ndarray:
    """gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2, k = 0..n: the
    autocovariance of unit-step, unit-volatility fractional Gaussian noise.

    The difference would cancel terms of size k^2H, so gamma(1) is taken as
    expm1((2H - 1) log 2) and gamma(k >= 2) as the series k^2H sum_j
    C(2H, 2j) k^-2j: its terms share one sign and the factor 2H (2H - 1),
    exactly 0 at H = 1/2, and Horner's rule sums them to round-off with 28
    terms below k = 16 and 8 from there.
    """
    a = 2.0 * H
    k = np.arange(2.0, n + 1.0)
    y = 1.0 / (k * k)
    s = np.ones(len(k))  # sum_j C(2H, 2j) y^(j-1) / C(2H, 2), y = 1 / k^2
    for j in range(27, 0, -1):
        m = len(k) if j < 8 else 14  # entries k = 2..15 take the terms past the 8th
        ratio = (a - 2 * j) * (a - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2))
        s[:m] = 1.0 + ratio * y[:m] * s[:m]  # ratio = C(2H, 2j + 2) / C(2H, 2j)
    gamma = np.empty(n + 1)
    gamma[:2] = 1.0, math.expm1((a - 1.0) * math.log(2.0))
    gamma[2:] = H * (a - 1.0) * y * k ** a * s
    return gamma


def _circulant_eigenvalues(gamma: np.ndarray, H: float) -> np.ndarray:
    """Eigenvalues 0..n of the 2n-circulant with first row gamma(0..n),
    gamma(n-1..1) (the rest mirror them).

    They are nonnegative for fractional Gaussian noise at every H, which
    makes the embedding exact; a negative one (which only a sequence that
    is not an fGn autocovariance should produce) is a NumericalFailure.
    """
    lam = np.fft.rfft(np.concatenate((gamma, gamma[-2:0:-1]))).real
    if lam.min() < 0.0:
        raise NumericalFailure(
            "circulant embedding of the autocovariance is not positive semidefinite",
            min_eigenvalue=float(lam.min()), n_points=len(gamma) - 1, hurst=H)
    return lam


def _circulant_sample(z: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows of n correlated normals, one per row of 2n standard normals z.

    The Hermitian half-spectrum w_0 = z_0, w_n = z_1, w_k = (z_{k+1} +
    i z_{n+k}) / sqrt(2) for 0 < k < n, scaled by sqrt(2n lam_k), inverts
    to a real vector whose covariance is the circulant; its first n
    entries have the embedded Toeplitz covariance gamma(|i-j|).  One
    row-wise inverse FFT over the batch gives each row bitwise what a
    one-row call gives.
    """
    n = len(lam) - 1
    w = np.empty((len(z), n + 1), dtype=complex)
    w[:, 0] = z[:, 0]
    w[:, n] = z[:, 1]
    w[:, 1:n] = (z[:, 2:n + 1] + 1j * z[:, n + 1:]) * math.sqrt(0.5)
    w *= np.sqrt(2 * n * lam)
    return np.fft.irfft(w, 2 * n, axis=1)[:, :n]


def _normals_per_path(grid: np.ndarray, method: str) -> int:
    """Standard normals ``simulate_fgbm`` draws per path on ``grid``: 2n on
    the circulant route, one per step on the others."""
    if method == "factorization" and _uniform_step(grid) is not None:
        return 2 * (len(grid) - 1)
    return len(grid) - 1


def _noise_matrix(spec: FgbmSpec, sigma, seed: int, n_paths: int,
                  method: str) -> np.ndarray:
    """(n_paths, n+1) noise values on ``spec.grid``, row j for path j,
    column 0 all zeros."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    sig = _scenario_sigma(sigma, spec.band)
    grid = spec.grid_array
    H = spec.hurst
    dt = _uniform_step(grid)
    z = _draw_normals(seed, n_paths, _normals_per_path(grid, method))

    # the Cholesky and Volterra routes take one matvec per path (not a
    # batched matmul): path j's values must not depend on how many other
    # paths share the call
    if method == "volterra":
        K = _kernel_matrix(grid, H)
        vol_sqrt_dt = sig * np.sqrt(np.diff(grid))
        vals = np.empty_like(z)
        for j in range(n_paths):
            vals[j] = K @ (vol_sqrt_dt * z[j])
    elif dt is not None:
        lam = _circulant_eigenvalues(_fgn_autocovariance(len(grid) - 1, H), H)
        vals = np.cumsum(sig * dt**H * _circulant_sample(z, lam), axis=1)
    else:
        L = _unit_cholesky(grid[1:], H)
        vals = np.empty_like(z)
        for j in range(n_paths):
            vals[j] = sig * (L @ z[j])
    return np.concatenate((np.zeros((n_paths, 1)), vals), axis=1)


def simulate_fgbm(spec: FgbmSpec, sigma, seed: int, n_paths: int,
                  method: str = "factorization") -> PathEnsemble:
    """Fractional noise trajectories under one constant-sigma scenario, as a
    PathEnsemble.

    ``factorization`` (default) samples exactly from the scaled covariance:
    by circulant embedding (Davies-Harte) when the grid is uniform, by the
    Cholesky factor of the covariance on the grid otherwise.  ``volterra``
    synthesises the paths from ordinary driving increments through the
    discrete kernel.  Paths start at 0 (as the grid does) and are
    deterministic per (seed, path index).  Nothing is cached between calls.
    n_paths < 1 raises ValueError.
    """
    return PathEnsemble(spec.grid_array, _noise_matrix(spec, sigma, seed, n_paths, method))


def fgbm_conditional_mean(driving_increments: SampledPath, v: float, t: float,
                          H: float) -> float:
    """Best forecast of the fractional noise at t given driving noise to v:
    the discrete Volterra sum over increments contained in [0, v].  Needs
    finite 0 <= v <= t, with v no later than the driving path's end."""
    if msg := hurst_violation(H):
        raise ValueError(msg)
    if not (0.0 <= v <= t + 1e-12 and t < math.inf):
        raise ValueError(f"need finite 0 <= v <= t, got v={v!r}, t={t!r}")
    end = driving_increments.horizon
    if v > end + _time_tol(end):
        raise ValueError(f"v={v!r} lies past the driving path's end {end!r}")
    if v == 0.0:
        return 0.0
    times = driving_increments.times
    dB = np.diff(driving_increments.values)
    mids = 0.5 * (times[:-1] + times[1:])
    used = (times[1:] <= v + 1e-12 * max(1.0, v)) & (mids < t)
    return float(np.sum(_kernel(t, mids[used], H) * dB[used]))


def simulate_fgbm_asset(spec: FgbmSpec, b: float, S0: float, sigma, seed: int,
                        n_paths: int) -> PathEnsemble:
    """Positive asset paths driven by fractional noise with constant drift
    rate b, as a PathEnsemble: S_{i+1} = S_i exp(b dt_i + dB_H), with the
    noise ``simulate_fgbm`` samples exactly at the same seed.  n_paths < 1,
    an S0 not finite and positive, or a b not a finite real number (a bool
    is not one) raises ValueError, S0 and b checked before the draw."""
    _check_start(S0)
    real = isinstance(b, (int, float, np.integer, np.floating)) and not isinstance(b, bool)
    if not (real and math.isfinite(b)):
        raise ValueError(f"drift rate b must be a finite real number, got {b!r}")
    grid = spec.grid_array
    noise = _noise_matrix(spec, sigma, seed, n_paths, "factorization")
    b_dt = float(b) * np.diff(grid)
    vals = np.empty_like(noise)
    vals[:, 0] = S0
    vals[:, 1:] = S0 * np.exp(np.cumsum(b_dt + np.diff(noise, axis=1), axis=1))
    return PathEnsemble(grid, vals, positive=True)
