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
  - on any other grid, Cholesky of R on the grid, O(n^3) to factor and
    O(n^2) per path;
* discrete Volterra synthesis (``volterra``): B_H(t_i) ~= sum_j K_H(t_i,
  s_j*) dB_j with the square-integrable kernel K_H evaluated at increment
  midpoints, which also powers conditional means given the driving noise.
  The kernel is in closed form for every H: after a Pfaff transform its
  hypergeometric factor is an incomplete beta function, summed by one of
  two power series in numpy (see ``_kernel``).

The Cholesky factor and the kernel matrix are both lower triangular, and
the two routes share one loop of one matvec per path: the driving
increments are scaled before the kernel's matvec, sigma is applied after
the factor's.

Every grid starts at 0, where the noise is 0.  Nothing is cached between
calls: each call builds its eigenvalues, factor or kernel matrix afresh.

A sampler holds its output plus one chunk: the normals are drawn, and
turned into noise values, a few paths at a time (at most _CHUNK_NORMALS
normals per chunk), each chunk going on with its block's stream of the
draw, so every path is bitwise the one a whole draw gives.  Besides the
output and one chunk's work arrays, only the route's eigenvalues, factor
or kernel matrix is held.

Only constant-sigma scenarios are supported: scaling the covariance by a
constant is exact, while a time-varying volatility has no closed
covariance here.

scipy is imported inside the one call that uses it: ``cholesky`` when a
non-uniform grid is factorised.  So exact sampling on a uniform grid and
Volterra synthesis load no scipy module, whose import takes longer than
such a call; the kernel needs only numpy and ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .paths import (PathEnsemble, SampledPath, _as_grid, _check_finite, _check_start,
                    _normal_chunks, _time_tol)
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


_SERIES_TERMS = 54  # both series run in a variable <= 1/2; 2^-54 is a quarter ulp of 1


def _series_coefficients(H: float) -> tuple[list, list]:
    """Coefficients n = 1..54 of ``_kernel``'s two series, a = H - 1/2:
    a (2H)_n / (n! (a + n)) in x, and a (1 - a)_n / (n! (n - 2a)) in y."""
    a = H - 0.5
    near, far = [], []
    rise_x = rise_y = 1.0  # (2H)_n / n! and (1 - a)_n / n!
    for n in range(1, _SERIES_TERMS + 1):
        rise_x *= (2.0 * H + n - 1) / n
        rise_y *= (n - a) / n
        near.append(a * rise_x / (a + n))
        far.append(a * rise_y / (n - 2.0 * a))
    return near, far


def _power_series(coefs: list, u: np.ndarray) -> np.ndarray:
    """sum_n coefs[n-1] u^n, n = 1..len(coefs), by Horner's rule."""
    acc = np.full(u.shape, coefs[-1])
    for c in reversed(coefs[:-1]):
        acc *= u
        acc += c
    acc *= u
    return acc


def _kernel(t, s, H: float) -> np.ndarray:
    """K_H(t, s) elementwise over broadcast arrays with 0 < s < t (unchecked).

    The Molchan-Golosov form c_H (t-s)^a 2F1(a, -a; a+1; 1 - t/s), a = H - 1/2
    and c_H = moving_avg_constant(H), becomes after a Pfaff transform
    c_H (t-s)^a y^a F with x = (t-s)/t, y = s/t and F = 2F1(a, 2H; a+1; x)
    = a x^-a B(x; a, -2a), an incomplete beta function.  F is one of two
    power series, 54 terms by Horner's rule, each in a variable at most 1/2:

    * x <= 1/2:  F = 1 + a sum_{n>=1} (2H)_n / n! x^n / (a + n);
    * x > 1/2:   F = x^-a [G(a+1) G(-2a) / G(-a)
                 + y^-2a (1/2 - a sum_{m>=1} (1-a)_m / m! y^m / (m - 2a))],
      G the gamma function, from B(x; a, -2a) = B(a, -2a) - B(y; -2a, a).

    At H = 1/2 the kernel is exactly 1.
    """
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    if H == 0.5:
        return np.ones(t.shape)
    a = H - 0.5
    near_coefs, far_coefs = _series_coefficients(H)
    x = (t - s) / t
    y = s / t
    F = np.empty(x.shape)
    near = x <= 0.5
    F[near] = 1.0 + _power_series(near_coefs, x[near])
    far = ~near
    y_far = y[far]
    head = math.gamma(a + 1.0) * math.gamma(-2.0 * a) / math.gamma(-a)
    F[far] = x[far] ** -a * (head + y_far ** (-2.0 * a)
                             * (0.5 - _power_series(far_coefs, y_far)))
    return moving_avg_constant(H) * ((t - s) * y) ** a * F


def volterra_kernel(t: float, s: float, H: float) -> float:
    """Square-integrable kernel writing the fractional noise as an integral
    against ordinary driving noise: B_H(t) = int_0^t K_H(t, s) dB_s.

    One closed form for every Hurst index, summed as a power series, so
    nothing is integrated numerically; at H = 1/2 it is the identity, the
    driving noise being already the process.  Needs 0 < s < t < inf.
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


def _circulant_sample(z: np.ndarray, scale: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of n correlated normals, one per row of 2n standard normals z,
    through ``w``, a complex (len(z), n + 1) buffer whose imaginary end
    entries are 0; ``scale`` is sqrt(2n lam_k), k = 0..n.

    The Hermitian half-spectrum w_0 = z_0, w_n = z_1, w_k = (z_{k+1} +
    i z_{n+k}) / sqrt(2) for 0 < k < n, scaled by sqrt(2n lam_k), inverts
    to a real vector whose covariance is the circulant; its first n
    entries have the embedded Toeplitz covariance gamma(|i-j|).  The
    scaling keeps the imaginary end entries 0, so ``w`` serves the next
    call.  One row-wise inverse FFT over the batch gives each row bitwise
    what a one-row call gives.
    """
    n = len(scale) - 1
    re, im = w.real, w.imag
    re[:, 0] = z[:, 0]
    re[:, n] = z[:, 1]
    np.multiply(z[:, 2:n + 1], math.sqrt(0.5), out=re[:, 1:n])
    np.multiply(z[:, n + 1:], math.sqrt(0.5), out=im[:, 1:n])
    w *= scale
    return np.fft.irfft(w, 2 * n, axis=1)[:, :n]


def _circulant_rows(chunks, lam: np.ndarray, step_scale: float):
    """Noise values of each chunk of normals: the cumulated increments
    ``step_scale`` times ``_circulant_sample``, in the inverse FFT's own
    chunk-sized result.  One half-spectrum buffer, sized by the first
    chunk (no later one is larger), serves every chunk."""
    n = len(lam) - 1
    scale = np.sqrt(2 * n * lam)
    w = None
    for lo, z in chunks:
        if w is None:
            w = np.zeros((len(z), n + 1), dtype=complex)
        x = _circulant_sample(z, scale, w[:len(z)])
        x *= step_scale
        yield lo, np.cumsum(x, axis=1, out=x)


def _matvec_rows(chunks, L: np.ndarray, drive, scale: float):
    """Noise values of each chunk of normals: scale * (L @ (drive * z_j))
    for each row z_j, one matvec per path (not a batched matmul), so that
    path j's values do not depend on how many other paths share the call.
    A factor 1.0 changes no bit."""
    v = None
    for lo, z in chunks:
        z *= drive
        if v is None:
            v = np.empty_like(z)
        vals = v[:len(z)]
        for zj, vj in zip(z, vals):
            vj[:] = L @ zj
        vals *= scale
        yield lo, vals


_CHUNK_NORMALS = 2**14  # normals per chunk of a draw, one path per chunk at least


def _normals_per_path(grid: np.ndarray, method: str) -> int:
    """Standard normals ``simulate_fgbm`` draws per path on ``grid``: 2n on
    the circulant route, one per step on the others."""
    if method == "factorization" and _uniform_step(grid) is not None:
        return 2 * (len(grid) - 1)
    return len(grid) - 1


def _noise_rows(spec: FgbmSpec, sigma, seed: int, n_paths: int, method: str):
    """Noise values on ``spec.grid[1:]``, a chunk of paths at a time: an
    iterator over (lo, v), v the values of paths lo, lo + 1, ... in a
    buffer that the next chunk overwrites.

    A chunk holds at most _CHUNK_NORMALS normals (one path's, if a path
    needs more) and never crosses a block of the draw, so row j is bitwise
    the same for any n_paths.  The inputs are checked and the route's
    eigenvalues, factor or kernel matrix built at the call, before any
    normal is drawn.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    sig = _scenario_sigma(sigma, spec.band)
    grid = spec.grid_array
    H = spec.hurst
    dt = _uniform_step(grid)
    per_path = _normals_per_path(grid, method)
    chunks = _normal_chunks(seed, n_paths, per_path, max(1, _CHUNK_NORMALS // per_path))

    if method == "factorization" and dt is not None:
        lam = _circulant_eigenvalues(_fgn_autocovariance(len(grid) - 1, H), H)
        return _circulant_rows(chunks, lam, sig * dt**H)
    # the Volterra and Cholesky routes: a lower-triangular factor, the
    # driving increments scaled before the kernel's matvec, sigma applied
    # after the factor's
    if method == "volterra":
        return _matvec_rows(chunks, _kernel_matrix(grid, H), sig * np.sqrt(np.diff(grid)), 1.0)
    return _matvec_rows(chunks, _unit_cholesky(grid[1:], H), 1.0, sig)


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

    The call holds its result, the route's factor or kernel matrix, and one
    chunk of at most _CHUNK_NORMALS normals with its work arrays: the paths
    are drawn and written a few rows at a time.
    """
    rows = _noise_rows(spec, sigma, seed, n_paths, method)
    out = np.empty((n_paths, len(spec.grid)))
    out[:, 0] = 0.0
    for lo, v in rows:
        out[lo:lo + len(v), 1:] = v
    return PathEnsemble(spec.grid_array, out)


def fgbm_conditional_mean(driving_increments: SampledPath, v: float, t: float,
                          H: float) -> float:
    """Best forecast of the fractional noise at t given driving noise to v:
    the discrete Volterra sum over increments contained in [0, v].  Needs
    finite 0 <= v <= t, with v no later than the driving path's end, and a
    driving path whose values are all finite."""
    if msg := hurst_violation(H):
        raise ValueError(msg)
    _check_finite(driving_increments, "driving path")
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
    is not one) raises ValueError, S0 and b checked before the draw.

    The call holds its result and what ``simulate_fgbm`` holds besides its
    own result: each chunk of noise values becomes asset rows in the
    result, log-increments, drift, running sum, exponential and S0 in
    place, so the noise matrix is never built."""
    _check_start(S0)
    real = isinstance(b, (int, float, np.integer, np.floating)) and not isinstance(b, bool)
    if not (real and math.isfinite(b)):
        raise ValueError(f"drift rate b must be a finite real number, got {b!r}")
    rows = _noise_rows(spec, sigma, seed, n_paths, "factorization")
    grid = spec.grid_array
    b_dt = float(b) * np.diff(grid)
    vals = np.empty((n_paths, len(grid)))
    vals[:, 0] = S0
    for lo, v in rows:  # each chunk's noise values become its asset rows in place
        log_s = vals[lo:lo + len(v), 1:]
        log_s[:, 0] = v[:, 0]
        np.subtract(v[:, 1:], v[:, :-1], out=log_s[:, 1:])
        log_s += b_dt
        np.cumsum(log_s, axis=1, out=log_s)
        np.exp(log_s, out=log_s)
        log_s *= S0
    return PathEnsemble(grid, vals, positive=True)
