"""Uncertainty bands, sublinear G-functions, and worst-case expectations.

Model ambiguity is a rectangle: the drift rate lives in ``[mu_lo, mu_hi]``
and the volatility in ``[sigma_lo, sigma_hi]``.  Everything downstream
(PDE pricing, scenario simulation, shadow-price construction) is driven by
the two sublinear functions defined here,

    g_vol(a)        = (sigma_hi^2 a+ - sigma_lo^2 a-) / 2
    g_drift_vol(e,a) = (mu_hi e+ - mu_lo e-) + g_vol(a)

and by the two degenerate worst-case distributions: mean uncertainty with
zero variance (expectation = max of the test function over the mean
interval) and zero mean with variance uncertainty (expectation = solution
of the nonlinear heat equation driven by ``g_vol``).

Upper expectations are computed directly; the lower counterpart is always
``-E[-X]`` and never a second code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "UncertaintyBand",
    "ScalarFunctionSpec",
    "g_vol",
    "g_drift_vol",
    "maximal_expectation",
    "g_normal_expectation",
]


@dataclass(frozen=True)
class UncertaintyBand:
    """Drift interval [mu_lo, mu_hi] and volatility interval [sigma_lo, sigma_hi].

    Volatilities are nonnegative with sigma_hi > 0; an all-zero volatility
    band is rejected because every pricing object here degenerates with it.
    """

    mu_lo: float
    mu_hi: float
    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        for name in ("mu_lo", "mu_hi", "sigma_lo", "sigma_hi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"band field {name} must be finite, got {v!r}")
        if self.mu_lo > self.mu_hi:
            raise ValueError(f"mu_lo={self.mu_lo} exceeds mu_hi={self.mu_hi}")
        if self.sigma_lo < 0.0:
            raise ValueError(f"sigma_lo={self.sigma_lo} must be nonnegative")
        if self.sigma_lo > self.sigma_hi:
            raise ValueError(f"sigma_lo={self.sigma_lo} exceeds sigma_hi={self.sigma_hi}")
        if self.sigma_hi <= 0.0:
            raise ValueError("sigma_hi must be positive (degenerate zero-volatility band)")

    def contains_sigma(self, sigma) -> bool:
        s = np.asarray(sigma, dtype=float)
        return bool(np.all(s >= self.sigma_lo - 1e-12) and np.all(s <= self.sigma_hi + 1e-12))

    def contains_mu(self, mu) -> bool:
        m = np.asarray(mu, dtype=float)
        return bool(np.all(m >= self.mu_lo - 1e-12) and np.all(m <= self.mu_hi + 1e-12))

    def zero_drift(self) -> "UncertaintyBand":
        """Same volatility interval, drift collapsed to {0}."""
        return UncertaintyBand(0.0, 0.0, self.sigma_lo, self.sigma_hi)


# ---------------------------------------------------------------------------
# Test functions / payoffs
# ---------------------------------------------------------------------------

_KINDS = ("call", "put", "identity", "power", "piecewise_linear", "table")


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A scalar test function / payoff from a closed, checkable family.

    Supported kinds: ``call(strike)``, ``put(strike)``, ``identity``,
    ``power(exponent)``, ``piecewise_linear(knots)`` (linear extrapolation
    beyond the end knots) and ``table(samples)`` (constant extrapolation).
    ``scale`` multiplies the output, so the pointwise negation of any
    member stays inside the family; it is how lower expectations reuse the
    upper code path, and ``negation()``, the map x -> -x, is the identity
    at scale -1.
    """

    kind: str
    strike: float = 0.0
    exponent: float = 1.0
    knots: tuple = field(default=())  # ((x0, y0), (x1, y1), ...)
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if self.kind in ("call", "put") and not math.isfinite(self.strike):
            raise ValueError("strike must be finite")
        if self.kind == "power" and not math.isfinite(self.exponent):
            raise ValueError("exponent must be finite")
        if self.kind in ("piecewise_linear", "table"):
            if len(self.knots) < 2:
                raise ValueError(f"{self.kind} needs at least two knots")
            xs = np.array([k[0] for k in self.knots], dtype=float)
            ys = np.array([k[1] for k in self.knots], dtype=float)
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
                raise ValueError("knots must be finite")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("knot abscissae must be strictly increasing")
        if not math.isfinite(self.scale):
            raise ValueError("scale must be finite")

    # -- constructors -------------------------------------------------------

    @classmethod
    def call(cls, strike: float) -> "ScalarFunctionSpec":
        return cls("call", strike=float(strike))

    @classmethod
    def put(cls, strike: float) -> "ScalarFunctionSpec":
        return cls("put", strike=float(strike))

    @classmethod
    def identity(cls) -> "ScalarFunctionSpec":
        return cls("identity")

    @classmethod
    def negation(cls) -> "ScalarFunctionSpec":
        return cls.identity().negated()

    @classmethod
    def power(cls, exponent: float) -> "ScalarFunctionSpec":
        return cls("power", exponent=float(exponent))

    @classmethod
    def piecewise_linear(cls, knots) -> "ScalarFunctionSpec":
        return cls("piecewise_linear", knots=tuple((float(x), float(y)) for x, y in knots))

    @classmethod
    def table(cls, samples) -> "ScalarFunctionSpec":
        return cls("table", knots=tuple((float(x), float(y)) for x, y in samples))

    def negated(self) -> "ScalarFunctionSpec":
        """The pointwise negation -f, staying inside the closed family."""
        return replace(self, scale=-self.scale)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "call":
            out = np.maximum(x - self.strike, 0.0)
        elif self.kind == "put":
            out = np.maximum(self.strike - x, 0.0)
        elif self.kind == "identity":
            out = x.copy()
        elif self.kind == "power":
            if not float(self.exponent).is_integer() and np.any(x < 0.0):
                raise ValueError(f"power({self.exponent:g}) has a non-integer exponent "
                                 f"and is undefined below 0, got x={float(x.min()):g}")
            out = np.power(x, self.exponent)
        else:
            xs = np.array([k[0] for k in self.knots])
            ys = np.array([k[1] for k in self.knots])
            out = np.interp(x, xs, ys)
            if self.kind == "piecewise_linear":
                # extrapolate with the end-segment slopes
                slo = (ys[1] - ys[0]) / (xs[1] - xs[0])
                shi = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                lo = x < xs[0]
                hi = x > xs[-1]
                out = np.where(lo, ys[0] + slo * (x - xs[0]), out)
                out = np.where(hi, ys[-1] + shi * (x - xs[-1]), out)
        out = self.scale * out
        if out.ndim == 0:
            return float(out)
        return out

    # -- checkable structure ------------------------------------------------

    def knot_points(self) -> tuple:
        """Abscissae where the function may kink (strikes, interior knots)."""
        if self.kind in ("call", "put"):
            return (self.strike,)
        if self.kind in ("piecewise_linear", "table"):
            return tuple(k[0] for k in self.knots)
        return ()


# ---------------------------------------------------------------------------
# Sublinear G-functions
# ---------------------------------------------------------------------------


def g_vol(alpha: float, band: UncertaintyBand) -> float:
    """Volatility-uncertainty envelope:
    (sigma_hi^2 * alpha+ - sigma_lo^2 * alpha-) / 2.

    Positively homogeneous and subadditive in ``alpha``; collapses to the
    linear map sigma^2 * alpha / 2 when the band is a point.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("alpha must be finite")
    out = 0.5 * (band.sigma_hi**2 * np.maximum(a, 0.0) - band.sigma_lo**2 * np.maximum(-a, 0.0))
    return float(out) if out.ndim == 0 else out


def g_drift_vol(eta: float, alpha: float, band: UncertaintyBand) -> float:
    """Joint drift/volatility envelope:
    (mu_hi * eta+ - mu_lo * eta-) + g_vol(alpha)."""
    e = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(e)):
        raise ValueError("eta must be finite")
    drift = band.mu_hi * np.maximum(e, 0.0) - band.mu_lo * np.maximum(-e, 0.0)
    out = drift + g_vol(alpha, band)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Worst-case expectations
# ---------------------------------------------------------------------------


def maximal_expectation(phi: ScalarFunctionSpec, lo: float, hi: float) -> float:
    """Upper expectation under pure mean uncertainty: max phi over [lo, hi].

    Exact for the whole family: every kind is linear between its kink
    abscissae, or (``power``) monotone on either side of 0, so the maximum
    is attained at lo, at hi, at a kink inside the interval, or at 0.  phi
    is evaluated on these candidates only; 0 is one for every kind, since
    a value inside the interval cannot exceed the maximum.  The lower
    variant is ``-maximal_expectation(phi.negated(), lo, hi)``.  A
    ``power`` with a non-integer exponent is undefined below 0, so an
    interval reaching there raises ValueError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval endpoints must be finite")
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    inner = [x for x in (*phi.knot_points(), 0.0) if lo < x < hi]
    return float(np.max(phi(np.array([lo, hi, *inner], dtype=float))))


def g_normal_expectation(phi: ScalarFunctionSpec, band: UncertaintyBand, t: float) -> float:
    """Upper expectation of phi under zero-mean variance uncertainty at time t.

    Defined operationally as u(t, 0) where u solves the nonlinear heat
    equation du/dt = g_vol(d2u/dx2) with u(0, .) = phi (the drift interval
    collapsed to {0}).  Delegates to the PDE engine, on a 400 x 400 grid
    with uniformly spaced nodes.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"horizon must be positive, got {t!r}")
    from . import pde  # local import: pde depends on this module

    grid = pde.GridSpec(n_space=400, n_time=400, stretching="uniform_price")
    surface = pde.solve_g_heat(phi, band.zero_drift(), t, grid)
    return surface.value_at(t, 0.0)
