"""Shadow price systems within a relative band of a rough price path.

Given a positive sampled path S and a relative width eps, the construction
walks the classical three steps (Guasoni, Rasonyi & Schachermayer, 2010):

1. stopping times: tau_{n+1} is the first grid time after tau_n at which
   S / X_n leaves ((1+eps)^-1, 1+eps), capped at the horizon, where X_n is
   the walk level of step 2;
2. signs R_n = sign(S_{tau_n} / X_{n-1} - 1) at interior crossings, 0 at
   the horizon (retirement), driving an exact geometric walk
   X_n = X_{n-1} (1+eps)^{R_n} started at X_0 = S_0;
3. a continuous shadow path anchored at the walk levels,
   S~_{tau_n} = X_n, geometrically interpolated *in the ratio* S~/S
   between anchors.

The ratio interpolation is the one modelling choice the data does not
force: a conditional-expectation shadow is not computable from a single
realised path, while interpolating log(S~/S) linearly in time keeps the
shadow continuous, positive and exact at the anchors.  Because exits are
measured from the walk level, not from the last sampled price, the anchor
gaps do not accumulate: if every grid step has |d log S| <= log(1+eps),
each interior anchor has |log(X_n / S_{tau_n})| < log(1+eps), and the
horizon anchor (where a crossing on the last step retires the walk) has
< 2 log(1+eps).  The interpolation keeps those bounds, so on such grids
the sandwich (1+eps)^-3 <= S~/S <= (1+eps)^3 holds by construction.  A
coarser grid can jump past several levels in one step; the sandwich is
checked there and a violation raises.  The overshoot past the band edge
per crossing is recorded.  All ratio arithmetic is done in log space so
+1/-1 crossings cancel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .paths import SampledPath, _time_tol
from .pde import GridSpec, PricingProblem, solve_bsb_pair

__all__ = [
    "ConsistentPriceSystem",
    "DeltaStats",
    "CpsQuote",
    "CpsPriceResult",
    "extract_stopping_times",
    "retirement_walk",
    "build_shadow_path",
    "delta_processes",
    "cps_price",
]


@dataclass(frozen=True)
class DeltaStats:
    """Pointwise ratio and increment-ratio diagnostics of a shadow path."""

    frac_delta1_within: float   # fraction of times with |S/S~ - 1| <= eps
    frac_delta2_within: float   # fraction of defined steps with |dS/(2 dS~)| <= 2 eps
    flagged_steps: int          # steps with zero shadow increment


@dataclass
class ConsistentPriceSystem:
    """A shadow price system within relative width eps of a source path."""

    epsilon: float
    tau_indices: np.ndarray
    signs: np.ndarray
    levels: np.ndarray
    shadow: SampledPath
    source: SampledPath
    overshoots: np.ndarray
    delta_stats: DeltaStats
    ratio_min: float
    ratio_max: float

    def __post_init__(self):
        last = len(self.source) - 1
        retired_at_horizon = self.tau_indices[-1] == last
        if (self.signs[-1] == 0) != retired_at_horizon:
            raise ConsistencyError("final sign must be 0 exactly when the walk "
                                   "retires at the horizon")

    def crossing_times(self) -> np.ndarray:
        return self.source.times[self.tau_indices]

    @property
    def width(self) -> float:
        """The sandwich width w = (1+eps)^3 (see the module docstring)."""
        return (1.0 + self.epsilon) ** 3

    @property
    def sandwich_ok(self) -> bool:
        """Whether S~/S lies in [1/w, w], up to 1e-12 relative."""
        w = self.width
        return self.ratio_min >= 1.0 / w * (1.0 - 1e-12) and self.ratio_max <= w * (1.0 + 1e-12)


def extract_stopping_times(path: SampledPath, eps: float):
    """Grid crossing times of the relative band ((1+eps)^-1, 1+eps).

    Returns (tau_indices, signs): tau_indices are indices into the source
    grid; each sign is the crossing direction, 0 for retirement at the
    horizon.  The final entry is always the last grid index.  Each exit
    is measured from the current walk level log X_n = log S_0 + k_n
    log(1+eps), with the integer k_n moved by each sign, and detected at
    the first grid point at or past the band edge (sampled paths
    overshoot; magnitudes are available via build_shadow_path).  If every
    step has |d log S| <= log(1+eps), each interior crossing has
    |log(X_n / S_{tau_n})| < log(1+eps), and the horizon < 2 log(1+eps).
    """
    if np.any(path.values <= 0.0):
        raise ValueError("source path must be strictly positive")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps!r}")
    log_s = np.log(path.values)
    step = math.log1p(eps)
    # grazing the band edge within ~1 ulp counts as an exit, so a path that
    # is already a walk skeleton reproduces its own crossings exactly
    edge = step * (1.0 - 1e-12)
    last = len(log_s) - 1

    taus, signs, anchor, k = [], [], 0, 0
    while not taus or anchor < last:
        level = log_s[0] + k * step
        hits = np.flatnonzero(np.abs(log_s[anchor + 1:] - level) >= edge)
        nxt = anchor + 1 + int(hits[0]) if len(hits) else last
        # a crossing at the horizon, or none before it, retires the walk
        signs.append(0 if nxt == last else int(np.sign(log_s[nxt] - level)))
        taus.append(nxt)
        anchor, k = nxt, k + signs[-1]
    return np.asarray(taus, dtype=int), np.asarray(signs, dtype=int)


def retirement_walk(signs, X0: float, eps: float) -> np.ndarray:
    """Geometric +-(1+eps) walk over the signs, frozen after the first 0.

    Levels are computed from integer cumulative exponents, so a +1 followed
    by a -1 returns to X0 exactly and drift stays within 1 ulp per step.
    A sign whose value is not -1, 0 or +1 (of any dtype: 1.0 is +1, 0.5 is
    no sign) raises ValueError naming it, as does a sign array that is not
    1-d.
    """
    given = np.asarray(signs)
    if given.ndim != 1:
        raise ValueError(f"signs must be a 1-d array, got shape {given.shape}")
    if not (math.isfinite(X0) and X0 > 0.0):
        raise ValueError(f"X0 must be positive, got {X0!r}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps!r}")
    # three comparisons, not np.isin, whose overhead doubled the walk's time
    bad = (given != -1) & (given != 0) & (given != 1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"sign {given[k]} at index {k} is not -1, 0 or +1")
    signs = given.astype(int, copy=False)
    zeros = np.flatnonzero(signs == 0)
    if len(zeros) and np.any(signs[zeros[0]:] != 0):
        raise ValueError("nonzero sign after retirement")
    exponents = np.cumsum(signs)
    return X0 * np.power(1.0 + eps, exponents.astype(float))


def build_shadow_path(path: SampledPath, eps: float) -> ConsistentPriceSystem:
    """Construct the shadow price system for one realised path.

    Anchors the shadow at the walk levels, interpolates log(S~/S) linearly
    in time between anchors, verifies the sandwich bound, and attaches the
    ratio diagnostics.  The bound holds by construction when every step
    has |d log S| <= log(1+eps) (see extract_stopping_times); on coarser
    grids a violation raises rather than returning a broken record.
    """
    taus, signs = extract_stopping_times(path, eps)
    X0 = float(path.values[0])
    levels = retirement_walk(signs, X0, eps)

    log_s = np.log(path.values)
    step = math.log1p(eps)
    # overshoot past the band edge around X_{n-1} (0 at retirement)
    prev = log_s[0] + (np.cumsum(signs) - signs) * step
    overshoots = np.where(signs != 0, np.maximum(
        0.0, np.abs(log_s[taus] - prev) - step), 0.0)

    anchor_idx = np.concatenate(([0], taus))
    anchor_log_ratio = np.concatenate(([0.0], np.log(levels) - log_s[taus]))
    log_ratio = np.interp(path.times, path.times[anchor_idx], anchor_log_ratio)
    # multiply the source by the interpolated ratio (exp(0) == 1 exactly,
    # so stretches of unit ratio reproduce the source bit for bit)
    shadow_vals = path.values * np.exp(log_ratio)
    shadow_vals[anchor_idx] = np.concatenate(([X0], levels))  # anchors exact

    ratio = shadow_vals / path.values
    shadow = SampledPath(path.times, shadow_vals, positive=True)
    cps = ConsistentPriceSystem(
        epsilon=float(eps),
        tau_indices=taus,
        signs=signs,
        levels=levels,
        shadow=shadow,
        source=path,
        overshoots=overshoots,
        delta_stats=_delta_stats(path, shadow, eps),
        ratio_min=float(ratio.min()),
        ratio_max=float(ratio.max()),
    )
    if not cps.sandwich_ok:
        jump = float(np.max(np.abs(np.diff(log_s)))) / step
        raise ConsistencyError(
            f"shadow/source ratio [{cps.ratio_min:.6g}, {cps.ratio_max:.6g}] violates the "
            f"sandwich bound [1/w, w] = [{1.0 / cps.width:.6g}, {cps.width:.6g}]; "
            f"the largest step |d log S| is {jump:.6g} log(1+eps), and the bound "
            f"is guaranteed only for steps up to 1 log(1+eps)")
    return cps


def _gaps(source: SampledPath, shadow: SampledPath):
    """delta1 = S / S~ - 1 per point, delta2 = dS / (2 dS~) per step (NaN
    where the shadow increment vanishes), and the mask of those steps."""
    s, sh = source.values, shadow.values
    d1 = s / sh - 1.0
    ds, dsh = np.diff(s), np.diff(sh)
    flagged = dsh == 0.0
    d2 = np.full(len(ds), np.nan)
    np.divide(ds, 2.0 * dsh, out=d2, where=~flagged)
    return d1, d2, flagged


def delta_processes(cps: ConsistentPriceSystem):
    """Pointwise and incremental gap processes between source and shadow.

    delta1(t) = S_t / S~_t - 1;  delta2 per step = dS / (2 dS~), NaN where
    the shadow increment vanishes (those steps are flagged, not fatal).
    """
    d1, d2, _ = _gaps(cps.source, cps.shadow)
    return SampledPath(cps.source.times, d1), SampledPath(cps.source.times[:-1], d2)


def _delta_stats(source: SampledPath, shadow: SampledPath, eps: float) -> DeltaStats:
    d1, d2, flagged = _gaps(source, shadow)
    within1 = float(np.mean(np.abs(d1) <= eps * (1.0 + 1e-12)))
    if np.all(flagged):
        within2 = 0.0
    else:
        within2 = float(np.mean(np.abs(d2[~flagged]) <= 2.0 * eps))
    return DeltaStats(within1, within2, int(np.count_nonzero(flagged)))


# ---------------------------------------------------------------------------
# Pricing through the shadow system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CpsQuote:
    """A PDE quote; ``lower``/``upper`` are the value rescaled by (1+eps)^-3
    and (1+eps)^3, not the price of any claim (see the ROADMAP item "CPS
    quotes that bracket the claim by construction")."""

    value: float
    lower: float
    upper: float


@dataclass
class CpsPriceResult:
    ask: CpsQuote
    bid: CpsQuote
    cps: ConsistentPriceSystem


def cps_price(path: SampledPath, problem: PricingProblem, eps: float,
              grid: GridSpec) -> CpsPriceResult:
    """Quote a claim on a rough path through its shadow price system.

    Builds the eps-shadow system, prices the claim with the ask/bid PDE
    pair on the problem's band, evaluates both at (0, S~_0), and rescales
    each value by the worst-case shadow/source gap (1+eps)^±3: a rescaled
    value, not the price of any claim (see the ROADMAP item "CPS quotes
    that bracket the claim by construction").
    """
    if path.horizon < problem.maturity - _time_tol(problem.maturity):
        raise ValueError(
            f"path horizon {path.horizon} does not cover maturity {problem.maturity}")
    cps = build_shadow_path(path, eps)
    spot = float(cps.shadow.values[0])
    x_min, x_max = problem.spot_domain
    if not (x_min <= spot <= x_max):
        raise ValueError(f"shadow start {spot:g} outside the spot domain "
                         f"[{x_min:g}, {x_max:g}]")
    ask_surface, bid_surface = solve_bsb_pair(problem, grid)
    width = cps.width
    ask_v = ask_surface.value_at(0.0, spot)
    bid_v = bid_surface.value_at(0.0, spot)
    ask = CpsQuote(ask_v, ask_v / width, ask_v * width)
    bid = CpsQuote(bid_v, bid_v / width, bid_v * width)
    return CpsPriceResult(ask=ask, bid=bid, cps=cps)
