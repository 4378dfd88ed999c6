"""Finite-difference engine for the nonlinear pricing PDEs.

Three closely related problems are solved on one implicit backbone:

* ask surface:  du/dt + r x du/dx + g_vol(x^2 d2u/dx2) - r u = 0, terminal
  data = payoff (worst-case volatility for the seller);
* bid surface:  du/dt + r x du/dx - g_vol(-x^2 d2u/dx2) - r u = 0 (best
  case, i.e. the volatility selection of the ask problem reversed);
* nonlinear heat equation: du/dt = g_drift_vol(du/dx, d2u/dx2) forward in
  time, which defines worst-case expectations under zero-mean variance
  uncertainty (and drift uncertainty when the interval is not {0}).

Scheme: an implicit tridiagonal march with Howard policy iteration.  Each
control value (a volatility, for the heat equation a drift and a
volatility) has its own operator row at every node: central differences
where that row is an M-matrix, upwinded drift otherwise.  The rows depend
on the control alone, not on time or on the solution, so they are built
once per solve; each iteration picks, node by node, the candidate row
with the largest (ask, heat) or smallest (bid) value on the current
iterate and solves the system of that selection.  A pick that repeats
the last selection ends the step without a solve (the iterate already
solves that system), and it is the next step's first pick;
POLICY_MAX_ITERS bounds the picks of one step.  For the BSB pair the
candidates make that pick the exact extremum over the whole variance
band: on either side of a node's admissibility threshold the row is
affine in sigma^2, so besides the two band ends only the threshold itself
(its central row and its upwind limit row) can be extremal.  Every row is
monotone, so ask >= bid and band monotonicity follow from the comparison
principle of the scheme.  Payoff kinks get a grid node placed exactly on
them.

Boundary conditions are Dirichlet from the payoff's linear extrapolation
at the domain ends: the linear part grows at the riskless rate under the
pricing PDEs, so u(boundary) = slope*x + intercept*exp(-r tau).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.special import ndtr

from .errors import ConsistencyError, NumericalFailure
from .sublinear import ScalarFunctionSpec, UncertaintyBand, g_drift_vol, maximal_expectation

__all__ = [
    "GridSpec",
    "PricingProblem",
    "PriceSurface",
    "solve_bsb_ask",
    "solve_bsb_bid",
    "solve_bsb_pair",
    "solve_g_heat",
    "black_scholes_closed_form",
    "write_surface_file",
]

POLICY_MAX_ITERS = 50
POLICY_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Space/time resolution and the spacing rule for the spatial nodes."""

    n_space: int = 400
    n_time: int = 400
    stretching: str = "uniform_log"

    def __post_init__(self):
        if self.n_space < 16 or self.n_time < 16:
            raise ValueError("grid needs n_space >= 16 and n_time >= 16")
        if self.stretching not in ("uniform_log", "uniform_price"):
            raise ValueError(f"unknown stretching {self.stretching!r}")


@dataclass(frozen=True)
class PricingProblem:
    """A European claim plus the market data needed to price it.

    The payoff must be nonnegative on the spot domain (claims here are
    nonnegative by assumption), checked against its exact minimum there;
    maturity and the domain must be sensible.
    """

    payoff: ScalarFunctionSpec
    maturity: float
    rate: float
    band: UncertaintyBand
    spot_domain: tuple

    def __post_init__(self):
        if not (math.isfinite(self.maturity) and self.maturity > 0.0):
            raise ValueError(f"maturity must be positive, got {self.maturity!r}")
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        x_min, x_max = self.spot_domain
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            raise ValueError("spot_domain must be finite")
        if x_min < 0.0:
            raise ValueError(f"spot_domain lower end {x_min} must be >= 0")
        if x_min >= x_max:
            raise ValueError(f"spot_domain is empty: [{x_min}, {x_max}]")
        lo = -maximal_expectation(self.payoff.negated(), x_min, x_max)
        hi = maximal_expectation(self.payoff, x_min, x_max)
        if lo < -1e-12 * max(1.0, abs(lo), abs(hi)):
            raise ValueError("payoff must be nonnegative on the spot domain")


@dataclass
class PriceSurface:
    """Discretized solution u(t, x) of one of the pricing problems.

    ``values[i, j]`` is the value at ``times[i]``, ``space_nodes[j]``.  For
    backward problems the last slice is the payoff sampled exactly on the
    nodes.  ``band`` and ``rate`` record the generating problem so rules
    derived from the surface (state-feedback scenarios, hedges) don't need
    it re-supplied.  ``linear_solves`` and ``max_step_solves`` count the
    tridiagonal solves of the march that built the surface, in all and in
    its busiest step (zero for a surface not built by a solver).
    """

    times: np.ndarray
    space_nodes: np.ndarray
    values: np.ndarray
    side: str
    band: UncertaintyBand | None = None
    rate: float = 0.0
    linear_solves: int = 0
    max_step_solves: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.space_nodes = np.asarray(self.space_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.side not in ("ask", "bid", "heat"):
            raise ValueError(f"unknown surface side {self.side!r}")
        if self.values.shape != (len(self.times), len(self.space_nodes)):
            raise ValueError("values shape does not match times x space_nodes")
        if np.any(np.diff(self.times) <= 0) or np.any(np.diff(self.space_nodes) <= 0):
            raise ValueError("times and space_nodes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("surface values must be finite")

    # -- lookup -------------------------------------------------------------

    def _time_weights(self, t: float):
        times = self.times
        if t <= times[0]:
            return 0, 0, 0.0
        if t >= times[-1]:
            return len(times) - 1, len(times) - 1, 0.0
        k = int(np.searchsorted(times, t, side="right")) - 1
        k = min(k, len(times) - 2)
        w = (t - times[k]) / (times[k + 1] - times[k])
        return k, k + 1, float(w)

    def value_slice(self, t: float) -> np.ndarray:
        """Values on the space nodes at time t (linear in time)."""
        k0, k1, w = self._time_weights(t)
        if w == 0.0:
            return self.values[k0]
        return (1.0 - w) * self.values[k0] + w * self.values[k1]

    def value_at(self, t: float, x) -> float:
        sl = self.value_slice(t)
        out = np.interp(np.asarray(x, dtype=float), self.space_nodes, sl)
        return float(out) if np.ndim(out) == 0 else out

    def delta_slice(self, t: float) -> np.ndarray:
        """Discrete du/dx on the space nodes at time t."""
        return np.gradient(self.value_slice(t), self.space_nodes)

    def delta_at(self, t: float, x) -> float:
        d = self.delta_slice(t)
        out = np.interp(np.asarray(x, dtype=float), self.space_nodes, d)
        return float(out) if np.ndim(out) == 0 else out


def _check_dominance(ask: PriceSurface, bid: PriceSurface) -> None:
    gap = ask.values - bid.values
    scale = max(1.0, float(np.abs(ask.values).max()))
    worst = float(gap.min())
    if worst < -1e-7 * scale:
        raise ConsistencyError(
            f"ask surface fell below bid by {-worst:.3e} (tolerance {1e-7 * scale:.1e})"
        )


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------


def _snap_nodes(w: np.ndarray, knots, to_w=float) -> list:
    """Move, in place, the interior node of ``w`` nearest each knot onto it.

    Knots are taken in increasing order, each onto a node right of the
    last one moved; a move that would break monotonicity is skipped.
    Returns the (node index, knot) pairs that were moved.
    """
    last = 0
    snapped = []
    for knot in sorted(set(knots)):
        wk = to_w(knot)
        j = int(np.argmin(np.abs(w - wk)))
        j = min(max(j, last + 1), len(w) - 2)
        old = w[j]
        w[j] = wk
        if w[j] <= w[j - 1] or w[j] >= w[j + 1]:
            w[j] = old
            continue
        snapped.append((j, knot))
        last = j
    return snapped


def _build_space_nodes(problem: PricingProblem, grid: GridSpec):
    """Spatial nodes in price units plus the working coordinate array.

    uniform_log works in w = log(x) (constant diffusion coefficient per
    volatility regime); uniform_price works in w = x.  Kink abscissae of
    the payoff are snapped onto the nearest interior node.
    """
    x_min, x_max = problem.spot_domain
    if grid.stretching == "uniform_log":
        if x_min <= 0.0:
            raise ValueError("uniform_log grids need a strictly positive lower domain end")
        w = np.linspace(math.log(x_min), math.log(x_max), grid.n_space + 1)
        to_w = math.log
    else:
        w = np.linspace(x_min, x_max, grid.n_space + 1)
        to_w = float

    # x_min > 0 on log grids, so every knot kept here has a logarithm
    knots = [k for k in problem.payoff.knot_points() if x_min < k < x_max]
    snapped = _snap_nodes(w, knots, to_w)

    x = np.exp(w) if grid.stretching == "uniform_log" else w.copy()
    for j, knot in snapped:
        x[j] = knot  # exact in price, not just in exp(log(price))
    return x, w


def _edge_asymptotes(payoff, x: np.ndarray):
    """Linear extrapolation (slope, intercept) of the payoff at both ends."""
    a_lo = (float(payoff(x[1])) - float(payoff(x[0]))) / (x[1] - x[0])
    b_lo = float(payoff(x[0])) - a_lo * x[0]
    a_hi = (float(payoff(x[-1])) - float(payoff(x[-2]))) / (x[-1] - x[-2])
    b_hi = float(payoff(x[-1])) - a_hi * x[-1]
    return (a_lo, b_lo), (a_hi, b_hi)


# ---------------------------------------------------------------------------
# Implicit policy-iteration stepper
# ---------------------------------------------------------------------------


def _nonuniform_stencils(w: np.ndarray):
    hm = w[1:-1] - w[:-2]
    hp = w[2:] - w[1:-1]
    c2 = (2.0 / (hm * (hm + hp)), -2.0 / (hm * hp), 2.0 / (hp * (hm + hp)))
    c1 = (-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp)))
    return hm, hp, c1, c2


def _central_rows(stencils, a, b, c):
    """Rows (lo, di, hi) of L = a d2/dw2 + b d/dw + c, drift centrally differenced."""
    _, _, c1, c2 = stencils
    return np.array([a * c2[0] + b * c1[0], a * c2[1] + b * c1[1] + c, a * c2[2] + b * c1[2]])


def _upwind_rows(stencils, a, b, c):
    """Rows of the same operator with the drift upwinded (always an M-matrix)."""
    hm, hp, _, c2 = stencils
    fwd = b >= 0.0
    return np.array([
        a * c2[0] - np.where(fwd, 0.0, b / hm),
        a * c2[1] + np.where(fwd, -b / hp, b / hm) + c,
        a * c2[2] + np.where(fwd, b / hp, 0.0),
    ])


def _monotone_rows(stencils, a, b, c):
    """Central rows where they form an M-matrix, upwinded ones elsewhere.

    Returns the rows and the mask of the nodes that were upwinded.
    """
    rows = _central_rows(stencils, a, b, c)
    bad = (rows[0] < 0.0) | (rows[2] < 0.0)
    return np.where(bad, _upwind_rows(stencils, a, b, c), rows), bad


def _march(u0, rows, pick, dt, n_time, boundary_of, context):
    """Implicit march with Howard policy iteration over fixed candidate rows.

    ``rows[:, k]`` holds the (lo, di, hi) rows of the discrete operator L_k
    of candidate control k at every interior node.  Each candidate's rows
    are built from that control alone (central or upwinded, whichever is
    monotone), so they are the same at every step and every iterate; for
    the BSB pair the candidates are the band ends plus the rows at each
    node's admissibility threshold (see ``_bsb_rows``).  A step solves
    (I - dt L) u_new = u_old with the Dirichlet values
    ``boundary_of(step) -> (lo, hi)``, where L takes at each node the row
    that ``pick`` (``np.argmax`` or ``np.argmin`` over k) selects exactly on
    the current iterate, by one LAPACK ``gtsv`` call.

    A step ends when a new pick repeats the last selection: the iterate
    already solves that selection, so it is the step's value and no solve
    is made.  That pick was made on the step's final value, so it is also
    the next step's first pick.  A step also ends when successive iterates
    agree to POLICY_RESIDUAL_TOL (round-off ties); the next step then picks
    afresh.  POLICY_MAX_ITERS bounds the picks of one step; past it,
    NumericalFailure reports the last change between iterates, the step,
    the grid and ``context``.  So does a non-finite operator or initial
    slice, and an iterate that is not finite or a solve that fails.

    Returns the stack of slices in march order, u0 first, the number of
    linear solves and the largest number made in one step.
    """
    n = len(u0)
    m = n - 2
    cols = np.arange(m)
    diagnostics = {"n_space": n - 1, "n_time": n_time, **context}
    # rows of I - dt L_k below, on and above the diagonal; candidate k's
    # entry at interior node i sits at k * m + i
    lower = (-dt * rows[0]).ravel()
    middle = (1.0 - dt * rows[1]).ravel()
    upper = (-dt * rows[2]).ravel()
    if not all(np.isfinite(a).all() for a in (lower, middle, upper, u0)):
        raise NumericalFailure("operator or initial slice is not finite", **diagnostics)
    dl, d, du = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    out = np.empty((n_time + 1, n))
    out[0] = u0
    u = out[0]
    solves = max_step_solves = 0
    sel = None

    def select(v):
        return pick(rows[0] * v[:-2] + rows[1] * v[1:-1] + rows[2] * v[2:], axis=0)

    for step in range(n_time):
        bc_lo, bc_hi = boundary_of(step)
        if sel is None:
            sel = select(u)
        u_iter = u
        solves_before = solves
        for it in range(POLICY_MAX_ITERS):
            if it:
                sel_new = select(u_new)
                if np.array_equal(sel_new, sel):
                    break
                sel, u_iter = sel_new, u_new
            # gtsv overwrites its bands, so every solve gathers them afresh
            at = sel * m + cols
            lower.take(at, out=dl[:-1])
            middle.take(at, out=d[1:-1])
            upper.take(at, out=du[1:])
            dl[-1] = du[0] = 0.0
            d[0] = d[-1] = 1.0
            rhs = u.copy()
            rhs[0] = bc_lo
            rhs[-1] = bc_hi
            *_, u_new, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
            solves += 1
            change = float(np.abs(u_new - u_iter).max())
            if info != 0 or not math.isfinite(change):
                raise NumericalFailure("implicit step has no finite solution", step=step,
                                       info=info, residual=change, **diagnostics)
            if change < POLICY_RESIDUAL_TOL:
                sel = None
                break
        else:
            raise NumericalFailure(
                "policy iteration did not stabilise",
                step=step,
                max_iters=POLICY_MAX_ITERS,
                residual=change,
                **diagnostics,
            )
        max_step_solves = max(max_step_solves, solves - solves_before)
        u = u_new
        out[step + 1] = u
    return out, solves, max_step_solves


# ---------------------------------------------------------------------------
# The three solvers
# ---------------------------------------------------------------------------


def _variance(sigma):
    """sigma**2, or inf past the float range, which ``_march`` then reports
    as a non-finite operator."""
    try:
        return sigma**2
    except OverflowError:
        return math.inf


def _bsb_rows(x, w, stretching, r, band, side):
    """Candidate rows of the BSB operator, shape (3, 4, interior nodes).

    With variance v the operator is a(v) d2/dw2 + b(v) d/dw - r, with a and
    b affine in v: a = v/2, b = r - v/2 in log coordinates, a = v x^2 / 2,
    b = r x in price coordinates.  A node's central row is an M-matrix for
    v >= v*, its admissibility threshold, and the row used below v* is
    upwinded in one fixed direction (b keeps its sign there; both hold
    while log spacings stay below 2).  So the row is affine in v on
    [v_lo, v*) and on [v*, v_hi], and the extremum of row . u over the band
    is attained at v_lo, at v_hi, or at v* by its central row or by its
    upwind limit row.  The last two are candidates only where v* lies in
    the band; elsewhere they repeat the first candidate.  The first
    candidate is sigma_hi for the ask and sigma_lo for the bid, which
    ``np.argmax`` / ``np.argmin`` keep where the discrete gamma is zero.
    """
    stencils = _nonuniform_stencils(w)
    if stretching == "uniform_log":
        def coeffs(v):
            return 0.5 * v, r - 0.5 * v, -r
    else:
        xi = x[1:-1]

        def coeffs(v):
            return 0.5 * v * xi * xi, r * xi, -r

    # central rows are affine in v: rows(v) = beta + v alpha
    beta = _central_rows(stencils, *coeffs(0.0))
    alpha = _central_rows(stencils, *coeffs(1.0)) - beta
    v_star = np.maximum(-beta[0] / alpha[0], -beta[2] / alpha[2])

    rows_lo, bad_lo = _monotone_rows(stencils, *coeffs(_variance(band.sigma_lo)))
    rows_hi, bad_hi = _monotone_rows(stencils, *coeffs(_variance(band.sigma_hi)))
    first, second = (rows_hi, rows_lo) if side == "ask" else (rows_lo, rows_hi)
    straddle = bad_lo & ~bad_hi
    at_star = [np.where(straddle, build(stencils, *coeffs(v_star)), first)
               for build in (_central_rows, _upwind_rows)]
    return np.stack([first, second, *at_star], axis=1)


def _solve_bsb(problem: PricingProblem, grid: GridSpec, side: str) -> PriceSurface:
    x, w = _build_space_nodes(problem, grid)
    r = problem.rate
    T = problem.maturity
    dt = T / grid.n_time

    terminal = np.asarray(problem.payoff(x), dtype=float)
    (a_lo, b_lo), (a_hi, b_hi) = _edge_asymptotes(problem.payoff, x)
    rows = _bsb_rows(x, w, grid.stretching, r, problem.band, side)

    def boundary_of(step):
        disc = math.exp(-r * (step + 1) * dt)
        return a_lo * x[0] + b_lo * disc, a_hi * x[-1] + b_hi * disc

    pick = np.argmax if side == "ask" else np.argmin
    context = {"side": side, "stretching": grid.stretching, "band": problem.band}
    values, solves, max_step = _march(terminal, rows, pick, dt, grid.n_time, boundary_of,
                                      context)
    times = np.linspace(0.0, T, grid.n_time + 1)
    # marched backward from the payoff, so reversed the stack ends on it
    return PriceSurface(times, x, values[::-1], side, band=problem.band, rate=r,
                        linear_solves=solves, max_step_solves=max_step)


def solve_bsb_ask(problem: PricingProblem, grid: GridSpec) -> PriceSurface:
    """Worst-case (seller's) price surface of the claim."""
    return _solve_bsb(problem, grid, "ask")


def solve_bsb_bid(problem: PricingProblem, grid: GridSpec) -> PriceSurface:
    """Best-case (buyer's) price surface of the claim."""
    return _solve_bsb(problem, grid, "bid")


def solve_bsb_pair(problem: PricingProblem, grid: GridSpec):
    """Ask and bid surfaces together, with the dominance check applied."""
    ask = solve_bsb_ask(problem, grid)
    bid = solve_bsb_bid(problem, grid)
    _check_dominance(ask, bid)
    return ask, bid


def solve_g_heat(
    phi: ScalarFunctionSpec,
    band: UncertaintyBand,
    horizon: float,
    grid: GridSpec,
) -> PriceSurface:
    """Forward solution of du/dt = g_drift_vol(du/dx, d2u/dx2), u(0,.) = phi.

    Solved on a uniform arithmetic grid covering +-8 sigma_hi sqrt(horizon)
    around the origin plus the drift span (the stretching field of ``grid``
    is ignored here: the state space is the whole line, not prices).
    Boundary values follow the exact solution for linear data,
    a x + b + t (mu_hi a+ - mu_lo a-).
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    half = 8.0 * band.sigma_hi * math.sqrt(horizon)
    x_lo = min(0.0, band.mu_lo * horizon) - half
    x_hi = max(0.0, band.mu_hi * horizon) + half
    w = np.linspace(x_lo, x_hi, grid.n_space + 1)

    # snap interior nodes onto payoff kinks, and keep a node at the origin
    _snap_nodes(w, [k for k in (*phi.knot_points(), 0.0) if x_lo < k < x_hi])

    dt = horizon / grid.n_time
    u0 = np.asarray(phi(w), dtype=float)
    (a_lo, b_lo), (a_hi, b_hi) = _edge_asymptotes(phi, w)

    # one row set per corner of the (drift, variance) box, each monotone on
    # its own; mu_hi and sigma_hi first, so they win exact ties
    stencils = _nonuniform_stencils(w)
    rows = np.stack([
        _monotone_rows(stencils, 0.5 * _variance(sigma), mu, 0.0)[0]
        for mu in (band.mu_hi, band.mu_lo)
        for sigma in (band.sigma_hi, band.sigma_lo)
    ], axis=1)

    def boundary_of(step):
        t = (step + 1) * dt
        lo = a_lo * w[0] + b_lo + t * g_drift_vol(a_lo, 0.0, band)
        hi = a_hi * w[-1] + b_hi + t * g_drift_vol(a_hi, 0.0, band)
        return lo, hi

    context = {"side": "heat", "stretching": grid.stretching, "band": band}
    values, solves, max_step = _march(u0, rows, np.argmax, dt, grid.n_time, boundary_of,
                                      context)
    times = np.linspace(0.0, horizon, grid.n_time + 1)
    return PriceSurface(times, w, values, "heat", band=band, rate=0.0,
                        linear_solves=solves, max_step_solves=max_step)


# ---------------------------------------------------------------------------
# Closed-form oracle
# ---------------------------------------------------------------------------


def black_scholes_closed_form(
    spot: float, strike: float, r: float, sigma: float, T: float, kind: str = "call"
) -> float:
    """Classical lognormal call/put value; used as a reduction oracle."""
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    for name, v in (("spot", spot), ("strike", strike), ("sigma", sigma), ("T", T)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be positive, got {v!r}")
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    srt = sigma * math.sqrt(T)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * T) / srt
    d2 = d1 - srt
    call = spot * ndtr(d1) - strike * math.exp(-r * T) * ndtr(d2)
    if kind == "call":
        return float(call)
    return float(call - spot + strike * math.exp(-r * T))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@contextmanager
def _text_stream(target, mode: str):
    """``target`` opened in ``mode`` when it is a path, else the open file itself."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def _write_table(dest, header: str, first_col, rows) -> None:
    """Comma-separated text: the ``header`` line, then one line per entry of
    ``first_col`` followed by its row of ``rows``, each number at 12
    significant digits."""
    line = ",".join(["{:.12g}"] * (rows.shape[1] + 1)) + "\n"
    with _text_stream(dest, "w") as fh:
        fh.write(header + "\n")
        for t, row in zip(first_col.tolist(), rows.tolist()):
            fh.write(line.format(t, *row))


def write_surface_file(surface: PriceSurface, dest) -> None:
    """Matrix text format: header row of space nodes, first column of times."""
    header = "time\\space," + ",".join(format(v, ".12g") for v in surface.space_nodes)
    _write_table(dest, header, surface.times, surface.values)
