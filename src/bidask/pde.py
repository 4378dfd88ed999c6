"""Finite-difference engine for the nonlinear pricing PDEs.

Three closely related problems are solved on one implicit backbone:

* ask surface:  du/dt + r x du/dx + g_vol(x^2 d2u/dx2) - r u = 0, terminal
  data = payoff (worst-case volatility for the seller);
* bid surface:  du/dt + r x du/dx - g_vol(-x^2 d2u/dx2) - r u = 0 (best
  case, i.e. the volatility selection of the ask problem reversed);
* nonlinear heat equation: du/dt = g_drift_vol(du/dx, d2u/dx2) forward in
  time, which defines worst-case expectations under zero-mean variance
  uncertainty (and drift uncertainty when the interval is not {0}).

Scheme: an implicit tridiagonal march with Howard policy iteration over
operator rows fixed per control.  The BSB pair is solved in forward
coordinates: with F = x exp(r (T - t)) and V = exp(r (T - t)) u it reads
V_tau = g_vol(F^2 V_FF) (ask) or -g_vol(-F^2 V_FF) (bid), with no rate
term, so the row of a volatility sigma is sigma^2 / 2 times one fixed
stencil D and the band ends are the only candidates.  The bid is minus
the ask of the negated payoff, negation being exact in the march.  D is the
exponentially fitted stencil of d2/dy2 - d/dy in y = log F on uniform_log
grids and central F^2 d2/dF2 on uniform_price grids; both have positive
weights at every spacing and are exact on claims linear in F.  The nodes
are fixed in F and anchored at t = 0, so slice 0 sits on the spot
domain's nodes; payoff kinks are snapped onto nodes in the maturity
frame.  The heat equation's drift is a real control: each corner of its
(drift, volatility) box has its own row, central where that row is an
M-matrix and upwinded otherwise.  Each iteration solves the system of the
current selection, then picks, node by node, the candidate row with the
largest product with the new iterate (every march maximises),
keeping the selected row unless another beats it by more than a round-off
bound.  On the initial slice a node where the candidates tie takes the
pick of the nearest node where they do not, so a call's ask starts at
sigma_hi and its bid at sigma_lo instead of switching node by node in
round-off.  A pick that repeats the selection ends the step; only a pick
that moves is followed by the residual test between iterates.  The march
records the selection whose system gave each step's value: for the BSB
pair it is the Howard policy, the band end the extremal scenario takes,
and the feedback rule of ``paths`` reads it.  The candidates'
rows of I - dt L sit interleaved in one band array with a Dirichlet
sentinel column, so a selection's system, boundary rows included, is one
gather; it is factorised (LAPACK gttrf) only when the selection changes,
and every solve is one gttrs on those factors.  A selection held over many
steps is factorised once, and once its pick has repeated for a streak of
steps the march runs ahead on the held factors and keeps the steps before
the first pick that moves.  Every row is monotone, so ask >= bid and band
monotonicity follow from the comparison principle of the scheme.

Boundary conditions are Dirichlet from the payoff's linear extrapolation
a F + b at the domain ends.  It solves the forward BSB equation exactly,
so V keeps the payoff's end values; the heat equation's boundary follows
its exact solution for linear data.

scipy is imported inside the one call that uses it: LAPACK's gttrf and
gttrs once per ``_march``.  Loading ``scipy.linalg`` takes longer than
loading the rest of the package, so a process that solves no PDE never
loads it.  ``black_scholes_closed_form`` takes its normal CDF from
``math.erfc``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

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
# relative to |u|_inf, so scaling the data scales every decision of the
# march; an iterate that moves less only reflects picks flipping in round-off
POLICY_RESIDUAL_TOL = 1e-12
# a surface read blends and differentiates the slices of this many dates at a time
_READ_BLOCK = 64
# the march runs ahead on held factors once this many steps in a row have
# repeated their pick, by as many steps as that streak and at most _RUN_AHEAD
_RUN_AFTER = 6
_RUN_AHEAD = 32
STRETCHINGS = ("uniform_log", "uniform_price")


@dataclass(frozen=True)
class GridSpec:
    """Space/time resolution and the spacing rule for the spatial nodes."""

    n_space: int = 400
    n_time: int = 400
    stretching: str = "uniform_log"
    MIN_STEPS = 16  # the fewest space intervals and time steps; not a field

    def __post_init__(self):
        if min(self.n_space, self.n_time) < self.MIN_STEPS:
            raise ValueError(f"grid needs n_space and n_time >= {self.MIN_STEPS}")
        if self.stretching not in STRETCHINGS:
            raise ValueError(f"unknown stretching {self.stretching!r}")


def stretching_violation(stretching: str, lower: float) -> str | None:
    """None when a grid of ``stretching`` can span a domain whose lower end
    is ``lower``, else the message: a log grid needs lower > 0."""
    if stretching == "uniform_log" and not lower > 0.0:
        return "uniform_log grids need a strictly positive lower domain end"
    return None


@dataclass(frozen=True)
class PricingProblem:
    """A European claim plus the market data needed to price it.

    The payoff must be finite and nonnegative on ``maturity_domain``, where
    it is sampled (claims here are nonnegative by assumption), checked
    against its exact maximum and minimum there; maturity and the domain
    must be sensible.
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
        try:
            f_min, f_max = self.maturity_domain
        except OverflowError:
            f_min = f_max = math.inf
        if not f_min < f_max < math.inf:
            raise ValueError(f"spot_domain carried to maturity at rate {self.rate} "
                             "leaves the float range")
        with np.errstate(all="ignore"):  # a power overflows, or divides by 0, to inf
            lo = -maximal_expectation(self.payoff.negated(), f_min, f_max)
            hi = maximal_expectation(self.payoff, f_min, f_max)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{self.payoff.kind} payoff is not finite on the spot domain "
                             f"carried to maturity, [{f_min:g}, {f_max:g}]")
        if lo < -1e-12 * max(1.0, abs(lo), abs(hi)):
            raise ValueError("payoff must be nonnegative on the spot domain")

    @property
    def maturity_domain(self) -> tuple:
        """The spot domain carried to maturity at the riskless rate, x e^{rT}:
        where the BSB nodes are fixed and the payoff is sampled."""
        growth = math.exp(self.rate * self.maturity)
        return self.spot_domain[0] * growth, self.spot_domain[1] * growth


@dataclass
class PriceSurface:
    """Discretized solution u(t, x) of one of the pricing problems.

    ``values[i, j]`` is the value at ``times[i]`` and the spot
    ``space_nodes[j] * exp(-rate * (times[-1] - times[i]))``: the nodes are
    the spots at maturity, fixed forward prices, and a spot x at time t is
    read at x * ``forward_factor(t)`` by ``value_at`` and ``delta_at``, the
    one reader of the surface at (t, x), for one date or many.  For the BSB
    pair slice 0 sits on the spot domain's nodes and the last slice is the
    payoff sampled exactly on the nodes; at rate 0, as for every heat
    surface, the spot is the node.
    ``band`` and ``rate`` record the generating problem so rules derived
    from the surface (state-feedback scenarios, hedges) don't need it
    re-supplied.  ``linear_solves`` and ``max_step_solves`` count the
    tridiagonal solves whose iterates the march that built the surface
    used, in all and in its busiest step (a slice run ahead but not kept is
    solved again by its own step and counted there, so the counts are those
    of the march one step at a time), and ``factorizations`` the tridiagonal
    factorisations they used (all zero for a surface not built by a solver).
    ``selection`` is the march's selection record, (n_time, n_space - 1) at
    the interior nodes: row s is the selection whose system gave march step
    s's value.  The BSB march runs from maturity, so its step s gave
    ``values[n_time - 1 - s]``, and entry True is candidate 1, sigma_hi,
    on both sides; the heat march runs forward, so step s gave
    ``values[s + 1]``, and an entry is the index of a distinct (drift,
    volatility) corner in ``solve_g_heat``'s order (bool for two corners).
    It is None for a surface not built by a solver.
    """

    times: np.ndarray
    space_nodes: np.ndarray
    values: np.ndarray
    side: str
    band: UncertaintyBand | None = None
    rate: float = 0.0
    linear_solves: int = 0
    max_step_solves: int = 0
    factorizations: int = 0
    selection: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.space_nodes = np.asarray(self.space_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.side not in ("ask", "bid", "heat"):
            raise ValueError(f"unknown surface side {self.side!r}")
        if self.values.shape != (len(self.times), len(self.space_nodes)):
            raise ValueError("values shape does not match times x space_nodes")
        if not all(np.isfinite(x).all() and (np.diff(x) > 0.0).all()
                   for x in (self.times, self.space_nodes)):
            raise ValueError("times and space_nodes must be finite and strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("surface values must be finite")
        if self.selection is not None and np.shape(self.selection) != (
                len(self.times) - 1, len(self.space_nodes) - 2):
            raise ValueError("selection shape must be (len(times) - 1, len(space_nodes) - 2)")

    # -- lookup -------------------------------------------------------------

    def forward_factor(self, t):
        """exp(rate * (T - t)), T = times[-1]: the factor that carries a
        spot at time t to the nodes' forward prices (1 at rate 0)."""
        return np.exp(self.rate * (self.times[-1] - np.asarray(t, dtype=float)))

    def _slices(self, t: np.ndarray) -> np.ndarray:
        """The slice at each date of the 1-d ``t``: rows blended linearly in
        time, the first row before times[0] and the last after times[-1]."""
        times, values = self.times, self.values
        k = np.where(t >= times[-1], len(times) - 1, 0)
        w = np.zeros(t.shape)
        inner = ~((t <= times[0]) | (t >= times[-1]))
        ki = np.minimum(np.searchsorted(times, t[inner], side="right"), len(times) - 1) - 1
        k[inner] = ki
        w[inner] = (t[inner] - times[ki]) / (times[ki + 1] - times[ki])
        out = values[k]
        mix = w != 0.0  # a date on a row reads the row as it is
        out[mix] = (1.0 - w[mix, None]) * out[mix] + w[mix, None] * values[k[mix] + 1]
        return out

    def _read(self, t, x, delta: bool):
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        dates, spots = (t, x) if t.ndim == 1 else (t[None], x[None])
        if dates.ndim != 1 or spots.shape[:1] != dates.shape:
            raise ValueError("t must be a date, or 1-d dates with x[i] read at t[i]")
        scale = self.forward_factor(dates)
        out = np.empty(spots.shape)
        for lo in range(0, len(dates), _READ_BLOCK):
            block = slice(lo, lo + _READ_BLOCK)
            rows = self._slices(dates[block])
            if delta:
                rows = np.gradient(rows, self.space_nodes, axis=1) * scale[block, None]
            for i, row in enumerate(rows, start=lo):
                out[i] = np.interp(spots[i] * scale[i], self.space_nodes, row)
        if t.ndim == 1:
            return out
        return float(out[0]) if x.ndim == 0 else out[0]

    def value_at(self, t, x):
        """u(t, x): the slice at t interpolated linearly at the forward price
        x * forward_factor(t), held at the end nodes' values beyond them.

        ``t`` is one date and ``x`` a spot (the result a float) or an array
        of spots, or ``t`` is a 1-d array of dates and ``x[i]`` the spot(s)
        read at ``t[i]``; each entry equals the read at its one date.  Slices
        are blended _READ_BLOCK dates at a time, each read by np.interp.
        """
        return self._read(t, x, delta=False)

    def delta_at(self, t, x):
        """du/dx at (t, x): the slice's ``np.gradient`` over the nodes times
        forward_factor(t), read as ``value_at`` reads values."""
        return self._read(t, x, delta=True)


def _check_dominance(ask: PriceSurface, bid: PriceSurface) -> None:
    # max(1, |ask|_inf) read off the extremes, without an |ask| temporary
    scale = max(1.0, float(ask.values.max()), -float(ask.values.min()))
    worst = float((ask.values - bid.values).min())
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
    last one moved; a move that would leave a spacing of 1e-8 of the
    uniform step or less (round-off, or a break in monotonicity) is
    skipped.  Returns the (node index, knot) pairs that were moved.
    """
    tol = 1e-8 * (w[-1] - w[0]) / (len(w) - 1)
    last = 0
    snapped = []
    for knot in sorted(set(knots)):
        wk = to_w(knot)
        j = int(np.argmin(np.abs(w - wk)))
        j = min(max(j, last + 1), len(w) - 2)
        old = w[j]
        w[j] = wk
        if w[j] - w[j - 1] <= tol or w[j + 1] - w[j] <= tol:
            w[j] = old
            continue
        snapped.append((j, knot))
        last = j
    return snapped


def _build_space_nodes(problem: PricingProblem, grid: GridSpec):
    """Forward-price nodes F plus the working coordinate array.

    The nodes span ``problem.maturity_domain``, so at t = 0 they stand for
    the spot domain's nodes.  uniform_log works in w = log(F) (constant
    diffusion coefficient per volatility regime); uniform_price works in
    w = F.  Kink abscissae of the payoff, a function of F at maturity, are
    snapped onto the nearest interior node.
    """
    f_min, f_max = problem.maturity_domain
    if msg := stretching_violation(grid.stretching, f_min):
        raise ValueError(msg)
    if grid.stretching == "uniform_log":
        w = np.linspace(math.log(f_min), math.log(f_max), grid.n_space + 1)
        to_w = math.log
    else:
        w = np.linspace(f_min, f_max, grid.n_space + 1)
        to_w = float

    # f_min > 0 on log grids, so every knot kept here has a logarithm
    knots = [k for k in problem.payoff.knot_points() if f_min < k < f_max]
    snapped = _snap_nodes(w, knots, to_w)

    f = np.exp(w) if grid.stretching == "uniform_log" else w.copy()
    for j, knot in snapped:
        f[j] = knot  # exact in price, not just in exp(log(price))
    return f, w


def _edge_asymptotes(payoff, x: np.ndarray):
    """Linear extrapolation (slope, intercept) of the payoff at both ends."""
    a_lo = (float(payoff(x[1])) - float(payoff(x[0]))) / (x[1] - x[0])
    b_lo = float(payoff(x[0])) - a_lo * x[0]
    a_hi = (float(payoff(x[-1])) - float(payoff(x[-2]))) / (x[-1] - x[-2])
    b_hi = float(payoff(x[-1])) - a_hi * x[-1]
    return (a_lo, b_lo), (a_hi, b_hi)


# ---------------------------------------------------------------------------
# Operator rows and the implicit policy-iteration stepper
# ---------------------------------------------------------------------------


def _forward_stencil(f: np.ndarray, w: np.ndarray, stretching: str) -> np.ndarray:
    """Rows (lo, di, hi) of the BSB stencil D, V_tau = sigma^2 / 2 D V, at
    the interior nodes.  uniform_log: the exponentially fitted stencil of
    d2/dw2 - d/dw in w = log F, exact on 1, w and e^w; with rho =
    expm1(h+) / -expm1(-h-) its upper weight is 1 / (rho h- - h+) > 0 and
    its lower weight rho times that.  uniform_price: central F^2 d2/dF2.
    The diagonal is minus the other two, so both are exact on constants."""
    hm = w[1:-1] - w[:-2]
    hp = w[2:] - w[1:-1]
    if stretching == "uniform_log":
        rho = np.expm1(hp) / -np.expm1(-hm)
        hi = 1.0 / (rho * hm - hp)
        lo = rho * hi
    else:
        f2 = 2.0 * f[1:-1] ** 2 / (hm + hp)
        lo = f2 / hm
        hi = f2 / hp
    return np.array([lo, -(lo + hi), hi])


def _monotone_rows(w: np.ndarray, a: float, b: float) -> np.ndarray:
    """Rows (lo, di, hi) of a d2/dw2 + b d/dw at the interior nodes of w:
    central differences where that row is an M-matrix, the drift upwinded
    elsewhere."""
    hm = w[1:-1] - w[:-2]
    hp = w[2:] - w[1:-1]
    lo = (2.0 * a - b * hp) / (hm * (hm + hp))
    hi = (2.0 * a + b * hm) / (hp * (hm + hp))
    upwind = (lo < 0.0) | (hi < 0.0)
    lo = np.where(upwind, 2.0 * a / (hm * (hm + hp)) + max(-b, 0.0) / hm, lo)
    hi = np.where(upwind, 2.0 * a / (hp * (hm + hp)) + max(b, 0.0) / hp, hi)
    return np.array([lo, -(lo + hi), hi])


def _nearest_decided(decided: np.ndarray):
    """Index of the nearest True entry of ``decided`` for every entry (a tie
    goes left), or None when no entry is True."""
    if not decided.any():
        return None
    m = len(decided)
    idx = np.arange(m)
    left = np.maximum.accumulate(np.where(decided, idx, -m))
    right = np.minimum.accumulate(np.where(decided, idx, 2 * m)[::-1])[::-1]
    return np.where(idx - left <= right - idx, left, right)


def _march(u0, rows, dt, n_time, boundary_of, context):
    """Implicit march with Howard policy iteration over fixed candidate rows.

    ``rows[:, k]`` holds the (lo, di, hi) rows of the discrete operator L_k
    of candidate control k at every interior node, the same at every step
    and iterate.  A step solves (I - dt L) u_new = u_old with the Dirichlet
    values ``boundary_of(step) -> (lo, hi)``, where L takes at each node the
    row of the current selection.  The rows of I - dt L_k sit interleaved
    in one band array, candidate k of interior node i in column i K + k,
    with a last sentinel column (0, 1, 0) for the Dirichlet rows, so a
    selection's tridiagonal system is one gather.  LAPACK ``gttrf``
    factorises it only when the selection differs from the one last
    factorised, and each solve is one ``gttrs`` on those factors; no
    factors outlive the call.

    A pick on an iterate v moves a node to the largest candidate product
    L_k v only where it beats the selected row's product by more than the
    round-off bound 32 eps max_k sum|L_k| |v|_inf, the row sums taken once
    per march.  So candidates that tie up to round-off keep the selection.
    With two candidates a pick is the sign of one product, on the
    difference of their rows.  The first pick, on the initial slice, is one
    rule for any number of candidates: from candidate 0, a node is decided
    when one candidate beats every other by more than the bound, and a tied
    node takes the pick of the nearest decided node where that pick is one
    of its ties (all keep candidate 0 when none is decided).  So a claim
    linear in its wings starts at the pick of its kinks, not a round-off one.

    After each solve the pick comes first.  A pick that repeats the
    selection ends the step: the iterate already solves it, so it is the
    step's value, and the pick, made on that value, is the next step's
    first.  Only a pick that moves is followed by the change between
    successive iterates: below POLICY_RESIDUAL_TOL |u|_inf it also ends
    the step, with the moved pick as the next step's first.  The
    POLICY_MAX_ITERS-th solve of a step is judged by that change alone;
    if it fails, NumericalFailure reports the change, the step, the grid
    and ``context``.  So does a non-finite operator or initial slice, an
    iterate that is not finite, or a singular selection (its residual is
    nan: no iterate was made).

    Once s >= _RUN_AFTER steps in a row have ended on their first solve
    with a repeated pick, the march runs ahead: it marches the next
    min(s, _RUN_AHEAD) steps on the held factors, each one gttrs written
    into its slice, and then picks once on the stacked slices (``select``
    takes a stack, with each slice's |v|_inf in a column).  A run only
    accepts: each leading slice that is finite, solved with info 0 and
    picked as the selection is its step's value, bit for bit, and the
    rest are discarded.  The step where the run stopped is marched from
    its own first solve, so no failure is raised inside a run; its pick
    moves or it fails, so it restarts the streak.  At POLICY_MAX_ITERS = 1
    no pick ends a step, so no run starts.  A run holds no more than
    _RUN_AHEAD slices' temporaries.

    Returns the stack of slices in march order, u0 first, the number of
    linear solves whose iterates the march used (a discarded slice of a
    run is not counted), the largest number made in one step, the number
    of factorisations and the selection record: row s holds, at the
    interior nodes, the selection whose system gave slice s + 1 (bool with
    two candidates, True for candidate 1; the candidate's index otherwise).
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

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
            g = diff[0] * v[..., :-2] + diff[1] * v[..., 1:-1] + diff[2] * v[..., 2:]
            bound = tie * v_max
            return (g > bound) | (sel & (g >= -bound))
    else:
        def select(v, v_max, sel):
            # candidates on the second-to-last axis, below any stacking axis
            v = v[..., None, :]
            g = rows[0] * v[..., :-2] + rows[1] * v[..., 1:-1] + rows[2] * v[..., 2:]
            best = g.argmax(axis=-2)
            g_best = np.take_along_axis(g, best[..., None, :], axis=-2)[..., 0, :]
            g_sel = np.take_along_axis(g, np.broadcast_to(sel, best.shape)[..., None, :],
                                       axis=-2)[..., 0, :]
            return np.where(g_best - g_sel > tie * v_max, best, sel)

    def first_pick(v, v_max):
        g = rows[0] * v[:-2] + rows[1] * v[1:-1] + rows[2] * v[2:]
        best = g.argmax(axis=0)
        cols = np.arange(n - 2)
        tied = g[best, cols] - g <= tie * v_max  # within round-off of the best
        sel = np.where(tied[0], 0, best)
        near = _nearest_decided(tied.sum(axis=0) == 1)
        if near is None:
            return sel
        # a tied node takes the nearest decided pick where that is one of its ties
        pick = sel[near]
        return np.where(tied[pick, cols], pick, sel)

    sel = first_pick(u, float(np.abs(u).max()))
    if n_cand == 2:
        sel = sel.astype(bool)  # the two-candidate select works on bools
    # the selection that gave each step's value, one byte per node
    record = np.empty((n_time, n - 2), dtype=bool if n_cand == 2 else np.int8)
    factored = None
    step = streak = 0
    while step < n_time:
        if streak >= _RUN_AFTER:
            ahead = min(streak, _RUN_AHEAD, n_time - step)
            # the factors of sel are held: the streak ended on its pick
            for j in range(step, step + ahead):
                v = out[j + 1]
                v[:] = out[j]
                v[0], v[-1] = boundary_of(j)
                if dgttrs(*lu, v, overwrite_b=1)[1] != 0:
                    v[0] = math.nan  # not kept: the step's own solve reports it
            block = out[step + 1:step + 1 + ahead]
            v_max = np.abs(block).max(axis=1)
            fine = np.isfinite(v_max)
            n_fine = ahead if fine.all() else int(fine.argmin())
            held = (select(block[:n_fine], v_max[:n_fine, None], sel) == sel).all(axis=1)
            took = n_fine if held.all() else int(held.argmin())
            record[step:step + took] = sel
            solves += took
            step += took
            streak += took
            if took == ahead:
                continue
            u = out[step]
        bc_lo, bc_hi = boundary_of(step)
        u_iter = u
        solves_before = solves
        for it in range(1, POLICY_MAX_ITERS + 1):
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
            if sel_new.tobytes() == key and it < POLICY_MAX_ITERS:
                streak = streak + 1 if it == 1 else 0
                break
            change = float(np.abs(u_new - u_iter).max())
            if change < POLICY_RESIDUAL_TOL * u_max:
                sel, streak = sel_new, 0
                break
            if it == POLICY_MAX_ITERS:
                raise NumericalFailure(
                    "policy iteration did not stabilise",
                    step=step,
                    max_iters=POLICY_MAX_ITERS,
                    residual=change,
                    **diagnostics,
                )
            sel, u_iter = sel_new, u_new
        max_step_solves = max(max_step_solves, solves - solves_before)
        u = u_new
        out[step + 1] = u
        step += 1
    return out, solves, max_step_solves, factorizations, record


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


def _solve_bsb(problem: PricingProblem, grid: GridSpec, side: str) -> PriceSurface:
    f, w = _build_space_nodes(problem, grid)
    r = problem.rate
    T = problem.maturity
    band = problem.band

    # the bid is -ask(-payoff), so every march maximises
    sign = 1.0 if side == "ask" else -1.0
    terminal = sign * np.asarray(problem.payoff(f), dtype=float)
    stencil = _forward_stencil(f, w, grid.stretching)
    # candidate k is band end k on both sides: the bid's march maximises
    # over the same two rows, so its record reads as the ask's does
    rows = np.stack([0.5 * _variance(s) * stencil for s in (band.sigma_lo, band.sigma_hi)],
                    axis=1)
    context = {"side": side, "stretching": grid.stretching, "band": band,
               "payoff": problem.payoff}
    # V = a F + b solves the forward equation, so V keeps its end values
    values, *counts = _march(terminal, rows, T / grid.n_time, grid.n_time,
                             lambda step: (terminal[0], terminal[-1]), context)
    times = np.linspace(0.0, T, grid.n_time + 1)
    # sign V was marched from sign payoff, u = exp(-r (T - t)) V; adding 0
    # turns the -0 that negating a zero of the bid's march gives into +0;
    # in place, since a fresh surface-sized temporary costs more than its pass
    values = np.multiply(values[::-1], sign)
    values += 0.0
    values *= np.exp(-r * (T - times))[:, None]
    # the march's counters and selection record come in the order of
    # PriceSurface's last fields
    return PriceSurface(times, f, values, side, band, r, *counts)


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

    # one row set per distinct corner of the (drift, variance) box, each
    # monotone on its own; mu_hi and sigma_hi first, so they keep ties
    rows = np.stack([
        _monotone_rows(w, 0.5 * _variance(sigma), mu)
        for mu in dict.fromkeys((band.mu_hi, band.mu_lo))
        for sigma in dict.fromkeys((band.sigma_hi, band.sigma_lo))
    ], axis=1)

    growth = []  # g(a, 0) at both ends, taken after _march checks the operator

    def boundary_of(step):
        if not growth:
            growth.extend(g_drift_vol(a, 0.0, band) for a in (a_lo, a_hi))
        t = (step + 1) * dt
        return a_lo * w[0] + b_lo + t * growth[0], a_hi * w[-1] + b_hi + t * growth[1]

    context = {"side": "heat", "stretching": grid.stretching, "band": band, "payoff": phi}
    values, *counts = _march(u0, rows, dt, grid.n_time, boundary_of, context)
    times = np.linspace(0.0, horizon, grid.n_time + 1)
    return PriceSurface(times, w, values, "heat", band, 0.0, *counts)


# ---------------------------------------------------------------------------
# Closed-form oracle
# ---------------------------------------------------------------------------


def _normal_cdf(d: float) -> float:
    """Standard normal CDF, 0.5 erfc(-d sqrt(1/2)), accurate in both tails.
    Multiplying by sqrt(1/2), as scipy's ndtr does, rather than dividing by
    sqrt 2 keeps more values bitwise ndtr's (58% against 53% for |d| <= 8)."""
    return 0.5 * math.erfc(-d * math.sqrt(0.5))


def black_scholes_closed_form(
    spot: float, strike: float, r: float, sigma: float, T: float, kind: str = "call"
) -> float:
    """Classical lognormal call/put value; used as a reduction oracle.  Each
    kind is a difference of its own two CDF terms, so an out-of-the-money
    put keeps its digits (parity would subtract numbers of the spot's size)."""
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
    if kind == "call":
        return float(spot * _normal_cdf(d1) - strike * math.exp(-r * T) * _normal_cdf(d2))
    return float(strike * math.exp(-r * T) * _normal_cdf(-d2) - spot * _normal_cdf(-d1))


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
    significant digits.  Rows are formatted one at a time, so only one
    row's Python floats and text are held."""
    line = ",".join(["{:.12g}"] * (rows.shape[1] + 1)) + "\n"
    with _text_stream(dest, "w") as fh:
        fh.write(header + "\n")
        for t, row in zip(first_col.tolist(), rows):
            fh.write(line.format(t, *row.tolist()))


def write_surface_file(surface: PriceSurface, dest) -> None:
    """Matrix text format: header row of space nodes, first column of times.

    Row i's value under node x sits at the spot x exp(-rate (T - t_i)),
    T the last time (see ``PriceSurface``); at rate 0 the spot is x."""
    header = "time\\space," + ",".join(format(v, ".12g") for v in surface.space_nodes)
    _write_table(dest, header, surface.times, surface.values)
