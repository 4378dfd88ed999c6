"""Scenario simulation, Monte Carlo pricing, pathwise integration, hedging.

The worst-case expectation is operationalised as a supremum over an
explicit family of classical scenarios: each scenario is a piecewise
constant drift/volatility control inside the uncertainty band (plus,
optionally, the state-feedback rule read off a solved price surface).
Under one scenario everything is ordinary Ito calculus: driving noise has
independent centered Gaussian increments with variance sigma_i^2 dt, asset
paths use the exact-per-step lognormal scheme, and the deflator discounts
at the riskless rate while removing the scenario's risk premium.  For a
time-based control both log S_T and the deflator exponent are linear in
the Brownian increment over each piece of steps on which its levels are
constant, so Monte Carlo draws one normal per path and piece of the
family (see ``mc_ask_bid``) and prices such a control from those two
terminal statistics without building its paths.

Randomness: one named splittable generator (Philox keyed by an integer
seed).  Paths come in blocks of ``_RNG_BLOCK``; path j lies in block
b = j // _RNG_BLOCK, which draws from counter b << 128.  Path j's values
depend only on (seed, j) and the normals per path, so growing n_paths
never changes existing paths.

Every simulator returns a ``PathEnsemble``, one matrix of paths on one
grid.  Asset paths come from one kernel, ``_paths_from_normals``, which
reads the normals it is given and writes paths into a matrix laid out by
``_path_matrix``, the one place that picks a layout (time-major for a
BangBangRule, which steps forward in time).  A simulator draws its
normals, a few hundred paths at a time, into that matrix's columns 1..,
and the kernel turns them into paths in place.  A call that compares a
control family (``mc_ask_bid``, ``estimate_tube_capacity``) draws the
normals once, one row per path, and the kernel only reads them, so every
control runs on them: common random numbers.  A ``BangBangRule`` holds a
table of the band end it picks.  A tube capacity needs a path only until it
leaves the tube, so ``estimate_tube_capacity`` steps a time-based
control's paths with the kernel's arithmetic up to their exit, and its
estimate is bitwise the one from the full paths.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainExitError, SingularControlError
from .pde import PriceSurface, PricingProblem, _text_stream, _write_table
from .sublinear import UncertaintyBand

__all__ = [
    "SampledPath",
    "PathEnsemble",
    "ControlProcess",
    "McEstimate",
    "BangBangRule",
    "simulate_gbm_increments",
    "simulate_asset_paths",
    "deflator_path",
    "mc_ask_bid",
    "bang_bang_control_from_surface",
    "estimate_tube_capacity",
    "holder_exponent",
    "HolderEstimate",
    "riemann_stieltjes",
    "ConvergenceReport",
    "hedge_verify",
    "HedgeReport",
    "default_control_family",
    "read_path_file",
    "write_path_file",
    "read_ensemble_file",
    "write_ensemble_file",
]


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


def _checked_path(times, values, positive: bool, ndim: int):
    """Float times and values of one path (ndim 1) or one per row (ndim 2)."""
    times = _as_grid(times, min_points=1)
    values = np.asarray(values, dtype=float)
    if values.ndim != ndim or values.shape[-1] != len(times):
        raise ValueError(f"values must be {ndim}-d, one value per time")
    # min() is NaN when a value is, and makes no path-sized bool array
    if positive and values.size and not values.min() > 0.0:
        raise ValueError("positive path has nonpositive or NaN values")
    return times, values


@dataclass
class SampledPath:
    """A trajectory on a strictly increasing time grid starting at 0."""

    times: np.ndarray
    values: np.ndarray
    positive: bool = False

    def __post_init__(self):
        self.times, self.values = _checked_path(self.times, self.values, self.positive, 1)

    def __len__(self):
        return len(self.times)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


class PathEnsemble(Sequence):
    """Paths on one time grid, held as one (n_paths, n+1) matrix ``values``
    and checked once.  ``[j]`` (an integer) and iteration give unchecked
    ``SampledPath`` views of row j; a slice gives a ``PathEnsemble``, and
    any other index raises TypeError."""

    def __init__(self, times, values, positive: bool = False):
        self.times, self.values = _checked_path(times, values, positive, 2)
        self.positive = positive

    def __len__(self):
        return len(self.values)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return PathEnsemble(self.times, self.values[j], self.positive)
        row = self.values[operator.index(j)]  # TypeError for a list, array or tuple
        path = object.__new__(SampledPath)  # a view: the grid is checked
        path.times, path.values, path.positive = self.times, row, self.positive
        return path


@dataclass(frozen=True)
class ControlProcess:
    """One classical scenario: piecewise constant drift and volatility.

    ``breakpoints[i]`` is the left end of interval i (the first must be 0);
    level i applies on [breakpoints[i], breakpoints[i+1]), the last level
    onward.  When a ``band`` is attached the levels must lie inside it.
    """

    breakpoints: tuple
    sigma_levels: tuple
    mu_levels: tuple
    band: UncertaintyBand | None = None
    label: str | None = None

    def __post_init__(self):
        bp = _as_grid(self.breakpoints, "breakpoints", min_points=1)
        sg = np.asarray(self.sigma_levels, dtype=float)
        mu = np.asarray(self.mu_levels, dtype=float)
        if sg.shape != bp.shape or mu.shape != bp.shape:
            raise ValueError("need one sigma and one mu level per breakpoint")
        if not (np.isfinite(sg).all() and np.isfinite(mu).all()):
            raise ValueError("sigma and mu levels must be finite")
        if np.any(sg < 0.0):
            raise ValueError("sigma levels must be nonnegative")
        if self.band is not None and (msg := self.band.violation(sigma=sg, mu=mu)):
            raise ValueError(msg)

    @classmethod
    def constant(cls, mu: float, sigma: float,
                 band: UncertaintyBand | None = None) -> "ControlProcess":
        return cls((0.0,), (float(sigma),), (float(mu),), band=band,
                   label=f"const mu={mu:g} sigma={sigma:g}")

    def sigma_at(self, t):
        return np.asarray(self.sigma_levels, dtype=float)[_in_force(self.breakpoints, t)]

    def mu_at(self, t):
        return np.asarray(self.mu_levels, dtype=float)[_in_force(self.breakpoints, t)]


def _in_force(starts, t):
    """Index of the last of the increasing ``starts`` at or before each t
    (the first one for t before them all)."""
    return np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate plus the control that produced it."""

    value: float
    std_error: float
    n_paths: int
    control_id: str

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


@dataclass
class BangBangRule:
    """State-feedback scenario read off a solved price surface.

    ``sigma_table[i, j]`` is the band end the rule picks at the surface's
    time row i and node j.  At (t, x) the volatility is read at the last
    row i at or before t and the node nearest x * scale[i], which carries
    a spot at that row's time onto the surface's nodes; the drift is a
    constant inside the band.  Usable wherever a ControlProcess is
    (simulation steps forward in time, reading the volatility off the
    table).
    """

    times: np.ndarray
    nodes: np.ndarray
    sigma_table: np.ndarray
    mu_value: float
    label: str
    scale: np.ndarray

    def sigma_state(self, t, s):
        """The band end picked at times t and spots s, broadcast together
        (a row of dates takes one column of spots per date).  A spot on a
        row that holds one sigma reads that row's first node, the same
        value without the node lookup."""
        i = _in_force(self.times, t)
        x = np.asarray(s) * self.scale[i]
        j = np.zeros(x.shape, dtype=np.intp)
        look = np.broadcast_to(~_flat_rows(self.sigma_table)[i], x.shape)
        j[look] = _nearest_node(self.nodes, x[look])
        return self.sigma_table[i, j]


def _flat_rows(table: np.ndarray) -> np.ndarray:
    """Which rows of a sigma table hold one sigma."""
    return np.all(table == table[:, :1], axis=1)


def _nearest_node(nodes: np.ndarray, s) -> np.ndarray:
    """Index of the node nearest each value of s; a tie goes to the right."""
    s = np.asarray(s, dtype=float)
    j = np.clip(np.searchsorted(nodes, s), 1, len(nodes) - 1)
    return np.where((s - nodes[j - 1]) < (nodes[j] - s), j - 1, j)


def bang_bang_control_from_surface(surface: PriceSurface) -> BangBangRule:
    """Extremal scenario of a BSB surface: the Howard policy of its march.

    The march records, per step, the selection whose system gave that
    step's value (``PriceSurface.selection``); candidate k is band end k on
    both sides, since the bid marches the negated payoff over the same two
    rows.  Table row i takes the step that marched slice i + 1 to slice i,
    the maturity row copies row n - 1, and an end node takes its
    neighbour's entry.  A surface with no selection record (not built by a
    BSB solver) raises ValueError.  The drift is the riskless rate clamped
    into the band (which makes the scenario's risk premium vanish whenever
    the band allows it).
    """
    if surface.side not in ("ask", "bid"):
        raise ValueError("feedback rule needs an ask or bid surface")
    if len(surface.space_nodes) < 3:
        raise ValueError("surface too coarse for a feedback rule (need >= 3 space nodes)")
    band = surface.band
    if band is None:
        raise ValueError("surface carries no uncertainty band")
    if surface.selection is None:
        raise ValueError("surface carries no selection record: build it with a BSB solver")
    # row i <- march step n - 1 - i; the maturity row and the end nodes copy
    # their neighbours
    picks = np.pad(surface.selection[::-1], ((0, 1), (1, 1)), mode="edge")
    return BangBangRule(
        times=surface.times.copy(),
        nodes=surface.space_nodes.copy(),
        sigma_table=np.where(picks, band.sigma_hi, band.sigma_lo),
        mu_value=float(min(max(surface.rate, band.mu_lo), band.mu_hi)),
        label=f"bang_bang_{surface.side}",
        scale=surface.forward_factor(surface.times),
    )


def default_control_family(band: UncertaintyBand):
    """Constant controls on a 9 (sigma) x 3 (mu) lattice spanning the band,
    ends included (fewer where the band is a point in a coordinate)."""
    sigmas = np.unique(np.linspace(band.sigma_lo, band.sigma_hi, 9))
    mus = np.unique(np.linspace(band.mu_lo, band.mu_hi, 3))
    return [ControlProcess.constant(m, s, band=band) for m in mus for s in sigmas]


# ---------------------------------------------------------------------------
# Random number generation
# ---------------------------------------------------------------------------


_RNG_BLOCK = 4096  # paths per substream; fixed so draws never depend on n_paths
_DRAW_CHUNK = 256  # paths per buffered chunk of a draw into a strided matrix


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Stream for one block of paths: Philox keyed by the seed, counter
    offset by the block index (2^128 draws of headroom per block)."""
    return np.random.Generator(np.random.Philox(key=seed, counter=block << 128))


def seed_violation(seed) -> str | None:
    """None when ``seed`` is an integer in [0, 2**64) (a bool is not one),
    else the message saying what it is not.  Philox would truncate a float
    or a bool to another seed's key."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        return f"must be an integer, got {seed!r}"
    return None if 0 <= seed < 2**64 else f"must fit in 64 bits, got {seed!r}"


def _normal_chunks(seed: int, n_paths: int, n_steps: int, rows: int, out=None):
    """Standard normals, one row per path, drawn at most ``rows`` paths at a
    time: an iterator over (lo, z), z the normals of paths lo, lo + 1, ...
    z is ``out[lo:lo + len(z)]`` when ``out``, a C-contiguous (n_paths,
    n_steps) array, is given, else a view of one buffer that the next chunk
    overwrites.

    Paths are grouped into fixed blocks of _RNG_BLOCK, each drawn from its
    own counter-offset substream, so row j depends only on (seed, j,
    n_steps): growing n_paths appends rows without touching existing ones.
    The ziggurat takes a variable number of raw draws per normal, so a
    block's rows come row-major from its one stream.  A chunk never crosses
    a block edge and goes on with the stream where the last one stopped,
    so every row is bitwise the same for any ``rows``.  A seed that breaks
    ``seed_violation``, or n_paths < 1, raises ValueError at the call,
    before any draw.
    """
    if msg := seed_violation(seed):
        raise ValueError(f"seed {msg}")
    # n_paths < 1 is the smallest row count, for which _path_matrix raises
    buf = _path_matrix(min(n_paths, rows, _RNG_BLOCK), n_steps) if out is None else None

    def chunks():
        for block, lo in enumerate(range(0, n_paths, _RNG_BLOCK)):
            rng = _block_rng(seed, block)
            hi = min(lo + _RNG_BLOCK, n_paths)
            for c in range(lo, hi, rows):
                k = min(hi - c, rows)
                z = buf[:k] if out is None else out[c:c + k]
                rng.standard_normal(out=z)
                yield c, z

    return chunks()


def _draw_normals(seed: int, n_paths: int, n_steps: int, out=None) -> np.ndarray:
    """Standard normals, one row per path: a new (n_paths, n_steps) array,
    or ``out``, an (n_paths, n_steps) array of any strides (such as
    columns of a ``_path_matrix``), filled and returned.

    The rows are ``_normal_chunks``' rows: a whole block at a time straight
    into a C-contiguous array (a partial block is a row prefix of the full
    one), else _DRAW_CHUNK rows at a time through its buffer.
    """
    z = _path_matrix(n_paths, n_steps) if out is None else out
    if z.flags.c_contiguous:
        for _ in _normal_chunks(seed, n_paths, n_steps, _RNG_BLOCK, out=z):
            pass
    else:
        for lo, chunk in _normal_chunks(seed, n_paths, n_steps, _DRAW_CHUNK):
            z[lo:lo + len(chunk)] = chunk
    return z


# ---------------------------------------------------------------------------
# Scenario simulation
# ---------------------------------------------------------------------------


def _as_grid(grid, name: str = "time grid", min_points: int = 2) -> np.ndarray:
    """``grid`` as a float array, checked as a time grid: 1-d with at least
    ``min_points`` times, starting at 0, finite and strictly increasing.
    The one check of a time grid; its errors call the grid ``name``."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < min_points:
        raise ValueError(f"{name} must be 1-d with {min_points} or more times")
    if g[0] != 0.0:
        raise ValueError(f"{name} must start at 0")
    # a NaN fails every comparison; an increasing grid is finite where its end is
    if not ((np.diff(g) > 0.0).all() and math.isfinite(g[-1])):
        raise ValueError(f"{name} must be finite and strictly increasing")
    return g


def _time_tol(horizon: float) -> float:
    """How far apart two times on a horizon may lie and still agree."""
    return 1e-9 * max(1.0, horizon)


def _check_start(S0: float) -> None:
    if not (math.isfinite(S0) and S0 > 0.0):
        raise ValueError(f"start value S0 must be positive, got {S0!r}")


def _check_scenarios(S0: float, controls, grid: np.ndarray,
                     band: UncertaintyBand | None) -> None:
    """S0 and every control of a nonempty family, checked before any draw."""
    if not controls:
        raise ValueError("control family must be nonempty")
    _check_start(S0)
    for control in controls:
        _check_control(control, grid, band)


def _check_control(control: ControlProcess | BangBangRule, grid: np.ndarray,
                   band: UncertaintyBand | None) -> None:
    """Reject levels outside the band a control runs under (its own band was
    checked when it was built) and breakpoints off the grid.  A
    BangBangRule's levels are its sigma table and its drift."""
    if isinstance(control, BangBangRule):
        sigma, mu, breakpoints = control.sigma_table, control.mu_value, ()
    else:
        sigma, mu, breakpoints = control.sigma_levels, control.mu_levels, control.breakpoints[1:]
    if band is not None and (msg := band.violation(sigma=sigma, mu=mu)):
        raise ValueError(msg)
    horizon = grid[-1]
    for b in breakpoints:
        if b < horizon and np.min(np.abs(grid - b)) > _time_tol(horizon):
            raise ValueError(f"control breakpoint {b} is not aligned with the time grid")


def _step_levels(control: ControlProcess, grid: np.ndarray):
    if isinstance(control, BangBangRule):
        raise ValueError("a state-feedback rule has no deflator path or driving increments "
                         "on a time grid alone: its volatility depends on the asset path")
    left = grid[:-1]
    return control.sigma_at(left), control.mu_at(left)


def simulate_gbm_increments(control: ControlProcess, grid, seed: int, n_paths: int,
                            band: UncertaintyBand | None = None) -> PathEnsemble:
    """Driving-noise trajectories for one scenario, as a PathEnsemble.

    Each increment over [t_i, t_{i+1}] is an independent centered Gaussian
    with variance sigma_i^2 dt_i; deterministic given (seed, path index).
    The grid has to contain every control breakpoint.  n_paths < 1 and a
    BangBangRule (its volatility needs an asset path) raise ValueError.
    The normals are drawn into the returned matrix and summed there.
    """
    grid = _as_grid(grid)
    _check_control(control, grid, band)
    sig, _ = _step_levels(control, grid)
    W = _path_matrix(n_paths, len(grid))
    W[:, 0] = 0.0
    inc = _draw_normals(seed, n_paths, len(grid) - 1, out=W[:, 1:])
    np.multiply(inc, sig * np.sqrt(np.diff(grid)), out=inc)
    np.cumsum(inc, axis=1, out=inc)
    return PathEnsemble(grid, W)


def simulate_asset_paths(control, S0: float, grid, seed: int, n_paths: int,
                         band: UncertaintyBand | None = None) -> PathEnsemble:
    """Positive asset trajectories under one scenario, as a PathEnsemble
    (constant-per-step lognormal stepping, exact for piecewise constant
    controls); n_paths < 1 or an S0 not finite and positive: ValueError,
    S0 and the control checked before any normal is drawn.  The normals
    are drawn into the kernel's matrix, which becomes the paths."""
    grid = _as_grid(grid)
    _check_scenarios(S0, [control], grid, band)
    S = _path_matrix(n_paths, len(grid), control)
    z = _draw_normals(seed, n_paths, len(grid) - 1, out=S[:, 1:])
    return PathEnsemble(grid, _paths_from_normals(control, S0, grid, z, S), positive=True)


def _path_matrix(n_paths: int, n_points: int, control=None) -> np.ndarray:
    """An empty (n_paths, n_points) matrix, the transposed view of a
    time-major one for a BangBangRule; n_paths < 1 raises ValueError."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths!r}")
    if isinstance(control, BangBangRule):
        return np.empty((n_points, n_paths)).T
    return np.empty((n_paths, n_points))


def _paths_from_normals(control, S0, grid, z, S=None):
    """The scenario kernel: asset paths (n_paths, n_grid) from the normals z
    (n_paths, n_steps), written into S (a new ``_path_matrix`` when None),
    z left as it is unless it is ``S[:, 1:]``.  A time-based control's
    paths are S0 exp(cumsum(drift + vol z)) along each row; a BangBangRule
    steps forward in time.  Callers check S0 and the control first."""
    if S is None:
        S = _path_matrix(len(z), len(grid), control)
    dt = np.diff(grid)

    if isinstance(control, BangBangRule):
        rows = _in_force(control.times, grid[:-1])
        mu = control.mu_value
        if not np.may_share_memory(S, z):
            S[:, 1:] = z  # one transposing copy is faster than a strided read per step
        # time-major: step i turns row i + 1 from its normals into its
        # levels in place, reading row i
        X = S.T
        X[0] = S0
        table = control.sigma_table
        flat = _flat_rows(table)
        # BangBangRule.sigma_state inlined, its row index taken for all steps
        # at once: calling it per step gives bitwise-equal paths but is
        # 15-20% slower at 2000 paths x 500 steps (2-core Xeon).  A row that
        # holds one sigma steps every path with it as a scalar, the same
        # arithmetic without the node lookup: the paths are bitwise equal.
        for i in range(len(dt)):
            row = rows[i]
            if flat[row]:
                sg = table[row, 0]
            else:
                sg = table[row][_nearest_node(control.nodes, X[i] * control.scale[row])]
            # X[i] * exp((mu - sg^2/2) dt_i + sg sqrt(dt_i) z_i): the same
            # scalars and operations, with no temporary path row
            step = X[i + 1]
            np.multiply(step, sg * math.sqrt(dt[i]), out=step)
            np.add(step, (mu - 0.5 * sg * sg) * dt[i], out=step)
            np.exp(step, out=step)
            np.multiply(step, X[i], out=step)
        return S

    sig, mu = _step_levels(control, grid)
    log_s = S[:, 1:]
    np.multiply(z, sig * np.sqrt(dt), out=log_s)
    np.add(log_s, (mu - 0.5 * sig * sig) * dt, out=log_s)
    np.cumsum(log_s, axis=1, out=log_s)
    np.exp(log_s, out=log_s)
    np.multiply(log_s, S0, out=log_s)
    S[:, 0] = S0
    return S


# ---------------------------------------------------------------------------
# Deflator and Monte Carlo pricing
# ---------------------------------------------------------------------------


def _market_price_of_risk(theta, sig):
    """lambda = theta / sigma, and 0 where sigma = 0 and theta = 0."""
    zero_sig = sig == 0.0
    if np.any(zero_sig & (theta != 0.0)):
        raise SingularControlError(
            "zero volatility with nonzero risk premium: theta/sigma undefined")
    return np.divide(theta, sig, out=np.zeros(np.shape(sig)), where=~zero_sig)


def deflator_path(control: ControlProcess, r: float,
                  driving_increments: SampledPath) -> SampledPath:
    """Deflator trajectory H on the grid of the driving noise, H_0 = 1.

    H_t = exp(-[r t + sum lambda_i dW_i + 1/2 sum lambda_i^2 dt_i]) with
    lambda_i = (mu_i - r)/sigma_i the market price of risk and dW = dB/sigma
    the scenario's standard noise: discounting times the exponential
    martingale that removes the scenario's risk premium.  Reduces to plain
    discounting exp(-r t) exactly when mu == r, and e^{rt} H_t has unit
    expectation under every scenario.  A zero-volatility step with nonzero
    premium raises SingularControlError.  A BangBangRule raises ValueError:
    its volatility depends on the asset path, not on the driving path alone.
    """
    grid = driving_increments.times
    dt = np.diff(grid)
    sig, mu = _step_levels(control, grid)
    dB = np.diff(driving_increments.values)
    lam = _market_price_of_risk(mu - r, sig)
    dw = np.divide(dB, sig, out=np.zeros(len(dB)), where=sig != 0.0)
    log_h = -(r * grid[1:] + np.cumsum(lam * dw + 0.5 * lam * lam * dt))
    vals = np.concatenate(([1.0], np.exp(log_h)))
    return SampledPath(grid, vals, positive=True)


def mc_ask_bid(problem: PricingProblem, controls, grid, seed: int, spot: float,
               n_paths: int):
    """Scenario-family Monte Carlo quotes for a claim.

    Each control yields an estimate of E[H_T payoff(S_T)] (deflated claim
    under that scenario); the ask is the largest estimate over the family and
    the bid the smallest.  n_paths < 1 or a spot (every path's S0) not finite
    and positive raises ValueError, the spot and every control checked
    before the draw.

    Every control runs on one draw z (common random numbers) of one normal
    per path and piece.  The pieces are the maximal runs of grid steps on
    which every time-based control's levels are constant, or every step
    when the family holds a BangBangRule (its volatility may change at any
    step), which then reads the full per-step draw.  A time-based control
    prices from its piece increments, log S_T = log S_0 + sum (mu -
    sigma^2/2) tau + z . sigma sqrt(tau) over pieces of length tau, so its
    estimate depends on its family's pieces; a rule's paths come from the
    kernel.  Every deflator is H_T = exp(-(r T + sum lambda^2 tau / 2 +
    sum lambda sqrt(tau) z)), lambda = (mu - r) / sigma, with sigma the row
    or, for a rule, its ``sigma_state`` read off each path at each step.
    """
    controls = list(controls)
    grid = _as_grid(grid)
    if abs(grid[-1] - problem.maturity) > _time_tol(problem.maturity):
        raise ValueError("time grid must end at the claim maturity")
    r = problem.rate

    _check_scenarios(spot, controls, grid, problem.band)
    levels = {idx: _step_levels(c, grid) for idx, c in enumerate(controls)
              if not isinstance(c, BangBangRule)}
    # a piece ends where a time-based control changes level, and at every
    # step when a rule is in the family
    change = np.full(len(grid) - 2, len(levels) < len(controls))
    for sig, mu in levels.values():
        change |= (sig[1:] != sig[:-1]) | (mu[1:] != mu[:-1])
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    tau = np.diff(grid[np.append(starts, len(grid) - 1)])
    sqrt_tau = np.sqrt(tau)
    z = _draw_normals(seed, n_paths, len(starts))
    estimates = []
    for idx, control in enumerate(controls):
        if isinstance(control, BangBangRule):
            S = _paths_from_normals(control, spot, grid, z)
            sig = control.sigma_state(grid[:-1], S[:, :-1])  # every step at once
            s_T, mu = S[:, -1], control.mu_value
        else:
            sig, mu = (step[starts] for step in levels[idx])
            s_T = spot * np.exp(np.sum((mu - 0.5 * sig * sig) * tau) + z @ (sig * sqrt_tau))
        lam = _market_price_of_risk(mu - r, sig)
        # einsum: no (n_paths, n_pieces) temporary when sigma is a row
        h_T = np.exp(-(r * grid[-1] + 0.5 * np.sum(lam * lam * tau, axis=-1)
                       + np.einsum("...j,...j->...", z, lam * sqrt_tau)))
        y = h_T * np.asarray(problem.payoff(s_T))
        value = float(np.mean(y))
        se = float(np.std(y, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        label = getattr(control, "label", None) or f"control_{idx}"
        estimates.append(McEstimate(value, se, n_paths, label))

    ask = max(estimates, key=lambda e: e.value)
    bid = min(estimates, key=lambda e: e.value)
    return ask, bid


# ---------------------------------------------------------------------------
# Tube capacity
# ---------------------------------------------------------------------------


_FIRST_CHUNK = 16  # steps in the tube march's first chunk; each next one doubles


def estimate_tube_capacity(center: SampledPath, eta: float, band: UncertaintyBand,
                           controls, seed: int, n_paths: int) -> float:
    """Monte Carlo lower bound for the capacity of the eta-tube around a path.

    For each control the asset is simulated from the center's starting
    value on the center's grid, every control on the same normals; the
    estimate is the largest fraction of paths with sup_t |S_t - center_t|
    < eta over the control family.  n_paths < 1 or a center whose first
    value (every path's S0) is not finite and positive raises ValueError;
    S0 and every control are checked before the draw.

    A path that leaves the tube never counts again, so a time-based
    control simulates each path only up to its exit (``_paths_in_tube``).
    It stops once no more of its paths are inside than under the best
    control so far: its count can only fall, so it cannot raise the
    maximum.  A BangBangRule, whose volatility depends on the path, runs
    the full kernel.  The result equals, bitwise, the fraction counted
    over every control's full paths.
    """
    controls = list(controls)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(f"tube radius must be nonnegative, got {eta!r}")
    grid = center.times
    S0 = float(center.values[0])
    _check_scenarios(S0, controls, grid, band)
    z = _draw_normals(seed, n_paths, len(grid) - 1)
    best = 0
    for control in controls:
        if isinstance(control, BangBangRule):
            S = _paths_from_normals(control, S0, grid, z)
            inside = np.count_nonzero(np.all(np.abs(S - center.values) < eta, axis=1))
        else:
            inside = _paths_in_tube(control, S0, center, eta, z, best)
        best = max(best, inside)
    return best / n_paths


def _paths_in_tube(control: ControlProcess, S0: float, center: SampledPath, eta: float,
                   z: np.ndarray, best: int) -> int:
    """How many paths that z drives under a time-based control stay within
    eta of the center, or some count <= ``best`` once that few remain.

    Chunks of _FIRST_CHUNK, 2 _FIRST_CHUNK, ... steps march the paths still
    inside with the kernel's increments.  A survivor's log level is added
    to its next chunk's first increment before the cumulative sum, which is
    sequential, so every level is bitwise the kernel's full-row one.
    """
    values = center.values
    dt = np.diff(center.times)
    sig, mu = _step_levels(control, center.times)
    drift, vol = (mu - 0.5 * sig * sig) * dt, sig * np.sqrt(dt)
    n_paths, n_steps = z.shape
    # the first column holds S0 = center_0, inside exactly when eta > 0
    alive = np.arange(n_paths if eta > 0.0 else 0)
    lo, width = 0, _FIRST_CHUNK
    while lo < n_steps and len(alive) > best:
        hi = min(lo + width, n_steps)
        log_s = drift[lo:hi] + vol[lo:hi] * z[alive, lo:hi]
        if lo:
            log_s[:, 0] += level
        np.cumsum(log_s, axis=1, out=log_s)
        inside = np.all(np.abs(S0 * np.exp(log_s) - values[lo + 1:hi + 1]) < eta, axis=1)
        alive, level = alive[inside], log_s[inside, -1]
        lo, width = hi, 2 * width
    return len(alive)


# ---------------------------------------------------------------------------
# Roughness diagnostics
# ---------------------------------------------------------------------------


@dataclass
class HolderEstimate:
    """Slope of log max-increment against log scale, with fit diagnostics."""

    exponent: float
    raw_slope: float
    scales: np.ndarray
    max_increments: np.ndarray
    r_squared: float
    zero_variation: bool = False


@lru_cache(maxsize=64)
def _expected_abs_gauss_max(n_blocks: int) -> float:
    """E[max |Z_1..Z_N|] for iid standard normals, by quadrature."""
    from scipy.integrate import quad
    from scipy.special import ndtr

    val, _ = quad(lambda x: 1.0 - (2.0 * ndtr(x) - 1.0) ** n_blocks,
                  0.0, 20.0, limit=200)
    return float(val)


def _check_finite(path: SampledPath, name: str) -> None:
    """Raise ValueError, naming ``name`` and the first bad value's time,
    when a value of the path is not finite."""
    bad = ~np.isfinite(path.values)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{name} value {path.values[k]} at t={path.times[k]:g} is not finite")


def holder_exponent(path: SampledPath) -> HolderEstimate:
    """Roughness exponent from max increment magnitude over dyadic coarsenings.

    Coarsenings k = 1, 2, 4, ..., 64 keep >= 16 increments.  At coarsening k
    the statistic is max_i |x_{(i+1)k} - x_{ik}|, divided by the expected
    max of as many standard normals: without that Gumbel normalisation the
    sqrt(2 log N_k) extreme-value factor drifts across scales and biases
    the fit low by roughly 1/(2 log N).  The estimate is the log-log
    regression slope against the coarsened time step, clipped into (0, 1]:
    a Lipschitz path gives 1, driving noise ~1/2.  A path shorter than 64
    points or with a value that is not finite raises ValueError.
    """
    n = len(path)
    if n < 64:
        raise ValueError(f"path too short for roughness estimation ({n} < 64 points)")
    _check_finite(path, "path")
    vals = path.values
    if np.ptp(vals) == 0.0:
        one = np.array([1.0])
        return HolderEstimate(1.0, 1.0, one, np.array([0.0]), 1.0, zero_variation=True)

    mean_dt = (path.times[-1] - path.times[0]) / (n - 1)
    scales, maxima, normalised = [], [], []
    k = 1
    while (n - 1) // k >= 16 and k <= 64:
        sub = vals[::k]
        m = float(np.max(np.abs(np.diff(sub))))
        if m > 0.0:
            scales.append(k * mean_dt)
            maxima.append(m)
            normalised.append(m / _expected_abs_gauss_max(len(sub) - 1))
        k *= 2
    if len(scales) < 3:
        return HolderEstimate(1.0, 1.0, np.asarray(scales), np.asarray(maxima), 0.0,
                              zero_variation=True)

    lx = np.log(np.asarray(scales))
    ly = np.log(np.asarray(normalised))
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    exponent = float(min(max(slope, 1e-12), 1.0))
    return HolderEstimate(exponent, float(slope), np.asarray(scales),
                          np.asarray(maxima), r2)


# ---------------------------------------------------------------------------
# Pathwise Riemann-Stieltjes integration
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    """Left-sum values across dyadic coarsenings and the roughness budget.

    ``young_violation`` flags estimated roughness exponents whose sum falls
    at or below 1, the regime where the pathwise integral's existence is no
    longer backed by the Holder criterion.
    """

    refinement_values: np.ndarray
    refinement_gaps: np.ndarray
    gamma_integrand: float
    alpha_integrator: float
    young_violation: bool


def _left_sum(theta: np.ndarray, s: np.ndarray) -> float:
    return float(np.sum(theta[:-1] * np.diff(s)))


def riemann_stieltjes(integrand: SampledPath, integrator: SampledPath):
    """Left-endpoint pathwise integral of ``integrand`` against ``integrator``.

    The integrand is resampled (linear interpolation) onto the integrator's
    grid when the grids differ; horizons must agree.  Left sums keep the
    integrand non-anticipating, which is what hedging needs.  Returns
    (value, ConvergenceReport).  A value of either path that is not finite
    raises ValueError.
    """
    if abs(integrand.horizon - integrator.horizon) > _time_tol(integrator.horizon):
        raise ValueError(
            f"horizon mismatch: integrand ends at {integrand.horizon}, "
            f"integrator at {integrator.horizon}")
    _check_finite(integrand, "integrand")
    _check_finite(integrator, "integrator")
    times = integrator.times
    if len(integrand.times) == len(times) and np.array_equal(integrand.times, times):
        theta = integrand.values
    else:
        theta = np.interp(times, integrand.times, integrand.values)
    s = integrator.values

    value = _left_sum(theta, s)

    levels = [value]
    step = 2
    n = len(times)
    while (n - 1) // step >= 4:
        idx = np.arange(0, n, step)
        if idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        levels.append(_left_sum(theta[idx], s[idx]))
        step *= 2
    levels = np.asarray(levels)
    gaps = np.abs(np.diff(levels))

    if n >= 64:
        gamma = holder_exponent(SampledPath(times, theta)).exponent
        alpha = holder_exponent(SampledPath(times, s)).exponent
        violation = (gamma + alpha) <= 1.0
    else:
        gamma = alpha = float("nan")
        violation = False

    report = ConvergenceReport(levels, gaps, gamma, alpha, violation)
    return value, report


# ---------------------------------------------------------------------------
# Hedging verification
# ---------------------------------------------------------------------------


@dataclass
class HedgeReport:
    """Self-financed delta-hedge along one path, measured against a surface.

    ``wealth`` is the pure self-financing wealth started at u(0, S_0) with
    position du/dx; the cost process C_t = Y_t - u(t, S_t) is the running
    surplus over the surface, nondecreasing (up to discretisation noise)
    when hedging an ask surface against in-band volatility.
    ``cost_monotonicity_violation`` is the magnitude of the most negative
    surplus increment (0 when the cost process is monotone).
    """

    wealth: SampledPath
    terminal_shortfall: float
    cost_monotonicity_violation: float
    cost: SampledPath


def hedge_verify(surface: PriceSurface, asset_path: SampledPath) -> HedgeReport:
    """Delta-hedge the surface's claim along one realised path.

    The wealth Y is ``_delta_hedge``'s (cash grows at ``surface.rate``), the
    cost C_i = Y_i - u(t_i, S_i) with u from ``surface.value_at(times, s)``,
    and the terminal shortfall max(0, u(t_n, S_n) - Y_n), u(t_n, .) the
    payoff when the path ends at the surface's maturity.  A path that runs
    past the surface's last time raises ValueError, and one leaving the
    surface's domain DomainExitError.
    """
    times = asset_path.times
    s = asset_path.values
    if times[-1] - surface.times[-1] > _time_tol(surface.times[-1]):
        raise ValueError(f"path ends at t={times[-1]:g}, past the surface's last "
                         f"time {surface.times[-1]:g}")
    nodes = surface.space_nodes
    scale = surface.forward_factor(times)
    outside = (s * scale < nodes[0]) | (s * scale > nodes[-1])
    if np.any(outside):
        k = int(np.argmax(outside))
        lo, hi = nodes[[0, -1]] / scale[k]
        raise DomainExitError(f"path exits the surface domain [{lo:g}, {hi:g}] at "
                              f"t={times[k]:g}", exit_time=float(times[k]))

    (wealth,) = _delta_hedge(surface, times, s[None, :])
    u_on_path = surface.value_at(times, s)
    cost = wealth - u_on_path
    d_cost = np.diff(cost)
    violation = float(max(0.0, -d_cost.min())) if len(d_cost) else 0.0
    shortfall = float(max(0.0, u_on_path[-1] - wealth[-1]))
    return HedgeReport(
        wealth=SampledPath(times, wealth),
        terminal_shortfall=shortfall,
        cost_monotonicity_violation=violation,
        cost=SampledPath(times, cost),
    )


_HEDGE_CELLS = 1 << 16  # path-dates per block of the batch hedge, at least 64 dates


def _delta_hedge(surface: PriceSurface, times, S):
    """Wealth Y, in S's shape, of the surface's self-financing delta hedge
    along each row of S (n_paths, n_steps+1): Y_0 = u(t_0, S_0) and Y_{i+1}
    = Y_i + r (Y_i - theta_i S_i) dt_i + theta_i (S_{i+1} - S_i), where r
    is ``surface.rate``, u ``value_at`` and theta_i = du/dx(t_i, S_i) one
    dated ``delta_at``.  The recursion Y_{i+1} = g_i Y_i + c_i is unrolled
    with cumulative growth factors P_k = prod_{j<k} g_j, Y_k = P_k (Y_0 +
    sum_{i<k} c_i / P_{i+1}), so no per-path python loop is needed.

    The wealth is built in place, time-major, over blocks of dates (one
    block for a small batch, else about _HEDGE_CELLS path-dates): a block's
    c_i / P_{i+1} go into its rows, the running sum so far is added to its
    first row, and its cumulative sum, which is sequential, gives the sums
    bitwise as one sum over every date would.  No other batch-sized array
    is made; a path-major S is copied a block at a time."""
    r = surface.rate
    S = S.T  # time-major view: a date's spots are a row
    dt = np.diff(times)[:, None]
    growth = np.concatenate(([[1.0]], np.cumprod(1.0 + r * dt, axis=0)))
    Y = np.empty(S.shape)
    Y[:1] = surface.value_at(times[0], S[:1])  # Y_0, its own running sum as P_0 = 1
    carry = Y[0]
    width = max(64, _HEDGE_CELLS // S.shape[1])
    for lo in range(0, len(dt), width):
        hi = min(lo + width, len(dt))
        s = np.ascontiguousarray(S[lo:hi + 1])
        y, p = Y[lo + 1:hi + 1], growth[lo + 1:hi + 1]
        np.subtract(s[1:], s[:-1], out=y)
        y -= s[:-1] * r * dt[lo:hi]
        y *= surface.delta_at(times[lo:hi], s[:-1])  # theta
        y /= p
        y[0] += carry
        np.cumsum(y, axis=0, out=y)
        carry = y[-1].copy()
        y *= p
    return Y.T


# ---------------------------------------------------------------------------
# Path file I/O
# ---------------------------------------------------------------------------


def write_path_file(path: SampledPath, dest) -> None:
    """Two-column text: header 'time,value', one row per grid point."""
    _write_table(dest, "time,value", path.times, path.values[:, None])


def _number(field: str, kind: str, row: int, col: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise ValueError(f"{kind} file row {row} field {col} is not a number: "
                         f"{field.strip()!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{kind} file row {row} field {col} is not finite: {field.strip()!r}")
    return value


def _read_table(src, kind: str) -> np.ndarray:
    """Rows under a 'time,...' header, (n_rows, n_fields >= 2); errors name ``kind``."""
    with _text_stream(src, "r") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[0].strip() != "time":
        raise ValueError(f"{kind} file must start with a 'time,...' header")
    rows = []
    for i, ln in enumerate(lines[1:], start=1):
        fields = ln.split(",")
        if rows and len(fields) != len(rows[0]):
            raise ValueError(f"{kind} file row {i} has {len(fields)} fields, "
                             f"expected {len(rows[0])}")
        rows.append([_number(f, kind, i, j) for j, f in enumerate(fields, start=1)])
    if not rows:
        raise ValueError(f"{kind} file has no data rows")
    data = np.array(rows)
    if data.shape[1] < 2:
        raise ValueError(f"{kind} file has no value columns")
    return data


def read_path_file(src, positive: bool = False) -> SampledPath:
    data = _read_table(src, "path")
    if data.shape[1] != 2:
        raise ValueError("path file rows must have exactly two fields")
    return SampledPath(data[:, 0], data[:, 1], positive=positive)


def write_ensemble_file(paths: PathEnsemble, dest) -> None:
    """Multi-column variant: header 'time,value_0,...', one row per time of
    the ensemble's grid; an empty ensemble raises ValueError."""
    if not len(paths):
        raise ValueError("ensemble must be nonempty")
    header = "time," + ",".join(f"value_{j}" for j in range(len(paths)))
    _write_table(dest, header, paths.times, paths.values.T)


def read_ensemble_file(src, positive: bool = False) -> PathEnsemble:
    data = _read_table(src, "ensemble")
    return PathEnsemble(data[:, 0], data[:, 1:].T, positive=positive)
