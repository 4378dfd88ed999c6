"""The three benchmark workloads: their ops, output checks and fault probes.

An op is one user-level call: a CLI command run in-process through
``parse_config`` -> ``run`` -> ``Report.render``, or one public library
call.  Every op kind has an output check; a miss raises ``CheckMiss`` and
the op counts as failed.  Ops are generated from the seed in rounds of a
fixed composition, so two seeds differ in the drawn inputs, not in the
mix of op kinds.

Checks on random draws use tails of about 1e-9 (six standard errors), so
a change that only re-draws the random stream cannot flip them.
Deterministic checks use the acceptance criteria's tolerances unchanged.

Every call into the program goes through a ``bidask`` module attribute at
call time, so the traced run sees it.  Oracles and check helpers below are
bound at import, before any tracing, and never show up as program time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bidask
import bidask.cli
import bidask.fgbm
from bidask.cps import retirement_walk as _retirement_walk
from bidask.errors import ConsistencyError, DomainExitError, NumericalFailure
from bidask.pde import black_scholes_closed_form as _black_scholes

SPOT = 100.0
SAMPLE_PATH = Path(bidask.__file__).resolve().parent / "data" / "sample_path.csv"

# six-sigma normal tail and 1e-9 chi-square tails of a 32-path sample
# variance (31 degrees of freedom), divided by the degrees of freedom
K_SE = 6.0
VAR_RATIO_LO, VAR_RATIO_HI = 0.12, 3.4


class CheckMiss(AssertionError):
    """An op completed but its output failed the op's check."""


def check(ok, message):
    if not ok:
        raise CheckMiss(message)


def failure_type(exc: BaseException) -> str:
    """The failure class an op is counted under."""
    if isinstance(exc, CheckMiss):
        return "check_miss"
    if isinstance(exc, bidask.cli.CommandFailure):
        cause = exc.__cause__
        if isinstance(cause, (NumericalFailure, ConsistencyError, DomainExitError)):
            return type(cause).__name__
        return "CommandFailure"
    return type(exc).__name__


@dataclass
class Op:
    kind: str
    params: dict
    cli: bool = False

    @property
    def config(self) -> str:
        return self.params["config"]


def run_cli(text: str):
    """One CLI command, in-process: parse, run, render."""
    config = bidask.cli.parse_config(text)
    report = bidask.cli.run(config)
    return report, report.render(config.effective["format"])


def _cli_op(kind, config, **params) -> Op:
    return Op(kind, {"config": json.dumps(config), **params}, cli=True)


def _band_dict(mu_lo, mu_hi, sigma_lo, sigma_hi):
    return {"mu_lo": mu_lo, "mu_hi": mu_hi, "sigma_lo": sigma_lo, "sigma_hi": sigma_hi}


def _domain(sigma_hi, maturity, spot=SPOT):
    half = 8.0 * sigma_hi * math.sqrt(maturity)
    return [spot * math.exp(-half), spot * math.exp(half)]


def _rel(a, b):
    return abs(a - b) / abs(b)


def _ndtr(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class Workload:
    """Base: ``rounds`` of ops drawn from the seed, plus hooks."""

    name = ""
    oracle_tol = 2e-3  # criterion 2's tolerance for a quote's band ends

    def __init__(self, seed: int, n_rounds: int):
        self.rng = np.random.default_rng(seed)
        self.prepare()
        self.rounds = [self.make_round() for _ in range(n_rounds)]

    def prepare(self):
        """Inputs built up front; counted in set-up time."""

    def make_round(self):
        raise NotImplementedError

    def execute(self, op: Op):
        """Run the op's program call(s); only this part is timed."""
        if op.cli:
            return run_cli(op.config)
        return getattr(self, "run_" + op.kind)(**op.params)

    def verify(self, op: Op, out):
        getattr(self, "check_" + op.kind)(op, out)

    def after(self, op: Op):
        """Restore state an op's process would not have kept."""

    def oracle_rel_err(self) -> float:
        raise NotImplementedError

    def probes(self) -> dict:
        return {}


def _probe(calls) -> dict:
    """Run fault probes; each outcome is 'ok' or a failure type."""
    out = {}
    for name, call in calls:
        try:
            call()
            out[name] = "ok"
        except Exception as e:  # a probe records every outcome, it never aborts
            out[name] = failure_type(e)
    return out


# ---------------------------------------------------------------------------
# quote_book: PDE-bound pricing desk
# ---------------------------------------------------------------------------

GRIDS = ((128, "uniform_log"), (128, "uniform_price"), (256, "uniform_log"),
         (256, "uniform_price"), (400, "uniform_log"), (400, "uniform_price"))

# criteria 1 and 2: flat band and a convex band, call at the money
ORACLE_R, ORACLE_T, ORACLE_K = 0.05, 1.0, 100.0
# (band, tolerance, sigma of the ask's closed form, sigma of the bid's)
ORACLES = (
    (_band_dict(0.01, 0.05, 0.2, 0.2), 1e-3, 0.2, 0.2),
    (_band_dict(0.01, 0.05, 0.1, 0.3), 2e-3, 0.3, 0.1),
)


def criterion3_payoff(rng) -> dict:
    """A payoff drawn the way acceptance criterion 3 draws it, as config."""
    kind = rng.integers(0, 4)
    strike = float(rng.uniform(80.0, 125.0))
    if kind == 0:
        return {"kind": "call", "strike": strike}
    if kind == 1:
        return {"kind": "put", "strike": strike}
    if kind == 2:
        w = float(rng.uniform(10.0, 30.0))
        h = float(rng.uniform(5.0, 25.0))
        knots = [(strike - 2 * w, 0.0), (strike - w, 0.0), (strike, h),
                 (strike + w, 0.0), (strike + 2 * w, 0.0)]
        return {"kind": "piecewise_linear", "knots": knots}
    xs = np.sort(rng.uniform(60.0, 160.0, size=5))
    ys = rng.uniform(0.0, 30.0, size=5)
    knots = [(50.0, float(ys[0]))] + list(zip(map(float, xs), map(float, ys)))
    knots += [(170.0, float(ys[-1]))]
    return {"kind": "piecewise_linear", "knots": knots}


def criterion3_problem(rng):
    """(payoff, base band, wide band, rate, maturity) as criterion 3 draws."""
    payoff = criterion3_payoff(rng)
    sig_lo = float(rng.uniform(0.05, 0.2))
    sig_hi = float(rng.uniform(sig_lo, 0.4))
    base = _band_dict(0.0, float(rng.uniform(0.0, 0.08)), sig_lo,
                      max(sig_hi, sig_lo + 1e-6))
    rate = float(rng.uniform(0.0, 0.08))
    maturity = float(rng.uniform(0.25, 2.0))
    wide = _band_dict(base["mu_lo"], base["mu_hi"], max(0.0, sig_lo - 0.03),
                      base["sigma_hi"] + 0.05)
    return payoff, base, wide, rate, maturity


def _price_config(payoff, band, rate, maturity, domain, n, stretching):
    return {"command": "price", "band": band, "payoff": payoff,
            "maturity": maturity, "rate": rate, "spot": SPOT,
            "spot_domain": domain,
            "grid": {"n_space": n, "n_time": n, "stretching": stretching}}


class QuoteBook(Workload):
    """Bid/ask quotes from the BSB pair, hedges and G-expectations.

    Price ops draw payoffs, bands and maturities as criterion 3 does, on
    every grid size and stretching, at a zero riskless rate: with a
    positive rate the current march fails on about 2% of such draws (the
    standing criterion-3 fault), and the timed ops must not fail.  The
    fault is kept in view by ``probes``, which run criterion 3's own
    failing problems every run; the oracle and hedge ops carry r = 0.05.
    """

    name = "quote_book"

    def prepare(self):
        self.oracle_errors = []

    def make_round(self):
        rng = self.rng
        ops = []
        for n, stretching in GRIDS:
            payoff, base, wide, _, maturity = criterion3_problem(rng)
            domain = _domain(wide["sigma_hi"], maturity)
            for band in (base, wide):
                cfg = _price_config(payoff, band, 0.0, maturity, domain, n, stretching)
                ops.append(_cli_op("price", cfg))
        for band, tol, sig_ask, sig_bid in ORACLES:
            cfg = _price_config({"kind": "call", "strike": ORACLE_K}, band, ORACLE_R,
                                ORACLE_T, _domain(band["sigma_hi"], ORACLE_T), 400,
                                "uniform_log")
            ops.append(_cli_op("price", cfg, oracle=(tol, sig_ask, sig_bid)))
        ops.append(self._hedge_op(rng))
        ops.append(self._gexp_op(rng))
        return ops

    @staticmethod
    def _hedge_op(rng):
        band = _band_dict(0.01, 0.05, 0.1, 0.3)
        maturity = float(rng.uniform(0.5, 1.5))
        cfg = {"command": "hedge", "seed": int(rng.integers(0, 2**31)), "band": band,
               "payoff": {"kind": "call", "strike": float(rng.uniform(90.0, 110.0))},
               "maturity": maturity, "rate": ORACLE_R, "spot": SPOT,
               "grid": {"n_space": 128, "n_time": 128},
               "scenario": {"mu": float(rng.uniform(0.01, 0.05)),
                            "sigma": float(rng.uniform(0.1, 0.3)), "n_steps": 1000}}
        return _cli_op("hedge", cfg)

    @staticmethod
    def _gexp_op(rng):
        sig_lo = float(rng.uniform(0.1, 0.2))
        sig_hi = float(rng.uniform(sig_lo + 0.05, 0.4))
        t = float(rng.uniform(0.25, 2.0))
        scale = sig_hi * math.sqrt(t)
        kind = "call" if rng.integers(0, 2) == 0 else "put"
        strike = float(rng.uniform(-0.5, 0.5)) * scale
        lo = strike - float(rng.uniform(0.5, 2.0)) * scale
        hi = strike + float(rng.uniform(0.5, 2.0)) * scale
        return Op("gexp", {"kind": kind, "strike": strike, "lo": lo, "hi": hi,
                           "band": (0.0, 0.0, sig_lo, sig_hi), "t": t})

    # -- execution and checks ---------------------------------------------

    @staticmethod
    def run_gexp(kind, strike, lo, hi, band, t):
        phi = getattr(bidask.ScalarFunctionSpec, kind)(strike)
        band = bidask.UncertaintyBand(*band)
        return (bidask.maximal_expectation(phi, lo, hi),
                bidask.g_normal_expectation(phi, band, t))

    def check_price(self, op, out):
        report, _ = out
        ask, bid = report.outputs["ask"], report.outputs["bid"]
        check(math.isfinite(ask) and math.isfinite(bid), "non-finite quote")
        check(ask >= bid - 1e-9 * max(1.0, abs(ask)), f"ask {ask} below bid {bid}")
        if "oracle" in op.params:
            tol, sig_ask, sig_bid = op.params["oracle"]
            err = max(
                _rel(ask, _black_scholes(SPOT, ORACLE_K, ORACLE_R, sig_ask, ORACLE_T)),
                _rel(bid, _black_scholes(SPOT, ORACLE_K, ORACLE_R, sig_bid, ORACLE_T)))
            self.oracle_errors.append(err)
            check(err <= tol, f"Black-Scholes oracle missed by {err:.3e} (tol {tol:g})")

    @staticmethod
    def check_hedge(op, out):
        report, _ = out
        o = report.outputs
        capital = o["initial_capital"]
        check(math.isfinite(capital) and capital > 0.0, f"initial capital {capital}")
        check(o["n_rebalances"] == 1000, "wrong number of rebalances")
        # discrete-rebalancing noise at 1e3 steps is ~2% of the ask; a
        # quarter of the ask is a gross hedging error, not noise
        check(o["terminal_shortfall"] <= 0.25 * capital,
              f"shortfall {o['terminal_shortfall']} on capital {capital}")

    @staticmethod
    def check_gexp(op, out):
        p = op.params
        top, g = out
        sign = 1.0 if p["kind"] == "call" else -1.0
        payoff = lambda x: max(sign * (x - p["strike"]), 0.0)  # noqa: E731
        exact = max(payoff(p["lo"]), payoff(p["hi"]))  # convex: max at an end
        check(abs(top - exact) <= 1e-9 * max(1.0, exact),
              f"maximal expectation {top} vs {exact}")
        # convex payoff: the G-normal expectation is the classical one at
        # sigma_hi, E[phi(s Z)] with s = sigma_hi sqrt(t) (Bachelier)
        s = p["band"][3] * math.sqrt(p["t"])
        d = p["strike"] / s
        dens = math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
        ref = s * dens - sign * p["strike"] * _ndtr(-sign * d)
        check(_rel(g, ref) <= 2e-3, f"G-normal expectation {g} vs {ref}")

    def oracle_rel_err(self):
        return max(self.oracle_errors)

    def probes(self):
        """Criterion 3's own failing problems (10 and 45, widened band)."""
        rng = np.random.default_rng(20240811)
        problems = [criterion3_problem(rng) for _ in range(46)]
        calls = []
        for idx in (10, 45):
            payoff, _, wide, rate, maturity = problems[idx]
            domain = _domain(wide["sigma_hi"], maturity)
            for n in (128, 256, 400):
                text = json.dumps(_price_config(payoff, wide, rate, maturity, domain,
                                                n, "uniform_log"))
                calls.append((f"criterion3_problem{idx}_wide_{n}",
                              lambda text=text: run_cli(text)))
        return _probe(calls)


# ---------------------------------------------------------------------------
# scenario_mc: Monte Carlo cross-check and the adversary
# ---------------------------------------------------------------------------

MC_BAND = (0.01, 0.05, 0.1, 0.3)
MC_PATHS, MC_STEPS = 20_000, 128
FEEDBACK_PATHS, FEEDBACK_STEPS = 2000, 500


class ScenarioMC(Workload):
    """Scenario Monte Carlo against the criterion-4 PDE pair.

    The one 400x400 pair (the oracle band) and the bang-bang rule read off
    its ask surface are built up front and counted in set-up; the timed
    ops call no PDE solver.
    """

    name = "scenario_mc"

    def prepare(self):
        band = bidask.UncertaintyBand(*MC_BAND)
        self.problem = bidask.PricingProblem(
            bidask.ScalarFunctionSpec.call(ORACLE_K), ORACLE_T, ORACLE_R, band,
            tuple(_domain(band.sigma_hi, ORACLE_T)))
        ask, bid = bidask.solve_bsb_pair(self.problem, bidask.GridSpec(400, 400))
        self.ask = ask.value_at(0.0, SPOT)
        self.bid = bid.value_at(0.0, SPOT)
        self.oracle = max(
            _rel(self.ask, _black_scholes(SPOT, ORACLE_K, ORACLE_R, 0.3, ORACLE_T)),
            _rel(self.bid, _black_scholes(SPOT, ORACLE_K, ORACLE_R, 0.1, ORACLE_T)))
        self.rule = bidask.bang_bang_control_from_surface(ask)
        self.controls = bidask.default_control_family(band)
        self.mc_grid = np.linspace(0.0, ORACLE_T, MC_STEPS + 1)
        self.feedback_grid = np.linspace(0.0, ORACLE_T, FEEDBACK_STEPS + 1)

    def make_round(self):
        rng = self.rng
        ops = []
        # one control per volatility level; the drift level is drawn
        for level in range(9):
            control = 9 * int(rng.integers(0, 3)) + level
            ops.append(Op("mc", {"control": control, "seed": int(rng.integers(0, 2**31))}))
        for _ in range(2):
            ops.append(Op("feedback", {"seed": int(rng.integers(0, 2**31))}))
        ops.append(_cli_op("simulate", {
            "command": "simulate", "seed": int(rng.integers(0, 2**31)),
            "band": _band_dict(*MC_BAND), "s0": SPOT, "horizon": 1.0,
            "n_steps": 256, "n_paths": 1000,
            "control": {"mu": float(rng.uniform(MC_BAND[0], MC_BAND[1])),
                        "sigma": float(rng.uniform(MC_BAND[2], MC_BAND[3]))}}))
        ops.append(_cli_op("capacity", {
            "command": "capacity", "seed": int(rng.integers(0, 2**31)),
            "band": _band_dict(*MC_BAND), "center_file": str(SAMPLE_PATH),
            "eta": float(rng.uniform(2.0, 8.0)), "n_paths": 200}))
        return ops

    def run_mc(self, control, seed):
        return bidask.mc_ask_bid(self.problem, [self.controls[control]], self.mc_grid,
                                 seed, SPOT, MC_PATHS)

    def run_feedback(self, seed):
        return bidask.simulate_asset_paths(self.rule, SPOT, self.feedback_grid, seed,
                                           FEEDBACK_PATHS)

    def check_mc(self, op, out):
        est, _ = out
        # criterion 4's window around the setup pair, with K_SE standard errors
        upper = self.ask + K_SE * est.std_error + 2e-3 * self.ask
        lower = self.bid - K_SE * est.std_error - 2e-3 * self.bid
        check(lower <= est.value <= upper,
              f"MC {est.value} outside [{lower}, {upper}]")

    def check_feedback(self, op, out):
        terminal = np.array([p.values[-1] for p in out])
        check(len(out) == FEEDBACK_PATHS and np.all(np.isfinite(terminal))
              and np.all(terminal > 0.0), "bad feedback paths")
        # the lognormal step keeps S e^{-mu t} a martingale whatever sigma
        # the rule picks
        expect = SPOT * math.exp(self.rule.mu_value * ORACLE_T)
        se = terminal.std(ddof=1) / math.sqrt(len(terminal))
        check(abs(terminal.mean() - expect) <= K_SE * se,
              f"terminal mean {terminal.mean()} vs {expect}")

    @staticmethod
    def check_simulate(op, out):
        report, _ = out
        o = report.outputs
        eff = report.inputs
        check(o["n_paths"] == eff["n_paths"], "wrong path count")
        expect = eff["s0"] * math.exp(eff["control"]["mu"] * eff["horizon"])
        se = o["terminal_std"] / math.sqrt(o["n_paths"])
        check(o["terminal_min"] > 0.0, "nonpositive asset value")
        check(abs(o["terminal_mean"] - expect) <= K_SE * se,
              f"terminal mean {o['terminal_mean']} vs {expect}")

    @staticmethod
    def check_capacity(op, out):
        report, _ = out
        cap = report.outputs["capacity"]
        check(0.0 <= cap <= 1.0, f"capacity {cap} outside [0, 1]")
        check(report.outputs["n_controls"] == 27, "default family is not 27 controls")

    def oracle_rel_err(self):
        return self.oracle


# ---------------------------------------------------------------------------
# rough_paths: fractional noise and consistent price systems
# ---------------------------------------------------------------------------

FBM_BAND = (0.0, 0.05, 0.1, 0.3)
FBM_PATHS = 32
WARM_STEPS = 2048
CPS_HURST = (0.5, 0.7)      # criterion 7
CPS_EPS = (0.05, 0.1)       # criterion 7
CLI_CPS_EPS = (0.01, 0.02, 0.05)


def _grid(n_steps):
    return tuple(np.linspace(0.0, 1.0, n_steps + 1))


def _fgbm_caches():
    return [c for c in (getattr(bidask.fgbm, "_chol_cache", None),
                        getattr(bidask.fgbm, "_kernel_cache", None))
            if isinstance(c, dict)]


class RoughPaths(Workload):
    """Fractional sampling, Volterra synthesis and CPS shadow paths.

    The fgbm layer is used two ways: CLI ops each with a Hurst index of
    their own, which factorise from scratch as every CLI process does, and
    library calls on a (grid, H) whose factor was built in set-up.
    """

    name = "rough_paths"
    oracle_tol = 0.05

    def prepare(self):
        self.band = bidask.UncertaintyBand(*FBM_BAND)
        self.sample_x0 = float(bidask.read_path_file(SAMPLE_PATH).values[0])
        self.warm_hurst = float(self.rng.uniform(0.55, 0.85))
        self.warm_spec = bidask.FgbmSpec(self.warm_hurst, self.band, _grid(WARM_STEPS))
        self.cps_specs = {h: bidask.FgbmSpec(h, self.band, _grid(1024)) for h in CPS_HURST}
        for spec in (self.warm_spec, *self.cps_specs.values()):
            bidask.simulate_fgbm(spec, 0.2, 0, 1)  # builds the cached factor
        self._before = None

    def make_round(self):
        rng = self.rng
        ops = []

        def fgbm_cfg(hurst, n_steps, method):
            return {"command": "fgbm", "seed": int(rng.integers(0, 2**31)),
                    "band": _band_dict(*FBM_BAND), "hurst": hurst,
                    "sigma": float(rng.uniform(FBM_BAND[2], FBM_BAND[3])),
                    "horizon": 1.0, "n_steps": n_steps, "n_paths": FBM_PATHS,
                    "method": method}

        for n_steps in (1024, 2048):
            ops.append(_cli_op("fgbm", fgbm_cfg(float(rng.uniform(0.1, 0.9)), n_steps,
                                                "factorization")))
        for lo, hi in ((0.05, 0.45), (0.55, 0.95)):
            ops.append(_cli_op("volterra", fgbm_cfg(float(rng.uniform(lo, hi)), 64,
                                                    "volterra")))
        for _ in range(2):
            ops.append(Op("warm", {"sigma": float(rng.uniform(FBM_BAND[2], FBM_BAND[3])),
                                   "seed": int(rng.integers(0, 2**31))}))
        for hurst, eps in zip(CPS_HURST, CPS_EPS):
            ops.append(Op("shadow", {"hurst": hurst, "eps": eps,
                                     "seed": int(rng.integers(0, 2**31))}))
        for eps in CLI_CPS_EPS:
            ops.append(_cli_op("cps", {"command": "cps", "band": _band_dict(*FBM_BAND),
                                       "path_file": str(SAMPLE_PATH), "epsilon": eps}))
        return ops

    def execute(self, op):
        if op.cli and op.kind != "cps":
            # a CLI process starts with empty caches and drops what it built
            self._before = [set(c) for c in _fgbm_caches()]
        return super().execute(op)

    def after(self, op):
        if self._before is not None:
            for cache, keys in zip(_fgbm_caches(), self._before):
                for key in set(cache) - keys:
                    del cache[key]
            self._before = None

    def run_warm(self, sigma, seed):
        return bidask.simulate_fgbm(self.warm_spec, sigma, seed, FBM_PATHS)

    def run_shadow(self, hurst, eps, seed):
        paths = bidask.simulate_fgbm_asset(self.cps_specs[hurst], 0.0, SPOT, 0.2, seed, 25)
        return [bidask.build_shadow_path(p, eps) for p in paths]

    @staticmethod
    def _check_variance(var, sigma, hurst, n_paths):
        target = sigma * sigma  # horizon 1: sigma^2 T^{2H} = sigma^2
        check(VAR_RATIO_LO * target <= var <= VAR_RATIO_HI * target,
              f"terminal variance {var} vs {target} ({n_paths} paths, H={hurst})")

    def check_fgbm(self, op, out):
        report, _ = out
        o, eff = report.outputs, report.inputs
        check(o["n_paths"] == eff["n_paths"], "wrong path count")
        sd = eff["sigma"] / math.sqrt(eff["n_paths"])
        check(abs(o["terminal_mean"]) <= K_SE * sd, f"terminal mean {o['terminal_mean']}")
        self._check_variance(o["terminal_var"], eff["sigma"], eff["hurst"], eff["n_paths"])

    check_volterra = check_fgbm

    def check_warm(self, op, out):
        vals = np.array([p.values for p in out])
        check(np.all(np.isfinite(vals)) and np.all(vals[:, 0] == 0.0),
              "paths not finite or not starting at 0")
        self._check_variance(float(vals[:, -1].var(ddof=1)), op.params["sigma"],
                             self.warm_hurst, len(out))

    @staticmethod
    def check_shadow(op, out):
        eps = op.params["eps"]
        bound = (1.0 + eps) ** 3
        for cps in out:
            ratio = cps.shadow.values / cps.source.values
            check(1.0 / bound - 1e-12 <= ratio.min() and ratio.max() <= bound + 1e-12,
                  "sandwich violated")
            expect = _retirement_walk(cps.signs, float(cps.source.values[0]), eps)
            check(np.array_equal(expect, cps.levels), "walk levels not reproduced")

    def check_cps(self, op, out):
        report, _ = out
        o = report.outputs
        check(o["sandwich_ok"], "sandwich violated")
        rows = o["crossings"]
        signs = np.array([r["sign"] for r in rows])
        expect = _retirement_walk(signs, self.sample_x0, o["epsilon"])
        check(np.array_equal(expect, np.array([r["level"] for r in rows])),
              "walk levels not reproduced")

    def oracle_rel_err(self):
        """Volterra synthesis on the 64-step grid: the variance of the
        synthesised B_H(1), sum_j K_H(1, s_j*)^2 dt, against its closed
        form 1, worst over criterion 6's H = 0.3 and 0.7."""
        grid = np.asarray(_grid(64))
        mids = 0.5 * (grid[:-1] + grid[1:])
        dt = np.diff(grid)
        errs = []
        for hurst in (0.3, 0.7):
            k = np.array([bidask.volterra_kernel(1.0, s, hurst) for s in mids])
            errs.append(abs(float(np.sum(k * k * dt)) - 1.0))
        return max(errs)

    def probes(self):
        """eps = 0.005 on the sample path (sandwich violated), and eps = 0.01
        on criterion 7's fractional paths (seed 4242, 25 paths per H)."""
        calls = [("cps_sample_path_eps0.005", lambda: run_cli(json.dumps(
            {"command": "cps", "band": _band_dict(*FBM_BAND),
             "path_file": str(SAMPLE_PATH), "epsilon": 0.005})))]
        for hurst in CPS_HURST:
            paths = bidask.simulate_fgbm_asset(self.cps_specs[hurst], 0.0, SPOT, 0.2,
                                               4242, 25)
            for j, p in enumerate(paths):
                calls.append((f"fbm_H{hurst}_path{j}_eps0.01",
                              lambda p=p: bidask.build_shadow_path(p, 0.01)))
        return _probe(calls)


WORKLOADS = {w.name: w for w in (QuoteBook, ScenarioMC, RoughPaths)}
