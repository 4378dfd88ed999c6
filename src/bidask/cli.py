"""Config-driven command line front end with deterministic reports.

Configs are strict JSON: unknown keys are fatal, every violation is
collected and reported with its field path (not just the first), and the
effective config after defaulting is echoed into the report so any result
is reproducible from its own output.  Reports are rendered with fixed
12-significant-digit floats and deterministic key order, so identical
configs produce byte-identical reports; the timing section therefore
carries deterministic work counters (grid sizes, draw counts), not wall
clocks.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cps import build_shadow_path, cps_price
from .errors import ConfigError
from .fgbm import FgbmSpec, _normals_per_path, simulate_fgbm, simulate_fgbm_asset
from .paths import (
    ControlProcess,
    default_control_family,
    estimate_tube_capacity,
    hedge_verify,
    read_path_file,
    simulate_asset_paths,
    write_ensemble_file,
)
from .pde import GridSpec, PricingProblem, solve_bsb_ask, solve_bsb_pair
from .sublinear import ScalarFunctionSpec, UncertaintyBand

__all__ = ["RunConfig", "Report", "parse_config", "emit_config", "run", "main"]

COMMANDS = ("price", "simulate", "fgbm", "cps", "hedge", "capacity")


class CommandFailure(RuntimeError):
    """A command failed; the message carries the command context."""


@dataclass
class RunConfig:
    """A fully validated run: the command plus its canonical effective
    config (every default filled in).

    ``_built`` holds the typed objects (band, problem, grid, control)
    that validation constructed, so running does not rebuild them from
    ``effective``; it is not part of the config's identity.
    """

    command: str
    effective: dict
    _built: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def seed(self) -> int:
        return self.effective["seed"]


@dataclass
class Report:
    inputs: dict
    outputs: dict
    provenance: dict
    timing: dict

    def as_document(self) -> dict:
        return {
            "inputs": self.inputs,
            "outputs": self.outputs,
            "provenance": self.provenance,
            "timing": self.timing,
        }

    def render(self, fmt: str) -> str:
        doc = self.as_document()
        if fmt == "json":
            return _render_json(doc) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            buf.write("key,value\n")
            for key, value in _flatten(doc):
                buf.write(f"{key},{_scalar_text(value, quote_strings=False)}\n")
            return buf.getvalue()
        raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# Deterministic rendering
# ---------------------------------------------------------------------------


def _scalar_text(v, quote_strings=True):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v) or math.isinf(v):
            return "null"
        return format(v, ".12g")
    if isinstance(v, str):
        return json.dumps(v) if quote_strings else v
    raise TypeError(f"cannot render {type(v).__name__} in a report")


def _render_json(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_render_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        parts = [f"{inner}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _scalar_text(obj)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}." if not prefix else f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def emit_config(config: RunConfig) -> str:
    """Canonical text of the effective config; parse(emit(c)) == c."""
    return _render_json(config.effective) + "\n"


# ---------------------------------------------------------------------------
# Validation plumbing
# ---------------------------------------------------------------------------


class _Reader:
    """Walks a config dict, accumulating every violation with its path."""

    def __init__(self):
        self.errors = []

    def fail(self, path, msg):
        self.errors.append(f"{path}: {msg}")

    def section(self, d, path, known):
        for key in d:
            if key not in known:
                self.fail(f"{path}{key}" if path else key, "unknown key (strict mode)")

    def get(self, d, key, path, *, required=False, default=None, kind=None,
            check=None, expect=""):
        full = f"{path}{key}" if path else key
        if key not in d or d[key] is None:
            if required:
                self.fail(full, "required key is missing")
            return default
        v = d[key]
        if kind is not None:
            if kind is float:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    self.fail(full, f"expected a number{expect}, got {v!r}")
                    return default
                v = float(v)
            elif kind is int:
                if isinstance(v, bool) or not isinstance(v, int):
                    self.fail(full, f"expected an integer{expect}, got {v!r}")
                    return default
            elif not isinstance(v, kind):
                self.fail(full, f"expected {kind.__name__}{expect}, got {v!r}")
                return default
        if check is not None:
            msg = check(v)
            if msg:
                self.fail(full, msg)
                return default
        return v


def _read_band(r, cfg, path="band."):
    d = cfg.get("band")
    if not isinstance(d, dict):
        r.fail("band", "required section is missing")
        return None, {}
    r.section(d, path, {"mu_lo", "mu_hi", "sigma_lo", "sigma_hi"})
    mu_lo = r.get(d, "mu_lo", path, required=True, kind=float, default=0.0)
    mu_hi = r.get(d, "mu_hi", path, required=True, kind=float, default=0.0)
    sigma_lo = r.get(d, "sigma_lo", path, required=True, kind=float, default=0.0)
    sigma_hi = r.get(d, "sigma_hi", path, required=True, kind=float, default=1.0)
    echo = {"mu_lo": mu_lo, "mu_hi": mu_hi, "sigma_lo": sigma_lo, "sigma_hi": sigma_hi}
    if None in echo.values():
        return None, echo
    if mu_lo > mu_hi:
        r.fail("band.mu_lo/band.mu_hi", f"mu_lo={mu_lo:g} exceeds mu_hi={mu_hi:g}")
        return None, echo
    if sigma_lo > sigma_hi:
        r.fail("band.sigma_lo/band.sigma_hi",
               f"sigma_lo={sigma_lo:g} exceeds sigma_hi={sigma_hi:g}")
        return None, echo
    try:
        return UncertaintyBand(mu_lo, mu_hi, sigma_lo, sigma_hi), echo
    except ValueError as e:
        r.fail("band", str(e))
        return None, echo


def _read_payoff(r, cfg, prefix=""):
    key = prefix + "payoff"
    d = cfg.get("payoff")
    if not isinstance(d, dict):
        r.fail(key, "required section is missing")
        return None, {}
    path = key + "."
    r.section(d, path, {"kind", "strike", "exponent", "knots"})
    kind = r.get(d, "kind", path, required=True, kind=str)
    strike = r.get(d, "strike", path, kind=float)
    exponent = r.get(d, "exponent", path, kind=float)
    knots = r.get(d, "knots", path, kind=list)
    echo = {"kind": kind}
    if strike is not None:
        echo["strike"] = strike
    if exponent is not None:
        echo["exponent"] = exponent
    if knots is not None:
        echo["knots"] = knots
    try:
        if kind in ("call", "put"):
            if strike is None:
                r.fail(f"{path}strike", f"{kind} payoff needs a strike")
                return None, echo
            return getattr(ScalarFunctionSpec, kind)(strike), echo
        if kind == "identity":
            return ScalarFunctionSpec.identity(), echo
        if kind == "power":
            if exponent is None:
                r.fail(f"{path}exponent", "power payoff needs an exponent")
                return None, echo
            return ScalarFunctionSpec.power(exponent), echo
        if kind in ("piecewise_linear", "table"):
            if knots is None:
                r.fail(f"{path}knots", f"{kind} payoff needs knots")
                return None, echo
            ctor = getattr(ScalarFunctionSpec, kind)
            return ctor([(float(x), float(y)) for x, y in knots]), echo
        r.fail(f"{path}kind", f"unsupported payoff kind {kind!r}")
    except (TypeError, ValueError) as e:
        r.fail(key, str(e))
    return None, echo


def _read_grid(r, cfg, prefix=""):
    key = prefix + "grid"
    path = key + "."
    d = cfg.get("grid") or {}
    if not isinstance(d, dict):
        r.fail(key, "expected an object")
        d = {}
    r.section(d, path, {"n_space", "n_time", "stretching"})
    n_space = r.get(d, "n_space", path, kind=int, default=400,
                    check=lambda v: None if v >= 16 else "must be >= 16")
    n_time = r.get(d, "n_time", path, kind=int, default=400,
                   check=lambda v: None if v >= 16 else "must be >= 16")
    stretching = r.get(d, "stretching", path, kind=str, default="uniform_log",
                       check=lambda v: None if v in ("uniform_log", "uniform_price")
                       else "must be 'uniform_log' or 'uniform_price'")
    echo = {"n_space": n_space, "n_time": n_time, "stretching": stretching}
    try:
        return GridSpec(n_space, n_time, stretching), echo
    except ValueError as e:
        r.fail(key, str(e))
        return None, echo


def _read_domain(r, cfg, prefix="", required=False):
    domain = r.get(cfg, "spot_domain", prefix, required=required, kind=list)
    if domain is None:
        return None
    if len(domain) != 2 or not all(isinstance(v, (int, float))
                                   and not isinstance(v, bool) for v in domain):
        r.fail(prefix + "spot_domain", "expected [x_min, x_max]")
        return None
    return [float(domain[0]), float(domain[1])]


def _read_control(r, cfg, band, key="control"):
    d = cfg.get(key)
    if not isinstance(d, dict):
        r.fail(key, "required section is missing")
        return None, {}
    path = key + "."
    if "breakpoints" in d:
        r.section(d, path, {"breakpoints", "sigma_levels", "mu_levels"})
        bp = r.get(d, "breakpoints", path, required=True, kind=list)
        sg = r.get(d, "sigma_levels", path, required=True, kind=list)
        mu = r.get(d, "mu_levels", path, required=True, kind=list)
        echo = {"breakpoints": bp, "sigma_levels": sg, "mu_levels": mu}
        if None in (bp, sg, mu):
            return None, echo
        try:
            return ControlProcess(tuple(map(float, bp)), tuple(map(float, sg)),
                                  tuple(map(float, mu)), band=band), echo
        except (TypeError, ValueError) as e:
            r.fail(key, str(e))
            return None, echo
    r.section(d, path, {"mu", "sigma"})
    mu = r.get(d, "mu", path, required=True, kind=float)
    sigma = r.get(d, "sigma", path, required=True, kind=float)
    echo = {"mu": mu, "sigma": sigma}
    if None in (mu, sigma):
        return None, echo
    try:
        return ControlProcess.constant(mu, sigma, band=band), echo
    except ValueError as e:
        r.fail(key, str(e))
        return None, echo


def _constant_control(r, band, mu, sigma, path):
    """The constant control (mu, sigma) inside ``band``, built at parse
    time; a level outside the band fails at ``{path}sigma`` or ``{path}mu``."""
    if band is None or None in (mu, sigma):
        return None
    try:
        return ControlProcess.constant(mu, sigma, band=band)
    except ValueError as e:
        # ControlProcess checks sigma before mu
        bad_sigma = sigma < 0.0 or not band.contains_sigma(sigma)
        r.fail(path + ("sigma" if bad_sigma else "mu"), str(e))
        return None


_COMMON_KEYS = {"command", "seed", "format", "output", "band"}

_COMMAND_KEYS = {
    "price": {"payoff", "maturity", "rate", "spot", "spot_domain", "grid"},
    "simulate": {"s0", "horizon", "n_steps", "n_paths", "control", "paths_out"},
    "fgbm": {"hurst", "sigma", "horizon", "n_steps", "n_paths", "method",
             "asset", "paths_out"},
    "cps": {"path_file", "epsilon", "pricing"},
    "hedge": {"payoff", "maturity", "rate", "spot", "spot_domain", "grid",
              "path_file", "scenario"},
    "capacity": {"center_file", "eta", "n_paths", "n_steps", "controls"},
}


def parse_config(text: str, command: str | None = None) -> RunConfig:
    """Validate a JSON config; raises ConfigError listing every violation."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e
    if not isinstance(cfg, dict):
        raise ConfigError(["top level must be a JSON object"])

    r = _Reader()
    cmd = cfg.get("command", command)
    if cmd is None:
        r.fail("command", "required key is missing")
    elif cmd not in COMMANDS:
        r.fail("command", f"unknown command {cmd!r}; expected one of {', '.join(COMMANDS)}")
    if command is not None and cmd is not None and cmd != command:
        r.fail("command", f"config says {cmd!r} but the CLI invoked {command!r}")
    if r.errors:
        raise ConfigError(r.errors)

    r.section(cfg, "", _COMMON_KEYS | _COMMAND_KEYS[cmd])
    seed = r.get(cfg, "seed", "", kind=int, default=0,
                 check=lambda v: None if 0 <= v < 2**64 else "must fit in 64 bits")
    fmt = r.get(cfg, "format", "", kind=str, default="json",
                check=lambda v: None if v in ("json", "csv") else "must be 'json' or 'csv'")
    output = r.get(cfg, "output", "", kind=str, default=None)

    eff = {"command": cmd, "seed": seed, "format": fmt, "output": output}
    band, band_echo = _read_band(r, cfg)
    eff["band"] = band_echo
    built = {"band": band}

    pos = lambda v: None if v > 0 else "must be positive"
    pos_int = lambda v: None if v >= 1 else "must be >= 1"

    if cmd == "price" or cmd == "hedge":
        payoff, payoff_echo = _read_payoff(r, cfg)
        maturity = r.get(cfg, "maturity", "", required=True, kind=float, check=pos)
        rate = r.get(cfg, "rate", "", kind=float, default=0.0)
        spot = r.get(cfg, "spot", "", required=True, kind=float, check=pos)
        grid, grid_echo = _read_grid(r, cfg)
        domain = _read_domain(r, cfg)
        if domain is None and None not in (spot, maturity) and band is not None:
            half = 8.0 * band.sigma_hi * math.sqrt(maturity)
            domain = [spot * math.exp(-half), spot * math.exp(half)]
        eff.update({"payoff": payoff_echo, "maturity": maturity, "rate": rate,
                    "spot": spot, "spot_domain": domain, "grid": grid_echo})
        if cmd == "hedge":
            path_file = r.get(cfg, "path_file", "", kind=str)
            scen, scen_echo = (None, None)
            if "scenario" in cfg:
                d = cfg["scenario"]
                if isinstance(d, dict):
                    r.section(d, "scenario.", {"mu", "sigma", "n_steps"})
                    mu = r.get(d, "mu", "scenario.", required=True, kind=float)
                    sg = r.get(d, "sigma", "scenario.", required=True, kind=float)
                    ns = r.get(d, "n_steps", "scenario.", kind=int, default=1000,
                               check=pos_int)
                    scen = {"mu": mu, "sigma": sg, "n_steps": ns}
                    scen_echo = scen
                    built["scenario"] = _constant_control(r, band, mu, sg, "scenario.")
                else:
                    r.fail("scenario", "expected an object")
            if path_file is None and scen is None:
                r.fail("path_file", "hedge needs either path_file or scenario")
            eff.update({"path_file": path_file, "scenario": scen_echo})
        if not r.errors and band is not None and payoff is not None:
            try:
                built["problem"] = PricingProblem(payoff, maturity, rate, band,
                                                  tuple(domain))
            except ValueError as e:
                r.fail("payoff/spot_domain", str(e))
            built["grid"] = grid

    elif cmd == "simulate":
        s0 = r.get(cfg, "s0", "", required=True, kind=float, check=pos)
        horizon = r.get(cfg, "horizon", "", required=True, kind=float, check=pos)
        n_steps = r.get(cfg, "n_steps", "", kind=int, default=256, check=pos_int)
        n_paths = r.get(cfg, "n_paths", "", kind=int, default=1, check=pos_int)
        built["control"], control_echo = _read_control(r, cfg, band)
        paths_out = r.get(cfg, "paths_out", "", kind=str, default=None)
        eff.update({"s0": s0, "horizon": horizon, "n_steps": n_steps,
                    "n_paths": n_paths, "control": control_echo,
                    "paths_out": paths_out})

    elif cmd == "fgbm":
        def in_band(v):
            if v < 0:
                return "must be nonnegative"
            if band is not None and not band.contains_sigma(v):
                return f"{v:g} is outside the band [{band.sigma_lo:g}, {band.sigma_hi:g}]"
            return None

        hurst = r.get(cfg, "hurst", "", required=True, kind=float,
                      check=lambda v: None if 0 < v < 1 else "must lie in (0, 1)")
        sigma = r.get(cfg, "sigma", "", required=True, kind=float, check=in_band)
        horizon = r.get(cfg, "horizon", "", required=True, kind=float, check=pos)
        n_steps = r.get(cfg, "n_steps", "", kind=int, default=256, check=pos_int)
        n_paths = r.get(cfg, "n_paths", "", kind=int, default=1, check=pos_int)
        method = r.get(cfg, "method", "", kind=str, default="factorization",
                       check=lambda v: None if v in ("factorization", "volterra")
                       else "must be 'factorization' or 'volterra'")
        paths_out = r.get(cfg, "paths_out", "", kind=str, default=None)
        asset_echo = None
        if "asset" in cfg and cfg["asset"] is not None:
            d = cfg["asset"]
            if isinstance(d, dict):
                r.section(d, "asset.", {"s0", "drift"})
                a_s0 = r.get(d, "s0", "asset.", required=True, kind=float, check=pos)
                a_dr = r.get(d, "drift", "asset.", kind=float, default=0.0)
                asset_echo = {"s0": a_s0, "drift": a_dr}
                if method == "volterra":
                    r.fail("method", "asset paths are sampled exactly; "
                           "'volterra' cannot drive them")
            else:
                r.fail("asset", "expected an object")
        eff.update({"hurst": hurst, "sigma": sigma, "horizon": horizon,
                    "n_steps": n_steps, "n_paths": n_paths, "method": method,
                    "asset": asset_echo, "paths_out": paths_out})

    elif cmd == "cps":
        path_file = r.get(cfg, "path_file", "", required=True, kind=str)
        epsilon = r.get(cfg, "epsilon", "", required=True, kind=float, check=pos)
        pricing_echo = None
        if "pricing" in cfg and cfg["pricing"] is not None:
            d = cfg["pricing"]
            if isinstance(d, dict):
                r.section(d, "pricing.", {"payoff", "maturity", "rate",
                                          "spot_domain", "grid"})
                payoff, payoff_echo = _read_payoff(r, d, "pricing.")
                maturity = r.get(d, "maturity", "pricing.", required=True,
                                 kind=float, check=pos)
                rate = r.get(d, "rate", "pricing.", kind=float, default=0.0)
                grid, grid_echo = _read_grid(r, d, "pricing.")
                domain = _read_domain(r, d, "pricing.", required=True)
                pricing_echo = {"payoff": payoff_echo, "maturity": maturity,
                                "rate": rate, "spot_domain": domain,
                                "grid": grid_echo}
                if None not in (band, payoff, maturity, rate, domain, grid):
                    try:
                        built["problem"] = PricingProblem(payoff, maturity, rate, band,
                                                          tuple(domain))
                    except ValueError as e:
                        r.fail("pricing.payoff/pricing.spot_domain", str(e))
                    built["grid"] = grid
            else:
                r.fail("pricing", "expected an object")
        eff.update({"path_file": path_file, "epsilon": epsilon,
                    "pricing": pricing_echo})

    elif cmd == "capacity":
        center_file = r.get(cfg, "center_file", "", required=True, kind=str)
        eta = r.get(cfg, "eta", "", required=True, kind=float,
                    check=lambda v: None if v >= 0 else "must be nonnegative")
        n_paths = r.get(cfg, "n_paths", "", kind=int, default=1000, check=pos_int)
        controls_echo = None
        if "controls" in cfg and cfg["controls"] is not None:
            lst = cfg["controls"]
            if not isinstance(lst, list):
                r.fail("controls", "expected a list of {mu, sigma} objects")
            else:
                controls_echo, controls = [], []
                for i, d in enumerate(lst):
                    sub = _Reader()
                    if isinstance(d, dict):
                        sub.section(d, f"controls.{i}.", {"mu", "sigma"})
                        mu = sub.get(d, "mu", f"controls.{i}.", required=True, kind=float)
                        sg = sub.get(d, "sigma", f"controls.{i}.", required=True, kind=float)
                        controls_echo.append({"mu": mu, "sigma": sg})
                        controls.append(_constant_control(sub, band, mu, sg,
                                                          f"controls.{i}."))
                    else:
                        sub.fail(f"controls.{i}", "expected an object")
                    r.errors.extend(sub.errors)
                built["controls"] = controls
        if controls_echo is None and band is not None:
            built["controls"] = default_control_family(band)
        eff.update({"center_file": center_file, "eta": eta,
                    "n_paths": n_paths, "controls": controls_echo})

    if r.errors:
        raise ConfigError(r.errors)
    return RunConfig(command=cmd, effective=eff, _built=built)


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _run_price(eff, built):
    grid = built["grid"]
    ask, bid = solve_bsb_pair(built["problem"], grid)
    spot = eff["spot"]
    outputs = {
        "ask": ask.value_at(0.0, spot),
        "bid": bid.value_at(0.0, spot),
        "ask_delta": ask.delta_at(0.0, spot),
        "bid_delta": bid.delta_at(0.0, spot),
        "spot": spot,
    }
    timing = {"pde_solves": 2, "pde_time_steps": grid.n_time,
              "grid_points": (grid.n_space + 1) * (grid.n_time + 1)}
    return outputs, timing


def _run_simulate(eff, built):
    grid = np.linspace(0.0, eff["horizon"], eff["n_steps"] + 1)
    paths = simulate_asset_paths(built["control"], eff["s0"], grid, eff["seed"],
                                 eff["n_paths"], band=built["band"])
    terminal = paths.values[:, -1]
    outputs = {
        "n_paths": len(paths),
        "terminal_mean": float(terminal.mean()),
        "terminal_std": float(terminal.std(ddof=1)) if len(paths) > 1 else 0.0,
        "terminal_min": float(terminal.min()),
        "terminal_max": float(terminal.max()),
    }
    if eff["paths_out"]:
        write_ensemble_file(paths, eff["paths_out"])
        outputs["paths_out"] = eff["paths_out"]
    timing = {"rng_normal_draws": eff["n_paths"] * eff["n_steps"],
              "time_steps": eff["n_steps"]}
    return outputs, timing


def _run_fgbm(eff, built):
    grid = np.linspace(0.0, eff["horizon"], eff["n_steps"] + 1)
    spec = FgbmSpec(eff["hurst"], built["band"], tuple(grid))
    method = eff["method"]
    if eff["asset"] is not None:
        paths = simulate_fgbm_asset(spec, eff["asset"]["drift"], eff["asset"]["s0"],
                                    eff["sigma"], eff["seed"], eff["n_paths"])
    else:
        paths = simulate_fgbm(spec, eff["sigma"], eff["seed"], eff["n_paths"],
                              method=method)
    terminal = paths.values[:, -1]
    outputs = {
        "n_paths": len(paths),
        "hurst": eff["hurst"],
        "terminal_mean": float(terminal.mean()),
        "terminal_var": float(terminal.var(ddof=1)) if len(paths) > 1 else 0.0,
    }
    if eff["paths_out"]:
        write_ensemble_file(paths, eff["paths_out"])
        outputs["paths_out"] = eff["paths_out"]
    timing = {"rng_normal_draws": eff["n_paths"] * _normals_per_path(grid, method),
              "time_steps": eff["n_steps"]}
    return outputs, timing


def _crossing_rows(cps):
    times = cps.crossing_times()
    return [
        {"index": int(cps.tau_indices[i]), "time": float(times[i]),
         "sign": int(cps.signs[i]), "level": float(cps.levels[i]),
         "overshoot": float(cps.overshoots[i])}
        for i in range(len(cps.tau_indices))
    ]


def _run_cps(eff, built):
    path = read_path_file(eff["path_file"], positive=True)
    eps = eff["epsilon"]
    if eff["pricing"] is not None:
        result = cps_price(path, built["problem"], eps, built["grid"])
        cps = result.cps
        price_out = {
            "ask": result.ask.value, "ask_lower": result.ask.lower,
            "ask_upper": result.ask.upper,
            "bid": result.bid.value, "bid_lower": result.bid.lower,
            "bid_upper": result.bid.upper,
        }
    else:
        cps = build_shadow_path(path, eps)
        price_out = None
    bound = (1.0 + eps) ** 3
    outputs = {
        "epsilon": eps,
        "n_crossings": int(np.count_nonzero(cps.signs)),
        "sandwich_ok": bool(1.0 / bound <= cps.ratio_min and cps.ratio_max <= bound),
        "sandwich_ratio_min": cps.ratio_min,
        "sandwich_ratio_max": cps.ratio_max,
        "delta1_within_eps": cps.delta_stats.frac_delta1_within,
        "delta2_within_2eps": cps.delta_stats.frac_delta2_within,
        "flagged_steps": cps.delta_stats.flagged_steps,
        "crossings": _crossing_rows(cps),
    }
    if price_out is not None:
        outputs["price"] = price_out
    timing = {"grid_points": len(path), "crossings_scanned": len(cps.tau_indices)}
    return outputs, timing


def _run_hedge(eff, built):
    band, grid = built["band"], built["grid"]
    surface = solve_bsb_ask(built["problem"], grid)
    if eff["path_file"]:
        path = read_path_file(eff["path_file"], positive=True)
    else:
        tgrid = np.linspace(0.0, eff["maturity"], eff["scenario"]["n_steps"] + 1)
        path = simulate_asset_paths(built["scenario"], eff["spot"], tgrid, eff["seed"],
                                    1, band=band)[0]
    report = hedge_verify(surface, path, eff["rate"])
    outputs = {
        "initial_capital": float(report.wealth.values[0]),
        "terminal_wealth": float(report.wealth.values[-1]),
        "terminal_shortfall": report.terminal_shortfall,
        "cost_monotonicity_violation": report.cost_monotonicity_violation,
        "n_rebalances": len(path) - 1,
    }
    timing = {"pde_solves": 1, "pde_time_steps": grid.n_time,
              "hedge_steps": len(path) - 1}
    return outputs, timing


def _run_capacity(eff, built):
    center = read_path_file(eff["center_file"])
    controls = built["controls"]
    cap = estimate_tube_capacity(center, eff["eta"], built["band"], controls,
                                 eff["seed"], eff["n_paths"])
    outputs = {"capacity": cap, "eta": eff["eta"], "n_controls": len(controls)}
    timing = {"rng_normal_draws": eff["n_paths"] * (len(center) - 1)}
    return outputs, timing


_RUNNERS = {
    "price": _run_price,
    "simulate": _run_simulate,
    "fgbm": _run_fgbm,
    "cps": _run_cps,
    "hedge": _run_hedge,
    "capacity": _run_capacity,
}


def run(config: RunConfig) -> Report:
    """Execute a validated config and assemble the deterministic report."""
    try:
        outputs, timing = _RUNNERS[config.command](config.effective, config._built)
    except (ConfigError, CommandFailure):
        raise
    except Exception as e:
        raise CommandFailure(f"command {config.command!r} failed: {e}") from e
    provenance = {
        "package": "bidask",
        "version": __version__,
        "command": config.command,
        "seed": config.seed,
    }
    return Report(inputs=config.effective, outputs=outputs,
                  provenance=provenance, timing=timing)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bidask",
        description="Bid/ask pricing and scenario tools under drift and "
                    "volatility uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="report file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="override report format")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        config = parse_config(text, command=args.command)
        if args.seed is not None:
            config.effective["seed"] = args.seed
        if args.format is not None:
            config.effective["format"] = args.format
        report = run(config)
        rendered = report.render(config.effective["format"])
        # --out is transport, not config: it never enters the report echo
        dest = args.out if args.out is not None else config.effective["output"]
        if dest:
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        else:
            sys.stdout.write(rendered)
        return 0
    except (OSError, ConfigError, CommandFailure, ValueError) as e:
        sys.stderr.write(f"bidask: error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
