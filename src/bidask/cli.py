"""Config-driven command line front end with deterministic reports.

Configs are strict JSON: a key is known exactly when its command's reader
reads it (a payoff's, the one field ``sublinear.KINDS`` gives its kind) and
any other key is fatal; every violation is collected (not just the first,
so a control's mu and sigma outside the band both fail) and each error names
the path of its field, such as ``pricing.grid.n_space``.  No bool or string
passes as a number, in a list either; a NaN or Infinity, which ``json``
reads, fails a scalar field, and fails a list where its payoff or control
rejects it.  A null optional section (``grid``, ``scenario``, ``asset``,
``pricing``) is the same as an absent one.  The effective config after
defaulting is echoed into the report so any result is reproducible from
its own output: ``parse(emit(c)) == c``.  The reader writes that echo as
it reads, each field's value or default in read order, so a key is named
once.  Reports are rendered with fixed 12-significant-digit floats and
deterministic key order, so identical configs produce byte-identical
reports; the timing section therefore carries deterministic work counters
(grid sizes, draw counts, PDE linear solves), not wall clocks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .cps import build_shadow_path, cps_price
from .errors import ConfigError
from .fgbm import (METHODS, FgbmSpec, _normals_per_path, hurst_violation, simulate_fgbm,
                   simulate_fgbm_asset)
from .paths import (
    ControlProcess,
    _time_tol,
    default_control_family,
    estimate_tube_capacity,
    hedge_verify,
    read_path_file,
    seed_violation,
    simulate_asset_paths,
    write_ensemble_file,
)
from .pde import (STRETCHINGS, GridSpec, PricingProblem, solve_bsb_ask, solve_bsb_pair,
                  stretching_violation)
from .sublinear import KINDS, ScalarFunctionSpec, UncertaintyBand

__all__ = ["RunConfig", "Report", "parse_config", "emit_config", "run", "main"]

FORMATS = ("json", "csv")


class CommandFailure(RuntimeError):
    """A command failed; the message carries the command context."""


@dataclass
class RunConfig:
    """A fully validated run: the command plus its canonical effective
    config (every default filled in), the echo the reader wrote.

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
        if fmt not in FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
        doc = self.as_document()
        if fmt == "json":
            return _render_json(doc) + "\n"
        return "key,value\n" + "".join(f"{key},{_scalar_text(value, quote_strings=False)}\n"
                                        for key, value in _flatten(doc))


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
        if v == 0.0:
            v = 0.0  # "-0" would read back as the integer 0, not as -0.0
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
            yield from _flatten(v, f"{prefix}{k}.")
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
    """Walks a config dict, accumulating every violation with its path, and
    writes the echo as it reads: each field's effective value (its value or
    its default) goes into the echo of the section that holds it, in read
    order, so the echo's key order is the order the readers read.  A key
    that no ``get`` or ``section`` asked for fails in ``reject_unread``."""

    def __init__(self, cfg):
        self.errors = []
        self.echo = {}
        # (path prefix, object, keys asked, echo) by id
        self._sections = {id(cfg): ("", cfg, set(), self.echo)}

    def fail(self, path, msg):
        self.errors.append(f"{path}: {msg}")

    def path(self, d, key):
        return f"{self._sections[id(d)][0]}{key}"

    def set(self, d, key, value):
        """Ask for ``d[key]`` and echo ``value`` as its effective value."""
        _, _, asked, echo = self._sections[id(d)]
        asked.add(key)
        echo[key] = value

    def reject_unread(self):
        for prefix, d, asked, _ in self._sections.values():
            for key in d:
                if key not in asked:
                    self.fail(prefix + key, "unknown key (strict mode)")

    def _open(self, d, path, present):
        """``d``, read at ``path``, registered with a new echo once it checks
        as an object; (None, None) after failing when it does not."""
        if not isinstance(d, dict):
            self.fail(path, "expected an object" if present else "required section is missing")
            return None, None
        echo = {}
        self._sections[id(d)] = (path + ".", d, set(), echo)
        return d, echo

    def section(self, cfg, key, *, required=False):
        """``cfg[key]`` checked as an object, or None when absent or null (an
        error only when ``required``); its keys are the ones its reader reads.
        Its echo is a new object, or null when the section is None."""
        d, echo = cfg.get(key), None
        if d is not None or required:
            d, echo = self._open(d, self.path(cfg, key), key in cfg)
        self.set(cfg, key, echo)
        return d

    def sections(self, cfg, key, items):
        """Each entry of the list ``items`` read from ``cfg[key]``, checked as a
        required section when its reader comes to it; the echo of ``cfg[key]``
        is the list of the entries' echoes."""
        echoes = []
        self.set(cfg, key, echoes)
        for i, d in enumerate(items):
            d, echo = self._open(d, f"{self.path(cfg, key)}.{i}", True)
            echoes.append(echo)
            yield d

    def get(self, d, key, *, required=False, default=None, kind=None, check=None):
        """``d[key]`` of ``kind`` passing ``check``, else ``default`` (and a
        failure, unless it is absent and not ``required``); echoed either way."""
        v, msg = d.get(key), None
        if v is None:
            msg = "required key is missing" if required else None
        elif kind is float:
            msg = _number_fault(v)
            v = v if msg else float(v)
        elif kind is int:
            msg = (f"expected an integer, got {v!r}"
                   if isinstance(v, bool) or not isinstance(v, int) else None)
        elif kind is not None and not isinstance(v, kind):
            msg = f"expected {kind.__name__}, got {v!r}"
        if v is not None and not msg and check is not None:
            msg = check(v)
        if msg:
            self.fail(self.path(d, key), msg)
        v = default if v is None or msg else v
        self.set(d, key, v)
        return v


def _one_of(names):
    return lambda v: None if v in names else "must be " + " or ".join(map(repr, names))


def _positive(v):
    return None if v > 0 else "must be positive"


def _at_least(n):
    return lambda v: None if v >= n else f"must be >= {n}"


def _number_fault(v, finite=True):
    """The number rule: what keeps the JSON value ``v`` from being a number (a
    bool is not one) or, if ``finite``, a finite float; None when nothing does."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return f"expected a number, got {v!r}"
    if finite and not abs(v) <= sys.float_info.max:  # a NaN compares False
        return f"expected a finite number, got {v!r}"
    return None


def _numbers(v, width=0):
    """The ``check`` of a list of numbers, or of ``width``-long lists of them: the
    number rule's type half per entry; the list's owner rules on finiteness."""
    for i, entry in enumerate(v):
        if width and not (isinstance(entry, list) and len(entry) == width):
            return f"entry {i}: expected a list of {width} numbers, got {entry!r}"
        for x in entry if width else [entry]:
            if msg := _number_fault(x, finite=False):
                return f"entry {i}: {msg}"
    return None


def _in_band(band, level):
    """The ``check`` of a ``level``, "mu" or "sigma": a sigma is nonnegative,
    and a level obeys the band rule once ``band`` is built."""
    def check(v):
        if level == "sigma" and v < 0:
            return "must be nonnegative"
        return None if band is None else band.violation(**{level: v})
    return check


def _spot_interval(v):
    if len(v) == 2 and not any(map(_number_fault, v)):
        return None
    return f"expected finite [x_min, x_max], got {v!r}"


def _read_band(r, cfg):
    d = r.section(cfg, "band", required=True)
    if d is None:
        return None
    levels = {key: r.get(d, key, required=True, kind=float)
              for key in ("mu_lo", "mu_hi", "sigma_lo", "sigma_hi")}
    if None in levels.values():
        return None
    try:
        return UncertaintyBand(**levels)
    except ValueError as e:
        r.fail("band", str(e))
        return None


def _read_payoff(r, cfg):
    d = r.section(cfg, "payoff", required=True)
    if d is None:
        return None
    kind = r.get(d, "kind", required=True, kind=str, check=_one_of(KINDS))
    name = KINDS.get(kind)
    args = []
    if name == "knots":
        args.append(r.get(d, name, required=True, kind=list,
                          check=lambda v: _numbers(v, width=2)))
    elif name is not None:
        args.append(r.get(d, name, required=True, kind=float))
    if None in (kind, *args):
        return None
    try:
        return getattr(ScalarFunctionSpec, kind)(*args)
    except (OverflowError, ValueError) as e:
        r.fail(r.path(cfg, "payoff"), str(e))
        return None


def _read_grid(r, cfg):
    d = r.section(cfg, "grid")
    base = GridSpec()
    if d is None:
        r.set(cfg, "grid", asdict(base))
        return base
    return GridSpec(
        *(r.get(d, key, kind=int, default=getattr(base, key),
                check=_at_least(GridSpec.MIN_STEPS)) for key in ("n_space", "n_time")),
        r.get(d, "stretching", kind=str, default=base.stretching,
              check=_one_of(STRETCHINGS)))


def _read_pricing(r, cfg, band, built, spot=False):
    """Reads payoff, maturity, rate, spot (if ``spot``), spot_domain and
    grid; builds ``built["problem"]`` and ``built["grid"]``.  Without a spot
    the domain is required, with one it defaults to spot*exp(+-8 sigma_hi
    sqrt(maturity))."""
    payoff = _read_payoff(r, cfg)
    maturity = r.get(cfg, "maturity", required=True, kind=float, check=_positive)
    rate = r.get(cfg, "rate", kind=float, default=0.0)
    s0 = r.get(cfg, "spot", required=True, kind=float, check=_positive) if spot else None
    domain = r.get(cfg, "spot_domain", required=not spot, kind=list, check=_spot_interval)
    if domain is not None:
        domain = [float(domain[0]), float(domain[1])]
    elif cfg.get("spot_domain") is None and None not in (s0, maturity, band):
        half = 8.0 * band.sigma_hi * math.sqrt(maturity)
        try:
            domain = [s0 * math.exp(-half), s0 * math.exp(half)]
        except OverflowError:
            r.fail(r.path(cfg, "spot_domain"), "the default domain "
                   "spot*exp(+-8*sigma_hi*sqrt(maturity)) overflows; give a spot_domain")
    r.set(cfg, "spot_domain", domain)
    grid = _read_grid(r, cfg)
    if None not in (s0, domain) and not domain[0] <= s0 <= domain[1]:
        r.fail(r.path(cfg, "spot"), f"{s0:g} is outside the spot_domain "
               f"[{domain[0]:g}, {domain[1]:g}]")
    if None not in (band, payoff, maturity, domain):
        try:
            problem = built["problem"] = PricingProblem(payoff, maturity, rate, band,
                                                        tuple(domain))
        except ValueError as e:
            r.fail(f"{r.path(cfg, 'payoff')}/{r.path(cfg, 'spot_domain')}", str(e))
        else:
            if msg := stretching_violation(grid.stretching, problem.maturity_domain[0]):
                r.fail(r.path(cfg, "spot_domain"), msg)
        built["grid"] = grid


def _read_control(r, cfg, band):
    d = r.section(cfg, "control", required=True)
    if d is None or "breakpoints" not in d:
        return _read_constant_control(r, d, band)
    levels = [r.get(d, key, required=True, kind=list, check=_numbers)
              for key in ("breakpoints", "sigma_levels", "mu_levels")]
    if None in levels:
        return None
    try:
        return ControlProcess(*(tuple(map(float, v)) for v in levels), band=band)
    except (OverflowError, ValueError) as e:
        r.fail("control", str(e))
        return None


def _read_constant_control(r, d, band, n_steps=None):
    """The {mu, sigma} section ``d`` as a constant control inside ``band``,
    built at parse time (None when ``d`` is); each level outside the band
    fails at its own field, ``.mu`` or ``.sigma``.  With an ``n_steps``
    default it also takes a step count."""
    if d is None:
        return None
    mu, sigma = (r.get(d, level, required=True, kind=float, check=_in_band(band, level))
                 for level in ("mu", "sigma"))
    if n_steps is not None:
        r.get(d, "n_steps", kind=int, default=n_steps, check=_at_least(1))
    if None in (band, mu, sigma):
        return None
    return ControlProcess.constant(mu, sigma, band=band)


def parse_config(text: str, command: str | None = None) -> RunConfig:
    """Validate a JSON config; raises ConfigError listing every violation."""
    return _check_config(_load_config(text), command)


def _load_config(text: str) -> dict:
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"not valid JSON: {e}"]) from e
    if not isinstance(cfg, dict):
        raise ConfigError(["top level must be a JSON object"])
    return cfg


def _read_sampling(r, cfg):
    """The sampler keys ``simulate`` and ``fgbm`` share."""
    r.get(cfg, "horizon", required=True, kind=float, check=_positive)
    r.get(cfg, "n_steps", kind=int, default=256, check=_at_least(1))
    r.get(cfg, "n_paths", kind=int, default=1, check=_at_least(1))


def _check_config(cfg: dict, command: str | None) -> RunConfig:
    r = _Reader(cfg)
    cmd = cfg.get("command", command)
    if cmd is None:
        r.fail("command", "required key is missing")
    elif cmd not in COMMANDS:
        r.fail("command", f"unknown command {cmd!r}; expected one of {', '.join(COMMANDS)}")
    if command is not None and cmd is not None and cmd != command:
        r.fail("command", f"config says {cmd!r} but the CLI invoked {command!r}")
    if r.errors:
        raise ConfigError(r.errors)

    r.set(cfg, "command", cmd)  # read by hand, before any reader: it picks them
    r.get(cfg, "seed", kind=int, default=0, check=seed_violation)
    r.get(cfg, "format", kind=str, default="json", check=_one_of(FORMATS))
    r.get(cfg, "output", kind=str)
    band = _read_band(r, cfg)
    built = {"band": band}

    if cmd == "price" or cmd == "hedge":
        _read_pricing(r, cfg, band, built, spot=True)
        if cmd == "hedge":
            path_file = r.get(cfg, "path_file", kind=str)
            scenario = r.section(cfg, "scenario")
            built["scenario"] = _read_constant_control(r, scenario, band, n_steps=1000)
            if scenario is None and path_file is None:
                r.fail("path_file", "hedge needs either path_file or scenario")
            elif scenario is not None and path_file is not None:
                r.fail("path_file/scenario", "hedge takes path_file or scenario, not both")

    elif cmd == "simulate":
        r.get(cfg, "s0", required=True, kind=float, check=_positive)
        _read_sampling(r, cfg)
        built["control"] = _read_control(r, cfg, band)
        r.get(cfg, "paths_out", kind=str)

    elif cmd == "fgbm":
        r.get(cfg, "hurst", required=True, kind=float, check=hurst_violation)
        r.get(cfg, "sigma", required=True, kind=float, check=_in_band(band, "sigma"))
        _read_sampling(r, cfg)
        method = r.get(cfg, "method", kind=str, default="factorization",
                       check=_one_of(METHODS))
        d = r.section(cfg, "asset")
        if d is not None:
            r.get(d, "s0", required=True, kind=float, check=_positive)
            r.get(d, "drift", kind=float, default=0.0)
            if method == "volterra":
                r.fail("method", "asset paths are sampled exactly; "
                       "'volterra' cannot drive them")
        r.get(cfg, "paths_out", kind=str)

    elif cmd == "cps":
        r.get(cfg, "path_file", required=True, kind=str)
        r.get(cfg, "epsilon", required=True, kind=float, check=_positive)
        d = r.section(cfg, "pricing")
        if d is not None:
            _read_pricing(r, d, band, built)

    elif cmd == "capacity":
        r.get(cfg, "center_file", required=True, kind=str)
        r.get(cfg, "eta", required=True, kind=float,
              check=lambda v: None if v >= 0 else "must be nonnegative")
        r.get(cfg, "n_paths", kind=int, default=1000, check=_at_least(1))
        items = r.get(cfg, "controls", check=lambda v: (
            "expected a list of {mu, sigma} objects" if not isinstance(v, list)
            else None if v else "control family must be nonempty"))
        if items is not None:
            built["controls"] = [_read_constant_control(r, d, band)
                                 for d in r.sections(cfg, "controls", items)]
        elif band is not None:
            built["controls"] = default_control_family(band)

    r.reject_unread()
    if r.errors:
        raise ConfigError(r.errors)
    return RunConfig(command=cmd, effective=r.echo, _built=built)


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _solve_counts(*surfaces):
    """The linear solves of each surface's march, in all and in its busiest
    step, the factorisations they used, and the steps whose selection
    differs from the previous step's, keyed by side."""
    return {"pde_linear_solves": {s.side: s.linear_solves for s in surfaces},
            "pde_factorizations": {s.side: s.factorizations for s in surfaces},
            "pde_selection_switches": {
                s.side: int(np.any(s.selection[1:] != s.selection[:-1], axis=1).sum())
                for s in surfaces},
            "pde_max_step_solves": {s.side: s.max_step_solves for s in surfaces}}


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
              "grid_points": (grid.n_space + 1) * (grid.n_time + 1),
              **_solve_counts(ask, bid)}
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
    return _sampler_tail(eff, paths, outputs, eff["n_steps"])


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
    return _sampler_tail(eff, paths, outputs, _normals_per_path(grid, method))


def _sampler_tail(eff, paths, outputs, draws_per_path):
    """A sampler's outputs and timing, after writing ``paths_out`` if set."""
    if eff["paths_out"]:
        write_ensemble_file(paths, eff["paths_out"])
        outputs["paths_out"] = eff["paths_out"]
    return outputs, {"rng_normal_draws": eff["n_paths"] * draws_per_path,
                     "time_steps": eff["n_steps"]}


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
    outputs = {
        "epsilon": eps,
        "n_crossings": int(np.count_nonzero(cps.signs)),
        "sandwich_ok": cps.sandwich_ok,
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
    if eff["path_file"] is not None:
        path = read_path_file(eff["path_file"], positive=True)
        if abs(path.horizon - eff["maturity"]) > _time_tol(eff["maturity"]):
            raise ValueError(f"path_file ends at t={path.horizon:g}, not at the "
                             f"maturity {eff['maturity']:g}")
    else:
        tgrid = np.linspace(0.0, eff["maturity"], eff["scenario"]["n_steps"] + 1)
        path = simulate_asset_paths(built["scenario"], eff["spot"], tgrid, eff["seed"],
                                    1, band=band)[0]
    report = hedge_verify(surface, path)
    outputs = {
        "initial_capital": float(report.wealth.values[0]),
        "terminal_wealth": float(report.wealth.values[-1]),
        "terminal_shortfall": report.terminal_shortfall,
        "cost_monotonicity_violation": report.cost_monotonicity_violation,
        "n_rebalances": len(path) - 1,
    }
    timing = {"pde_solves": 1, "pde_time_steps": grid.n_time,
              "hedge_steps": len(path) - 1, **_solve_counts(surface)}
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

COMMANDS = tuple(_RUNNERS)


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
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="report file (default stdout)")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="override report format")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = _load_config(fh.read())
        # the overrides are config values, checked and echoed as the file's are
        cfg.update({k: v for k, v in (("seed", args.seed), ("format", args.format))
                    if v is not None})
        config = _check_config(cfg, args.command)
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
