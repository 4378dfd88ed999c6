"""Config validation, command execution, and report determinism tests."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidask
from bidask import ConfigError, emit_config, parse_config, pde, run
from bidask.cli import COMMANDS, CommandFailure, main
from bidask.sublinear import KINDS
from perfbench import workloads
from test_pde import per_step_march


def price_config(**overrides):
    cfg = {
        "command": "price",
        "seed": 0,
        "band": {"mu_lo": 0.01, "mu_hi": 0.05, "sigma_lo": 0.2, "sigma_hi": 0.2},
        "payoff": {"kind": "call", "strike": 100.0},
        "maturity": 1.0,
        "rate": 0.05,
        "spot": 100.0,
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_price_config_fills_defaults(self):
        c = parse_config(json.dumps(price_config()))
        assert c.command == "price"
        assert c.effective["grid"] == {"n_space": 400, "n_time": 400,
                                       "stretching": "uniform_log"}
        assert c.effective["seed"] == 0
        assert c.effective["format"] == "json"
        lo, hi = c.effective["spot_domain"]
        half = 8.0 * 0.2
        assert lo == pytest.approx(100.0 * math.exp(-half))
        assert hi == pytest.approx(100.0 * math.exp(half))

    def test_inverted_band_names_both_fields(self):
        cfg = price_config(band={"mu_lo": 0.0, "mu_hi": 0.0,
                                 "sigma_lo": 0.4, "sigma_hi": 0.2})
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        msg = str(exc.value)
        assert "sigma_lo" in msg and "sigma_hi" in msg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps(price_config(extra_knob=1)))

    def test_all_errors_collected(self):
        cfg = price_config(band={"mu_lo": 0.0, "mu_hi": 0.0,
                                 "sigma_lo": 0.4, "sigma_hi": 0.2},
                           payoff={"kind": "call"}, typo_key=3)
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert len(exc.value.errors) >= 3

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(json.dumps({"command": "frobnicate"}))

    def test_command_mismatch_with_cli(self):
        with pytest.raises(ConfigError, match="invoked"):
            parse_config(json.dumps(price_config()), command="simulate")

    def test_invalid_json_reported(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    def test_out_of_band_control_names_its_field(self):
        cfg = {
            "command": "simulate", "seed": 1,
            "band": {"mu_lo": 0.0, "mu_hi": 0.1, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "s0": 100.0, "horizon": 1.0,
            "control": {"mu": 0.05, "sigma": 0.5},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert exc.value.errors == [
            "control.sigma: sigma levels leave the uncertainty band [0.1, 0.3], as 0.5 does"]

    def test_negative_pricing_payoff_names_its_field(self):
        cfg = {
            "command": "cps", "seed": 0,
            "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "path_file": "unused.csv", "epsilon": 0.05,
            "pricing": {
                "payoff": {"kind": "piecewise_linear",
                           "knots": [[50.0, -1.0], [150.0, 1.0]]},
                "maturity": 1.0, "spot_domain": [20.0, 500.0],
            },
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert exc.value.errors == [
            "pricing.payoff/pricing.spot_domain: "
            "payoff must be nonnegative on the spot domain"]

    @pytest.mark.parametrize("exponent", [400, 1e308])
    def test_payoff_not_finite_on_its_domain_is_a_config_error(self, exponent):
        cfg = {
            "command": "price",
            "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "payoff": {"kind": "power", "exponent": exponent},
            "maturity": 1.0, "rate": 0.0, "spot": 100.0, "spot_domain": [20.0, 500.0],
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert exc.value.errors == [
            "payoff/spot_domain: power payoff is not finite on the spot domain "
            "carried to maturity, [20, 500]"]

    @pytest.mark.parametrize("pricing, fields", [
        ({"payoff": {"kind": "call"}}, ["pricing.payoff.strike"]),
        ({"grid": {"n_space": 8, "bogus": 1}},
         ["pricing.grid.n_space", "pricing.grid.bogus"]),
        ({"spot_domain": ["a", 1]}, ["pricing.spot_domain"]),
        ({"spot_domain": [True, 500.0]}, ["pricing.spot_domain"]),
    ])
    def test_cps_pricing_errors_name_their_full_path(self, pricing, fields):
        d = {"payoff": {"kind": "call", "strike": 100.0}, "maturity": 1.0,
             "spot_domain": [20.0, 500.0]}
        d.update(pricing)
        cfg = {"command": "cps",
               "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
               "path_file": "unused.csv", "epsilon": 0.05, "pricing": d}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert [e.split(":")[0] for e in exc.value.errors] == fields

    def test_out_of_band_hedge_scenario_names_its_field(self):
        for scenario, field in (({"mu": 0.03, "sigma": 0.5}, "scenario.sigma"),
                                ({"mu": 0.5, "sigma": 0.2}, "scenario.mu")):
            cfg = price_config(command="hedge", scenario=scenario,
                               band={"mu_lo": 0.01, "mu_hi": 0.05,
                                     "sigma_lo": 0.1, "sigma_hi": 0.3})
            with pytest.raises(ConfigError) as exc:
                parse_config(json.dumps(cfg))
            assert [e.split(":")[0] for e in exc.value.errors] == [field]

    def test_out_of_band_capacity_control_names_its_field(self):
        cfg = {"command": "capacity",
               "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
               "center_file": "unused.csv", "eta": 0.1,
               "controls": [{"mu": 0.0, "sigma": 0.2}, {"mu": 0.0, "sigma": 0.9}]}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert [e.split(":")[0] for e in exc.value.errors] == ["controls.1.sigma"]

    @pytest.mark.parametrize("command, field", [
        ("simulate", "control"), ("hedge", "scenario"), ("capacity", "controls.0")])
    def test_constant_control_outside_in_both_levels_names_both_fields(self, command,
                                                                       field):
        both = {"mu": 0.5, "sigma": 0.9}
        cfg = {"simulate": {"command": "simulate", "s0": 100.0, "horizon": 1.0,
                            "control": both},
               "hedge": price_config(command="hedge", scenario=both),
               "capacity": {"command": "capacity", "center_file": "unused.csv",
                            "eta": 0.1, "controls": [both]}}[command]
        cfg["band"] = {"mu_lo": 0.0, "mu_hi": 0.1, "sigma_lo": 0.1, "sigma_hi": 0.3}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert exc.value.errors == [
            f"{field}.mu: mu levels leave the uncertainty band [0.0, 0.1], as 0.5 does",
            f"{field}.sigma: sigma levels leave the uncertainty band [0.1, 0.3], as 0.9 does"]

    def test_round_trip_is_canonical(self):
        # emit o parse is idempotent: the first emission canonicalises
        # (defaults filled, floats at 12 significant digits) and re-parsing
        # that text reproduces it byte for byte
        text = json.dumps(price_config())
        c1 = parse_config(text)
        emitted = emit_config(c1)
        c2 = parse_config(emitted)
        assert emit_config(c2) == emitted
        explicit = price_config(spot_domain=[20.0, 500.0])
        c3 = parse_config(json.dumps(explicit))
        assert parse_config(emit_config(c3)).effective == c3.effective


BAND = {"mu_lo": 0.01, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3}


def hedge_config(**overrides):
    cfg = price_config(command="hedge", band=dict(BAND),
                       scenario={"mu": 0.03, "sigma": 0.2})
    cfg.update(overrides)
    return cfg


def cps_pricing_config(**pricing):
    d = {"payoff": {"kind": "call", "strike": 100.0}, "maturity": 1.0,
         "spot_domain": [20.0, 500.0]}
    d.update(pricing)
    return {"command": "cps", "band": dict(BAND), "path_file": "unused.csv",
            "epsilon": 0.05, "pricing": d}


def config_errors(cfg):
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(cfg))
    return exc.value.errors


class TestConfigSections:
    @pytest.mark.parametrize("band, maturity", [
        ({"mu_lo": 0.01, "mu_hi": 0.05, "sigma_lo": 0.2, "sigma_hi": 0.2}, 1e9),
        ({"mu_lo": 0.01, "mu_hi": 0.05, "sigma_lo": 0.2, "sigma_hi": 1e9}, 1.0),
    ])
    @pytest.mark.parametrize("command", ["price", "hedge"])
    def test_default_domain_overflow_is_a_config_error(self, tmp_path, capsys, band,
                                                        maturity, command):
        cfg = price_config(command=command, band=band, maturity=maturity)
        if command == "hedge":
            cfg["scenario"] = {"mu": 0.03, "sigma": 0.2}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main([command, "--config", str(f)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("bidask: error")
        assert err[1:] == ["  - spot_domain: the default domain "
                           "spot*exp(+-8*sigma_hi*sqrt(maturity)) overflows; "
                           "give a spot_domain"]

    @pytest.mark.parametrize("spot", [100.0, 500.0], ids=["below", "above"])
    @pytest.mark.parametrize("config", [price_config, hedge_config], ids=["price", "hedge"])
    def test_spot_outside_the_domain_fails_at_spot(self, config, spot):
        assert config_errors(config(spot=spot, spot_domain=[120.0, 300.0])) == [
            f"spot: {spot:g} is outside the spot_domain [120, 300]"]
        for end in (120.0, 300.0):  # the domain holds its ends, as cps_price's does
            parse_config(json.dumps(config(spot=end, spot_domain=[120.0, 300.0])))

    @pytest.mark.parametrize("names, field, config", [
        (pde.STRETCHINGS, "grid.stretching",
         lambda v: price_config(grid={"n_space": 16, "n_time": 16, "stretching": v})),
        (bidask.fgbm.METHODS, "method",
         lambda v: {"command": "fgbm", "band": dict(BAND), "hurst": 0.7, "sigma": 0.2,
                    "horizon": 1.0, "method": v}),
        (bidask.cli.FORMATS, "format", lambda v: price_config(format=v)),
    ], ids=["stretching", "method", "format"])
    def test_closed_name_sets_parse_every_name_and_no_other(self, names, field, config):
        for name in names:
            parse_config(json.dumps(config(name)))
        listed = " or ".join(repr(name) for name in names)
        assert config_errors(config("bogus")) == [f"{field}: must be {listed}"]

    def test_missing_band_field_has_no_follow_on_error(self):
        band = {k: v for k, v in BAND.items() if k != "mu_hi"}
        assert config_errors(price_config(band=band)) == [
            "band.mu_hi: required key is missing"]

    def test_empty_band_builds_no_phantom_band(self):
        assert config_errors(hedge_config(band={})) == [
            f"band.{k}: required key is missing"
            for k in ("mu_lo", "mu_hi", "sigma_lo", "sigma_hi")]

    def test_path_file_hedge_round_trips(self):
        cfg = price_config(command="hedge", path_file="path.csv")
        emitted = emit_config(parse_config(json.dumps(cfg)))
        assert json.loads(emitted)["scenario"] is None
        assert emit_config(parse_config(emitted)) == emitted

    def test_signed_zero_round_trips(self):
        cfg = price_config(band={"mu_lo": -0.0, "mu_hi": 0.0, "sigma_lo": 0.2,
                                 "sigma_hi": 0.2}, rate=-0.0)
        emitted = emit_config(parse_config(json.dumps(cfg)))
        assert emit_config(parse_config(emitted)) == emitted

    def test_null_scenario_counts_as_absent(self):
        assert config_errors(hedge_config(scenario=None)) == [
            "path_file: hedge needs either path_file or scenario"]

    def test_hedge_rejects_both_path_file_and_scenario(self):
        assert config_errors(hedge_config(path_file="path.csv")) == [
            "path_file/scenario: hedge takes path_file or scenario, not both"]

    def test_capacity_has_no_step_count(self):
        # the centre path fixes the grid; a step count would be dropped unread
        cfg = {"command": "capacity", "band": dict(BAND), "center_file": "c.csv",
               "eta": 5.0, "n_steps": "x"}
        assert config_errors(cfg) == ["n_steps: unknown key (strict mode)"]

    def test_capacity_needs_a_control(self):
        cfg = {"command": "capacity", "band": dict(BAND), "center_file": "c.csv",
               "eta": 5.0, "controls": []}
        assert config_errors(cfg) == ["controls: control family must be nonempty"]

    @pytest.mark.parametrize("config, field", [
        (price_config, "spot_domain"), (hedge_config, "spot_domain"),
        (cps_pricing_config, "pricing.spot_domain"),
    ], ids=["price", "hedge", "cps"])
    def test_log_grid_needs_a_positive_domain_end(self, config, field):
        assert config_errors(config(spot_domain=[0.0, 400.0])) == [
            f"{field}: uniform_log grids need a strictly positive lower domain end"]
        parsed = parse_config(json.dumps(config(
            spot_domain=[0.0, 400.0],
            grid={"n_space": 64, "n_time": 32, "stretching": "uniform_price"})))
        ask = pde.solve_bsb_ask(parsed._built["problem"], parsed._built["grid"])
        assert ask.space_nodes[0] == 0.0 and ask.value_at(0.0, 100.0) > 0.0
        if config is price_config:
            assert run(parsed).outputs["ask"] == ask.value_at(0.0, 100.0)

    @pytest.mark.parametrize("cfg, error", [
        (price_config(rate=math.nan), "rate: expected a finite number, got nan"),
        (price_config(maturity=math.inf), "maturity: expected a finite number, got inf"),
        (price_config(spot=math.inf), "spot: expected a finite number, got inf"),
        (price_config(spot_domain=[20.0, math.nan]),
         "spot_domain: expected finite [x_min, x_max], got [20.0, nan]"),
        ({"command": "cps", "band": dict(BAND), "path_file": "unused.csv",
          "epsilon": math.inf}, "epsilon: expected a finite number, got inf"),
        ({"command": "simulate", "band": dict(BAND), "s0": 100.0, "horizon": math.inf,
          "control": {"mu": 0.03, "sigma": 0.2}}, "horizon: expected a finite number, got inf"),
    ], ids=["rate", "maturity", "spot", "spot_domain", "cps_epsilon", "simulate_horizon"])
    def test_non_finite_number_names_its_field(self, tmp_path, capsys, monkeypatch, cfg,
                                               error):
        # json.dumps writes NaN and Infinity literals, which json.loads reads back
        assert config_errors(cfg) == [error]

        def refuse(config):
            raise AssertionError("a rejected config was run")

        monkeypatch.setattr(bidask.cli, "run", refuse)
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main([cfg["command"], "--config", str(f)]) == 1
        assert capsys.readouterr().err.splitlines()[1:] == [f"  - {error}"]

    def test_integer_past_the_float_range_is_not_finite(self):
        assert config_errors(price_config(rate=10**400)) == [
            f"rate: expected a finite number, got {10**400}"]

    def test_nan_breakpoint_fails_at_the_control(self):
        cfg = {"command": "simulate", "band": dict(BAND), "s0": 100.0, "horizon": 1.0,
               "control": {"breakpoints": [0.0, math.nan], "sigma_levels": [0.1, 0.3],
                           "mu_levels": [0.01, 0.05]}}
        assert config_errors(cfg) == [
            "control: breakpoints must be finite and strictly increasing"]

    @pytest.mark.parametrize("grid", [0, [], "", False])
    def test_falsy_grid_is_not_an_object(self, grid):
        assert config_errors(price_config(grid=grid)) == ["grid: expected an object"]
        assert config_errors(cps_pricing_config(grid=grid)) == [
            "pricing.grid: expected an object"]

    def test_grid_defaults_and_floor_come_from_grid_spec(self):
        floor = pde.GridSpec.MIN_STEPS
        c = parse_config(json.dumps(price_config(grid={"n_space": floor})))
        assert c.effective["grid"] == {**asdict(pde.GridSpec()), "n_space": floor}
        assert config_errors(price_config(grid={"n_time": floor - 1})) == [
            f"grid.n_time: must be >= {floor}"]

    @pytest.mark.parametrize("control, errors", [
        ({"breakpoints": [0, "0.5"], "mu_levels": [False, 0.01]},
         ["control.breakpoints: entry 1: expected a number, got '0.5'",
          "control.mu_levels: entry 0: expected a number, got False"]),
        ({"sigma_levels": [0.1, None]},
         ["control.sigma_levels: entry 1: expected a number, got None"]),
        # finiteness is the control's rule, an integer past the float range too
        ({"breakpoints": [0, 10**400]}, ["control: int too large to convert to float"]),
    ], ids=["string_and_bool", "null", "past_the_float_range"])
    def test_control_list_entries_obey_the_number_rule(self, control, errors):
        cfg = {"command": "simulate", "band": dict(BAND), "s0": 100.0, "horizon": 1.0,
               "control": {"breakpoints": [0.0, 0.5], "sigma_levels": [0.1, 0.3],
                           "mu_levels": [0.01, 0.05], **control}}
        assert config_errors(cfg) == errors


# a valid value of each payoff field, on price_config's spot domain
PAYOFF_FIELDS = {"strike": 100.0, "exponent": 2.0,
                 "knots": [[50.0, 10.0], [100.0, 0.0], [150.0, 10.0]]}


def _payoff(kind, **extra):
    """A valid payoff of ``kind``, plus the ``extra`` keys."""
    own = KINDS[kind]
    return {"kind": kind, **({own: PAYOFF_FIELDS[own]} if own else {}), **extra}


class TestPayoffReader:
    """A payoff takes exactly the one field ``sublinear.KINDS`` gives its kind."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_parses_and_echoes_only_its_field(self, kind):
        c = parse_config(json.dumps(price_config(payoff=_payoff(kind))))
        assert c.effective["payoff"] == _payoff(kind)
        assert c._built["problem"].payoff.kind == kind

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, own in KINDS.items() for key in PAYOFF_FIELDS if key != own])
    def test_a_field_its_kind_does_not_take_is_unknown(self, kind, key):
        payoff = _payoff(kind, **{key: PAYOFF_FIELDS[key]})
        assert config_errors(price_config(payoff=payoff)) == [
            f"payoff.{key}: unknown key (strict mode)"]

    def test_call_takes_no_exponent_or_knots(self):
        payoff = {"kind": "call", "strike": 100, "exponent": 3, "knots": [[1, 2], [3, 4]]}
        assert config_errors(price_config(payoff=payoff)) == [
            "payoff.exponent: unknown key (strict mode)",
            "payoff.knots: unknown key (strict mode)"]

    @pytest.mark.parametrize("payoff, errors", [
        ({"kind": "put"}, ["payoff.strike: required key is missing"]),
        ({"kind": "power"}, ["payoff.exponent: required key is missing"]),
        ({"kind": "piecewise_linear"}, ["payoff.knots: required key is missing"]),
        ({"kind": "table"}, ["payoff.knots: required key is missing"]),
        ({"kind": "straddle", "strike": 100.0},
         ["payoff.kind: must be 'call' or 'put' or 'identity' or 'power' or "
          "'piecewise_linear' or 'table'", "payoff.strike: unknown key (strict mode)"]),
        ({"kind": "power", "exponent": "2"},
         ["payoff.exponent: expected a number, got '2'"]),
        ({"kind": "table", "knots": [[True, 0], ["80", 1], [200, 5]]},
         ["payoff.knots: entry 0: expected a number, got True"]),
        ({"kind": "table", "knots": [[50, 0], ["80", 1], [200, 5]]},
         ["payoff.knots: entry 1: expected a number, got '80'"]),
        ({"kind": "table", "knots": [[50, 0, 1], [200, 5]]},
         ["payoff.knots: entry 0: expected a list of 2 numbers, got [50, 0, 1]"]),
        ({"kind": "table", "knots": [50, 200]},
         ["payoff.knots: entry 0: expected a list of 2 numbers, got 50"]),
        # the family's own rejections, at the payoff
        ({"kind": "table", "knots": [[50, 1]]}, ["payoff: table needs at least two knots"]),
        ({"kind": "piecewise_linear", "knots": [[150, 0], [50, 1]]},
         ["payoff: knot abscissae must be strictly increasing"]),
        ({"kind": "table", "knots": [[50, math.nan], [150, 1]]},
         ["payoff: knots must be finite"]),
        ({"kind": "table", "knots": [[50, 10**400], [150, 1]]},
         ["payoff: int too large to convert to float"]),
    ], ids=["missing_strike", "missing_exponent", "missing_piecewise_knots",
            "missing_table_knots", "unknown_kind", "string_exponent", "bool_knot",
            "string_knot", "triple_knot", "flat_knots", "one_knot", "unsorted_knots",
            "nan_knot", "knot_past_the_float_range"])
    def test_payoff_errors_name_their_field(self, payoff, errors):
        assert config_errors(price_config(payoff=payoff)) == errors
        assert config_errors(cps_pricing_config(payoff=payoff)) == [
            "pricing." + e for e in errors]


GRID = {"n_space": 64, "n_time": 64, "stretching": "uniform_price"}

# one valid config of each shape, every optional section present
STRICT_SHAPES = {
    "price": price_config(grid=dict(GRID)),
    "hedge": hedge_config(grid=dict(GRID)),
    "simulate": {"command": "simulate", "band": dict(BAND), "s0": 100.0,
                 "horizon": 1.0, "control": {"mu": 0.03, "sigma": 0.2}},
    "simulate_piecewise": {"command": "simulate", "band": dict(BAND), "s0": 100.0,
                           "horizon": 1.0,
                           "control": {"breakpoints": [0.0, 0.5],
                                       "sigma_levels": [0.1, 0.3],
                                       "mu_levels": [0.01, 0.05]}},
    "fgbm_asset": {"command": "fgbm", "band": dict(BAND), "hurst": 0.7, "sigma": 0.2,
                   "horizon": 1.0, "asset": {"s0": 100.0, "drift": 0.02}},
    "cps_pricing": cps_pricing_config(grid=dict(GRID)),
    "capacity_controls": {"command": "capacity", "band": dict(BAND),
                          "center_file": "c.csv", "eta": 5.0,
                          "controls": [{"mu": 0.02, "sigma": 0.1},
                                       {"mu": 0.04, "sigma": 0.3}]},
}


def _objects(obj, path=""):
    """Every object nested in ``obj`` (itself first) by its key path prefix."""
    if isinstance(obj, dict):
        yield path, obj
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _objects(value, f"{path}{key}.")


@pytest.mark.parametrize("shape, path", [
    pytest.param(shape, path, id=f"{shape}:{path or '.'}")
    for shape, cfg in STRICT_SHAPES.items() for path, _ in _objects(cfg)])
def test_unread_key_fails_at_its_full_path(shape, path):
    # a key is known exactly when the command's reader reads it, at every level
    cfg = json.loads(json.dumps(STRICT_SHAPES[shape]))
    parse_config(json.dumps(cfg))
    dict(_objects(cfg))[path]["bogus"] = 1
    assert config_errors(cfg) == [f"{path}bogus: unknown key (strict mode)"]


NESTED_FAULTS = {
    "asset": ({"command": "fgbm", "band": dict(BAND), "hurst": 0.7, "sigma": 0.2,
               "horizon": 1.0, "asset": {"s0": -1.0, "drift": "up", "bogus": 1}},
              ["asset.s0: must be positive", "asset.drift: expected a number, got 'up'",
               "asset.bogus: unknown key (strict mode)"]),
    "scenario": (hedge_config(scenario={"mu": 0.03, "sigma": 0.2, "n_steps": 0,
                                        "bogus": 1}),
                 ["scenario.n_steps: must be >= 1",
                  "scenario.bogus: unknown key (strict mode)"]),
    "scenario_not_an_object": (hedge_config(scenario=5),
                               ["scenario: expected an object",
                                "path_file: hedge needs either path_file or scenario"]),
    "controls": ({"command": "capacity", "band": dict(BAND), "center_file": "c.csv",
                  "eta": 5.0, "controls": [{"mu": 0.02, "sigma": 0.1, "bogus": 1}, 5]},
                 ["controls.1: expected an object",
                  "controls.0.bogus: unknown key (strict mode)"]),
    "pricing": (cps_pricing_config(maturity=-1.0, rate="5%", bogus=1),
                ["pricing.maturity: must be positive",
                 "pricing.rate: expected a number, got '5%'",
                 "pricing.bogus: unknown key (strict mode)"]),
    "band": (price_config(band={**BAND, "bogus": 1}),
             ["band.bogus: unknown key (strict mode)"]),
}


@pytest.mark.parametrize("section", NESTED_FAULTS)
def test_nested_field_errors_are_pinned(section):
    # the exact lines, in order, for faults inside each nested section
    cfg, errors = NESTED_FAULTS[section]
    assert config_errors(cfg) == errors


def _optional(key, values):
    """``key`` absent, null or drawn from ``values``, as a one-key dict."""
    return st.one_of(st.just({}), st.just({key: None}),
                     values.map(lambda v: {key: v}))


def _merged(*parts):
    return st.tuples(*parts).map(lambda ds: {k: v for d in ds for k, v in d.items()})


def _between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _bands(draw):
    mu = sorted(draw(st.lists(_between(-0.2, 0.2), min_size=2, max_size=2)))
    sigma = sorted(draw(st.lists(_between(0.0, 0.8), min_size=2, max_size=2)))
    sigma[1] = max(sigma[1], 0.01)
    return {"mu_lo": mu[0], "mu_hi": mu[1], "sigma_lo": sigma[0], "sigma_hi": sigma[1]}


def _inside(lo, hi):
    return st.floats(0.0, 1.0).map(lambda u: min(max(lo + u * (hi - lo), lo), hi))


def _levels(band):
    return st.fixed_dictionaries({"mu": _inside(band["mu_lo"], band["mu_hi"]),
                                  "sigma": _inside(band["sigma_lo"], band["sigma_hi"])})


_payoffs = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["call", "put"]),
                           "strike": _between(1.0, 500.0)}),
    st.just({"kind": "identity"}),
    st.fixed_dictionaries({"kind": st.just("power"), "exponent": _between(0.5, 3.0)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["piecewise_linear", "table"]),
                           "knots": st.just([[50.0, 10.0], [100.0, 0.0], [150.0, 10.0]])}),
)
_grids = _merged(
    _optional("n_space", st.integers(16, 10**6)),
    _optional("n_time", st.integers(16, 10**6)),
    _optional("stretching", st.sampled_from(["uniform_log", "uniform_price"])))
_domains = st.tuples(_between(0.5, 50.0), _between(200.0, 5000.0)).map(list)
_counts = st.integers(1, 10**6)


def _pricing(spot):
    parts = [st.fixed_dictionaries({"payoff": _payoffs, "maturity": _between(0.01, 5.0)}),
             _optional("rate", _between(-0.1, 0.2)), _optional("grid", _grids)]
    if spot:
        parts += [st.fixed_dictionaries({"spot": _between(60.0, 150.0)}),
                  _optional("spot_domain", _domains)]
    else:
        parts.append(st.fixed_dictionaries({"spot_domain": _domains}))
    return _merged(*parts)


@st.composite
def _configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    band = draw(_bands())
    cfg = {"command": command, "band": band}
    cfg.update(draw(_merged(
        _optional("seed", st.integers(0, 2**64 - 1)),
        _optional("format", st.sampled_from(["json", "csv"])),
        _optional("output", st.just("report.json")))))
    if command in ("price", "hedge"):
        cfg.update(draw(_pricing(spot=True)))
    if command == "hedge":
        scenario = _levels(band).flatmap(
            lambda d: _optional("n_steps", _counts).map(lambda n: {**d, **n}))
        cfg.update(draw(_optional("scenario", scenario)))
        if cfg.get("scenario") is None:
            cfg["path_file"] = "path.csv"
    elif command == "simulate":
        piecewise = st.lists(st.sampled_from([0.25, 0.5, 0.75]), unique=True).flatmap(
            lambda bps: st.lists(_levels(band), min_size=len(bps) + 1,
                                 max_size=len(bps) + 1).map(
                lambda lv: {"breakpoints": [0.0, *sorted(bps)],
                            "sigma_levels": [d["sigma"] for d in lv],
                            "mu_levels": [d["mu"] for d in lv]}))
        cfg.update(draw(_merged(
            st.fixed_dictionaries({"s0": _between(1.0, 500.0),
                                   "horizon": _between(0.01, 5.0),
                                   "control": st.one_of(_levels(band), piecewise)}),
            _optional("n_steps", _counts), _optional("n_paths", _counts),
            _optional("paths_out", st.just("paths.csv")))))
    elif command == "fgbm":
        cfg.update(draw(_merged(
            st.fixed_dictionaries({"hurst": _between(0.01, 0.99),
                                   "sigma": _inside(band["sigma_lo"], band["sigma_hi"]),
                                   "horizon": _between(0.01, 5.0)}),
            _optional("n_steps", _counts), _optional("n_paths", _counts),
            _optional("paths_out", st.just("paths.csv")),
            _optional("asset", _merged(st.fixed_dictionaries({"s0": _between(1.0, 500.0)}),
                                       _optional("drift", _between(-0.5, 0.5)))))))
        if cfg.get("asset") is None:
            cfg.update(draw(_optional("method", st.sampled_from(["factorization",
                                                                 "volterra"]))))
    elif command == "cps":
        cfg.update(draw(_merged(
            st.fixed_dictionaries({"path_file": st.just("path.csv"),
                                   "epsilon": _between(1e-4, 1.0)}),
            _optional("pricing", _pricing(spot=False)))))
    elif command == "capacity":
        cfg.update(draw(_merged(
            st.fixed_dictionaries({"center_file": st.just("center.csv"),
                                   "eta": _between(0.0, 100.0)}),
            _optional("n_paths", _counts),
            _optional("controls", st.lists(_levels(band), min_size=1, max_size=4)))))
    return cfg


@settings(max_examples=300, deadline=None)
@given(cfg=_configs())
def test_emitted_config_is_a_fixed_point(cfg):
    # the first emission canonicalises (defaults filled, floats at 12
    # significant digits); parsing it again must reproduce it byte for byte
    emitted = emit_config(parse_config(json.dumps(cfg)))
    assert emit_config(parse_config(emitted)) == emitted


_TOP = {"seed": 7, "format": "csv", "output": "report.csv", "band": dict(BAND)}
# per command, configs that between them set every key its reader accepts
FULL_CONFIGS = {
    "price": [price_config(**_TOP, spot_domain=[20.0, 500.0], grid=dict(GRID))],
    "hedge": [hedge_config(**_TOP, payoff={"kind": "put", "strike": 90.0},
                           spot_domain=[20.0, 500.0], grid=dict(GRID),
                           scenario={"mu": 0.03, "sigma": 0.2, "n_steps": 50},
                           path_file=None),
              hedge_config(**_TOP, spot_domain=[20.0, 500.0], grid=dict(GRID),
                           scenario=None, path_file="path.csv")],
    "simulate": [{"command": "simulate", **_TOP, "s0": 100.0, "horizon": 1.0,
                  "n_steps": 32, "n_paths": 4, "paths_out": "paths.csv",
                  "control": control}
                 for control in ({"mu": 0.03, "sigma": 0.2},
                                 {"breakpoints": [0.0, 0.5], "sigma_levels": [0.1, 0.3],
                                  "mu_levels": [0.01, 0.05]})],
    "fgbm": [{"command": "fgbm", **_TOP, "hurst": 0.7, "sigma": 0.2, "horizon": 1.0,
              "n_steps": 32, "n_paths": 4, "method": "factorization",
              "asset": {"s0": 100.0, "drift": 0.02}, "paths_out": "paths.csv"}],
    "cps": [{"command": "cps", **_TOP, "path_file": "path.csv", "epsilon": 0.05,
             "pricing": {"payoff": {"kind": "power", "exponent": 2.0}, "maturity": 1.0,
                         "rate": 0.01, "spot_domain": [20.0, 500.0],
                         "grid": dict(GRID)}}],
    "capacity": [{"command": "capacity", **_TOP, "center_file": "c.csv", "eta": 5.0,
                  "n_paths": 10, "controls": [{"mu": 0.02, "sigma": 0.1},
                                              {"mu": 0.04, "sigma": 0.3}]}],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_key_set_is_echoed_with_its_value(command):
    assert set(FULL_CONFIGS) == set(COMMANDS)
    for cfg in FULL_CONFIGS[command]:
        emitted = emit_config(parse_config(json.dumps(cfg)))
        assert json.loads(emitted) == cfg
        assert emit_config(parse_config(emitted)) == emitted


@pytest.mark.parametrize("command, section, path", [
    ("price", "grid", ()), ("hedge", "grid", ()), ("hedge", "scenario", ()),
    ("fgbm", "asset", ()), ("cps", "pricing", ()), ("cps", "grid", ("pricing",)),
    ("capacity", "controls", ())])
def test_a_null_section_is_echoed_as_null_and_grid_as_its_defaults(command, section,
                                                                   path):
    cfg = json.loads(json.dumps(FULL_CONFIGS[command][-1]))
    holder = cfg
    for key in path:
        holder = holder[key]
    holder[section] = None
    echo = json.loads(emit_config(parse_config(json.dumps(cfg))))
    for key in path:
        echo = echo[key]
    assert echo[section] == (asdict(pde.GridSpec()) if section == "grid" else None)


class TestRun:
    def test_price_flat_band_matches_oracle(self):
        report = run(parse_config(json.dumps(price_config())))
        assert report.outputs["ask"] == pytest.approx(10.4506, rel=1e-3)
        assert report.outputs["bid"] == pytest.approx(10.4506, rel=1e-3)
        assert report.provenance["seed"] == 0
        assert report.inputs["band"]["sigma_hi"] == 0.2

    def test_render_json_deterministic(self):
        cfg = parse_config(json.dumps(price_config()))
        a = run(cfg).render("json")
        b = run(parse_config(json.dumps(price_config()))).render("json")
        assert a == b

    def test_render_csv_rows(self):
        report = run(parse_config(json.dumps(price_config())))
        text = report.render("csv")
        lines = text.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {ln.split(",")[0] for ln in lines[1:]}
        assert "outputs.ask" in keys and "provenance.seed" in keys

    def test_simulate_writes_ensemble(self, tmp_path):
        out = tmp_path / "paths.csv"
        cfg = {
            "command": "simulate", "seed": 11,
            "band": {"mu_lo": 0.0, "mu_hi": 0.1, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "s0": 100.0, "horizon": 1.0, "n_steps": 16, "n_paths": 4,
            "control": {"mu": 0.05, "sigma": 0.2},
            "paths_out": str(out),
        }
        report = run(parse_config(json.dumps(cfg)))
        assert report.outputs["n_paths"] == 4
        header = out.read_text().splitlines()[0]
        assert header == "time,value_0,value_1,value_2,value_3"

    def test_piecewise_control_accepted(self):
        cfg = {
            "command": "simulate", "seed": 1,
            "band": {"mu_lo": 0.0, "mu_hi": 0.1, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "s0": 50.0, "horizon": 1.0, "n_steps": 16, "n_paths": 2,
            "control": {"breakpoints": [0.0, 0.5], "sigma_levels": [0.1, 0.3],
                        "mu_levels": [0.0, 0.1]},
        }
        report = run(parse_config(json.dumps(cfg)))
        assert report.outputs["terminal_mean"] > 0

    def test_empty_hedge_path_file_is_a_file_name(self):
        # an empty path_file names a file that is not there; it does not
        # fall back to the absent scenario
        cfg = price_config(command="hedge", path_file="",
                           grid={"n_space": 16, "n_time": 16})
        with pytest.raises(CommandFailure, match="No such file"):
            run(parse_config(json.dumps(cfg)))

    @pytest.mark.parametrize("sigma_hi", [1e153, 1e200])
    def test_overflowing_band_is_a_numerical_failure(self, sigma_hi):
        # 1e153 gives an infinite operator row, 1e200 a variance past the
        # float range
        band = {"mu_lo": 0.0, "mu_hi": 0.0, "sigma_lo": 0.1, "sigma_hi": sigma_hi}
        cfg = price_config(band=band, spot_domain=[50.0, 200.0],
                           grid={"n_space": 32, "n_time": 32})
        with pytest.raises(CommandFailure) as exc, np.errstate(all="ignore"):
            run(parse_config(json.dumps(cfg)))
        cause = exc.value.__cause__
        assert isinstance(cause, bidask.NumericalFailure)
        diag = cause.diagnostics
        assert (diag["side"], diag["stretching"]) == ("ask", "uniform_log")
        assert (diag["n_space"], diag["n_time"]) == (32, 32)
        assert diag["band"].sigma_hi == sigma_hi

    def test_flat_band_takes_one_solve_per_step(self):
        # a flat band has one candidate row, so every first pick repeats
        grid = {"n_space": 64, "n_time": 48, "stretching": "uniform_log"}
        price = run(parse_config(json.dumps(price_config(grid=grid)))).timing
        assert price["pde_linear_solves"] == {"ask": 48, "bid": 48}
        assert price["pde_max_step_solves"] == {"ask": 1, "bid": 1}
        hedge_cfg = hedge_config(band=price_config()["band"], grid=grid)
        hedge = run(parse_config(json.dumps(hedge_cfg))).timing
        assert hedge["pde_linear_solves"] == {"ask": 48}
        assert hedge["pde_max_step_solves"] == {"ask": 1}

    def test_flat_band_factorises_once(self):
        # one candidate row: the selection never changes, so every solve
        # reuses the first factorisation
        grid = {"n_space": 64, "n_time": 48, "stretching": "uniform_log"}
        price = run(parse_config(json.dumps(price_config(grid=grid)))).timing
        assert price["pde_factorizations"] == {"ask": 1, "bid": 1}
        hedge_cfg = hedge_config(band=price_config()["band"], grid=grid)
        hedge = run(parse_config(json.dumps(hedge_cfg))).timing
        assert hedge["pde_factorizations"] == {"ask": 1}

    def test_selection_switches_count_the_steps_that_change_selection(self):
        grid = {"n_space": 64, "n_time": 48, "stretching": "uniform_log"}
        # a call's pair holds its start selection; a butterfly's switches
        call = run(parse_config(json.dumps(price_config(band=BAND, grid=grid)))).timing
        assert call["pde_selection_switches"] == {"ask": 0, "bid": 0}
        bfly = {"kind": "piecewise_linear", "knots": [[60.0, 0.0], [80.0, 0.0], [100.0, 20.0],
                                                      [120.0, 0.0], [140.0, 0.0]]}
        cfg = price_config(band=BAND, grid=grid, payoff=bfly)
        timing = run(parse_config(json.dumps(cfg))).timing
        ask, bid = bidask.solve_bsb_pair(parse_config(json.dumps(cfg))._built["problem"],
                                         bidask.GridSpec(64, 48))
        assert timing["pde_selection_switches"] == {
            s.side: sum(not np.array_equal(a, b) for a, b in zip(s.selection, s.selection[1:]))
            for s in (ask, bid)}
        assert 0 < timing["pde_selection_switches"]["ask"] < timing["pde_factorizations"]["ask"]
        hedge_cfg = hedge_config(grid=grid, payoff=bfly)
        hedge = run(parse_config(json.dumps(hedge_cfg))).timing
        assert hedge["pde_selection_switches"] == {"ask": timing["pde_selection_switches"]["ask"]}


def sample_path_file():
    from importlib import resources

    return resources.files("bidask").joinpath("data/sample_path.csv")


class TestCommandLine:
    def test_price_command_stdout(self, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config()))
        assert main(["price", "--config", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outputs"]["ask"] == pytest.approx(10.4506, rel=1e-3)

    @pytest.mark.parametrize("argv", [
        [], ["price"], ["frobnicate", "--config", "c.json"],
        ["price", "--config", "c.json", "--format", "xml"],
        ["price", "--config", "c.json", "--seed", "1.5"],
    ], ids=["no-command", "no-config", "unknown-command", "unknown-format", "float-seed"])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: bidask")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_takes_the_four_options(self, command, tmp_path):
        # a missing config file is the run's error (1), not a usage error (2)
        assert main([command, "--config", str(tmp_path / "none.json"), "--seed", "1",
                     "--out", str(tmp_path / "r.txt"), "--format", "json"]) == 1

    def test_byte_identical_reports(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config(seed=3)))
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["price", "--config", str(f), "--out", str(o1)]) == 0
        assert main(["price", "--config", str(f), "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_quote_book_reports_do_not_depend_on_run_ahead(self, monkeypatch):
        # criterion 10 across the march's run-ahead: the first op of each
        # quote_book kind at seed 1 renders the same bytes, counters included,
        # as with the march taken one step at a time
        workload = workloads.QuoteBook(seed=1, n_rounds=1)
        first = {}
        for op in workload.rounds[0]:
            first.setdefault(op.kind, op)

        def outputs():
            return [workload.execute(op)[1] if op.cli else repr(workload.execute(op))
                    for op in first.values()]

        got = outputs()
        monkeypatch.setattr(pde, "_march", per_step_march)
        assert outputs() == got

    def test_seed_override_is_echoed(self, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        cfg = {
            "command": "simulate", "seed": 1,
            "band": {"mu_lo": 0.0, "mu_hi": 0.1, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "s0": 100.0, "horizon": 1.0, "n_steps": 8, "n_paths": 2,
            "control": {"mu": 0.05, "sigma": 0.2},
        }
        f.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(f), "--seed", "99"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inputs"]["seed"] == 99
        assert doc["provenance"]["seed"] == 99

    @pytest.mark.parametrize("seed", [-7, 2**64])
    def test_seed_override_is_checked_as_the_config_seed_is(self, tmp_path, capsys, seed):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config(grid={"n_space": 16, "n_time": 16})))
        assert main(["price", "--config", str(f), "--seed", str(seed)]) == 1
        assert "seed: must fit in 64 bits" in capsys.readouterr().err

    def test_overridden_echo_parses_back(self, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config(format="csv", grid={"n_space": 16, "n_time": 16})))
        assert main(["price", "--config", str(f), "--seed", "5", "--format", "json"]) == 0
        echo = json.loads(capsys.readouterr().out)["inputs"]
        assert (echo["seed"], echo["format"]) == (5, "json")
        assert parse_config(json.dumps(echo)).effective == echo

    def test_cps_command_on_bundled_path(self, tmp_path, capsys):
        cfg = {
            "command": "cps", "seed": 0,
            "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "path_file": str(sample_path_file()),
            "epsilon": 0.05,
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main(["cps", "--config", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outputs"]["sandwich_ok"] is True
        assert doc["outputs"]["n_crossings"] >= 1
        rows = doc["outputs"]["crossings"]
        assert rows[-1]["sign"] == 0
        assert all(abs(r["sign"]) <= 1 for r in rows)

    def test_cps_with_pricing_block(self, tmp_path, capsys):
        half = 8.0 * 0.3
        cfg = {
            "command": "cps", "seed": 0,
            "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "path_file": str(sample_path_file()),
            "epsilon": 0.05,
            "pricing": {
                "payoff": {"kind": "call", "strike": 100.0},
                "maturity": 1.0, "rate": 0.05,
                "spot_domain": [100.0 * math.exp(-half), 100.0 * math.exp(half)],
                "grid": {"n_space": 100, "n_time": 100},
            },
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main(["cps", "--config", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        price = doc["outputs"]["price"]
        assert price["ask"] >= price["bid"]
        assert price["ask_lower"] <= price["ask"] <= price["ask_upper"]

    def test_hedge_command(self, tmp_path, capsys):
        cfg = price_config(command="hedge",
                           band={"mu_lo": 0.01, "mu_hi": 0.05,
                                 "sigma_lo": 0.1, "sigma_hi": 0.3})
        cfg["scenario"] = {"mu": 0.05, "sigma": 0.2, "n_steps": 200}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main(["hedge", "--config", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outputs"]["initial_capital"] > 0
        assert doc["outputs"]["n_rebalances"] == 200

    def test_hedge_path_file_must_end_at_the_maturity(self, tmp_path, capsys):
        # the bundled path ends at the maturity 1; this one runs on to 1.5
        cfg = price_config(command="hedge", path_file=str(sample_path_file()),
                           grid={"n_space": 32, "n_time": 32})
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main(["hedge", "--config", str(f)]) == 0
        capsys.readouterr()
        path = tmp_path / "path.csv"
        path.write_text("time,value\n0,100\n0.5,104\n1.5,101\n")
        f.write_text(json.dumps({**cfg, "path_file": str(path)}))
        assert main(["hedge", "--config", str(f)]) == 1
        assert capsys.readouterr().err == (
            "bidask: error: command 'hedge' failed: path_file ends at t=1.5, "
            "not at the maturity 1\n")

    @pytest.mark.parametrize("command, key, extra", [
        ("hedge", "path_file", {"maturity": 1.0, "payoff": {"kind": "call", "strike": 100.0},
                                "rate": 0.05, "spot": 100.0,
                                "grid": {"n_space": 32, "n_time": 32}}),
        ("cps", "path_file", {"epsilon": 0.05}),
        ("capacity", "center_file", {"eta": 5.0, "n_paths": 10}),
    ])
    def test_path_file_with_a_nan_row_fails(self, tmp_path, capsys, command, key, extra):
        path = tmp_path / "path.csv"
        path.write_text("time,value\n0,100\n0.5,nan\n1,101\n")
        cfg = {"command": command, "seed": 0,
               "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
               key: str(path), **extra}
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main([command, "--config", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "path file row 2 field 2 is not finite: 'nan'" in captured.err

    def test_capacity_command(self, tmp_path, capsys):
        cfg = {
            "command": "capacity", "seed": 2,
            "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "center_file": str(sample_path_file()),
            "eta": 50.0, "n_paths": 200,
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        assert main(["capacity", "--config", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 <= doc["outputs"]["capacity"] <= 1.0

    def test_fgbm_command_determinism(self, tmp_path):
        cfg = {
            "command": "fgbm", "seed": 5,
            "band": {"mu_lo": 0.0, "mu_hi": 0.0, "sigma_lo": 0.1, "sigma_hi": 0.3},
            "hurst": 0.7, "sigma": 0.2, "horizon": 1.0,
            "n_steps": 32, "n_paths": 3,
        }
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(cfg))
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fgbm", "--config", str(f), "--out", str(o1)]) == 0
        assert main(["fgbm", "--config", str(f), "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("method, asset, per_path", [
        ("factorization", None, 2 * 64),  # circulant embedding: 2n per path
        ("volterra", None, 64),
        ("factorization", {"s0": 100.0, "drift": 0.0}, 2 * 64),
    ])
    def test_fgbm_counts_the_normals_it_draws(self, method, asset, per_path):
        cfg = {"command": "fgbm", "seed": 5,
               "band": {"mu_lo": 0.0, "mu_hi": 0.0, "sigma_lo": 0.1, "sigma_hi": 0.3},
               "hurst": 0.7, "sigma": 0.2, "horizon": 1.0, "n_steps": 64,
               "n_paths": 3, "method": method, "asset": asset}
        report = run(parse_config(json.dumps(cfg)))
        assert report.timing["rng_normal_draws"] == 3 * per_path

    def test_fgbm_rejects_volterra_for_asset_paths(self):
        cfg = {"command": "fgbm", "seed": 5,
               "band": {"mu_lo": 0.0, "mu_hi": 0.0, "sigma_lo": 0.1, "sigma_hi": 0.3},
               "hurst": 0.7, "sigma": 0.2, "horizon": 1.0, "n_steps": 64,
               "n_paths": 3, "method": "volterra", "asset": {"s0": 100.0}}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert [e.split(":")[0] for e in exc.value.errors] == ["method"]

    def test_fgbm_sigma_outside_the_band_names_its_field(self):
        cfg = {"command": "fgbm", "seed": 5,
               "band": {"mu_lo": 0.0, "mu_hi": 0.0, "sigma_lo": 0.1, "sigma_hi": 0.3},
               "hurst": 0.7, "sigma": 0.9, "horizon": 1.0, "n_steps": 64}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(cfg))
        assert [e.split(":")[0] for e in exc.value.errors] == ["sigma"]
        assert "sigma levels leave the uncertainty band" in exc.value.errors[0]

    def test_capacity_counts_the_normals_it_draws(self):
        # one draw serves the whole control family
        cfg = {"command": "capacity", "seed": 2,
               "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1, "sigma_hi": 0.3},
               "center_file": str(sample_path_file()), "eta": 5.0, "n_paths": 30}
        report = run(parse_config(json.dumps(cfg)))
        n_points = len(bidask.read_path_file(sample_path_file()))
        assert report.outputs["n_controls"] == 27
        assert report.timing["rng_normal_draws"] == 30 * (n_points - 1)

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config(unknown=1)))
        assert main(["price", "--config", str(f)]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, capsys):
        assert main(["price", "--config", "/nonexistent/cfg.json"]) == 1
        assert "error" in capsys.readouterr().err


def _run_python(args, **kwargs):
    """Run a fresh interpreter that imports ``bidask`` from this source tree."""
    src = str(Path(bidask.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300, **kwargs)


class TestFreshInterpreter:
    def test_python_dash_m_writes_the_report_main_writes(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config(grid={"n_space": 64, "n_time": 32})))
        via_m, in_process = tmp_path / "m.json", tmp_path / "main.json"
        proc = _run_python(["-m", "bidask", "price", "--config", str(f),
                            "--out", str(via_m)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert main(["price", "--config", str(f), "--out", str(in_process)]) == 0
        assert via_m.read_bytes() == in_process.read_bytes()

    def test_python_dash_m_cli_writes_the_report_python_dash_m_package_writes(
            self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config(grid={"n_space": 64, "n_time": 32})))
        outs = []
        for module in ("bidask.cli", "bidask"):
            out = tmp_path / f"{module}.json"
            proc = _run_python(["-m", module, "price", "--config", str(f),
                                "--out", str(out)], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_import_leaves_heavy_scipy_modules_out(self):
        proc = _run_python(["-c", "import sys, bidask; print(sorted(m for m in "
                            "('scipy.optimize', 'scipy.integrate', 'scipy.stats', "
                            "'scipy.linalg', 'scipy.special') if m in sys.modules))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_and_a_two_block_draw_start_no_thread(self):
        proc = _run_python(["-c", "import sys, threading, bidask\n"
                            "bidask.paths._draw_normals(1, 2 * 4096 + 1, 2)\n"
                            "print('concurrent.futures' in sys.modules, "
                            "threading.active_count())"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1"]

    def test_commands_that_solve_no_pde_leave_scipy_out(self):
        # each config runs through parse_config, run and render in one
        # interpreter, which then lists the scipy modules loaded so far: the
        # commands that solve no PDE (fgbm by both methods) and a conditional
        # mean (the None entry) load neither, and a price run after them
        # loads LAPACK but not scipy.special
        fgbm = {"command": "fgbm", "band": dict(BAND), "hurst": 0.7, "sigma": 0.2,
                "horizon": 1.0, "n_steps": 32, "n_paths": 2}
        configs = [
            {"command": "simulate", "band": dict(BAND), "s0": 100.0, "horizon": 1.0,
             "n_steps": 16, "n_paths": 4, "control": {"mu": 0.03, "sigma": 0.2}},
            {"command": "capacity", "band": dict(BAND),
             "center_file": str(sample_path_file()), "eta": 5.0, "n_paths": 10},
            {"command": "cps", "band": dict(BAND), "path_file": str(sample_path_file()),
             "epsilon": 0.05},
            fgbm,
            {**fgbm, "hurst": 0.3, "method": "volterra"},
            None,
            price_config(grid={"n_space": 32, "n_time": 16}),
        ]
        script = ("import json, sys\n"
                  "import numpy as np\n"
                  "from bidask import SampledPath, fgbm_conditional_mean, parse_config, run\n"
                  "grid = np.linspace(0.0, 1.0, 17)\n"
                  "for cfg in json.load(sys.stdin):\n"
                  "    if cfg is None:\n"
                  "        drv = SampledPath(grid, np.sin(7.0 * grid))\n"
                  "        fgbm_conditional_mean(drv, 0.5, 1.0, 0.3)\n"
                  "    else:\n"
                  "        config = parse_config(json.dumps(cfg))\n"
                  "        run(config).render(config.effective['format'])\n"
                  "    print([m for m in ('scipy.linalg', 'scipy.special') "
                  "if m in sys.modules])\n")
        proc = _run_python(["-c", script], input=json.dumps(configs))
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()
        assert loaded == ["[]"] * 6 + ["['scipy.linalg']"]
