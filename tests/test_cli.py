"""Config validation, command execution, and report determinism tests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bidask
from bidask import ConfigError, emit_config, parse_config, run
from bidask.cli import main


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
            "control: sigma levels (0.5,) leave the band [0.1, 0.3]"]

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

    @pytest.mark.parametrize("pricing, fields", [
        ({"payoff": {"kind": "call"}}, ["pricing.payoff.strike"]),
        ({"grid": {"n_space": 8, "bogus": 1}},
         ["pricing.grid.bogus", "pricing.grid.n_space"]),
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

    def test_byte_identical_reports(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(price_config(seed=3)))
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["price", "--config", str(f), "--out", str(o1)]) == 0
        assert main(["price", "--config", str(f), "--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

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
                            "('scipy.optimize', 'scipy.integrate', 'scipy.stats') "
                            "if m in sys.modules))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
