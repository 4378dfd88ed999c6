"""Checks on the package's surface: every public annotation resolves, every
kind of benchmark op still runs through the benchmark's own code, every
public simulator keeps the same input contract, and a failing property test
leaves the rest of the suite reporting."""

import importlib
import inspect
import json
import math
import pkgutil
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import bidask
from bidask.cli import main
from perfbench import workloads

PUBLIC_MODULES = [m.name for m in pkgutil.iter_modules(bidask.__path__, "bidask.")
                  if hasattr(importlib.import_module(m.name), "__all__")]


def _functions_of(obj):
    """obj, and for a class every function its body defines: methods,
    static and class methods and property getters."""
    if not inspect.isclass(obj):
        return [obj]
    found = [obj]
    for member in vars(obj).values():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif isinstance(member, property):
            member = member.fget
        if inspect.isfunction(member):
            found.append(member)
    return found


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_public_type_hints_resolve(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        for obj in _functions_of(getattr(mod, name)):
            typing.get_type_hints(obj)  # NameError on a name the module lacks


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_runs_every_op_kind(name):
    # one round, and the first op of each kind through the workload's own
    # execute, check and clean-up, as a benchmark run takes them
    workload = workloads.WORKLOADS[name](seed=1, n_rounds=1)
    first = {}
    for op in workload.rounds[0]:
        first.setdefault(op.kind, op)
    for op in first.values():
        try:
            workload.verify(op, workload.execute(op))
        finally:
            workload.after(op)


def test_scenario_mc_rule_runs_under_its_own_band():
    # the benchmark's bang-bang rule lies inside the band it runs under
    w = workloads.ScenarioMC(seed=1, n_rounds=0)
    band = w.problem.band
    bidask.simulate_asset_paths(w.rule, workloads.SPOT, w.feedback_grid, 1, 10, band=band)
    bidask.mc_ask_bid(w.problem, [w.rule], w.mc_grid, 1, workloads.SPOT, 10)
    center = bidask.SampledPath(w.mc_grid, np.full(len(w.mc_grid), workloads.SPOT))
    bidask.estimate_tube_capacity(center, 5.0, band, [w.rule], 1, 10)


# ---------------------------------------------------------------------------
# One input contract for the six public simulators
# ---------------------------------------------------------------------------

BAND = bidask.UncertaintyBand(0.0, 0.05, 0.1, 0.3)
GRID = np.linspace(0.0, 1.0, 9)
PROBLEM = bidask.PricingProblem(bidask.ScalarFunctionSpec.call(100.0), 1.0, 0.03, BAND,
                                (20.0, 500.0))


def const(sigma):
    """A constant control with no band of its own: each simulator runs it under BAND."""
    return bidask.ControlProcess.constant(0.03, sigma)


def fgbm(grid):
    return bidask.FgbmSpec(0.3, BAND, tuple(grid))


# each simulator called with (n_paths, start value, scenario volatility,
# time grid, seed) under BAND; the first two take no start
SIMULATORS = {
    "simulate_gbm_increments": lambda n, s0, sig=0.2, grid=GRID, seed=1:
        bidask.simulate_gbm_increments(const(sig), grid, seed, n, band=BAND),
    "simulate_fgbm": lambda n, s0, sig=0.2, grid=GRID, seed=1:
        bidask.simulate_fgbm(fgbm(grid), sig, seed, n),
    "simulate_asset_paths": lambda n, s0, sig=0.2, grid=GRID, seed=1:
        bidask.simulate_asset_paths(const(sig), s0, grid, seed, n, band=BAND),
    "mc_ask_bid": lambda n, s0, sig=0.2, grid=GRID, seed=1:
        bidask.mc_ask_bid(PROBLEM, [const(sig)], grid, seed, s0, n),
    "estimate_tube_capacity": lambda n, s0, sig=0.2, grid=GRID, seed=1:
        bidask.estimate_tube_capacity(bidask.SampledPath(grid, np.full(len(grid), s0)), 5.0,
                                      BAND, [const(sig)], seed, n),
    "simulate_fgbm_asset": lambda n, s0, sig=0.2, grid=GRID, seed=1:
        bidask.simulate_fgbm_asset(fgbm(grid), 0.01, s0, sig, seed, n),
}


@pytest.fixture
def no_draw(monkeypatch):
    """A rejected input fails before any normal is drawn."""
    def refuse(*args):
        raise AssertionError("normals drawn for a rejected input")

    monkeypatch.setattr(bidask.paths, "_draw_normals", refuse)
    monkeypatch.setattr(bidask.fgbm, "_draw_normals", refuse)  # its own name for the draw


@pytest.mark.parametrize("n_paths", [0, -1])
@pytest.mark.parametrize("name", list(SIMULATORS))
def test_simulator_needs_a_path(name, n_paths):
    SIMULATORS[name](1, 100.0)
    with pytest.raises(ValueError, match="n_paths"):
        SIMULATORS[name](n_paths, 100.0)


@pytest.mark.parametrize("seed, message", [
    (1.9, "must be an integer"), (True, "must be an integer"),
    (-1, "must fit in 64 bits"), (2**64, "must fit in 64 bits"),
    (2**130, "must fit in 64 bits"),
], ids=["float", "bool", "negative", "2**64", "2**130"])
@pytest.mark.parametrize("name", list(SIMULATORS))
def test_simulator_needs_an_integer_seed(name, seed, message):
    # Philox would truncate the key (1.9 and True would draw seed 1's
    # normals) and takes any key below 2**128; the CLI's seed fits in 64 bits
    with pytest.raises(ValueError, match=f"seed {message}, got {seed!r}"):
        SIMULATORS[name](10, 100.0, seed=seed)
    SIMULATORS[name](10, 100.0, seed=np.int64(1))
    SIMULATORS[name](10, 100.0, seed=np.uint64(2**64 - 1))


@pytest.mark.parametrize("start", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("name", list(SIMULATORS)[2:])
def test_simulator_needs_a_positive_start(name, start, no_draw):
    with pytest.raises(ValueError, match="S0 must be positive"):
        SIMULATORS[name](10, start)


@pytest.mark.parametrize("name", list(SIMULATORS))
def test_simulator_needs_a_control_inside_its_band(name, no_draw):
    with pytest.raises(ValueError, match="band"):
        SIMULATORS[name](10, 100.0, 0.5)


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, 0.5, math.inf]],
                         ids=["nan_point", "inf_end"])
@pytest.mark.parametrize("name", list(SIMULATORS))
def test_simulator_needs_a_finite_grid(name, grid, no_draw):
    with pytest.raises(ValueError, match="time grid must be finite"):
        SIMULATORS[name](10, 100.0, grid=np.array(grid))


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, "0.1", True],
                         ids=["nan", "inf", "-inf", "str", "bool"])
def test_fractional_asset_needs_a_finite_drift(b, no_draw):
    with pytest.raises(ValueError, match=f"drift rate b must be a finite real number, "
                                         f"got {b!r}"):
        bidask.simulate_fgbm_asset(fgbm(GRID), b, 100.0, 0.2, 1, 10)


def test_state_feedback_rule_has_no_driving_path():
    rule = bidask.bang_bang_control_from_surface(
        bidask.solve_bsb_ask(PROBLEM, bidask.GridSpec(16, 16)))
    with pytest.raises(ValueError, match="state-feedback rule"):
        bidask.simulate_gbm_increments(rule, GRID, 1, 10)
    driving = bidask.simulate_gbm_increments(const(0.2), GRID, 1, 1)[0]
    with pytest.raises(ValueError, match="state-feedback rule has no deflator path"):
        bidask.deflator_path(rule, 0.03, driving)


def test_capacity_command_needs_a_positive_centre(tmp_path, capsys):
    center = tmp_path / "center.csv"
    center.write_text("time,value\n0,-1\n0.5,1\n1,2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "capacity", "band": {"mu_lo": 0.0, "mu_hi": 0.05, "sigma_lo": 0.1,
                                        "sigma_hi": 0.3},
        "center_file": str(center), "eta": 5.0, "n_paths": 10}))
    assert main(["capacity", "--config", str(cfg)]) == 1
    assert "S0 must be positive, got -1.0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The suite's own configuration
# ---------------------------------------------------------------------------

TESTS = Path(__file__).resolve().parent

PROBE = """
from hypothesis import given, strategies as st


@given(x=st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_leaves_the_run_reporting(tmp_path):
    # under the suite's configuration (filterwarnings = ["error"]) and its
    # conftest, a failing @given test reports its falsifying example and the
    # run goes on; the run's files land in tmp_path
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(TESTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example: test_fails(" in out
