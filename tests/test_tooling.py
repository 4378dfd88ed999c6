"""Checks on the package's surface: every public annotation resolves, and
every kind of benchmark op still runs through the benchmark's own code."""

import importlib
import inspect
import pkgutil
import typing

import numpy as np
import pytest

import bidask
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
