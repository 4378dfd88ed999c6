"""Spans and counters around the public calls of each ``bidask`` layer.

Tracing is installed only in the traced run.  It replaces, in every
``bidask`` module namespace, each binding of a layer's public function
with a wrapper that records a span (name, start, end, parent, op id).
Because the replacement is done per binding, calls that one module makes
through a name it imported from another (``bidask.cli.solve_bsb_pair``,
``bidask.cps.solve_bsb_pair``) nest under the caller's span.  Calls that
are too frequent for a span each (``solve_banded``, ``quad``,
``cholesky`` as bound in ``bidask.pde`` and ``bidask.fgbm``, and
``volterra_kernel``) are counted instead.

Spans are kept in memory and summarised when the run ends.  No program
file is touched, and the untraced run wraps nothing.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("sublinear", "pde", "paths", "fgbm", "cps", "cli")

# module -> names bound there from another library, counted but not spanned
COUNTED = {
    "bidask.pde": ("solve_banded",),
    "bidask.fgbm": ("cholesky", "quad", "volterra_kernel"),
}


class Tracer:
    """Records spans while installed; ``op_id`` tags the spans of an op.

    It can be installed and uninstalled repeatedly; spans and counts
    accumulate.
    """

    def __init__(self):
        self.spans = []      # [name, start, end, parent, op_id, error, extra]
        self.stack = []
        self.op_id = None
        self.counts = {}     # counted name -> calls
        self.factor_bytes = 0
        self._undo = []

    # -- installation --------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "bidask" or name.startswith("bidask.")}
        targets = {}
        for layer in LAYERS:
            mod = mods["bidask." + layer]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = self._span_wrapper(f"{layer}.{name}", fn)
        for modname, names in COUNTED.items():
            mod = mods[modname]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    targets[fn] = self._count_wrapper(name, fn)
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                try:
                    wrapper = targets.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)
        report = mods["bidask.cli"].Report
        self._undo.append((report, "render", report.render))
        report.render = self._span_wrapper("cli.render", report.render)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, qualname, fn):
        spans, stack = self.spans, self.stack
        counts = self.counts
        annotate = ANNOTATORS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = dict(counts)
            span = [qualname, time.perf_counter(), None,
                    stack[-1] if stack else None, self.op_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = type(e).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                span[6] = {"calls": {k: n - before[k] for k, n in counts.items()
                                     if n != before[k]}}
            if annotate is not None:
                span[6].update(annotate(args, kwargs, result))
            return result

        return traced

    def _count_wrapper(self, name, fn):
        self.counts.setdefault(name, 0)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            if name == "cholesky":
                n = len(args[0])
                tracer.factor_bytes = max(tracer.factor_bytes, 8 * n * n)
            return fn(*args, **kwargs)

        return counted


# ---------------------------------------------------------------------------
# Work annotations: sizes read from a call's arguments and result
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _pde_grid(i):
    def annotate(args, kwargs, result):
        g = _arg(args, kwargs, i, "grid")
        return {"node_steps": (g.n_space + 1) * g.n_time, "steps": g.n_time}
    return annotate


def _mc(args, kwargs, result):
    n_controls = len(list(_arg(args, kwargs, 1, "controls")))
    n_steps = len(_arg(args, kwargs, 2, "grid")) - 1
    n_paths = _arg(args, kwargs, 5, "n_paths")
    return {"controls": n_controls, "path_steps": n_controls * n_paths * n_steps}


def _simulate(args, kwargs, result):
    control = _arg(args, kwargs, 0, "control")
    n_steps = len(_arg(args, kwargs, 2, "grid")) - 1
    n_paths = _arg(args, kwargs, 4, "n_paths")
    return {"feedback": hasattr(control, "sigma_state"),
            "path_steps": n_paths * n_steps}


def _capacity(args, kwargs, result):
    center = _arg(args, kwargs, 0, "center")
    n_controls = len(list(_arg(args, kwargs, 3, "controls")))
    n_paths = _arg(args, kwargs, 5, "n_paths")
    return {"path_steps": n_controls * n_paths * (len(center) - 1)}


def _hedge(args, kwargs, result):
    return {"steps": len(_arg(args, kwargs, 1, "asset_path")) - 1}


def _fgbm(args, kwargs, result):
    method = args[4] if len(args) > 4 else kwargs.get("method", "factorization")
    n_paths = _arg(args, kwargs, 3, "n_paths")
    n_samples = len(result[0]) - 1 if result else 0
    return {"method": method, "paths": n_paths, "path_steps": n_paths * n_samples}


def _shadow(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 0, "path")),
            "crossings": int((result.signs != 0).sum())}


ANNOTATORS = {
    "pde.solve_bsb_ask": _pde_grid(1),
    "pde.solve_bsb_bid": _pde_grid(1),
    "pde.solve_g_heat": _pde_grid(3),
    "paths.mc_ask_bid": _mc,
    "paths.simulate_asset_paths": _simulate,
    "paths.estimate_tube_capacity": _capacity,
    "paths.hedge_verify": _hedge,
    "fgbm.simulate_fgbm": _fgbm,
    "cps.build_shadow_path": _shadow,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    **{f"import.{m}_ms": "ms" for m in ("bidask", "sublinear", "pde", "paths", "fgbm")},
    **{f"{layer}.self_share": "share" for layer in LAYERS},
    "trace.overhead_s": "s",
    "cli.parse_config_ms": "ms", "cli.run_ms": "ms", "cli.render_ms": "ms",
    "sublinear.maximal_expectation_us": "us",
    "sublinear.g_normal_expectation_ms": "ms",
    "pde.solve_bsb_pair_ms": "ms", "pde.solve_bsb_ask_ms": "ms",
    "pde.solve_g_heat_ms": "ms", "pde.ns_per_node_step": "ns",
    "pde.banded_solves_per_step": "count", "pde.numerical_failures": "count",
    "paths.mc_ask_bid_ms": "ms", "paths.mc_ns_per_path_step": "ns",
    "paths.normals_drawn": "count", "paths.feedback_sim_ms": "ms",
    "paths.feedback_ns_per_path_step": "ns",
    "paths.simulate_asset_paths_ms": "ms", "paths.capacity_ms": "ms",
    "paths.hedge_verify_ms": "ms", "paths.hedge_us_per_step": "us",
    "fgbm.cold_ms": "ms", "fgbm.warm_us_per_path": "us", "fgbm.volterra_ms": "ms",
    "fgbm.cholesky_calls": "count", "fgbm.quad_calls": "count",
    "fgbm.factor_bytes": "bytes",
    "cps.build_shadow_path_ms": "ms", "cps.us_per_point": "us",
    "cps.crossings": "count", "cps.sandwich_failures": "count",
}


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer, timed_ops: set, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass.

    Times and counts come from the spans of the timed ops, taken when the
    traced pass ends.  A layer that did not run reports 0.
    """
    spans = list(tracer.spans)
    timed = [s for s in spans if s[4] in timed_ops]
    ok = [s for s in timed if s[5] is None]

    def dur(s):
        return s[2] - s[1]

    def named(name):
        return [s for s in ok if s[0] == name]

    def calls(span, counted):
        return span[6]["calls"].get(counted, 0)

    m = {}
    for name in ("parse_config", "run", "render"):
        m[f"cli.{name}_ms"] = _median([dur(s) for s in named("cli." + name)], 1e3)
    m["sublinear.maximal_expectation_us"] = _median(
        [dur(s) for s in named("sublinear.maximal_expectation")], 1e6)
    m["sublinear.g_normal_expectation_ms"] = _median(
        [dur(s) for s in named("sublinear.g_normal_expectation")], 1e3)

    m["pde.solve_bsb_pair_ms"] = _median([dur(s) for s in named("pde.solve_bsb_pair")], 1e3)
    m["pde.solve_bsb_ask_ms"] = _median([dur(s) for s in named("pde.solve_bsb_ask")], 1e3)
    m["pde.solve_g_heat_ms"] = _median([dur(s) for s in named("pde.solve_g_heat")], 1e3)
    solves = [s for s in ok if s[0] in ("pde.solve_bsb_ask", "pde.solve_bsb_bid",
                                        "pde.solve_g_heat")]
    node_steps = sum(s[6]["node_steps"] for s in solves)
    steps = sum(s[6]["steps"] for s in solves)
    m["pde.ns_per_node_step"] = sum(map(dur, solves)) / node_steps * 1e9 if node_steps else 0.0
    m["pde.banded_solves_per_step"] = (
        sum(calls(s, "solve_banded") for s in solves) / steps if steps else 0.0)

    mc = named("paths.mc_ask_bid")
    m["paths.mc_ask_bid_ms"] = _median([dur(s) / s[6]["controls"] for s in mc], 1e3)
    mc_steps = sum(s[6]["path_steps"] for s in mc)
    m["paths.mc_ns_per_path_step"] = sum(map(dur, mc)) / mc_steps * 1e9 if mc_steps else 0.0
    sims = named("paths.simulate_asset_paths")
    feedback = [s for s in sims if s[6]["feedback"]]
    fb_steps = sum(s[6]["path_steps"] for s in feedback)
    m["paths.feedback_sim_ms"] = _median([dur(s) for s in feedback], 1e3)
    m["paths.feedback_ns_per_path_step"] = (
        sum(map(dur, feedback)) / fb_steps * 1e9 if fb_steps else 0.0)
    m["paths.simulate_asset_paths_ms"] = _median([dur(s) for s in sims], 1e3)
    cap = named("paths.estimate_tube_capacity")
    m["paths.capacity_ms"] = _median([dur(s) for s in cap], 1e3)
    fgbm_sims = named("fgbm.simulate_fgbm")
    m["paths.normals_drawn"] = sum(
        s[6]["path_steps"] for s in mc + sims + cap + fgbm_sims)
    hedges = named("paths.hedge_verify")
    m["paths.hedge_verify_ms"] = _median([dur(s) for s in hedges], 1e3)
    m["paths.hedge_us_per_step"] = _median([dur(s) / s[6]["steps"] for s in hedges], 1e6)

    factorised = [s for s in fgbm_sims if s[6]["method"] == "factorization"]
    m["fgbm.cold_ms"] = _median(
        [dur(s) for s in factorised if calls(s, "cholesky")], 1e3)
    m["fgbm.warm_us_per_path"] = _median(
        [dur(s) / s[6]["paths"] for s in factorised if not calls(s, "cholesky")], 1e6)
    m["fgbm.volterra_ms"] = _median(
        [dur(s) for s in fgbm_sims if s[6]["method"] == "volterra"], 1e3)
    m["fgbm.cholesky_calls"] = tracer.counts.get("cholesky", 0)
    m["fgbm.quad_calls"] = tracer.counts.get("quad", 0)
    m["fgbm.factor_bytes"] = tracer.factor_bytes

    shadows = named("cps.build_shadow_path")
    m["cps.build_shadow_path_ms"] = _median([dur(s) for s in shadows], 1e3)
    m["cps.us_per_point"] = _median([dur(s) / s[6]["points"] for s in shadows], 1e6)
    m["cps.crossings"] = sum(s[6]["crossings"] for s in shadows)

    # self time: a span's duration minus the time its child spans cover
    self_time = {layer: 0.0 for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += dur(s)
    for i, s in enumerate(spans):
        if s[4] in timed_ops:
            self_time[s[0].split(".")[0]] += dur(s) - child_time[i]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = self_time[layer] / wall_s if wall_s > 0 else 0.0
    return m


def error_counts(tracer: Tracer) -> dict:
    """Typed errors raised by the solver and CPS layers in the traced run,
    fault probes included, whose known failures these counts are to show."""
    solvers = ("pde.solve_bsb_ask", "pde.solve_bsb_bid", "pde.solve_g_heat")
    return {
        "pde.numerical_failures": sum(
            1 for s in tracer.spans if s[0] in solvers and s[5] == "NumericalFailure"),
        "cps.sandwich_failures": sum(
            1 for s in tracer.spans
            if s[0] == "cps.build_shadow_path" and s[5] == "ConsistencyError"),
    }
