"""One workload process: set-up, the timed phase, checks and probes.

Started by ``run.py`` in a fresh interpreter, with ``src`` on the path and
the BLAS thread count fixed in the environment.  Prints one JSON line.

    worker.py WORKLOAD SEED SECONDS TRACE T0 [--setup-only]

T0 is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start-up and ``import bidask``.
"""

import time  # noqa: I001  (first, so set-up is timed from here on)
import json
import os
import resource
import statistics
import sys

from workloads import WORKLOADS, failure_type  # imports bidask

MAX_ROUNDS = 100  # far more than any run completes


def run_ops(workload, ops, tracer=None, first_id=0):
    """Run ops in order.

    Returns each op's time, its failure (type, message) or None, and the
    rendered report of each CLI op.  Only the program call is timed.
    """
    times, failures, renders = [], [], {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_id + i
        failure = None
        t0 = time.perf_counter()
        try:
            out = workload.execute(op)
            times.append(time.perf_counter() - t0)
            workload.verify(op, out)
            if op.cli:
                renders[i] = out[1]
        except Exception as e:  # every failure is counted by type, never dropped
            if len(times) == i:
                times.append(time.perf_counter() - t0)
            failure = (failure_type(e), f"{type(e).__name__}: {e}"[:300])
        finally:
            workload.after(op)
        failures.append(failure)
    if tracer is not None:
        tracer.op_id = None
    return times, failures, renders


def timed_phase(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed.

    Returns the ops run, their times and failures, one rendered report per
    CLI kind, and the wall time of the rounds.  With a tracer, each round
    runs again traced right after its untraced run, so a slow drift of the
    host hits both alike; the traced wall time is returned as well.
    """
    ops, times, failures, renders = [], [], [], {}
    wall = traced_wall = 0.0
    t_start = time.perf_counter()
    for rnd in workload.rounds:
        t0 = time.perf_counter()
        t, f, r = run_ops(workload, rnd)
        wall += time.perf_counter() - t0
        if tracer is not None:
            tracer.install()
            t0 = time.perf_counter()
            run_ops(workload, rnd, tracer, first_id=len(ops))
            traced_wall += time.perf_counter() - t0
            tracer.uninstall()
        for i, text in r.items():
            renders.setdefault(rnd[i].kind, (len(ops) + i, text))
        ops += rnd
        times += t
        failures += f
        if time.perf_counter() - t_start >= seconds:
            break
    return ops, times, failures, renders, wall, traced_wall


def determinism(workload, ops, failures, renders):
    """Run the first op of each CLI kind again: its report must be
    byte-identical (criterion 10), or the op fails."""
    for kind, (i, text) in sorted(renders.items()):
        try:
            if workload.execute(ops[i])[1] != text:
                failures[i] = ("check_miss", f"{kind} report not byte-identical")
        except Exception as e:  # a re-run that raises fails the op too
            failures[i] = (failure_type(e), f"{kind} re-run: {type(e).__name__}: {e}"[:300])
        finally:
            workload.after(ops[i])


def op_stats(times, failures, wall) -> dict:
    n = len(times)
    failed = [f for f in failures if f is not None]
    # a failed op counts as infinitely slow
    ranked = sorted(float("inf") if f else t for t, f in zip(times, failures))
    tail_rank = max(n - 11, 0)  # highest percentile with ten ops beyond it
    by_type = {}
    for kind, _ in failed:
        by_type[kind] = by_type.get(kind, 0) + 1
    return {
        "attempted": n,
        "failed": len(failed),
        "failures_by_type": by_type,
        "failure_examples": [msg for _, msg in failed[:5]],
        "good_ops_per_s": (n - len(failed)) / wall,
        "op_p50_ms": statistics.median(ranked) * 1e3,
        "op_tail_ms": ranked[tail_rank] * 1e3,
        "op_tail_percentile": 100.0 * (tail_rank + 1) / n,
        "wall_s": wall,
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        b = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def by_kind(ops, latencies) -> dict:
    kinds = {}
    for op, lat in zip(ops, latencies):
        kinds.setdefault(op.kind, []).append(lat * 1e3)
    return {k: {"n": len(v), "median_ms": statistics.median(v)} for k, v in kinds.items()}


def main(argv):
    name, seed, seconds, trace, t0 = argv[:5]
    workload = WORKLOADS[name](int(seed), MAX_ROUNDS)
    setup_s = time.monotonic() - float(t0)
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if trace == "1":
        from tracing import Tracer, error_counts, layer_metrics

        tracer = Tracer()
    ops, times, failures, renders, wall, traced_wall = timed_phase(
        workload, float(seconds), tracer)
    result = {"setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "rounds": len(ops) // len(workload.rounds[0]),
              "ops_per_round": len(workload.rounds[0])}
    determinism(workload, ops, failures, renders)
    result.update(op_stats(times, failures, wall))
    result["latency_by_kind"] = by_kind(ops, times)
    result["oracle_rel_err"] = workload.oracle_rel_err()
    result["correct"] = (result["failed"] == 0
                         and result["oracle_rel_err"] <= workload.oracle_tol)
    if tracer is None:
        result["probes"] = workload.probes()
    else:
        result["per_layer"] = layer_metrics(tracer, set(range(len(ops))), traced_wall)
        result["per_layer"]["trace.overhead_s"] = traced_wall - wall
        tracer.install()
        result["probes"] = workload.probes()
        tracer.uninstall()
        # typed errors count over the whole traced run, fault probes included
        result["per_layer"].update(error_counts(tracer))
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
