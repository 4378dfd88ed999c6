"""Benchmark of the ``bidask`` package: three workloads, checked outputs.

    python3 perfbench/run.py --workload quote_book --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a source checkout and imports ``bidask`` from
``src``.  Each workload runs in fresh interpreters started here: several
that only set up (their median is ``setup_s``) and one that also runs the
timed phase.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the per-layer ones.  Full results,
with the environment, go to ``.bench_out/`` in the checkout.  See
``perfbench/README.md`` for the workloads and the metric-to-layer map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("quote_book", "scenario_mc", "rough_paths")
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
BLAS_THREADS = 1  # fixed for every run; at most nproc
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "good_ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB", "oracle_rel_err": "ratio"}
IMPORT_MODULES = ("bidask", "bidask.sublinear", "bidask.pde", "bidask.paths", "bidask.fgbm")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args, env) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"{args[:2]} timed out after {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def run_worker(workload, seed, seconds, trace, env, setup_only=False) -> dict:
    extra = ["--setup-only"] if setup_only else []
    t0 = time.monotonic()
    proc = spawn([str(HERE / "worker.py"), workload, str(seed), str(seconds),
                  str(trace), repr(t0), *extra], env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(env) -> dict:
    """Cumulative import time of the package and its layers, median of runs."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = spawn(["-X", "importtime", "-c", "import bidask"], env)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {f"import.{m.split('.')[-1]}_ms": statistics.median(v) for m, v in samples.items()}


def run_workload(workload, seed, seconds, trace) -> dict:
    env = child_env()
    spawn(["-c", "import bidask"], env)  # byte-compile before anything is timed
    setups = [run_worker(workload, seed, seconds, trace, env, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(workload, seed, seconds, trace, env)
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    if trace:
        result["per_layer"].update(import_times(env))
    result["environment"].update({"seed": seed, "seconds": seconds, "trace": trace,
                                  "nproc": os.cpu_count(),
                                  "cpus_usable": len(os.sched_getaffinity(0))})
    return result


def summary(workload, r) -> list:
    n = r["attempted"]
    lines = [f"== {workload}: {n} ops in {r['rounds']} rounds of {r['ops_per_round']}, "
             f"{r['wall_s']:.2f} s timed",
             f"  setup_s         {r['setup_s']:.4f} s   (median of {len(r['setup_samples'])} "
             f"fresh interpreters)",
             f"  good_ops_per_s  {r['good_ops_per_s']:.4f} 1/s ({n - r['failed']} good ops)",
             f"  op_p50_ms       {r['op_p50_ms']:.3f} ms  (p50 of {n} ops)",
             f"  op_tail_ms      {r['op_tail_ms']:.3f} ms  "
             f"(p{r['op_tail_percentile']:.2f} of {n} ops, 10 beyond)",
             f"  failed_frac     {r['failed'] / n:.4f}     ({r['failed']} of {n}; "
             f"by type {r['failures_by_type'] or '{}'})",
             f"  peak_rss_mb     {r['peak_rss_mb']:.1f} MB",
             f"  oracle_rel_err  {r['oracle_rel_err']:.4e}"]
    probes = {}
    for outcome in r["probes"].values():
        probes[outcome] = probes.get(outcome, 0) + 1
    if probes:
        lines.append(f"  fault probes    {probes}")
    for msg in r["failure_examples"]:
        lines.append(f"  failure: {msg}")
    if "per_layer" in r:
        lines += [f"  {k:36s} {v:.6g}" for k, v in sorted(r["per_layer"].items())]
    env = r["environment"]
    lines.append("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    return lines


def metrics_of(r, trace) -> dict:
    if trace:
        from tracing import PER_LAYER_UNITS

        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                for k, v in sorted(r["per_layer"].items())}
    return {k: {"value": r[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bidask" / "__init__.py").is_file():
        print(f"run.py: no bidask sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            r = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = r
            out = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(r, indent=1, sort_keys=True) + "\n")
            print("\n".join(summary(name, r)), flush=True)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    if len(names) == 1:
        r = results[names[0]]
        metrics = metrics_of(r, args.trace)
    else:
        metrics = {f"{name}.{k}": v for name, r in results.items()
                   for k, v in metrics_of(r, args.trace).items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
