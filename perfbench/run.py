"""Benchmark runner for radialcenters.

    python3 perfbench/run.py --workload search --seed 1 --seconds 45 --trace 0

Runs one workload closed-loop in this process: whole passes over the
workload's fixed operation list, at least three, stopping at the end of the
pass that ends nearest to ``--seconds``; then checks every output and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  ``--smoke``
makes one pass (plus one traced pass with ``--trace 1``) and also writes
the result under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import enum
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from spans import PER_LAYER, Tracer

T_START = time.time()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3
MIN_PASSES = 3      # so that every workload times at least 100 operations per run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["search", "evaluate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="one pass, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


SRC = os.path.join(ROOT, "src")


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "radialcenters", "__init__.py")):
        raise SystemExit(f"radialcenters sources not found under {SRC}")


def import_program():
    require_sources()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    return workloads


def digest(x):
    """Exact, hashable rendering of an output, for comparing passes."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.shape, x.tobytes())
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, enum.Enum):
        return x.value
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(digest(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(digest(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, digest(v)) for k, v in x.items()))
    return x


class Pass:
    def __init__(self):
        self.latencies: list[float] = []
        self.outputs: list = []
        self.errors: list = []


def run_pass(ops, tracer=None) -> Pass:
    out = Pass()
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        err = None
        t0 = clock()
        try:
            res = op.run()
        except Exception as exc:       # an operation that raises is a failed operation
            res, err = None, exc
        out.latencies.append(clock() - t0)
        if err is None and op.collect is not None:
            res = op.collect(res)
        out.outputs.append(res)
        out.errors.append(err)
    return out


def verify(ops, passes):
    """Check the first pass in full and every later pass against it.

    Returns (failed operations per pass, unexpected failure messages).
    """
    bad_ops, messages = set(), []
    first = passes[0]
    for i, op in enumerate(ops):
        err = first.errors[i]
        if err is None:
            try:
                op.check(first.outputs[i])
            except Exception as exc:   # a failed check, or one that cannot read the output
                err = exc
        if err is None:
            ref = digest(first.outputs[i])
            for k, p in enumerate(passes[1:], start=1):
                if p.errors[i] is not None or digest(p.outputs[i]) != ref:
                    err = RuntimeError(f"pass {k} differs from pass 0")
                    break
        if err is not None:
            bad_ops.add(i)
            if not op.known_fault:
                messages.append(f"{op.name}: {type(err).__name__}: {err}")
    return bad_ops, messages


def setup_probe_times(args) -> list:
    """Interpreter start to ready-to-time, measured in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        t0 = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def percentile90(values):
    return statistics.quantiles(values, n=10)[8]


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    os.makedirs(OUT_ROOT, exist_ok=True)
    if args.setup_probe:
        outdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_ROOT)
        try:
            workloads = import_program()
            workloads.build(args.workload, args.seed, outdir)
            workloads.warm_up(outdir)
            print(repr(time.time()))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        return 0

    setup_times = []
    if not args.trace and not args.smoke:
        setup_times = setup_probe_times(args)
    outdir = tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT)
    try:
        workloads = import_program()
        ops = workloads.build(args.workload, args.seed, outdir)
        workloads.warm_up(outdir)
        if not setup_times:
            setup_times = [time.time() - T_START]
        result = measure(ops, args)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if "setup_s" in result["metrics"]:
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_times)
    line = json.dumps(result, sort_keys=False)
    if args.smoke:
        path = os.path.join(OUT_ROOT, f"smoke-{args.workload}-trace{args.trace}.json")
        with open(path, "w") as fh:
            fh.write(line + "\n")
    print(line)
    return 0


def measure(ops, args) -> dict:
    untraced, traced, layer_runs = [], [], []
    tracer = None
    if args.trace:
        import radialcenters
        tracer = Tracer(radialcenters)
    t_begin = time.perf_counter()
    while True:
        untraced.append(run_pass(ops))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(ops, tracer))
            finally:
                tracer.uninstall()
            layer_runs.append((tracer.layer_counts(), tracer.layer_times()))
        if args.smoke:
            break
        # stop where the measured time comes nearest to --seconds: once half
        # of another round (at the mean round time so far) would pass it
        elapsed = time.perf_counter() - t_begin
        if ((tracer is not None or len(untraced) >= MIN_PASSES)
                and elapsed + 0.5 * elapsed / len(untraced) >= args.seconds):
            break

    passes = untraced + traced
    t_check = time.perf_counter()
    bad_ops, messages = verify(ops, passes)
    t_check = time.perf_counter() - t_check
    counts = [run[0] for run in layer_runs]
    if any(c != counts[0] for c in counts[1:]):
        messages.append("per-layer counts differ between traced passes")
    for msg in messages:
        print("CHECK FAILED:", msg, file=sys.stderr)
    for i in sorted(bad_ops):
        if ops[i].known_fault:
            print("known fault (counted as failed):", ops[i].name, file=sys.stderr)

    attempted = len(ops) * len(passes)
    failed = len(bad_ops) * len(passes)
    walls = [sum(p.latencies) for p in untraced]
    if args.trace:
        metrics = {}
        layer_counts = layer_runs[0][0]
        for name, unit in PER_LAYER:
            if name in layer_counts:
                metrics[name] = {"value": layer_counts[name], "unit": unit}
        times = [run[1] for run in layer_runs]
        for name in times[0]:
            metrics[name] = {"value": statistics.median(t[name] for t in times), "unit": "s"}
        overhead = statistics.median(sum(p.latencies) for p in traced) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        order = [n for n, _ in PER_LAYER]
        metrics = {n: metrics[n] for n in order}
    else:
        lat = [x for p in untraced for x in p.latencies]
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * percentile90(lat), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": math.nan, "unit": "s"},
        }
    print(f"{args.workload}: {len(ops)} ops/pass, {len(untraced)} untraced + {len(traced)} "
          f"traced passes, pass walls {[round(w, 3) for w in walls]}, checks {t_check:.2f} s",
          file=sys.stderr)
    return {"correct": not messages, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
