"""Regenerate the reference figures recorded in perfbench/README.md.

    python3 perfbench/reference.py end-to-end [--seeds 1-10] [workload ...]
    python3 perfbench/reference.py per-layer [--seed 1] [workload ...]

``end-to-end`` runs the benchmark once per seed and workload (untraced) and
prints, per workload and metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share of
the median.  ``per-layer`` makes two traced runs with the same seed, prints
the per-layer metrics of the first and reports whether every count repeated.
Each run takes about ``run_seconds`` plus set-up and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def end_to_end(spec, workloads, seeds):
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for w in workloads:
        results = [run_once(w, s, spec["run_seconds"], 0) for s in seeds]
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {w} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} | {m['bound']} |")
        shares = {r["failed"] / r["attempted"] for r in results}
        ok = all(r["correct"] for r in results)
        print(f"| {w} | failed/attempted | {sorted(shares)} | | | | correct={ok} |")
        sys.stdout.flush()


def per_layer(spec, workloads, seed):
    runs = {}
    for w in workloads:
        first, second = (run_once(w, seed, spec["run_seconds"], 1) for _ in range(2))
        repeat = all(first["metrics"][m["name"]]["value"] == second["metrics"][m["name"]]["value"]
                     for m in spec["per_layer"] if m["unit"] != "s")
        runs[w] = (first, repeat)
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in workloads) + " |")
    for m in spec["per_layer"]:
        cells = []
        for w in workloads:
            v = runs[w][0]["metrics"][m["name"]]["value"]
            cells.append(f"{v:.4g}" if isinstance(v, float) else str(v))
        print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")
    print("| counts repeat in a second traced run | | "
          + " | ".join(str(runs[w][1]).lower() for w in workloads) + " |")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["end-to-end", "per-layer"])
    p.add_argument("workloads", nargs="*")
    p.add_argument("--seeds", default="1-10", help="seed range for end-to-end, e.g. 1-10")
    p.add_argument("--seed", type=int, default=1, help="seed for per-layer")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    if args.mode == "end-to-end":
        end_to_end(spec, workloads, parse_seeds(args.seeds))
    else:
        per_layer(spec, workloads, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
