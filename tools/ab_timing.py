"""Time two source trees on the benchmark's operations, in one process.

usage: python3 tools/ab_timing.py OLD_SRC NEW_SRC [--workload W] [--seed N]
                                  [--repeat K] [--filter S] [--json PATH]

OLD_SRC and NEW_SRC are directories that hold a ``radialcenters`` package
(a checkout's ``src``).  The operation list of one ``perfbench`` workload
(``evaluate`` by default, seed 7) is built three times in this process: from
OLD, from NEW, and from OLD again as a control.  Between the builds the
``radialcenters`` modules and perfbench's ``workloads`` and ``refs`` are
taken out of ``sys.modules``, so each build binds its own tree; each tree's
modules are put back in place while its operations run.  Only ``perfbench/``
of the checkout that holds this script is read, and nothing is written but
the CLI operations' outputs, in temporary directories.

The operations whose names contain S (every one by default) are then run
in K rounds (default 7).  A round runs them once on each tree, in their
order, a whole pass per tree as the benchmark's runner runs them, and the
order of the trees rotates from round to round; each operation's best time
on each tree is kept.  (Alternating the trees operation by operation would
put another tree's code between every two operations, and time a cache
refill that the runner never pays.)
Printed are, per operation, the best times of OLD and NEW in microseconds,
NEW/OLD and CONTROL/OLD; then the pass, the sum of the best times, with the
same two ratios; then the median of the per-operation ratios, with the
quartiles of the control's, which show how far two builds of one tree drift
apart on this host.  ``--json`` also writes all of it to PATH.  The checks
of the operations are not run: compare answers with
``tools/same_answers.py``.
"""

from __future__ import annotations

import os

# one process, one thread, as the benchmark runs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
TREES = ("old", "new", "control")


def _ours(name: str) -> bool:
    return name in ("workloads", "refs") or name == "radialcenters" \
        or name.startswith("radialcenters.")


def _take_modules() -> dict:
    """Remove this tree's modules from ``sys.modules`` and return them."""
    return {name: sys.modules.pop(name) for name in [n for n in sys.modules if _ours(n)]}


def build(src: str, workload: str, seed: int, outdir: str):
    """The workload's operations built from the tree at ``src``, and its modules."""
    if not os.path.isfile(os.path.join(src, "radialcenters", "__init__.py")):
        raise SystemExit(f"no radialcenters package under {src}")
    _take_modules()
    sys.path[:0] = [os.path.abspath(src), PERFBENCH]
    try:
        import workloads
        ops = workloads.build(workload, seed, outdir)
        workloads.warm_up(outdir)
    finally:
        del sys.path[:2]
    return ops, _take_modules()


def time_ops(builds: list, repeat: int, pick) -> list:
    """Best time (s) of each picked operation on each build.  Each round
    runs the picked operations once on every build, a whole pass per build
    as the benchmark's runner does, the builds in an order that rotates from
    round to round."""
    clock = time.perf_counter
    picked = [i for i, op in enumerate(builds[0][0]) if pick(op.name)]
    best = [[float("inf")] * len(picked) for _ in builds]
    for k in range(repeat):
        for b in [(k + j) % len(builds) for j in range(len(builds))]:
            ops, modules = builds[b]
            sys.modules.update(modules)
            for col, i in enumerate(picked):
                t0 = clock()
                try:
                    ops[i].run()
                except Exception:         # a failing operation is timed all the same
                    pass
                best[b][col] = min(best[b][col], clock() - t0)
            modules.update(_take_modules())     # with any module imported on the way
    return [(builds[0][0][i].name, [best[b][col] for b in range(len(builds))])
            for col, i in enumerate(picked)]


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(rows: list) -> dict:
    """Per-operation and per-pass ratios, printed and returned."""
    print(f"{'operation':60s} {'old_us':>9s} {'new_us':>9s} {'new/old':>8s} {'ctrl/old':>8s}")
    ops, new_ratios, ctrl_ratios = [], [], []
    for name, (old, new, ctrl) in rows:
        new_ratios.append(new / old)
        ctrl_ratios.append(ctrl / old)
        ops.append({"name": name, "old_us": 1e6 * old, "new_us": 1e6 * new,
                    "control_us": 1e6 * ctrl})
        print(f"{name[:60]:60s} {1e6 * old:9.1f} {1e6 * new:9.1f} {new / old:8.3f} "
              f"{ctrl / old:8.3f}")
    sums = [sum(t[b] for _, t in rows) for b in range(len(TREES))]
    print(f"{'pass (sum of best)':60s} {1e6 * sums[0]:9.1f} {1e6 * sums[1]:9.1f} "
          f"{sums[1] / sums[0]:8.3f} {sums[2] / sums[0]:8.3f}")
    lo, hi = _quartiles(ctrl_ratios)
    summary = {"operations": len(rows), "pass_us": [1e6 * s for s in sums],
               "pass_new_over_old": sums[1] / sums[0],
               "pass_control_over_old": sums[2] / sums[0],
               "median_new_over_old": statistics.median(new_ratios),
               "median_control_over_old": statistics.median(ctrl_ratios),
               "control_quartiles": [lo, hi]}
    print(f"{len(rows)} operations: median new/old {summary['median_new_over_old']:.3f}, "
          f"control/old {summary['median_control_over_old']:.3f} "
          f"(quartiles {lo:.3f} to {hi:.3f})")
    return {"summary": summary, "ops": ops}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--workload", default="evaluate", choices=["search", "evaluate"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeat", type=int, default=7)
    p.add_argument("--filter", default="", help="time only operations whose name contains this")
    p.add_argument("--json", help="also write the results to this file")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    dirs = [tempfile.mkdtemp(prefix=f"ab-{tree}-") for tree in TREES]
    try:
        builds = [build(src, args.workload, args.seed, d)
                  for src, d in zip((args.old_src, args.new_src, args.old_src), dirs)]
        names = [[op.name for op in ops] for ops, _ in builds]
        if names[1] != names[0]:
            raise SystemExit("the two trees build different operation lists")
        rows = time_ops(builds, args.repeat, lambda name: args.filter in name)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    if not rows:
        raise SystemExit(f"no operation name contains {args.filter!r}")
    result = report(rows)
    if args.json:
        result["args"] = {k: getattr(args, k) for k in ("workload", "seed", "repeat", "filter")}
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
