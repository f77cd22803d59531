"""Self-test of the benchmark: one smoke pass per workload, traced and untraced.

    python3 perfbench/selftest.py [workload ...]

Checks that every run exits 0 with a well-formed result line whose metric
names and units are exactly those BENCHMARK.json lists, that every output
passed its check, that only the named known fault fails, and that the
command fails without printing a result where the program's sources are
absent.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KNOWN_FAULTS = {"search": 1}     # find_center(tri345, Heat(1e-3)) per pass


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, done):
    assert done.returncode == 0, f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    passes = 2 if trace else 1
    assert result["failed"] == KNOWN_FAULTS.get(workload, 0) * passes, result["failed"]
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in want], sorted(set(got) ^ {m["name"] for m in want})
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"], m
        assert isinstance(got[m["name"]]["value"], (int, float)), m
    if not trace:
        assert all(got[m["name"]]["value"] > 0 for m in want), got


def check_without_sources(spec):
    """A directory holding only BENCHMARK.json and the benchmark's paths must fail cleanly."""
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", "evaluate", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        assert done.returncode != 0, "benchmark ran without the program's sources"
        assert not done.stdout.strip(), f"printed output without sources: {done.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    check_without_sources(spec)
    print("ok: fails without the program's sources")
    for workload in workloads:
        for trace in (0, 1):
            done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke"])
            check_result(spec, workload, trace, done)
            print(f"ok: {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
