"""The repository's command-line tools, run as a user runs them, and the
names the benchmark reaches into the package by."""

import importlib
import importlib.util
import json
import math
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _operation_names(workload: str, seed: int, outdir) -> list:
    """The names of the benchmark's operations, built here apart from the tool."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
        return [op.name for op in workloads.build(workload, seed, str(outdir))]
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        for name in ("workloads", "refs"):
            sys.modules.pop(name, None)


def test_ab_timing_times_every_operation_on_both_trees_and_the_control(tmp_path):
    out = tmp_path / "ab.json"
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_timing.py"), str(SRC), str(SRC),
                           "--filter", "potential ", "--repeat", "1", "--json", str(out)],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr
    assert elapsed < 15
    result = json.loads(out.read_text())
    want = [name for name in _operation_names("evaluate", 7, tmp_path) if "potential " in name]
    assert [op["name"] for op in result["ops"]] == want and len(want) > 100
    for op in result["ops"]:
        times = [op["old_us"], op["new_us"], op["control_us"]]
        assert all(math.isfinite(t) and t > 0 for t in times), op
    lines = done.stdout.splitlines()
    assert sum(line.startswith(("potential ", "cli potential ")) for line in lines) == len(want)
    assert result["summary"]["operations"] == len(want)


def test_every_name_the_benchmark_traces_resolves():
    # ``Tracer.install`` reads ``owner.__dict__[attr]`` for each traced name,
    # so a name moved out of its owner is a KeyError in every traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, targets in spans.TRACED.items():
        for owner_path, attr in targets:
            module, _, rest = owner_path.partition(".")
            owner = importlib.import_module("radialcenters." + module)
            for part in filter(None, rest.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                missing.append((name, owner_path, attr))
    assert not missing
