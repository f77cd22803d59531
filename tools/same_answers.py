"""Compare the answers of two source trees on one fixed corpus.

usage: python3 tools/same_answers.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``radialcenters`` package
(a checkout's ``src``).  Each tree runs the corpus once, in a subprocess of
its own, and the two sets of answers are compared.  Three things are
printed:

* the worst distance between the two trees' ``find_center`` points, over the
  body's diameter: on tri345, the square, two L-shapes, a disk, the
  asymmetric balanced body and 20 seeded polygons (10 convex, 10 reflex), for
  Riesz(0.5), Riesz(1.5), Riesz(4), Riesz(20), Poisson(0.5) and Heat(1.25),
  and the searches that raise in one tree only;
* the points where ``classify_location`` differs, out of about 43,000 random
  and near-boundary points on the same bodies, each with its boundary
  distance over the boundary band (a ratio near 1 is a point at the band's
  edge, where rounding decides);
* the balance verdicts (``classify_polygon``) that differ on the corpus of
  acceptance criterion 4: 200 triangles, 200 quadrangles, 8 equilateral
  triangles and 8 parallelograms, drawn as ``tests/test_acceptance.py`` draws
  them.

The exit status is 0 when the points agree to 1e-12 diameters, the locations
differ only within 1e-6 of the band's edge, and the verdicts are identical.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.join(os.path.dirname(HERE), "tests")

CENTER_TOL = 1e-12       # center deviation over the diameter
BAND_EDGE = 1e-6         # relative distance from the band's edge that rounding may cross


def _bodies(geo, bal, np):
    """(name, body) pairs: the fixed bodies and 20 seeded polygons."""
    out = [("tri345", geo.Polygon([[0, 0], [4, 0], [0, 3]])),
           ("square", geo.Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])),
           ("lshape2", geo.Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])),
           ("lshape3", geo.Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])),
           ("disk", geo.Disk([0.3, -0.2], 1.5)),
           ("asym", bal.generate_asymmetric_balanced())]
    rng = np.random.default_rng(14)
    for k in range(20):
        n = 5 + k % 6
        ang = 2 * math.pi * (np.arange(n) + 0.6 * (rng.random(n) - 0.5)) / n
        rad = 1.0 + 0.2 * rng.random(n) if k < 10 else 0.35 + rng.random(n)
        pts = np.stack([1.3 * rad * np.cos(ang), 0.8 * rad * np.sin(ang)], axis=1)
        out.append((f"ngon{k}", geo.Polygon(pts + (rng.random(2) - 0.5) * 2.0)))
    return out


def _probe_points(body, rng, np):
    """Random points about the body, and boundary samples moved along the
    direction from the centroid by 10^-k diameters (k = 4..12) and by
    multiples of the band's width, to either side."""
    d = body.diameter()
    c = body.centroid()
    pts = [c + 1.2 * d * (rng.random((300, 2)) - 0.5)]
    edge = body.boundary_polyline(48)
    out = edge - c
    out /= np.hypot(out[:, 0], out[:, 1])[:, None]
    gaps = [10.0 ** -k for k in range(4, 13)] + [f * 1e-9 for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2)]
    for gap in gaps:
        for side in (1.0, -1.0):
            pts.append(edge + side * gap * d * out)
    return np.vstack(pts)


def _criterion_4_corpus(np):
    """The polygons of acceptance criterion 4, in its order and from its seed."""
    sys.path.insert(0, TESTS)
    import conftest
    rng = np.random.default_rng(20240817)
    corpus = [conftest.random_triangle(rng) for _ in range(200)]
    corpus += [conftest.random_convex_quadrangle(rng) for _ in range(200)]
    for _ in range(8):
        c = (rng.random(2) - 0.5) * 6
        corpus.append(conftest.make_equilateral(c, 0.5 + 2 * rng.random(), rng.random() * 6))
    corpus += [conftest.random_parallelogram(rng) for _ in range(8)]
    return corpus


def emit() -> dict:
    """The corpus's answers from the ``radialcenters`` on ``sys.path``."""
    import numpy as np
    from radialcenters import balance as bal, geometry as geo
    from radialcenters.centers import find_center
    from radialcenters.errors import TheoremViolation
    from radialcenters.potentials import Heat, Poisson, Riesz

    specs = [Riesz(0.5), Riesz(1.5), Riesz(4.0), Riesz(20.0), Poisson(0.5), Heat(1.25)]
    centers, points, locations = {}, [], []
    rng = np.random.default_rng(7)
    for name, body in _bodies(geo, bal, np):
        d = body.diameter()
        for spec in specs:
            try:
                centers[f"{name} {spec}"] = (find_center(body, spec).point / d).tolist()
            except Exception as exc:        # a search that raises is an answer too
                centers[f"{name} {spec}"] = type(exc).__name__
        band = geo.BOUNDARY_BAND * d
        for p in _probe_points(body, rng, np):
            points.append([name, p.tolist()])
            locations.append([geo.classify_location(body, p), body.boundary_distance(p) / band])
    verdicts = []
    for poly in _criterion_4_corpus(np):
        try:
            verdicts.append(bal.classify_polygon(poly).value)
        except TheoremViolation:
            verdicts.append("TheoremViolation")
    return {"centers": centers, "points": points, "locations": locations,
            "verdicts": verdicts}


def run(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{src}: corpus failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare(old: dict, new: dict) -> bool:
    worst, raised = 0.0, []
    for key, a in old["centers"].items():
        b = new["centers"].get(key)
        if isinstance(a, list) and isinstance(b, list):
            worst = max(worst, math.hypot(a[0] - b[0], a[1] - b[1]))
        elif a != b:
            raised.append(f"{key}: {a} -> {b}")
    print(f"find_center: {len(old['centers'])} searches, worst deviation {worst:.3e} d")
    for line in raised:
        print(f"  raises in one tree only: {line}")

    if old["points"] != new["points"]:
        print("classify_location: the two trees drew different probe points")
        return False
    moved = [(p, a, b) for p, a, b in zip(old["points"], old["locations"], new["locations"])
             if a[0] != b[0]]
    print(f"classify_location: {len(old['points'])} points, {len(moved)} differ")
    edge_only = True
    for (name, p), a, b in moved:
        near_edge = abs(a[1] - 1) <= BAND_EDGE and abs(b[1] - 1) <= BAND_EDGE
        edge_only &= near_edge
        print(f"  {name} {p}: {a[0]} -> {b[0]}, distance/band {a[1]!r} -> {b[1]!r}")

    flips = [(i, a, b) for i, (a, b) in enumerate(zip(old["verdicts"], new["verdicts"]))
             if a != b]
    print(f"classify_polygon: {len(old['verdicts'])} polygons, {len(flips)} verdicts differ")
    for i, a, b in flips:
        print(f"  polygon {i}: {a} -> {b}")
    return worst <= CENTER_TOL and not raised and edge_only and not flips


def main(argv: list) -> int:
    if argv == ["--emit"]:
        print(json.dumps(emit()))
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1])
        return 2
    return 0 if compare(run(argv[0]), run(argv[1])) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
