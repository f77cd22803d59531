"""Compare the answers of two source trees on one fixed corpus.

usage: python3 tools/same_answers.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``radialcenters`` package
(a checkout's ``src``).  Each tree runs the corpus once, in a subprocess of
its own, and the two sets of answers are compared.  Five things are
printed:

* the worst distance between the two trees' ``find_center`` points, over the
  body's diameter: on tri345, the square, two L-shapes, a disk, the
  asymmetric balanced body and 20 seeded polygons (10 convex, 10 reflex), for
  Riesz(0.5), Riesz(1.5), Riesz(4), Riesz(20), Poisson(0.5) and Heat(1.25),
  and the searches that raise in one tree only (a search is named by its
  body, family and parameter); then how many of the searches differ in each
  of their ``value``, ``grad_norm``, ``iterations`` and ``regime``, compared
  by ``repr`` (a change in iteration count shows here, not in the points);
* the values, gradients and Hessians on tri345, the square, the L-shape, the
  disk and the asymmetric body, at the centroid, 1e-3 and 1e-11 diameters
  inside a boundary point, 5e-10 and 0.5 diameters outside it, for Riesz
  orders -1, 0, 0.5, 1, 1.5, 2, 3, 4 and 20, Poisson(0.5), Poisson(0.05),
  Heat(0.2) and Heat(1.25): one line per body, point and part with the
  number of cells that differ and their worst relative and absolute
  deviations (the largest difference over the largest magnitude), and each
  cell that raises in one tree and is finite in the other; then one line
  per ``trace_locus`` row (three families on tri345, the square and the
  disk) and ``limit_diagnostics(tri345)`` row that differs, naming the fields
  that differ (params, points, grad_norms or distances) and the point's
  deviation over the body's diameter.  Floats are compared by ``repr``,
  exceptions by type;
* the points where ``classify_location`` differs, out of about 43,000 random
  and near-boundary points on the same bodies, each with its boundary
  distance over the boundary band (a ratio near 1 is a point at the band's
  edge, where rounding decides);
* the balance verdicts (``classify_polygon``) that differ on the corpus of
  acceptance criterion 4: 200 triangles, 200 quadrangles, 8 equilateral
  triangles and 8 parallelograms, drawn as ``tests/test_acceptance.py`` draws
  them; then the worst deviation of their ``balance_report`` spectra at the
  centroid, |residual difference| / r over every radius, and the reports
  whose radius grids differ;
* the bodies of the first list whose ``symmetry_search`` differs, each
  isometry compared by its kind and the reprs of its angle and center.

The exit status is 0 when the points agree to 1e-12 diameters, the values,
gradients, Hessians, loci and limit rows are identical, the locations differ
only within 1e-6 of the band's edge, and the verdicts and symmetries are
identical; the counts of searches whose other fields differ and the spectra's
deviation are reported only.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.join(os.path.dirname(HERE), "tests")

CENTER_TOL = 1e-12       # center deviation over the diameter
BAND_EDGE = 1e-6         # relative distance from the band's edge that rounding may cross
FIELD_BODIES = ("tri345", "square", "lshape2", "disk", "asym")
LOCI = {"riesz": (0.5, 4.0), "poisson": (0.1, 2.0), "heat": (0.05, 1.0)}
SEARCH_FIELDS = ("value", "grad_norm", "iterations", "regime")


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


def _spec_key(spec) -> str:
    """A spec by family and parameter, whatever other fields it has."""
    return f"{type(spec).__name__}({dataclasses.astuple(spec)[0]!r})"


def _reprs(fn):
    """``fn()`` as the reprs of its floats, or the name of what it raised."""
    import numpy as np
    try:
        out = fn()
    except Exception as exc:
        return f"raises {type(exc).__name__}"
    return [repr(float(v)) for v in np.ravel(getattr(out, "value", out))]


def _field_points(body):
    """The centroid, 1e-3 and 1e-11 diameters inside a boundary point (on
    the way to the centroid), and 5e-10 and 0.5 diameters outside it."""
    d, c = body.diameter(), body.centroid()
    e = body.boundary_polyline(48)[3]
    u = (c - e) / math.hypot(*(c - e))
    return {"interior": c, "near": e + 1e-3 * d * u, "band": e + 1e-11 * d * u,
            "band_out": e - 5e-10 * d * u, "exterior": e - 0.5 * d * u}


def _fields(bodies) -> dict:
    from radialcenters import potentials as pot
    specs = [pot.Riesz(a) for a in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 20.0)]
    specs += [pot.Poisson(0.5), pot.Poisson(0.05), pot.Heat(0.2), pot.Heat(1.25)]
    parts = (("value", pot.potential), ("gradient", pot.potential_gradient),
             ("hessian", pot.potential_hessian))
    out = {}
    for name in FIELD_BODIES:
        body = bodies[name]
        for where, x in _field_points(body).items():
            for spec in specs:
                for part, fn in parts:
                    key = f"{name} {where} {_spec_key(spec)} {part}"
                    out[key] = _reprs(lambda: fn(body, x, spec))
    return out


def _row(**fields) -> dict:
    """One locus or limit row, each field as the reprs of its floats."""
    return {name: [repr(float(v)) for v in vals] for name, vals in fields.items()}


def _loci(bodies, np) -> dict:
    """Per locus and per limit family, the body's diameter and its rows (or
    what the trace raised); per limit family its monotone flag."""
    from radialcenters.centers import limit_diagnostics, trace_locus

    def locus(body, family):
        try:
            tr = trace_locus(body, family, LOCI[family], 4)
        except Exception as exc:
            return f"raises {type(exc).__name__}"
        return {"d": body.diameter(),
                "rows": [_row(params=[q], points=x, grad_norms=[g])
                         for q, x, g in zip(tr.params, tr.points, tr.grad_norms)]}

    out = {f"locus {name} {family}": locus(bodies[name], family)
           for name in ("tri345", "square", "disk") for family in LOCI}
    diag = limit_diagnostics(bodies["tri345"])
    for family in LOCI:
        out[f"limits tri345 {family}"] = {
            "d": diag.diam,
            "rows": [_row(params=[r[0]], points=r[1], distances=r[2:])
                     for r in getattr(diag, family)]}
        out[f"limits tri345 monotone_{family}"] = getattr(diag, f"monotone_{family}")
    return out


def _row_lines(key: str, a, b) -> list:
    """One line per row of a locus or limit key that differs between the
    trees: the fields that differ and the point's deviation over d."""
    if not (isinstance(a, dict) and isinstance(b, dict) and len(a["rows"]) == len(b["rows"])):
        return [f"  {key}: {a} -> {b}"]
    lines = []
    for i, (ra, rb) in enumerate(zip(a["rows"], b["rows"])):
        fields = [name for name in ra if ra[name] != rb[name]]
        if fields:
            pa, pb = ([float(v) for v in r["points"]] for r in (ra, rb))
            dev = math.hypot(pa[0] - pb[0], pa[1] - pb[1]) / a["d"]
            lines.append(f"  {key} row {i}: {', '.join(fields)} differ, "
                         f"point deviation {dev:.1e} d")
    return lines


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
    centers, searches, points, locations = {}, {}, [], []
    rng = np.random.default_rng(7)
    bodies = _bodies(geo, bal, np)
    for name, body in bodies:
        d = body.diameter()
        for spec in specs:
            key = f"{name} {_spec_key(spec)}"
            try:
                res = find_center(body, spec)
            except Exception as exc:        # a search that raises is an answer too
                centers[key] = type(exc).__name__
                continue
            centers[key] = (res.point / d).tolist()
            searches[key] = {field: repr(getattr(res, field)) for field in SEARCH_FIELDS}
        band = geo.BOUNDARY_BAND * d
        for p in _probe_points(body, rng, np):
            points.append([name, p.tolist()])
            locations.append([geo.classify_location(body, p), body.boundary_distance(p) / band])
    verdicts, spectra = [], []
    for poly in _criterion_4_corpus(np):
        try:
            verdicts.append(bal.classify_polygon(poly).value)
        except TheoremViolation:
            verdicts.append("TheoremViolation")
        rep = bal.balance_report(poly, poly.centroid())
        spectra.append([rep.radii.tolist(), rep.residual_vectors.tolist()])
    symmetries = {name: [[s.kind, repr(s.angle), repr(float(s.center[0])),
                          repr(float(s.center[1]))] for s in bal.symmetry_search(body)]
                  for name, body in bodies}
    bodies = dict(bodies)
    return {"centers": centers, "searches": searches, "fields": _fields(bodies),
            "loci": _loci(bodies, np), "points": points, "locations": locations,
            "verdicts": verdicts, "spectra": spectra, "symmetries": symmetries}


def run(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{src}: corpus failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _deviation(a: list, b: list) -> tuple:
    """The largest difference of two answers, over their largest magnitude
    and absolute."""
    x, y = [float(v) for v in a], [float(v) for v in b]
    scale = max(abs(v) for v in x + y)
    diff = max(abs(u - v) for u, v in zip(x, y))
    return (diff / scale if scale else diff), diff


def _field_summary(old: dict, new: dict, keys: list) -> None:
    """One line per body, point and part, then the cells that raise in one
    tree only or raise differently."""
    groups, moved = {}, []
    for key in keys:
        name, where, _, part = key.split(" ")
        a, b = old.get(key), new.get(key)
        n, differ, worst = groups.get((name, where, part), (0, 0, (0.0, 0.0)))
        if isinstance(a, list) and isinstance(b, list):
            worst = tuple(map(max, worst, _deviation(a, b)))
        elif a != b:
            moved.append(f"  {key}: {a if isinstance(a, str) else 'finite'} -> "
                         f"{b if isinstance(b, str) else 'finite'}")
        groups[name, where, part] = (n + 1, differ + (a != b), worst)
    for (name, where, part), (n, differ, worst) in groups.items():
        print(f"  {name:7} {where:9} {part:8} {differ:3} of {n} differ, worst "
              f"deviation {worst[0]:.1e} relative, {worst[1]:.1e} absolute")
    for line in moved:
        print(line)


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
    both = old["searches"].keys() & new["searches"].keys()
    print(f"find_center: of {len(both)} searches that return in both trees, " + ", ".join(
        f"{sum(old['searches'][k][field] != new['searches'][k][field] for k in both)} differ "
        f"in {field}" for field in SEARCH_FIELDS))

    same = True
    for part, what in (("fields", "values, gradients and Hessians"),
                       ("loci", "locus and limit rows")):
        keys = sorted(set(old[part]) | set(new[part]))
        differ = [k for k in keys if old[part].get(k) != new[part].get(k)]
        print(f"{what}: {len(keys)} compared, {len(differ)} differ")
        if part == "fields":
            _field_summary(old[part], new[part], keys)
        else:
            for k in differ:
                print("\n".join(_row_lines(k, old[part].get(k), new[part].get(k))))
        same &= not differ

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
    spread, regridded = 0.0, 0
    for (ra, va), (rb, vb) in zip(old["spectra"], new["spectra"]):
        if ra != rb:
            regridded += 1
            continue
        for r, a, b in zip(ra, va, vb):
            spread = max(spread, math.hypot(a[0] - b[0], a[1] - b[1]) / r)
    print(f"balance_report: {len(old['spectra'])} spectra, worst deviation {spread:.3e} r, "
          f"{regridded} with radius grids that differ")

    turned = [name for name in old["symmetries"]
              if old["symmetries"][name] != new["symmetries"].get(name)]
    print(f"symmetry_search: {len(old['symmetries'])} bodies, {len(turned)} differ")
    for name in turned:
        print(f"  {name}: {len(old['symmetries'][name])} -> "
              f"{len(new['symmetries'].get(name, []))} isometries")
    return worst <= CENTER_TOL and not raised and same and edge_only and not flips \
        and not turned


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
