"""Workload inputs, operation lists and correctness checks.

Every workload is a fixed list of operations built from ``--seed``:
``search`` runs the ``centers`` group (cold center searches) and then the
``loci`` group (warm-started continuation); ``evaluate`` runs the ``field``
group (single potential and gradient evaluations) and then the ``balance``
group (the balance law, classification and symmetry).  An operation is
one call into the package (or one in-process ``cli.main`` call); its check
runs outside the timed region.  Fixed bodies: the 3-4-5 triangle, the
square [-1, 1]^2, the unit disk, the reflex L-shape and the generated
asymmetric balanced body.  Seeded inputs: three convex 9-gons, query
points, off-center balance points and the classification corpus.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import radialcenters as rc
from radialcenters import balance as bal
from radialcenters import centers as ctr
from radialcenters import cli
from radialcenters import concavity as conc
from radialcenters import geometry as geo
from radialcenters import potentials as pot
from radialcenters import svg  # noqa: F401  (imported so the tracer can reach it)

import refs

WORKLOADS = ("search", "evaluate")
NGONS = ("ngon1", "ngon2", "ngon3")       # seeded convex 9-gons


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    collect: Optional[Callable[[object], object]] = None   # untimed post-processing
    known_fault: bool = False


# ---------------------------------------------------------------------------
# bodies with reference geometry
# ---------------------------------------------------------------------------

class Body:
    def __init__(self, name: str, obj, rects=None):
        self.name = name
        self.obj = obj
        self.rects = rects
        if isinstance(obj, geo.Polygon):
            self.kind = "polygon"
            self.verts = np.array(obj.vertices, dtype=float)
            self.diam = refs.polygon_diameter(self.verts)
            self.centroid = refs.polygon_centroid(self.verts)
        elif isinstance(obj, geo.Disk):
            self.kind = "disk"
            self.diam = 2 * obj.radius
            self.centroid = np.array(obj.center, dtype=float)
        else:
            self.kind = "radial"
            t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
            self.diam = float(np.max(obj.boundary_radius(t) + obj.boundary_radius(t + math.pi)))
            self.centroid = np.zeros(2)
            rb = obj.boundary_radius(t)
            self._outline = np.stack([rb * np.cos(t), rb * np.sin(t)], axis=1)

    def inside(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        if self.kind == "polygon":
            return refs.inside_polygon(self.verts, p)
        if self.kind == "disk":
            return math.hypot(*(p - self.obj.center)) < self.obj.radius
        return math.hypot(*p) < float(self.obj.boundary_radius(math.atan2(p[1], p[0]))[0])

    def inside_many(self, pts):
        if self.kind == "polygon":
            return refs.inside_polygon_many(self.verts, pts)
        if self.kind == "disk":
            c = self.obj.center
            return np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) < self.obj.radius
        return np.hypot(pts[:, 0], pts[:, 1]) < self.obj.boundary_radius(
            np.arctan2(pts[:, 1], pts[:, 0]))

    def boundary_gap(self, p) -> float:
        """Distance from ``p`` to the boundary."""
        p = np.asarray(p, dtype=float)
        if self.kind == "disk":
            return abs(math.hypot(*(p - self.obj.center)) - self.obj.radius)
        pts = self.verts if self.kind == "polygon" else self._outline
        a = pts
        b = np.roll(pts, -1, axis=0)
        e = b - a
        t = np.clip(np.sum((p - a) * e, axis=1) / np.sum(e * e, axis=1), 0.0, 1.0)
        foot = a + t[:, None] * e
        return float(np.min(np.hypot(p[0] - foot[:, 0], p[1] - foot[:, 1])))


def fixed_bodies() -> dict:
    square = geo.Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    ell = geo.Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    return {
        "tri345": Body("tri345", geo.Polygon([[0, 0], [4, 0], [0, 3]])),
        "square": Body("square", square, rects=[((-1, -1), (1, 1))]),
        "disk": Body("disk", geo.Disk([0.0, 0.0], 1.0)),
        "lshape": Body("lshape", ell, rects=[((0, 0), (2, 1)), ((0, 1), (1, 2))]),
        "asym": Body("asym", bal.generate_asymmetric_balanced()),
    }


def seeded_ngon(rng, n: int = 9) -> geo.Polygon:
    """Convex n-gon inscribed in a fixed ellipse, with jittered angles and a random pose."""
    base = 2 * math.pi * np.arange(n) / n
    ang = base + (rng.random(n) - 0.5) * 0.3 * (2 * math.pi / n) + rng.random() * 2 * math.pi
    pts = np.stack([1.3 * np.cos(ang), 0.8 * np.sin(ang)], axis=1)
    rot = rng.random() * 2 * math.pi
    c, s = math.cos(rot), math.sin(rot)
    return geo.Polygon(pts @ np.array([[c, s], [-s, c]]) + (rng.random(2) - 0.5) * 2.0)


def interior_point(rng, b: Body, clearance_rel: float) -> np.ndarray:
    c = b.centroid
    while True:
        p = c + (rng.random(2) - 0.5) * b.diam
        if b.inside(p) and b.boundary_gap(p) > clearance_rel * b.diam:
            return p


def near_boundary_point(rng, b: Body, gap_rel: float = 1e-3) -> np.ndarray:
    """A point ``gap_rel * diameter`` inside an edge (or the circle), away from corners."""
    if b.kind == "disk":
        a = rng.random() * 2 * math.pi
        return b.obj.center + (b.obj.radius - gap_rel * b.diam) * np.array([math.cos(a), math.sin(a)])
    v = b.verts
    i = int(rng.integers(len(v)))
    p, q = v[i], v[(i + 1) % len(v)]
    e = q - p
    inward = np.array([-e[1], e[0]]) / math.hypot(*e)
    return p + (0.3 + 0.4 * rng.random()) * e + gap_rel * b.diam * inward


def exterior_point(rng, b: Body) -> np.ndarray:
    a = rng.random() * 2 * math.pi
    return b.centroid + (0.9 + 0.2 * rng.random()) * b.diam * np.array([math.cos(a), math.sin(a)])


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def value(b: Body, p, spec) -> float:
    return pot.potential(b.obj, np.asarray(p, dtype=float), spec).value


def check_local_max(b: Body, spec, p, rel_step: float = 1e-3):
    """The program's value at ``p`` is at least its value a small step away in four directions."""
    v0 = value(b, p, spec)
    slack = 1e-12 * max(abs(v0), 1.0)
    step = rel_step * b.diam
    for k in range(4):
        q = p + step * np.array([math.cos(k * math.pi / 2 + 0.3), math.sin(k * math.pi / 2 + 0.3)])
        require(b.inside(q), f"{b.name}: center within {rel_step} d of the boundary")
        require(value(b, q, spec) <= v0 + slack, f"{b.name}: {spec} point is not a local maximum")


def check_center_point(b: Body, spec, p, expect=None, tol_rel=None, local_max=True):
    p = np.asarray(p, dtype=float)
    require(bool(np.all(np.isfinite(p))), "non-finite center")
    require(b.inside(p), f"{b.name}: center {p} outside the body")
    if expect is not None:
        off = math.hypot(*(p - expect)) / b.diam
        require(off <= tol_rel, f"{b.name}: {spec} center {off:.3e} d from {expect}, "
                                f"allowed {tol_rel:.1e} d")
    if local_max:
        check_local_max(b, spec, p)


def reference_value(b: Body, p, spec):
    """(value, gradient) from a closed form, or None."""
    if isinstance(spec, pot.Riesz):
        if b.kind == "polygon" and spec.alpha == 4.0:
            return refs.riesz4_polygon(b.verts, p)
        if b.kind == "disk":
            return refs.disk_riesz(b.obj.center, b.obj.radius, p, spec.alpha)
        return None
    if isinstance(spec, pot.Poisson):
        if b.kind == "polygon":
            f = lambda q: refs.poisson_polygon(b.verts, q, spec.h)
            step = 1e-4 * min(b.diam, spec.h)
            return f(p), refs.central_gradient(f, p, step)
        if b.kind == "disk" and math.hypot(*(p - b.obj.center)) == 0.0:
            return refs.disk_poisson_center(b.obj.radius, spec.h), np.zeros(2)
        return None
    if b.rects is not None:
        return refs.heat_rectangles(b.rects, p, spec.t)
    if b.kind == "disk" and math.hypot(*(p - b.obj.center)) == 0.0:
        return refs.disk_heat_center(b.obj.radius, spec.t), np.zeros(2)
    return None


def difference_gradient(b: Body, p, spec) -> tuple[np.ndarray, float]:
    """Gradient from the program's own values by central differences.

    Far from the boundary a step of 1e-4 d keeps truncation and quadrature
    noise near 1e-6 of the gradient's scale; close to it (within 0.05 d) the
    step shrinks with the gap and one Richardson step removes the O(step^2) term.
    """
    gap = b.boundary_gap(p)
    f = lambda q: value(b, q, spec)
    if gap >= 0.05 * b.diam:
        return refs.central_gradient(f, p, 1e-4 * b.diam), abs(f(p))
    step = 0.05 * gap
    d1 = refs.central_gradient(f, p, step)
    d2 = refs.central_gradient(f, p, step / 2)
    return (4 * d2 - d1) / 3, abs(f(p))


def close(got, want, rel: float, scale: float) -> bool:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) <= rel * scale


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

class CliRunner:
    def __init__(self, outdir: str):
        self.outdir = outdir
        self._n = 0

    def body_file(self, b: Body) -> str:
        path = os.path.join(self.outdir, f"body-{b.name}.json")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(geo.body_to_dict(b.obj), fh)
        return path

    def op(self, name: str, argv: list, check: Callable[[str], None], ext: str = "json") -> Op:
        self._n += 1
        out = os.path.join(self.outdir, f"out-{self._n}.{ext}")
        argv = argv + ["--out", out]

        def collect(code):
            if not os.path.exists(out):
                return code, None
            with open(out) as fh:
                text = fh.read()
            os.unlink(out)
            return code, text

        def checked(result):
            code, text = result
            require(code == 0, f"{name}: exit code {code}")
            check(text)

        def call():
            try:
                return cli.main(argv)
            except SystemExit as exc:      # argparse rejects a command line this way
                return exc.code

        return Op("cli " + name, call, checked, collect=collect)


def check_svg(text: str):
    require(text.startswith("<?xml") and "<svg" in text and text.rstrip().endswith("</svg>"),
            "malformed SVG output")


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------

def family_specs(b: Body, riesz=(0.5, 4.0, 20.0)):
    d = b.diam
    return [pot.Riesz(a) for a in riesz] + [
        pot.Poisson(0.02 * d), pot.Poisson(2.0 * d),
        pot.Heat(0.002 * d * d), pot.Heat(0.2 * d * d)]


def center_op(b: Body, spec, expect=None, tol_rel=None, local_max=True, known_fault=False):
    def check(res):
        check_center_point(b, spec, res.point, expect, tol_rel, local_max)
    return Op(f"find_center {b.name} {spec}", lambda: ctr.find_center(b.obj, spec), check,
              known_fault=known_fault)


def centers_ops(bodies, rng, runner) -> list:
    tri, sq, disk, ell, asym = (bodies[k] for k in ("tri345", "square", "disk", "lshape", "asym"))
    ngons = [bodies[k] for k in NGONS]
    ops = []
    for b in [tri, sq] + ngons:
        riesz = (0.5, 4.0, 20.0)
        if b is tri:
            riesz = (0.5, 1.5, 4.0, 20.0)
        elif b is not ngons[0] and b is not sq:
            riesz = (0.5, 4.0)
        for spec in family_specs(b, riesz):
            expect, tol = None, None
            if b is sq:
                expect, tol = b.centroid, 1e-6
            if isinstance(spec, pot.Riesz) and spec.alpha == 4.0:
                expect, tol = b.centroid, 1e-9     # order m + 2: the centroid, exactly
            ops.append(center_op(b, spec, expect, tol))
    ops.append(center_op(disk, pot.Riesz(1.5), disk.centroid, 1e-6))    # multistart
    ops.append(center_op(disk, pot.Poisson(0.04), disk.centroid, 1e-6))
    # reflex polygon: Riesz only (Poisson and heat values take the 2-D route)
    ops.append(center_op(ell, pot.Riesz(0.5)))
    ops.append(center_op(ell, pot.Riesz(4.0), ell.centroid, 1e-9))
    # the paper's parameter-independent center is the origin (the field workload checks
    # that every family's gradient vanishes there)
    for spec in (pot.Riesz(0.5), pot.Heat(0.05 * asym.diam ** 2)):
        ops.append(center_op(asym, spec, np.zeros(2), 1e-9))
    # small-time hot spot: tends to the incenter (known fault: returns the centroid)
    ops.append(center_op(tri, pot.Heat(1e-3), refs.triangle_incenter(tri.verts), 1e-3,
                         known_fault=True))

    def cli_center(b, family, param, spec, fmt):
        def check(text):
            if fmt == "svg":
                check_svg(text)
                return
            data = json.loads(text)
            check_center_point(b, spec, np.array(data["point"]))
        argv = ["center", "--body", runner.body_file(b), "--family", family,
                "--param", repr(param), "--format", fmt]
        return runner.op(f"center {b.name} {family} {param} {fmt}", argv, check, fmt)

    ops.append(cli_center(tri, "poisson", 1.0, pot.Poisson(1.0), "json"))
    ops.append(cli_center(sq, "heat", 0.5, pot.Heat(0.5), "svg"))
    return ops


# ---------------------------------------------------------------------------
# loci
# ---------------------------------------------------------------------------

def locus_ranges(b: Body):
    d = b.diam
    return [("riesz", (-1.0, 0.9)), ("riesz", (3.0, 10.0)),
            ("poisson", (0.01 * d, 0.2 * d)), ("poisson", (0.2 * d, 5.0 * d)),
            ("heat", (0.002 * d * d, 0.05 * d * d)), ("heat", (0.05 * d * d, 2.0 * d * d))]


def spec_of(family: str, param: float):
    return {"riesz": pot.Riesz, "poisson": pot.Poisson, "heat": pot.Heat}[family](param)


def locus_op(b: Body, family, prange, n, expect=None, tol_rel=None, local_max=True):
    def check(trace):
        params = np.asarray(trace.params)
        require(len(params) >= n and bool(np.all(np.diff(params) > 0)),
                "locus parameters not increasing")
        for par, p in zip(params, trace.points):
            check_center_point(b, spec_of(family, float(par)), p, expect, tol_rel, local_max)
    return Op(f"trace_locus {b.name} {family} {prange[0]:.4g}:{prange[1]:.4g}:{n}",
              lambda: ctr.trace_locus(b.obj, family, prange, n), check)


def loci_ops(bodies, rng, runner) -> list:
    tri, sq, disk, asym = (bodies[k] for k in ("tri345", "square", "disk", "asym"))
    ops = [locus_op(tri, family, prange, 3) for family, prange in locus_ranges(tri)]
    for k in NGONS:
        ranges = locus_ranges(bodies[k])
        picked = (ranges[0], ranges[2], ranges[3], ranges[5])
        if k == NGONS[0]:
            picked += (ranges[4],)
        ops += [locus_op(bodies[k], family, prange, 3) for family, prange in picked]
    for family, prange in locus_ranges(sq) + [("riesz", (10.0, 40.0))]:
        ops.append(locus_op(sq, family, prange, 3, sq.centroid, 1e-6, local_max=False))
    dd = disk.diam ** 2
    ops.append(locus_op(disk, "riesz", (-1.0, 0.9), 3, disk.centroid, 1e-6, local_max=False))
    # longer walks: five or six warm-started steps
    ops.append(locus_op(sq, "riesz", (-1.0, 0.9), 6, sq.centroid, 1e-6, local_max=False))
    ops.append(locus_op(disk, "heat", (0.002 * dd, 2.0 * dd), 6, disk.centroid, 1e-6,
                        local_max=False))
    ops.append(locus_op(tri, "poisson", (0.01 * tri.diam, 5.0 * tri.diam), 5))
    ops.append(locus_op(asym, "riesz", (-1.0, 0.9), 3, np.zeros(2), 1e-9, local_max=False))

    def check_limits(diag):
        v = tri.verts
        require(abs(diag.diam - tri.diam) <= 1e-12 * tri.diam, "diameter")
        require(close(diag.circumcenter, refs.triangle_circumcenter(v), 1e-9, tri.diam),
                "circumcenter")
        require(close(diag.centroid, tri.centroid, 1e-12, tri.diam), "centroid")
        require(close(diag.incenter, refs.triangle_incenter(v), 1e-7, tri.diam), "incenter")
        require(diag.monotone_riesz and diag.monotone_poisson,
                "centers do not approach their limits monotonically")
        for rows in (diag.riesz, diag.poisson, diag.heat):
            for row in rows:
                require(tri.inside(row[1]), "limit center outside the body")
        require(diag.heat[-1][2] <= 1e-3 * tri.diam, "large-time hot spot is not the centroid")
        require(diag.poisson[-1][2] <= 1e-3 * tri.diam, "large-height center is not the centroid")

    ops.append(Op("limit_diagnostics tri345",
                  lambda: ctr.limit_diagnostics(tri.obj, riesz_alphas=(5.0, 10.0),
                                                heat_ts=(1e-2, 1.0, 1e3)),
                  check_limits))

    def cli_locus(b, family, lo, hi, n, fmt):
        def check(text):
            if fmt == "svg":
                check_svg(text)
                return
            rows = text.strip().splitlines()
            require(rows[0] == "param,x,y,grad_norm" and len(rows) >= n + 1, "locus CSV shape")
            for row in rows[1:]:
                par, x, y, _ = (float(s) for s in row.split(","))
                check_center_point(b, spec_of(family, par), np.array([x, y]))
        argv = ["locus", "--body", runner.body_file(b), "--family", family,
                "--range", f"{lo!r}:{hi!r}:{n}", "--format", fmt]
        return runner.op(f"locus {b.name} {family} {fmt}", argv, check, fmt)

    ops.append(cli_locus(tri, "heat", 0.05, 1.0, 3, "csv"))
    ops.append(cli_locus(sq, "poisson", 0.1, 4.0, 4, "svg"))
    return ops


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

FIELD_RIESZ = (-1.0, 0.5, 3.0, 4.0)


def field_value_op(b: Body, p, spec):
    def check(pv):
        require(math.isfinite(pv.value), "non-finite value")
        ref = reference_value(b, p, spec)
        if ref is not None:
            # the quadrature's own contract is max(1e-12, 1e-10 |value|); allow 100 times it
            require(close(pv.value, ref[0], 1e-8, max(abs(ref[0]), 1e-2)),
                    f"{b.name} {spec} at {p}: value {pv.value!r} != reference {ref[0]!r}")
    return Op(f"potential {b.name} {spec} {p.round(4)}",
              lambda: pot.potential(b.obj, p, spec), check)


def field_gradient_op(b: Body, p, spec):
    def check(g):
        g = np.asarray(g)
        require(bool(np.all(np.isfinite(g))), "non-finite gradient")
        ref = reference_value(b, p, spec)
        if ref is not None:
            want, scale = ref[1], max(float(np.max(np.abs(ref[1]))), abs(ref[0]) / b.diam)
            rel = 1e-6
        else:
            want, vabs = difference_gradient(b, p, spec)
            scale = max(float(np.max(np.abs(want))), vabs / b.diam)
            rel = 1e-4
        require(close(g, want, rel, scale),
                f"{b.name} {spec} at {p}: gradient {g} != reference {want}")
    return Op(f"potential_gradient {b.name} {spec} {p.round(4)}",
              lambda: pot.potential_gradient(b.obj, p, spec), check)


def field_ops(bodies, rng, runner) -> list:
    tri, sq, disk, ell, asym, ngon = (bodies[k] for k in
                                      ("tri345", "square", "disk", "lshape", "asym", "ngon1"))
    ops = []
    for b in (tri, sq, disk, ngon, ell):
        d = b.diam
        specs = [pot.Riesz(a) for a in FIELD_RIESZ] + [pot.Poisson(0.25 * d),
                                                       pot.Heat(0.02 * d * d)]
        inner = [interior_point(rng, b, 0.1), interior_point(rng, b, 0.1),
                 near_boundary_point(rng, b)]
        if b is disk:
            inner[1] = np.array(b.obj.center, dtype=float)
        for p in inner + [exterior_point(rng, b)]:
            for spec in specs:
                if b.kind == "polygon" and not isinstance(spec, pot.Riesz) and (
                        b is ell or not b.inside(p)):
                    # these values take the 2-D route, whose cost swings with the point:
                    # they are measured at the fixed points below
                    ops.append(field_gradient_op(b, p, spec))
                    continue
                ops.append(field_value_op(b, p, spec))
                ops.append(field_gradient_op(b, p, spec))
    # the 2-D triangulated route at fixed points (a minority share of the time):
    # exterior points of convex polygons, and interior points of the reflex L-shape
    for b, p, specs in ((tri, [6.0, 4.0], (pot.Poisson(1.25), pot.Heat(0.5))),
                        (sq, [2.5, 0.5], (pot.Poisson(0.7), pot.Heat(0.16))),
                        (ell, [3.0, 1.5], (pot.Poisson(0.7),)),
                        (ell, [0.5, 0.5], (pot.Poisson(1.0), pot.Heat(0.25))),
                        (ell, [1.5, 0.5], (pot.Poisson(1.0),))):
        for spec in specs:
            ops.append(field_value_op(b, np.array(p, dtype=float), spec))
    # the asymmetric body: the off-center radial function (a fixed point, since the
    # cost depends on where it lies) and the balance point
    moments = refs.radial_moments(asym.obj.boundary_radius)
    off = np.array([0.3, -0.2])
    ops += asym_riesz4_ops(asym, off, moments)
    for spec in (pot.Riesz(0.5), pot.Poisson(0.5), pot.Heat(0.1)):
        ops.append(field_value_op(asym, off, spec))
        ops.append(field_gradient_op(asym, off, spec))
    for spec in (pot.Riesz(0.5), pot.Riesz(4.0), pot.Poisson(0.5), pot.Heat(0.1)):
        ops.append(asym_origin_gradient_op(asym, spec))
    ops += concavity_ops(bodies, runner)

    def cli_potential(b, family, param, spec, at):
        def check(text):
            data = json.loads(text)
            ref = reference_value(b, at, spec)
            require(close(data["value"], ref[0], 1e-8, max(abs(ref[0]), 1e-2)),
                    "CLI potential value")
            scale = max(float(np.max(np.abs(ref[1]))), abs(ref[0]) / b.diam)
            require(close(data["gradient"], ref[1], 1e-6, scale), "CLI potential gradient")
        argv = ["potential", "--body", runner.body_file(b), "--family", family,
                "--param", repr(param), f"--at={float(at[0])!r},{float(at[1])!r}"]
        return runner.op(f"potential {b.name} {family} {param}", argv, check)

    ops.append(cli_potential(sq, "heat", 0.3, pot.Heat(0.3), interior_point(rng, sq, 0.1)))
    ops.append(cli_potential(tri, "poisson", 1.0, pot.Poisson(1.0), np.array([5.0, -1.0])))
    ops.append(cli_potential(disk, "riesz", 2.0, pot.Riesz(2.0), interior_point(rng, disk, 0.1)))
    return ops


def asym_riesz4_ops(b: Body, p, moments) -> list:
    """Order 4 on a body whose centroid is the origin: -int |x-y|^2 = -(J + A |x|^2)."""
    area, polar = moments
    spec = pot.Riesz(4.0)
    want = -(polar + area * float(p @ p))

    def check_value(pv):
        require(close(pv.value, want, 1e-7, abs(want)), f"asym Riesz(4) {pv.value!r} != {want!r}")

    def check_gradient(g):
        require(close(g, -2 * area * p, 1e-7, abs(want)), f"asym Riesz(4) gradient {g}")

    return [Op(f"potential asym {spec} {p.round(4)}",
               lambda: pot.potential(b.obj, p, spec), check_value),
            Op(f"potential_gradient asym {spec} {p.round(4)}",
               lambda: pot.potential_gradient(b.obj, p, spec), check_gradient)]


def asym_origin_gradient_op(b: Body, spec):
    origin = np.zeros(2)

    def check(g):
        v = abs(value(b, origin, spec))
        require(float(np.hypot(*g)) <= 1e-9 * max(v, 1.0),
                f"asym {spec}: gradient {g} at the balance point does not vanish")
    return Op(f"potential_gradient asym {spec} origin",
              lambda: pot.potential_gradient(b.obj, origin, spec), check)


def concavity_ops(bodies, runner) -> list:
    tri, sq, disk = bodies["tri345"], bodies["square"], bodies["disk"]
    ops = []

    def battery(text):
        data = json.loads(text)
        require(data["all_passed"] and len(data["checks"]) == 8,
                "concavity battery failed on a convex body")

    ops.append(runner.op("concavity-check disk",
                         ["concavity-check", "--body", runner.body_file(disk)], battery))

    def segment(b, spec, alpha, a, c):
        a, c = np.array(a, dtype=float), np.array(c, dtype=float)

        def check(rep):
            require(rep.min_slack >= -1e-12, f"{b.name} {spec} is not {alpha}-concave")
        return Op(f"segment_concavity {b.name} {spec}",
                  lambda: conc.segment_concavity(lambda x: value(b, x, spec), a, c, alpha, n=16),
                  check)

    # heat is log-concave (alpha 0); Poisson is (-1)-concave: 1/u is convex
    ops.append(segment(tri, pot.Heat(0.5), 0.0, [0.2, 0.2], [2.5, 0.3]))
    ops.append(segment(sq, pot.Poisson(0.5), -1.0, [-0.9, -0.5], [0.8, 0.7]))
    return ops


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

def balance_op(b: Body, x, balanced: bool, n_probe: int = 4):
    x = np.asarray(x, dtype=float)

    def check(rep):
        require(rep.balanced == balanced,
                f"{b.name} at {x}: balanced={rep.balanced}, expected {balanced}")
        radii = np.asarray(rep.radii)
        res = np.asarray(rep.residual_vectors)
        require(bool(np.all(np.hypot(res[:, 0], res[:, 1]) <= 2 * radii * (1 + 1e-12))),
                "residual larger than the circle allows")
        gap = b.boundary_gap(x) if b.inside(x) else 0.0
        small = radii < gap * (1 - 1e-9)
        require(bool(np.all(np.abs(res[small]) <= 1e-12 * radii[small, None])),
                "circles inside the body must have zero residual")
        if b.kind == "disk":
            want = np.array([refs.disk_residual(b.obj.center, b.obj.radius, x, r) for r in radii])
            require(close(res, want, 1e-9, float(np.max(radii))), "disk residuals")
        else:
            idx = np.linspace(len(radii) // 8, len(radii) - 2, n_probe).astype(int)
            for i in idx:
                want = refs.sampled_residual(b.inside_many, x, float(radii[i]), 1 << 16)
                require(close(res[i], want, 2e-3, float(radii[i])),
                        f"{b.name}: residual at r={radii[i]:.4g} {res[i]} vs sampled {want}")
    return Op(f"balance_report {b.name} {x.round(4)}",
              lambda: bal.balance_report(b.obj, x), check)


def classification_corpus(rng) -> list:
    """(polygon, expected class) pairs known by construction."""
    out = []
    C = bal.PolygonClass

    def pose(pts):
        a = rng.random() * 2 * math.pi
        c, s = math.cos(a), math.sin(a)
        return pts @ np.array([[c, s], [-s, c]]) * (0.5 + 2 * rng.random()) \
            + (rng.random(2) - 0.5) * 4

    for _ in range(6):
        k = np.arange(3)
        out.append((geo.Polygon(pose(np.stack([np.cos(2 * np.pi * k / 3),
                                               np.sin(2 * np.pi * k / 3)], 1))),
                    C.BALANCED_EQUILATERAL))
    for _ in range(6):
        u = np.array([1.0, 0.0])
        w = np.array([0.3 + rng.random(), 0.4 + rng.random()])
        out.append((geo.Polygon(pose(np.array([[0, 0], u, u + w, w]))), C.BALANCED_PARALLELOGRAM))
    for _ in range(6):     # triangles far from equilateral: one angular gap below 1.8
        a0 = rng.random() * 0.4
        ang = np.array([a0, a0 + 1.3 + 0.5 * rng.random(), a0 + 3.5 + 0.4 * rng.random()])
        out.append((geo.Polygon(pose(np.stack([np.cos(ang), np.sin(ang)], 1))), C.NOT_BALANCED))
    for _ in range(6):     # quadrangles far from parallelograms
        ang = np.array([0.0, 1.2, 2.9, 4.2]) + (rng.random(4) - 0.5) * 0.4
        rad = np.array([1.0, 0.7, 1.2, 0.9])
        out.append((geo.Polygon(pose(np.stack([rad * np.cos(ang), rad * np.sin(ang)], 1))),
                    C.NOT_BALANCED))
    return out


def balance_ops(bodies, rng, runner) -> list:
    tri, sq, disk, ell, asym, ngon = (bodies[k] for k in
                                      ("tri345", "square", "disk", "lshape", "asym", "ngon1"))
    ops = []
    for b in (tri, sq, disk, ngon, ell):
        balanced_at_centroid = b in (sq, disk)
        ops.append(balance_op(b, b.centroid, balanced_at_centroid))
        for _ in range(2):
            ops.append(balance_op(b, interior_point(rng, b, 0.1), False))
    for k in NGONS[1:]:
        ops.append(balance_op(bodies[k], bodies[k].centroid, False))
    ops.append(balance_op(asym, np.zeros(2), True))
    ops.append(balance_op(asym, interior_point(rng, asym, 0.3), False, n_probe=2))

    for i, (poly, want) in enumerate(classification_corpus(rng)):
        ops.append(Op(f"classify_polygon #{i} {want.value}",
                      lambda poly=poly: bal.classify_polygon(poly),
                      lambda got, want=want: require(got == want, f"{got} != {want}")))

    def equivalence(b, x):
        return Op(f"equivalence_check {b.name}", lambda: bal.equivalence_check(b.obj, x),
                  lambda rep: require(rep.passed, f"{b.name}: decomposition identities fail"))

    for b in (tri, sq, ngon):
        ops.append(equivalence(b, interior_point(rng, b, 0.1)))
    ops.append(equivalence(asym, interior_point(rng, asym, 0.3)))

    def symmetry(b, size):
        return Op(f"symmetry_search {b.name}", lambda: bal.symmetry_search(b.obj),
                  lambda isos: require(len(isos) == size,
                                       f"{b.name}: {len(isos)} symmetries, expected {size}"))

    ops.append(symmetry(asym, 0))      # only the identity: the empty list
    ops.append(symmetry(sq, 8))
    ops.append(symmetry(tri, 0))

    def cli_balance(b, fmt, balanced):
        def check(text):
            if fmt == "svg":
                check_svg(text)
                return
            data = json.loads(text)
            require(data["balanced"] == balanced, f"{b.name}: balanced={data['balanced']}")
            require(len(data["radii"]) == len(data["residual_vectors"]) >= 256, "radius grid")
        argv = ["balance", "--body", runner.body_file(b), "--format", fmt]
        return runner.op(f"balance {b.name} {fmt}", argv, check, fmt)

    ops.append(cli_balance(sq, "json", True))
    ops.append(cli_balance(tri, "svg", False))
    eq = Body("equilateral", geo.Polygon([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]))
    ops.append(runner.op("classify equilateral",
                         ["classify", "--body", runner.body_file(eq)],
                         lambda text: require(json.loads(text)["classification"]
                                              == "BalancedEquilateral", "classify equilateral")))
    return ops


# each workload is a sequence of operation groups, one pass running them in this order
OPERATION_LISTS = {"search": (centers_ops, loci_ops), "evaluate": (field_ops, balance_ops)}


def build(workload: str, seed: int, outdir: str) -> list:
    """Bodies, seeded inputs and the operation list of one workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    bodies = fixed_bodies()
    for k in NGONS:
        bodies[k] = Body(k, seeded_ngon(rng))
    runner = CliRunner(outdir)
    return [op for group in OPERATION_LISTS[workload] for op in group(bodies, rng, runner)]


def warm_up(outdir: str):
    """One small call of each kind, so that lazy imports and first-call costs fall in set-up."""
    sq = geo.Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    disk = geo.Disk([0.0, 0.0], 1.0)
    asym = bal.generate_asymmetric_balanced()
    for body in (sq, disk):
        for spec in (pot.Riesz(0.5), pot.Poisson(0.5), pot.Heat(0.1)):
            pot.potential(body, [0.1, 0.2], spec)
            pot.potential_gradient(body, [0.1, 0.2], spec)
    pot.potential(sq, [3.0, 0.5], pot.Riesz(0.5))
    pot.potential(disk, [3.0, 0.5], pot.Poisson(0.5))
    pot.potential(asym, [0.05, 0.02], pot.Heat(0.1))
    ctr.find_center(sq, pot.Riesz(4.0))
    bal.balance_report(sq, [0.1, 0.2])
    bal.classify_polygon(geo.Polygon([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]))
    path = os.path.join(outdir, "warm-body.json")
    with open(path, "w") as fh:
        json.dump(geo.body_to_dict(sq), fh)
    cli.main(["center", "--body", path, "--family", "riesz", "--param", "4",
              "--format", "svg", "--out", os.path.join(outdir, "warm.svg")])
    rc.incenter(sq)
