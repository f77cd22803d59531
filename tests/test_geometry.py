"""Geometry: bodies, classical centers, arc clipping, folding."""

import ast
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import radialcenters
from radialcenters import geometry
from radialcenters.errors import InvalidBody, NotStarShaped
from radialcenters.geometry import (Disk, Polygon, area, balance_residuals, boundary_distance,
                                    boundary_polyline, centroid, circle_clip,
                                    circumcenter, classify_location, contains,
                                    diameter, incenter, is_convex,
                                    maximal_folding, radial_function,
                                    radial_function_many, transformed,
                                    unfolded_region, body_from_dict, body_to_dict)
from radialcenters.balance import generate_asymmetric_balanced, vector_residual_of_arcs
from radialcenters.quadrature import integrate_angular

from conftest import (interior_points, make_equilateral, make_square, make_tri345,
                      make_unit_disk, random_convex_polygon)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_polygon_rejects_clockwise():
    with pytest.raises(InvalidBody):
        Polygon([[0, 0], [0, 1], [1, 0]])


def test_polygon_rejects_collinear_triple():
    with pytest.raises(InvalidBody):
        Polygon([[0, 0], [1, 0], [2, 0], [1, 1]])


def test_polygon_rejects_self_intersection():
    with pytest.raises(InvalidBody):
        Polygon([[0, 0], [2, 2], [2, 0], [0, 2]])


def test_polygon_rejects_self_intersection_512gon():
    # a regular 512-gon whose last vertex mirrors the one before it through the
    # first edge's midpoint: the second-to-last edge crosses the first, the
    # farthest pair the check of edge 0 reaches
    t = np.linspace(0, 2 * math.pi, 512, endpoint=False)
    v = np.stack([np.cos(t), np.sin(t)], axis=1)
    v[-1] = v[0] + v[1] - v[-2]
    with pytest.raises(InvalidBody):
        Polygon(v)


def test_polygon_accepts_fine_outline():
    outline = generate_asymmetric_balanced().boundary_polyline(512)
    assert Polygon(outline).n == 512


def test_polygon_rejects_duplicate_vertices():
    with pytest.raises(InvalidBody):
        Polygon([[0, 0], [0, 0], [1, 0], [0, 1]])


def test_disk_rejects_bad_radius():
    with pytest.raises(InvalidBody):
        Disk([0, 0], 0.0)


# ---------------------------------------------------------------------------
# area and centroid
# ---------------------------------------------------------------------------

def test_area_examples():
    assert area(Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])) == pytest.approx(1.0, abs=1e-15)
    assert area(make_unit_disk()) == pytest.approx(math.pi, abs=1e-15)
    assert area(Polygon([[0, 0], [1, 0], [0, 1]])) == pytest.approx(0.5, abs=1e-15)


def test_centroid_examples():
    sq = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert centroid(sq) == pytest.approx([0.5, 0.5], abs=1e-15)
    tri = Polygon([[0, 0], [3, 0], [0, 3]])
    assert centroid(tri) == pytest.approx([1.0, 1.0], abs=1e-14)
    d = Disk([2, 0], 1.0)
    assert centroid(d) == pytest.approx([2.0, 0.0], abs=0)


# ---------------------------------------------------------------------------
# circumcenter / incenter
# ---------------------------------------------------------------------------

def test_circumcenter_square():
    c = circumcenter(make_square())
    assert c.center == pytest.approx([0, 0], abs=1e-12)
    assert c.radius == pytest.approx(math.sqrt(2), abs=1e-12)


def test_circumcenter_right_triangle_is_hypotenuse_midpoint():
    c = circumcenter(make_tri345())
    assert c.center == pytest.approx([2.0, 1.5], abs=1e-12)
    assert c.radius == pytest.approx(2.5, abs=1e-12)


def test_circumcenter_thin_rectangle():
    thin = Polygon([[0, 0], [2, 0], [2, 1e-6], [0, 1e-6]])
    c = circumcenter(thin)
    assert c.center == pytest.approx([1.0, 5e-7], abs=1e-9)
    assert c.radius == pytest.approx(1.0, abs=1e-6)


def test_incenter_square():
    ic = incenter(make_square())
    assert ic.center == pytest.approx([0, 0], abs=1e-9)
    assert ic.radius == pytest.approx(1.0, abs=1e-9)


def test_incenter_right_triangle():
    ic = incenter(make_tri345())
    assert ic.center == pytest.approx([1.0, 1.0], abs=1e-9)
    assert ic.radius == pytest.approx(1.0, abs=1e-9)


def test_incenter_disk():
    ic = incenter(make_unit_disk())
    assert ic.center == pytest.approx([0, 0], abs=0)
    assert ic.radius == 1.0


def test_incenter_rectangle_canonical_midpoint():
    rect = Polygon([[0, 0], [4, 0], [4, 1], [0, 1]])
    ic = incenter(rect)
    assert ic.radius == pytest.approx(0.5, abs=1e-9)
    assert ic.center == pytest.approx([2.0, 0.5], abs=1e-6)
    assert ic.ambiguous  # deepest points form a segment


def test_incenter_nonconvex_flagged():
    lshape = Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])
    ic = incenter(lshape)
    assert ic.ambiguous
    assert contains(lshape, ic.center)
    assert ic.radius == pytest.approx(boundary_distance(lshape, ic.center), rel=1e-6)


def test_incenter_lshape_closed_form():
    # the deepest disk touches both axes and the reflex corner (1, 1)
    lshape = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    ic = incenter(lshape)
    r = 2 - math.sqrt(2)
    assert ic.center == pytest.approx([r, r], abs=1e-9)
    assert ic.radius == pytest.approx(r, abs=1e-9)


def test_incenter_grid_refines_with_batched_queries(monkeypatch):
    # each refinement step asks about its eight neighbours in one pass over
    # their edge frames, which gives both distance and membership
    def other(*args, **kwargs):
        raise AssertionError("second or scalar query in the pattern search")

    calls = []
    many = Polygon._over_frames
    for name in ("contains", "boundary_distance", "contains_many", "boundary_distance_many"):
        monkeypatch.setattr(Polygon, name, other)
    monkeypatch.setattr(Polygon, "_over_frames",
                        lambda self, pts, fn: calls.append(len(pts)) or many(self, pts, fn))
    lshape = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    ic = incenter(lshape)
    assert ic.radius == pytest.approx(2 - math.sqrt(2), abs=1e-12)
    assert set(calls[1:]) == {8}


def _lp_inradius(poly):
    """The Chebyshev radius by linear programming: max r with n_i . x + r <= b_i."""
    from scipy.optimize import linprog
    m = len(poly._offsets)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.hstack([poly._normals, np.ones((m, 1))]),
                  b_ub=poly._offsets, bounds=[(None, None), (None, None), (0, None)],
                  method="highs")
    assert res.success
    return float(res.x[2])


def _clip_one_vertex_at_a_time(normals, offsets, seed_polygon):
    """``geometry.halfplane_intersection`` as a loop over the vertices, each
    value by its own ``np.dot``: the reference the stacked clip must match."""
    pts = [np.asarray(p, dtype=float) for p in seed_polygon]
    for nvec, b in zip(np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)):
        if not pts:
            return None
        vals = [float(np.dot(nvec, p)) - b for p in pts]
        out = []
        for i, p in enumerate(pts):
            q, vp, vq = pts[(i + 1) % len(pts)], vals[i], vals[(i + 1) % len(pts)]
            if vp <= 0:
                out.append(p)
            if (vp < 0 < vq) or (vq < 0 < vp):
                out.append(p + vp / (vp - vq) * (q - p))
        pts = out
    return np.asarray(pts) if pts else None


def _incenter_corpus():
    rng = np.random.default_rng(1083)
    out = [make_tri345(), make_square(),
           Polygon(generate_asymmetric_balanced().boundary_polyline(512))]
    return out + [random_convex_polygon(rng, n_points=int(rng.integers(3, 30)))
                  for _ in range(20)]


def test_halfplane_clip_matches_one_vertex_at_a_time():
    for poly in _incenter_corpus():
        normals, offsets = poly._normals, poly._offsets
        _, r = geometry._wavefront_collapse(normals, offsets)
        box = geometry._bounding_box(poly, pad=1.0)
        for offs in (offsets - r + 1e-12 * poly.diameter(), offsets - 0.5 * r, offsets - 2 * r):
            got = geometry.halfplane_intersection(normals, offs, box)
            want = _clip_one_vertex_at_a_time(normals, offs, box)
            assert repr(got) == repr(want)
        # a clip that keeps every vertex returns a copy, not the caller's array
        kept = geometry.halfplane_intersection(normals[:1], offsets[:1] + 1.0, poly.vertices)
        assert kept is not poly.vertices and np.array_equal(kept, poly.vertices)
        ic = incenter(poly)
        face = _clip_one_vertex_at_a_time(normals, offsets - ic.radius + 1e-12 * poly.diameter(),
                                          box)
        assert repr(ic.center) == repr(face.mean(axis=0))


def test_wavefront_inradius_matches_linear_programming():
    rng = np.random.default_rng(47)
    for k in range(200):
        if k % 10 == 0:         # rectangles: the deepest points form a segment
            w, h = rng.uniform(0.1, 3.0, 2)
            poly = Polygon(np.array([[0, 0], [w, 0], [w, h], [0, h]]) + rng.uniform(-2, 2, 2))
        else:
            poly = random_convex_polygon(rng, n_points=int(rng.integers(3, 41)))
        ic = incenter(poly)
        assert abs(ic.radius - _lp_inradius(poly)) <= 1e-12 * poly.diameter()
        assert abs(boundary_distance(poly, ic.center) - ic.radius) <= 1e-9 * poly.diameter()


def test_import_and_convex_centers_leave_scipy_optimize_unloaded():
    # scipy.optimize costs about 24 MB and a third of a second to import
    code = ("import sys\n"
            "import radialcenters as rc\n"
            "sq = rc.Polygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])\n"
            "rc.incenter(sq)\n"
            "rc.find_center(sq, rc.Riesz(0.5))\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n")
    src = pathlib.Path(radialcenters.__file__).parent.parent
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_transformed_polygon_is_prepared_as_constructed(rng):
    poly = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    for angle, shift, scale in ((0.7, (1.5, -2.0), 0.3), (0.0, (-0.5, 0.25), 2.0)):
        moved = transformed(poly, angle=angle, shift=shift, scale=scale)
        fresh = Polygon(moved.vertices)
        for name in ("vertices", "_next", "_lengths", "_tangents", "_normals", "_offsets",
                     "_frame_dirs", "_frame_points", "_centroid"):
            assert np.array_equal(getattr(moved, name), getattr(fresh, name)), name
        for name in ("_convex", "_diameter", "_area"):
            assert getattr(moved, name) == getattr(fresh, name), name
    with pytest.raises(InvalidBody):
        transformed(poly, scale=0.0)


def test_transformed_radial_arc_body_is_a_type_error():
    with pytest.raises(TypeError, match="RadialArcBody"):
        transformed(generate_asymmetric_balanced(), angle=0.3)


def test_circumradius_at_least_inradius(rng):
    for _ in range(10):
        poly = random_convex_polygon(rng)
        assert circumcenter(poly).radius >= incenter(poly).radius - 1e-12


# ---------------------------------------------------------------------------
# radial function
# ---------------------------------------------------------------------------

def test_radial_function_disk_center():
    d = make_unit_disk()
    for theta in (0.0, 1.0, 2.5, 5.0):
        assert radial_function(d, [0, 0], theta) == pytest.approx(1.0, abs=1e-14)


def test_radial_function_square():
    sq = make_square()
    assert radial_function(sq, [0, 0], 0.0) == pytest.approx(1.0, abs=1e-14)
    assert radial_function(sq, [0, 0], math.pi / 4) == pytest.approx(math.sqrt(2), abs=1e-13)


def test_radial_function_many_matches_scalar(rng):
    poly = random_convex_polygon(rng)
    x = interior_points(rng, poly, 1)[0]
    thetas = rng.uniform(0, 2 * math.pi, 50)
    many = radial_function_many(poly, x, thetas)
    single = [radial_function(poly, x, t) for t in thetas]
    assert many == pytest.approx(single, rel=1e-12)


def test_radial_function_not_star_shaped():
    lshape = Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])
    x = np.array([0.5, 2.5])
    theta = math.atan2(-2.2, 2.4)  # ray exits the vertical leg, re-enters the horizontal one
    with pytest.raises(NotStarShaped):
        radial_function(lshape, x, theta)


def test_area_matches_angular_integral(rng):
    for _ in range(5):
        poly = random_convex_polygon(rng)
        x = interior_points(rng, poly, 1)[0]
        val = integrate_angular(poly, x, lambda r: 0.5 * r * r)
        assert val == pytest.approx(area(poly), rel=1e-9)


# ---------------------------------------------------------------------------
# circle clipping
# ---------------------------------------------------------------------------

def test_circle_clip_full_and_empty():
    d = make_unit_disk()
    assert circle_clip(d, [0, 0], 0.5).is_full()
    assert circle_clip(d, [0, 0], 0.5).measure() == pytest.approx(2 * math.pi, abs=1e-12)
    assert not circle_clip(d, [0, 0], 2.0).arcs


def test_circle_clip_square_corner_arcs_vs_sampling_oracle():
    sq = make_square()
    r = math.sqrt(2) * 0.999
    arcs = circle_clip(sq, [0, 0], r)
    assert len(arcs.arcs) == 4
    measured = arcs.measure()
    oracle = _angular_measure_oracle(sq, np.zeros(2), r)
    assert measured == pytest.approx(oracle, abs=1e-9)


def _angular_measure_oracle(body, x, r, n=10 ** 6):
    """Membership scan at n angles plus bisection refinement of each switch."""
    t = np.linspace(0, 2 * math.pi, n, endpoint=False)
    pts = x + r * np.stack([np.cos(t), np.sin(t)], axis=1)
    inside = body.contains_many(pts)
    if inside.all():
        return 2 * math.pi
    if not inside.any():
        return 0.0
    switches = np.nonzero(inside != np.roll(inside, -1))[0]
    ends = []
    for i in switches:
        lo, hi = t[i], t[i] + 2 * math.pi / n
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            p = x + r * np.array([math.cos(mid), math.sin(mid)])
            if contains(body, p) == bool(inside[i]):
                lo = mid
            else:
                hi = mid
        ends.append((0.5 * (lo + hi), bool(inside[i])))
    total = 0.0
    for k, (tk, was_in) in enumerate(ends):
        tn = ends[(k + 1) % len(ends)][0]
        if tn <= tk:
            tn += 2 * math.pi
        if not was_in:          # outside before tk means inside on (tk, tn)
            total += tn - tk
    return total


def test_circle_clip_offcenter_vs_oracle(rng):
    sq = make_square()
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, 2)
        r = rng.uniform(0.3, 2.2)
        arcs = circle_clip(sq, x, r)
        oracle = _angular_measure_oracle(sq, x, r, n=200000)
        assert arcs.measure() == pytest.approx(oracle, abs=1e-9)


def test_circle_clip_complement_partitions_circle(rng):
    poly = random_convex_polygon(rng)
    x = interior_points(rng, poly, 1)[0]
    for r in (0.1, 0.7, 1.5, 3.0):
        arcs = circle_clip(poly, x, r)
        comp = arcs.complement()
        assert arcs.measure() + comp.measure() == pytest.approx(2 * math.pi, abs=1e-10)


def test_circle_clip_tangency_is_not_fatal():
    # circle through the square's top edge tangentially
    sq = make_square()
    arcs = circle_clip(sq, np.array([0.3, 0.0]), 1.0)
    assert 0.0 < arcs.measure() < 2 * math.pi


# ---------------------------------------------------------------------------
# folding and the unfolded region
# ---------------------------------------------------------------------------

def test_maximal_folding_square_symmetric_directions():
    sq = make_square()
    assert abs(maximal_folding(sq, [1, 0])) < 1e-10
    s = 1 / math.sqrt(2)
    assert abs(maximal_folding(sq, [s, s])) < 1e-10


def test_maximal_folding_triangle_vs_grid_oracle():
    tri = make_tri345()
    v = np.array([1.0, 0.0])
    got = maximal_folding(tri, v)
    oracle = _folding_grid_oracle(tri, v, n=10 ** 4)
    assert got == pytest.approx(oracle, abs=2e-3)  # oracle resolution limit


def _folding_grid_oracle(poly, v, n):
    from radialcenters.geometry import _fold_ok
    proj = poly.vertices @ v
    lo, hi = float(proj.min()), float(proj.max())
    grid = np.linspace(lo, hi, n)
    convex = is_convex(poly)
    last_fail = lo
    for b in grid:
        if not _fold_ok(poly, v, float(b), convex):
            last_fail = float(b)
    return last_fail


def test_unfolded_region_square_pinches_to_center():
    reg = unfolded_region(make_square(), 64)
    assert reg.contains([0, 0], tol=1e-9)
    assert reg.diameter() < 1e-6


def test_unfolded_region_equilateral():
    reg = unfolded_region(make_equilateral(), 96)
    assert reg.contains([0, 0], tol=1e-9)
    assert reg.diameter() < 1e-3


def test_unfolded_region_scalene_contains_centroid():
    tri = make_tri345()
    reg = unfolded_region(tri, 64)
    g = centroid(tri)
    assert reg.contains(g, tol=math.pi * diameter(tri) / 64)
    assert reg.polygon is not None and len(reg.polygon) >= 3
    for p in reg.polygon:
        assert contains(tri, p, tol=1e-6)


def test_centroid_in_unfolded_region_random(rng):
    for _ in range(5):
        poly = random_convex_polygon(rng)
        reg = unfolded_region(poly, 64)
        tol = math.pi * diameter(poly) / 64
        assert reg.contains(centroid(poly), tol=tol)


# ---------------------------------------------------------------------------
# symmetry invariance of classical centers
# ---------------------------------------------------------------------------

def test_reflection_invariance_of_centers():
    # isosceles triangle, symmetric about the y axis
    tri = Polygon([[-2, 0], [2, 0], [0, 3]])
    for fn in (lambda b: centroid(b), lambda b: circumcenter(b).center,
               lambda b: incenter(b).center):
        p = fn(tri)
        assert abs(p[0]) < 1e-9


def test_transform_equivariance_of_centers(rng):
    poly = random_convex_polygon(rng)
    angle, shift = 0.7, np.array([1.5, -2.0])
    moved = transformed(poly, angle=angle, shift=shift)
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    assert centroid(moved) == pytest.approx(R @ centroid(poly) + shift, abs=1e-10)
    assert circumcenter(moved).center == pytest.approx(
        R @ circumcenter(poly).center + shift, abs=1e-9)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_arcset_and_region_serialize():
    arcs = circle_clip(make_square(), [0.3, 0.0], 1.0)
    data = arcs.to_dict()
    assert set(data) == {"center", "radius", "arcs"}
    assert sum(t2 - t1 for t1, t2 in data["arcs"]) == pytest.approx(
        arcs.measure(), abs=1e-12)
    reg = unfolded_region(make_square(), 16)
    rdata = reg.to_dict()
    assert set(rdata) == {"directions", "offsets", "polygon"}
    assert len(rdata["directions"]) == 16


def test_body_json_round_trip(rng):
    poly = random_convex_polygon(rng)
    back = body_from_dict(body_to_dict(poly))
    assert np.allclose(back.vertices, poly.vertices)
    d = Disk([1.5, -0.5], 2.0)
    back = body_from_dict(body_to_dict(d))
    assert np.allclose(back.center, d.center) and back.radius == d.radius


# ---------------------------------------------------------------------------
# the body protocol
# ---------------------------------------------------------------------------

PROTOCOL = ("area", "centroid", "diameter", "is_convex", "locate", "contains", "contains_many",
            "boundary_distance", "boundary_distance_many", "radial_function",
            "radial_function_many", "crossings", "symmetries", "angular_breakpoints",
            "radius_breakpoints", "reach", "route", "boundary_polyline",
            "circumcenter", "incenter", "transformed", "to_dict")


@pytest.mark.parametrize("make", [make_tri345, make_unit_disk, generate_asymmetric_balanced],
                         ids=["polygon", "disk", "radial_arc"])
def test_body_protocol(make):
    body = make()
    for name in PROTOCOL:
        assert callable(getattr(body, name, None)), name
    x = body.centroid() + np.array([0.05, 0.03])
    thetas = np.linspace(0.0, 2 * math.pi, 7)
    pts = x + np.array([[0.0, 0.0], [0.1, -0.2], [5.0, 5.0], [-4.0, 0.5]])
    outline = body.boundary_polyline(512)
    assert body.area() == area(body) > 0
    assert np.array_equal(body.centroid(), centroid(body))
    assert body.diameter() == diameter(body) > 0
    assert body.is_convex() is is_convex(body) is True
    assert body.contains(x) and contains(body, x)
    assert list(body.contains_many(pts)) == [contains(body, p) for p in pts] \
        == [True, True, False, False]
    assert list(body.contains_many(x)) == [True]        # one point of shape (2,)
    assert body.boundary_distance(x) == boundary_distance(body, x) > 0
    assert classify_location(body, x) == "interior"
    where = body.locate(x)
    assert where.location == "interior"
    assert where.distance == pytest.approx(body.boundary_distance(x), rel=1e-14)
    assert [body.locate(p).location for p in pts] == ["interior"] * 2 + ["exterior"] * 2
    rho = body.radial_function_many(x, thetas)
    assert np.array_equal(rho, radial_function_many(body, x, thetas))
    assert rho == pytest.approx([radial_function(body, x, t) for t in thetas], rel=1e-12)
    # outside the body, with rays that meet it: (1.5, 0) on the unit disk
    far = body.centroid() + np.array([0.75 * body.diameter(), 0.0])
    with pytest.raises(NotStarShaped):
        body.radial_function_many(far, math.pi + np.array([-0.01, 0.0, 0.01]))
    with pytest.raises(NotStarShaped):
        body.radial_function(far, math.pi)
    moments = [vector_residual_of_arcs(circle_clip(body, x, r)) for r in (0.7, 1.1)]
    assert np.abs(balance_residuals(body, x, [0.7, 1.1]) - moments).max() < 1e-13
    breaks = body.angular_breakpoints(x)
    assert breaks[0] == 0.0 and breaks[-1] == 2 * math.pi and breaks == sorted(breaks)
    reach = body.reach(x)
    assert reach >= float(np.max(np.hypot(*(outline - x).T))) - 1e-12
    assert min(body.radius_breakpoints(x)) >= 0
    # closed forms off a polygon's or a disk's boundary band, boundary-piece
    # integrals on the radially parameterized body
    assert body.route("interior") == {make_tri345: "edges", make_unit_disk: "disk"}.get(
        make, "pieces")
    assert np.array_equal(outline, boundary_polyline(body, 512))
    assert body.to_dict() == body_to_dict(body)
    assert body_from_dict(body.to_dict()).diameter() == pytest.approx(body.diameter(),
                                                                      rel=1e-12)
    assert np.array_equal(body.circumcenter().center, circumcenter(body).center)
    assert body.incenter().radius == incenter(body).radius > 0


@pytest.mark.parametrize("make", [make_tri345, make_unit_disk, generate_asymmetric_balanced],
                         ids=["polygon", "disk", "radial_arc"])
def test_boundary_distance_many_matches_scalar(make):
    body = make()
    rng = np.random.default_rng(5)
    pts = body.centroid() + body.diameter() * (rng.random((300, 2)) - 0.5)
    many = body.boundary_distance_many(pts)
    assert many.shape == (300,)
    assert many.tolist() == [body.boundary_distance(p) for p in pts]


# ---------------------------------------------------------------------------
# polygon distance and membership from the edge frames, against the
# per-segment distance and the crossing number they replaced
# ---------------------------------------------------------------------------

def _segment_distances(pts, poly) -> np.ndarray:
    """Distance from each point to the nearest edge, foot by foot."""
    a, b = poly.vertices, np.roll(poly.vertices, -1, axis=0)
    e = b - a
    d = pts[:, None, :] - a
    t = np.clip(np.sum(d * e, axis=-1) / np.sum(e * e, axis=-1), 0.0, 1.0)
    gap = d - t[..., None] * e
    return np.hypot(gap[..., 0], gap[..., 1]).min(axis=1)


def _crossing_number(pts, poly) -> np.ndarray:
    """Membership by the parity of the edges that a ray to +x crosses."""
    x, y = pts[:, :1], pts[:, 1:]
    (x1, y1), (x2, y2) = poly.vertices.T, np.roll(poly.vertices, -1, axis=0).T
    crosses = (y1 > y) != (y2 > y)
    run = np.divide((y - y1) * (x2 - x1), y2 - y1, out=np.zeros(crosses.shape), where=crosses)
    return np.count_nonzero(crosses & (x < x1 + run), axis=1) % 2 == 1


def _random_star_polygon(rng, n=11):
    """A reflex polygon: random radii about the origin at sorted random angles."""
    while True:
        ang = np.sort(rng.random(n)) * 2 * math.pi
        rad = 0.2 + rng.random(n)
        try:
            return Polygon(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1))
        except InvalidBody:
            continue


def _probe_points(rng, poly) -> tuple[np.ndarray, np.ndarray]:
    """Random points about the polygon, far points, and points 10^-k diameters
    off random edge points on either side (k = 4..12), with the sides: +1
    inside, -1 outside, 0 unknown."""
    d = poly.diameter()
    c = poly.vertices.mean(axis=0)
    near, far = c + 1.5 * d * (rng.random((400, 2)) - 0.5), []
    for k in range(4, 13):
        for ang in rng.random(8) * 2 * math.pi:
            far.append(c + 10.0 ** k * d * np.array([math.cos(ang), math.sin(ang)]))
    sides, edge_pts = [], []
    for k in range(4, 13):
        i = rng.integers(poly.n, size=12)
        a, b = poly.vertices[i], poly.vertices[(i + 1) % poly.n]
        on = a + (0.05 + 0.9 * rng.random(12))[:, None] * (b - a)
        inward = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1)
        inward /= np.hypot(inward[:, 0], inward[:, 1])[:, None]
        for side in (1.0, -1.0):
            edge_pts.append(on + side * 10.0 ** -k * d * inward)
            sides += [side] * 12
    pts = np.vstack([near, np.array(far)] + edge_pts)
    return pts, np.concatenate([np.zeros(len(near) + len(far)), sides])


@pytest.mark.parametrize("make", [random_convex_polygon, _random_star_polygon],
                         ids=["convex", "reflex"])
def test_frame_distance_and_membership_match_segment_oracles(make):
    rng = np.random.default_rng(14)
    for _ in range(6):
        poly = make(rng)
        pts, sides = _probe_points(rng, poly)
        d = poly.diameter()
        dist = poly.boundary_distance_many(pts)
        inside = poly.contains_many(pts)
        want = _segment_distances(pts, poly)
        assert np.all(np.abs(dist - want) <= 1e-15 * np.maximum(want, d))
        assert np.array_equal(inside, _crossing_number(pts, poly))
        # and both agree with the side each edge point was put on
        known = sides != 0
        assert np.array_equal(inside[known], sides[known] > 0)
        for p, dp, ip in zip(pts[::7], dist[::7], inside[::7]):
            where = poly.locate(p)
            assert where.distance == dp
            assert where.location == ("boundary" if dp <= 1e-9 * d
                                      else "interior" if ip else "exterior")
            assert poly.contains(p) == (dp <= 1e-12 * d or ip)


def test_contains_measures_a_point_with_one_edge_frame(monkeypatch):
    poly = make_tri345()
    frames, calls = Polygon._frames, []

    def counted(self, x):
        calls.append(x)
        return frames(self, x)

    monkeypatch.setattr(Polygon, "_frames", counted)
    for p, inside in (((1.0, 0.9), True), ((5.0, 5.0), False), ((2.0, 1e-13), True)):
        calls.clear()
        assert poly.contains(p) is inside and len(calls) == 1


# ---------------------------------------------------------------------------
# one edge frame, with q = |p| at each end, against the frame, distance and
# two-call winding number it replaced
# ---------------------------------------------------------------------------

def _ninegon():
    rng = np.random.default_rng(909)
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, 9))
    radii = rng.uniform(0.6, 1.4, 9)
    return Polygon(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))


FRAME_POLYGONS = {"tri345": make_tri345, "square": make_square,
                  "lshape": lambda: Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]),
                  "ninegon": _ninegon}


def _row_products(poly, x):
    """p, s_a and s_b about x as the per-coordinate products and one sum."""
    v, nxt, n, t = poly.vertices, np.roll(poly.vertices, -1, axis=0), poly._normals, \
        poly._tangents
    return ((v[:, 0] - x[0]) * n[:, 0] + (v[:, 1] - x[1]) * n[:, 1],
            np.stack([(v[:, 0] - x[0]) * t[:, 0] + (v[:, 1] - x[1]) * t[:, 1],
                      (nxt[:, 0] - x[0]) * t[:, 0] + (nxt[:, 1] - x[1]) * t[:, 1]]))


def _two_call_inside(p, s) -> bool:
    """The winding number with one ``arctan2`` call per end of the edges."""
    turn = np.arctan2(s[1], np.abs(p))
    turn -= np.arctan2(s[0], np.abs(p))
    turn *= np.sign(p)
    return bool(turn.sum(axis=-1) > math.pi)


def _foot_distance(p, s) -> float:
    return float(np.hypot(p, np.minimum(np.maximum(s[0], 0.0), s[1])).min(axis=-1))


def _frame_probe_points(rng, poly) -> np.ndarray:
    """Random points about the polygon, and points 0.1 to 10 boundary bands
    off random edge points on either side."""
    d = poly.diameter()
    c = poly.vertices.mean(axis=0)
    pts = [c + 1.5 * d * (rng.random((200, 2)) - 0.5)]
    i = rng.integers(poly.n, size=120)
    a, b = poly.vertices[i], poly.vertices[(i + 1) % poly.n]
    on = a + (0.05 + 0.9 * rng.random(120))[:, None] * (b - a)
    inward = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1)
    inward /= np.hypot(inward[:, 0], inward[:, 1])[:, None]
    gap = geometry.BOUNDARY_BAND * d * 10.0 ** rng.uniform(-1, 1, 120)
    pts.append(on + (np.where(rng.random(120) < 0.5, 1.0, -1.0) * gap)[:, None] * inward)
    return np.vstack(pts)


def _assert_q_is_abs_p(frame):
    assert frame.q.shape == frame.s.shape
    for row in frame.q:
        assert row.tobytes() == np.abs(frame.p).tobytes()


@pytest.mark.parametrize("name", FRAME_POLYGONS)
def test_edge_frames_carry_q_at_each_end(name, monkeypatch):
    from radialcenters import potentials
    poly = FRAME_POLYGONS[name]()
    pts = _frame_probe_points(np.random.default_rng(31), poly)[::8]
    for x, at in zip(pts, poly.locate_many(pts)):
        _assert_q_is_abs_p(poly.locate(x).view)
        _assert_q_is_abs_p(at.view)
    # the stacked frame that the jets of a stack share
    stacked, parts = [], potentials._edge_parts
    monkeypatch.setattr(potentials, "_edge_parts",
                        lambda fam, p, frame, order: stacked.append(frame)
                        or parts(fam, p, frame, order))
    inner = [x for x, at in zip(pts, poly.locate_many(pts)) if at.location == "interior"]
    for jet in potentials.potential_jet_many(poly, inner, potentials.Heat(0.3), 1):
        jet.gradient()
    (frame,) = stacked
    assert frame.p.shape == (len(inner), poly.n)
    _assert_q_is_abs_p(frame)


@pytest.mark.parametrize("name", FRAME_POLYGONS)
def test_one_frame_gives_the_bits_of_the_two_call_forms(name):
    poly = FRAME_POLYGONS[name]()
    pts = _frame_probe_points(np.random.default_rng(37), poly)
    band = geometry.BOUNDARY_BAND * poly.diameter()
    many = poly.locate_many(pts)
    inside_many = poly.contains_many(pts)
    near = 0
    for x, at, member in zip(pts, many, inside_many):
        p, s = _row_products(poly, x)
        where = poly.locate(x)
        frame = where.view
        assert frame.p.tobytes() == p.tobytes() and frame.s.tobytes() == s.tobytes()
        inside, dist = _two_call_inside(p, s), _foot_distance(p, s)
        assert bool(geometry._inside(frame)) == inside == bool(member)
        assert repr(where.distance) == repr(dist) == repr(at.distance)
        assert where.location == at.location == ("boundary" if dist <= band else
                                                  "interior" if inside else "exterior")
        near += 0.1 * band <= dist <= 10 * band
    assert near >= 100      # the band's edge is well sampled


# ---------------------------------------------------------------------------
# ratchets on type dispatch: new body behaviour belongs in the body protocol,
# new family behaviour in the family data that ``potential_jet`` reads
# ---------------------------------------------------------------------------

SPEC_TYPES = {"Riesz", "Poisson", "Heat"}

# module: the type checks on potential specs that remain
ALLOWED_SPEC_CHECKS = {"centers": 2, "potentials": 6}

# (module, enclosing function): the type checks on bodies that remain
ALLOWED_TYPE_CHECKS = {
    ("balance", "contact_points"): 1,
    ("cli", "_cmd_classify"): 1,
}


def _type_check_sites() -> tuple[dict, dict]:
    """Counts of isinstance/hasattr calls per (module, innermost enclosing
    function), leaving out the checks on potential specs, and counts of the
    isinstance checks on potential specs per module."""
    sites: dict = {}
    spec_sites: dict = {}

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("isinstance", "hasattr")):
                names = {n.id for n in ast.walk(child.args[1]) if isinstance(n, ast.Name)}
                if child.func.id == "isinstance" and names and names <= SPEC_TYPES:
                    spec_sites[module] = spec_sites.get(module, 0) + 1
                else:
                    sites[module, owner] = sites.get((module, owner), 0) + 1
            visit(child, module, owner)

    for path in _modules():
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites, spec_sites


def _modules() -> list:
    return sorted(pathlib.Path(radialcenters.__file__).parent.glob("*.py"))


def test_body_type_checks_do_not_grow():
    sites = _type_check_sites()[0]
    extra = {k: v for k, v in sites.items() if v > ALLOWED_TYPE_CHECKS.get(k, 0)}
    assert not extra, (f"body type checks outside the allowed sites {ALLOWED_TYPE_CHECKS}: "
                       f"{extra}; add a body method instead")
    assert sum(sites.values()) <= 2


def test_spec_type_checks_do_not_grow():
    spec_sites = _type_check_sites()[1]
    extra = {k: v for k, v in spec_sites.items() if v > ALLOWED_SPEC_CHECKS.get(k, 0)}
    assert not extra, (f"spec type checks beyond {ALLOWED_SPEC_CHECKS}: {extra}; "
                       f"add to the family data in potentials instead")


def test_no_unused_imports():
    # a name counts as used where the module reads it or re-exports it in __all__
    unused = {}
    for path in _modules():
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        if bound - used:
            unused[path.stem] = sorted(bound - used)
    assert not unused, f"imported but never used: {unused}"
