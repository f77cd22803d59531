"""Center location, uniqueness regimes, loci, and limit diagnostics."""

import math

import numpy as np
import pytest

from radialcenters import centers, geometry, quadrature
from radialcenters.balance import generate_asymmetric_balanced
from radialcenters.centers import (ascend, find_center, limit_diagnostics,
                                   multistart_seeds, trace_locus, _normalize)
from radialcenters.geometry import (Disk, Polygon, centroid, circumcenter, contains,
                                    convex_hull, diameter, incenter, transformed,
                                    unfolded_region)
from radialcenters.potentials import Heat, Poisson, Riesz, make_spec, potential_gradient

from conftest import interior_points, make_square, make_tri345, random_convex_polygon


def test_symmetric_bodies_center_at_symmetry_point():
    sq = make_square(center=(2.0, -1.0))
    d = Disk([1.0, 3.0], 1.5)
    par = Polygon([[0, 0], [3, 0], [4, 2], [1, 2]])
    for body, want in ((sq, [2.0, -1.0]), (d, [1.0, 3.0]), (par, [2.0, 1.0])):
        for spec in (Riesz(0.5), Riesz(4.0), Poisson(1.0), Heat(0.8)):
            res = find_center(body, spec)
            assert res.point == pytest.approx(want, abs=1e-8), (body, spec)


def test_quadratic_order_center_is_centroid():
    tri = make_tri345()
    res = find_center(tri, Riesz(4.0))
    assert res.point == pytest.approx(centroid(tri), abs=1e-9 * diameter(tri))
    assert res.regime == "concave_global"
    assert res.uniqueness_guaranteed


def test_regime_labels():
    tri = make_tri345()
    assert find_center(tri, Riesz(0.5)).regime == "concave_interior"
    assert find_center(tri, Riesz(3.0)).regime == "concave_global"
    assert find_center(tri, Poisson(1.0)).regime == "concave_global"
    assert find_center(tri, Heat(1.0)).regime == "concave_global"
    mid = find_center(tri, Riesz(2.0))
    assert mid.regime == "multistart"
    assert not mid.uniqueness_guaranteed


def test_interior_restriction_for_nonpositive_orders():
    tri = make_tri345()
    for alpha in (-1.0, 0.0):
        res = find_center(tri, Riesz(alpha))
        assert contains(tri, res.point)
        from radialcenters.geometry import boundary_distance
        assert boundary_distance(tri, res.point) > 1e-7 * diameter(tri)


def test_large_order_approaches_circumcenter():
    tri = make_tri345()
    cc = circumcenter(tri).center
    d = diameter(tri)
    r200 = find_center(tri, Riesz(200.0))
    r10 = find_center(tri, Riesz(10.0))
    d200 = float(np.hypot(*(r200.point - cc)))
    d10 = float(np.hypot(*(r10.point - cc)))
    assert d200 < 0.05 * d
    assert d200 < d10


def test_poisson_large_height_near_centroid():
    tri = make_tri345()
    d = diameter(tri)
    res = find_center(tri, Poisson(100 * d))
    assert float(np.hypot(*(res.point - centroid(tri)))) < 1e-3 * d


def test_heat_large_time_near_centroid():
    tri = make_tri345()
    d = diameter(tri)
    res = find_center(tri, Heat(1e6))
    assert float(np.hypot(*(res.point - centroid(tri)))) < 1e-3 * d


def test_multistart_uniqueness_in_guaranteed_regimes(rng):
    tri = make_tri345()
    d = diameter(tri)
    specs = [Riesz(0.5), Riesz(3.0), Poisson(0.3 * d), Heat(0.05 * d * d)]
    for spec in specs:
        norm = _normalize(tri, spec)
        seeds = multistart_seeds(norm.body)
        assert len(seeds) >= 12
        endpoints = []
        for s in seeds:
            y, _, _, _ = ascend(norm.body, norm.spec, s)
            endpoints.append(norm.to_original(y))
        ref = endpoints[0]
        for p in endpoints[1:]:
            assert float(np.hypot(*(p - ref))) < 1e-7 * d, spec


def test_equivariance_of_centers(rng):
    # a similarity moves the center with the body once each parameter is
    # scaled as the length power it carries: h as s, t as s^2
    poly = random_convex_polygon(rng)
    d = diameter(poly)
    angle, shift = 0.9, np.array([2.0, -3.0])
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    for s in (0.1, 7.0):
        moved = transformed(poly, angle=angle, shift=shift, scale=s)
        for spec, moved_spec in ((Riesz(3.0), Riesz(3.0)),
                                 (Poisson(0.5 * d), Poisson(0.5 * d * s)),
                                 (Heat(0.1 * d * d), Heat(0.1 * d * d * s * s))):
            p1 = find_center(poly, spec).point
            p2 = find_center(moved, moved_spec).point
            assert float(np.hypot(*(p2 - (s * R @ p1 + shift)))) < 1e-10 * s * d


def test_centers_inside_heart_and_hull(rng):
    tri = make_tri345()
    reg = unfolded_region(tri, 64)
    tol = math.pi * diameter(tri) / 64
    hull = convex_hull(tri.vertices)
    hull_poly = Polygon(hull)
    for spec in (Riesz(2.5), Riesz(5.0), Poisson(1.0), Heat(0.5)):
        res = find_center(tri, spec)
        assert reg.contains(res.point, tol=tol), spec
        assert contains(hull_poly, res.point)
        from radialcenters.geometry import boundary_distance
        assert boundary_distance(hull_poly, res.point) > 1e-9


def test_multistart_on_nonconvex_body():
    # symmetric L-shape: the maximum must sit on the diagonal, inside the body
    lshape = Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])
    for spec in (Riesz(2.0), Riesz(0.5), Heat(0.1)):
        res = find_center(lshape, spec)
        assert res.regime == "multistart"
        assert not res.uniqueness_guaranteed
        assert contains(lshape, res.point)
        assert res.point[0] == pytest.approx(res.point[1], abs=1e-7)


def test_trace_locus_symmetric_body_constant():
    sq = make_square()
    tr = trace_locus(sq, "riesz", (3.0, 50.0), 8)
    assert np.abs(tr.points).max() < 1e-8
    assert len(tr.params) >= 8
    assert np.all(np.diff(tr.params) > 0)


def test_trace_locus_riesz_toward_circumcenter():
    tri = make_tri345()
    d = diameter(tri)
    tr = trace_locus(tri, "riesz", (4.0, 200.0), 12)
    cc = circumcenter(tri).center
    assert float(np.hypot(*(tr.points[0] - centroid(tri)))) < 0.15 * d
    assert float(np.hypot(*(tr.points[-1] - cc))) < 0.05 * d
    gaps = np.hypot(*np.diff(tr.points, axis=0).T)
    assert gaps.max() < 0.05 * d


def test_trace_locus_heat_endpoints():
    tri = make_tri345()
    d = diameter(tri)
    tr = trace_locus(tri, "heat", (1e-3, 1e3), 10)
    ic = incenter(tri).center
    g = centroid(tri)
    assert float(np.hypot(*(tr.points[0] - ic))) < 0.1 * d
    assert float(np.hypot(*(tr.points[-1] - g))) < 1e-3 * d


def test_trace_locus_validation():
    with pytest.raises(ValueError):
        trace_locus(make_square(), "riesz", (5.0, 2.0), 4)
    with pytest.raises(ValueError):
        trace_locus(make_square(), "heat", (-1.0, 2.0), 4)
    with pytest.raises(ValueError):
        trace_locus(make_square(), "nope", (1.0, 2.0), 4)


def test_limit_diagnostics_triangle():
    tri = make_tri345()
    diag = limit_diagnostics(tri)
    assert diag.monotone_riesz
    assert diag.monotone_poisson
    assert diag.monotone_heat
    # the far ends approach their limits
    assert diag.riesz[-1][2] < 0.05 * diag.diam
    assert diag.poisson[-1][2] < 1e-3 * diag.diam
    assert diag.heat[-1][2] < 1e-3 * diag.diam           # large time vs centroid
    assert diag.heat[0][3] < 0.1 * diag.diam             # small time vs incenter


def test_limit_diagnostics_disk_all_zero():
    d = Disk([1.0, -2.0], 1.0)
    diag = limit_diagnostics(d)
    for rows in (diag.riesz, diag.poisson):
        for row in rows:
            assert row[2] < 1e-7
    for row in diag.heat:
        assert row[2] < 1e-7


def test_limit_diagnostics_rectangle_center():
    rect = Polygon([[0, 0], [4, 0], [4, 1], [0, 1]])
    diag = limit_diagnostics(rect)
    for rows in (diag.riesz, diag.poisson):
        for _, p, _ in rows:
            assert p == pytest.approx([2.0, 0.5], abs=1e-6)
    for _, p, _, _ in diag.heat:
        assert p == pytest.approx([2.0, 0.5], abs=1e-6)


# ---------------------------------------------------------------------------
# cost of a search: Newton steps take the exact Hessian, and polygon and disk
# values, gradients and Hessians are in closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make,spec", [
    (make_tri345, Heat(1.25)), (make_tri345, Riesz(0.5)), (make_tri345, Poisson(0.5)),
    (lambda: Disk([1.0, 3.0], 1.5), Heat(1.25)), (lambda: Disk([1.0, 3.0], 1.5), Riesz(0.5)),
    (lambda: Disk([1.0, 3.0], 1.5), Poisson(0.5)),
], ids=["heat", "riesz", "poisson", "disk-heat", "disk-riesz", "disk-poisson"])
def test_center_integrand_calls(monkeypatch, make, spec):
    calls = 0
    panel = quadrature._gk15_panel

    def counted(*args):
        nonlocal calls
        calls += 1
        return panel(*args)

    monkeypatch.setattr(quadrature, "_gk15_panel", counted)
    find_center(make(), spec)
    assert calls == 0


def test_ascent_classifies_at_most_two_points_per_iteration(monkeypatch):
    # one jet per evaluated point: the start, and the trial points of each
    # line search, of which the first is usually accepted; and one boundary
    # measurement per jet, feasibility included (Riesz 0.5 keeps iterates in)
    counts = {"jets": 0, "measurements": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    jets_at = centers.potential_jet_many

    def counted_jets(body, points, *args):
        counts["jets"] += len(np.reshape(points, (-1, 2)))
        return jets_at(body, points, *args)

    monkeypatch.setattr(centers, "potential_jet_many", counted_jets)
    for name in ("locate", "boundary_distance", "boundary_distance_many", "contains",
                 "contains_many"):
        monkeypatch.setattr(Polygon, name, counted("measurements", getattr(Polygon, name)))
    tri = make_tri345()
    iterations = ascend(tri, Riesz(0.5), centroid(tri))[3]
    assert iterations >= 1
    assert counts["measurements"] == counts["jets"] <= 2 * iterations + 2


def test_multistart_prefers_the_most_stationary_of_tied_maxima():
    # the twelve ascents reach the same maximum, with values equal to the
    # last bits; the reported point is the one with the smallest gradient
    res = find_center(make_tri345(), Riesz(1.5))
    assert res.regime == "multistart"
    assert res.grad_norm < 1e-10


# ---------------------------------------------------------------------------
# the normal frame: each body's normalized copy is built once and kept
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [make_tri345, lambda: Disk([1.0, -2.0], 1.5)],
                         ids=["tri345", "disk"])
def test_normalized_body_is_built_once_per_body(monkeypatch, make):
    built = 0
    transform = geometry.transformed

    def counted(*args, **kwargs):
        nonlocal built
        built += 1
        return transform(*args, **kwargs)

    monkeypatch.setattr(geometry, "transformed", counted)
    body = make()
    for spec in (Riesz(4.0), Poisson(1.0), Heat(0.5)):
        find_center(body, spec)
    trace_locus(body, "riesz", (3.0, 6.0), 3)
    limit_diagnostics(body, riesz_alphas=(10.0, 20.0), poisson_h_rel=(1.0, 2.0),
                      heat_ts=(0.5, 1.0))
    assert built == 1


def test_normalized_body_keeps_read_only_arrays():
    for body, points in ((make_tri345(), "vertices"), (Disk([1.0, -2.0], 1.5), "center")):
        nbody, shift, scale = body.normalized()
        assert body.normalized()[0] is nbody
        assert shift == pytest.approx(centroid(body)) and scale == 2.0 / diameter(body)
        for arr in (shift, getattr(nbody, points)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
    asym = generate_asymmetric_balanced()
    nbody, shift, scale = asym.normalized()
    assert nbody is asym and scale == 1.0 and not shift.any() and not shift.flags.writeable


def _same_center(a, b):
    return (np.array_equal(a.point, b.point) and a.value == b.value
            and a.grad_norm == b.grad_norm and a.iterations == b.iterations)


def test_center_results_do_not_share_the_kept_frame():
    body = make_tri345()
    first = find_center(body, Riesz(4.0))
    want = first.point.copy()
    first.point[:] = 99.0
    assert np.array_equal(find_center(body, Riesz(4.0)).point, want)
    trace = trace_locus(body, "heat", (0.5, 1.0), 2)
    trace.points[:] = -99.0
    assert np.array_equal(trace_locus(body, "heat", (0.5, 1.0), 2).points,
                          trace_locus(make_tri345(), "heat", (0.5, 1.0), 2).points)


@pytest.mark.parametrize("spec", [Riesz(0.5), Riesz(1.5), Poisson(1.0), Heat(0.2)],
                         ids=lambda s: repr(s))
def test_a_searched_body_answers_as_a_fresh_one(spec):
    lshape = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
    for make in (make_tri345, lambda: Polygon(lshape), lambda: Disk([1.0, -2.0], 1.5)):
        body = make()
        for other in (Riesz(4.0), Heat(1.0), spec):
            find_center(body, other)
        assert _same_center(find_center(body, spec), find_center(make(), spec))


# ---------------------------------------------------------------------------
# gradient norms in the body's frame
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [Riesz(-1.0), Riesz(0.5), Riesz(1.5), Riesz(4.0), Riesz(10.0),
                                  Poisson(0.7), Heat(0.4)], ids=repr)
def test_gradient_norm_scaling_law(spec):
    """On the normal frame (the body scaled by s, the spec rescaled to it) a
    gradient is s^(1 - degree) times smaller: s^(1 - alpha) for Riesz, s for
    Poisson and heat."""
    rng = np.random.default_rng(31)
    for body in (make_tri345(), Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]),
                 Disk([0.3, -0.2], 1.5)):
        norm = _normalize(body, spec)
        assert norm.scale != 1.0
        for x in interior_points(rng, body, 4):
            got = float(np.hypot(*potential_gradient(norm.body, norm.to_normalized(x),
                                                     norm.spec)))
            want = float(np.hypot(*potential_gradient(body, x, spec)))
            assert norm.to_original_gradient_norm(got) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("family,prange", [("heat", (0.05, 1.25)), ("riesz", (3.0, 10.0))])
def test_locus_gradient_norms_are_the_bodys(family, prange):
    """Every row reports the gradient norm of the body's own frame; the rows
    after the first once read the normal frame's, 2.5 times too high for heat
    on tri345 (s = 0.4)."""
    tri = make_tri345()
    tr = trace_locus(tri, family, prange, 3)
    for param, x, gnorm in zip(tr.params, tr.points, tr.grad_norms):
        spec = make_spec(family, param)
        body = float(np.hypot(*potential_gradient(tri, x, spec, centers._family_cfg(spec))))
        if body > 1e-13:        # above the gradients' rounding
            assert gnorm == pytest.approx(body, rel=1e-3), (param, gnorm, body)
