"""Balance law: residuals, contact points, classification, the asymmetric body."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad

from radialcenters.balance import (BALANCED_TOL, PolygonClass, RadialArcBody,
                                   WeightedBodyFunction, balance_report,
                                   classify_polygon, contact_points,
                                   equilateral_defect, equivalence_check,
                                   generate_asymmetric_balanced,
                                   parallelogram_defect, scalar_residual,
                                   stationary_candidate, symmetry_search,
                                   vector_residual, vector_residual_of_arcs)
from radialcenters.centers import CENTER_CFG, ascend, limit_diagnostics
from radialcenters.errors import (ConstructionFailed, ContinuumContact, InvalidBody,
                                  NotInterior)
from radialcenters import balance
from radialcenters.geometry import (ArcSet, CircleArc, Disk, Polygon, balance_residuals,
                                    centroid, circle_clip, circumcenter, contains,
                                    diameter, incenter, transformed)
from radialcenters.potentials import Heat, Poisson, Riesz, _family, _riesz_profile, \
    poisson_gradient, potential, potential_gradient, potential_hessian, riesz_gradient
from radialcenters.quadrature import (DEFAULT_CONFIG, adaptive_gk, integrate_angular,
                                      integrate_angular_vector)

from conftest import (make_equilateral, make_square, make_tri345,
                      make_unit_disk, random_convex_polygon, random_convex_quadrangle,
                      random_parallelogram, random_triangle, spec_id)
from oracles import arcs_between, circle_clip_offcenter, riesz_gradient_boundary


def _residual_oracle(body, x, r, n=10 ** 6):
    """Membership scan plus bisection-refined arc endpoints, integrated exactly."""
    x = np.asarray(x, dtype=float)
    t = np.linspace(0, 2 * math.pi, n, endpoint=False)
    pts = x + r * np.stack([np.cos(t), np.sin(t)], axis=1)
    inside = body.contains_many(pts)
    if inside.all() or not inside.any():
        return np.zeros(2)
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
    total = np.zeros(2)
    for k, (tk, was_in) in enumerate(ends):
        tn = ends[(k + 1) % len(ends)][0]
        if tn <= tk:
            tn += 2 * math.pi
        if not was_in:
            total += r * np.array([math.sin(tn) - math.sin(tk),
                                   math.cos(tk) - math.cos(tn)])
    return total


# ---------------------------------------------------------------------------
# residual vectors
# ---------------------------------------------------------------------------

def test_vector_residual_symmetric_zeroes():
    assert np.hypot(*vector_residual(make_unit_disk(), [0, 0], 0.7)) < 1e-14
    assert np.hypot(*vector_residual(make_unit_disk(), [0, 0], 3.0)) < 1e-14
    assert np.hypot(*vector_residual(make_square(), [0, 0], 1.2)) < 1e-14


def test_vector_residual_vs_sampling_oracle():
    sq = make_square()
    x = np.array([0.3, 0.0])
    got = vector_residual(sq, x, 1.0)
    oracle = _residual_oracle(sq, x, 1.0)
    assert np.abs(got - oracle).max() < 1e-9
    assert np.hypot(*got) > 0.1


def test_vector_residual_random_points(rng):
    sq = make_square()
    for _ in range(4):
        x = rng.uniform(-0.7, 0.7, 2)
        r = rng.uniform(0.4, 1.8)
        got = vector_residual(sq, x, r)
        oracle = _residual_oracle(sq, x, r, n=200000)
        assert np.abs(got - oracle).max() < 1e-9


# ---------------------------------------------------------------------------
# balance reports
# ---------------------------------------------------------------------------

def test_balance_report_balanced_bodies():
    assert balance_report(make_equilateral(), [0, 0]).balanced
    par = Polygon([[0, 0], [3, 0], [4, 2], [1, 2]])
    assert balance_report(par, centroid(par)).balanced
    assert balance_report(make_square(), [0, 0]).balanced
    assert balance_report(make_unit_disk(), [0, 0]).balanced


def test_balance_report_unbalanced_triangle():
    tri = make_tri345()
    rep = balance_report(tri, centroid(tri))
    assert not rep.balanced
    assert rep.sup_residual > 1e-2


def test_balance_report_grid_structure():
    sq = make_square()
    rep = balance_report(sq, [0.2, 0.1])
    assert np.all(np.diff(rep.radii) > 0)
    assert rep.radii[0] > 0
    reach = max(float(np.hypot(*(v - rep.candidate))) for v in sq.vertices)
    assert rep.radii[-1] == pytest.approx(reach, rel=1e-12)
    assert len(rep.residual_vectors) == len(rep.radii)


def test_balanced_point_is_centroid(rng):
    # balanced implies the candidate coincides with the centroid
    for poly in (make_equilateral((0, 0), 1.3, 0.4), random_parallelogram(rng)):
        g = centroid(poly)
        rep = balance_report(poly, g)
        assert rep.balanced
        offset = g + np.array([0.05, -0.03]) * diameter(poly)
        assert not balance_report(poly, offset).balanced


def _quadratic_clip(poly, x, r):
    """The arcs of the circle inside a polygon from the roots of each edge's
    quadratic |a + t e - x|^2 = r^2, deduplicated, with the arcs between
    consecutive roots kept where their midpoints lie inside: a clip that
    shares no code with the polygon's ``crossings``."""
    angles = []
    for a, b in poly.edges():
        e = b - a
        aa = float(np.dot(e, e))
        bb = 2.0 * float(np.dot(a - x, e))
        cc = float(np.dot(a - x, a - x)) - r * r
        disc = bb * bb - 4 * aa * cc
        if disc < 0:
            continue
        sq = math.sqrt(max(disc, 0.0))
        for t in ((-bb - sq) / (2 * aa), (-bb + sq) / (2 * aa)):
            if -1e-12 <= t <= 1 + 1e-12:
                y = a + t * e
                angles.append(math.atan2(y[1] - x[1], y[0] - x[0]) % (2 * math.pi))
    angles.sort()
    dedup = angles[:1]
    for t in angles[1:]:
        if t - dedup[-1] > 1e-12:
            dedup.append(t)
    if len(dedup) > 1 and (dedup[0] + 2 * math.pi) - dedup[-1] <= 1e-12:
        dedup.pop()
    return arcs_between(x, r, dedup, poly.contains)


def _reference_moment(body, x, r):
    """The balance residual on one circle, independently of ``crossings``:
    the moment of the quadratic clip of a polygon, and 2 r sin(beta)
    (cos phi, sin phi) for a disk, whose arc is phi +- beta."""
    if isinstance(body, Polygon):
        return vector_residual_of_arcs(_quadratic_clip(body, x, r))
    c = body.center - x
    d = float(np.hypot(*c))
    if not abs(d - body.radius) < r < d + body.radius:
        return np.zeros(2)
    cosb = (d * d + r * r - body.radius ** 2) / (2 * d * r)
    return 2 * r * math.sqrt(1 - cosb * cosb) * c / d


def _spectrum_vs_clip_oracle(body, x):
    """Largest gap between the report's spectrum and the reference arc
    moments at radii more than 2e-9 r_far from every breakpoint, relative to
    the diameter, and the two balance verdicts."""
    rep = balance_report(body, x)
    oracle = np.array([_reference_moment(body, x, r) for r in rep.radii])
    breaks = np.array(body.radius_breakpoints(x))
    clear = np.abs(rep.radii[:, None] - breaks[None, :]).min(axis=1) > 2e-9 * body.reach(x)
    gap = float(np.abs(rep.residual_vectors - oracle)[clear].max()) / body.diameter()
    sup = float(np.max(np.hypot(*oracle.T) / (2 * math.pi * rep.radii)))
    return gap, rep.balanced, bool(sup < BALANCED_TOL)


def test_polygon_spectrum_matches_clip_oracle(rng):
    lshape = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    cases = [(p, p.centroid() + 0.2 * p.diameter() * (rng.random(2) - 0.5))
             for p in (random_convex_polygon(rng, n_points=9) for _ in range(10))]
    cases += [(lshape, np.array(x)) for x in
              [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5), (3.0, -1.0), (-0.5, 2.5)]]
    cases += [(Disk([0.3, -0.2], 1.5), np.array(x)) for x in [(1.0, 0.4), (2.5, 1.0)]]
    for body, x in cases:
        gap, new, old = _spectrum_vs_clip_oracle(body, x)
        assert gap <= 1e-13 and new == old


def test_classification_spectra_match_clip_oracle(rng):
    corpus = [random_triangle(rng) for _ in range(4)] \
        + [random_convex_quadrangle(rng) for _ in range(4)] \
        + [make_equilateral((rng.random(2) - 0.5) * 6, 0.5 + 2 * rng.random(), 6 * rng.random())
           for _ in range(4)] \
        + [random_parallelogram(rng) for _ in range(4)]
    for poly in corpus:
        gap, new, old = _spectrum_vs_clip_oracle(poly, poly.centroid())
        assert gap <= 1e-13 and new == old
    assert [classify_polygon(p) != PolygonClass.NOT_BALANCED for p in corpus] \
        == [False] * 8 + [True] * 8


@pytest.mark.parametrize("poly", [make_equilateral((0.4, -1.1), 1.7, 0.3),
                                  Polygon([[0, 0], [3, 0], [4, 2], [1, 2]])],
                         ids=["equilateral", "parallelogram"])
def test_spectrum_vanishes_at_edge_foot_radii(poly):
    # a circle tangent to an edge from inside has no outside arc; rounding
    # must not make one of sqrt(eps) width
    g = poly.centroid()
    feet = np.array(poly.radius_breakpoints(g)[poly.n:])
    res = balance_residuals(poly, g, feet)
    assert np.all(np.hypot(*res.T) <= 1e-12 * feet)


def test_spectrum_exterior_tangency_is_empty():
    # the circle touches the bottom edge from outside and meets the body nowhere else
    lshape = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    x = np.array([1.5099193486761044, -2.1692521054088565])
    r = 2.1692521054088565
    assert np.hypot(*vector_residual(lshape, x, r)) <= 1e-15 * r


def test_polygon_spectra_make_no_circle_clips(monkeypatch):
    def refuse(body, x, r):
        raise AssertionError("circle_clip called")

    monkeypatch.setattr(balance, "circle_clip", refuse)
    tri = make_tri345()
    assert not balance_report(tri, centroid(tri)).balanced
    assert classify_polygon(make_equilateral()) == PolygonClass.BALANCED_EQUILATERAL
    assert classify_polygon(tri) == PolygonClass.NOT_BALANCED


LSHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]


@pytest.mark.parametrize("make, cases", [
    # an outer tangency, where a clip of its own found an arc of 7.2e-7
    (make_tri345, [((0.8048426566754261, 2.4225585797777662), 0.02095245782748964)]),
    (make_square, []),
    # a real gap at the reflex vertex, which a membership probe filled (2.3e-7)
    (lambda: Polygon(LSHAPE), [((1.0, 0.2), 0.8000000000008001)]),
    (make_equilateral, []),
    (lambda: Disk([0.3, -0.2], 1.5), []),
    (generate_asymmetric_balanced, []),
], ids=["tri345", "square", "lshape", "equilateral", "disk", "asym"])
def test_clip_and_residuals_share_one_crossing_rule(make, cases):
    # at every breakpoint radius and 1e-12 to either side, where tangencies
    # and vertices on the circle are decided
    body = make()
    rng = np.random.default_rng(22)
    pts = body.centroid() + 1.5 * body.diameter() * (rng.random((30, 2)) - 0.5)
    cases = cases + [(x, b * f) for x in pts for b in body.radius_breakpoints(x)
                     for f in (1 - 1e-12, 1.0, 1 + 1e-12)]
    for x, r in cases:
        clip = vector_residual_of_arcs(circle_clip(body, x, r))
        gap = float(np.hypot(*(clip - balance_residuals(body, x, [r])[0])))
        assert gap <= 1e-12 * 2 * math.pi * r, (x, r)


# ---------------------------------------------------------------------------
# scalar residuals and stationary candidates
# ---------------------------------------------------------------------------

def test_scalar_residual_concentric_disks():
    f = WeightedBodyFunction([(1.0, Disk([0, 0], 2.0)), (-1.0, Disk([0, 0], 1.0))])
    # both clips are full circles below the inner radius and cancel exactly
    assert scalar_residual(f, [0, 0], 0.5) == pytest.approx(0.0, abs=1e-12)
    # between the radii only the outer body contributes
    assert scalar_residual(f, [0, 0], 1.5) == pytest.approx(2 * math.pi * 1.5, abs=1e-12)


def test_scalar_residual_full_circle():
    f = WeightedBodyFunction([(1.0, make_square())])
    assert scalar_residual(f, [0, 0], 0.5) == pytest.approx(math.pi, abs=1e-12)


def test_scalar_residual_disjoint_squares_vs_oracle():
    a = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    b = Polygon([[2, 0], [3, 0], [3, 1], [2, 1]])
    f = WeightedBodyFunction([(1.0, a), (-1.0, b)])
    x = np.array([1.5, 0.5])
    r = 0.8
    got = scalar_residual(f, x, r)
    t = np.linspace(0, 2 * math.pi, 10 ** 6, endpoint=False)
    pts = x + r * np.stack([np.cos(t), np.sin(t)], axis=1)
    oracle = r * 2 * math.pi * (
        a.contains_many(pts).mean() - b.contains_many(pts).mean())
    assert got == pytest.approx(oracle, abs=1e-4)


def test_stationary_candidate_variants():
    sq = make_square(center=(2.0, 1.0))
    res = stationary_candidate(WeightedBodyFunction([(1.0, sq)]))
    assert res.kind == "candidate"
    assert res.point == pytest.approx([2.0, 1.0], abs=1e-12)

    a = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    b = Polygon([[2, 2], [3, 2], [3, 3], [2, 3]])
    res = stationary_candidate(WeightedBodyFunction([(1.0, a), (-1.0, b)]))
    assert res.kind == "none_exists"

    res = stationary_candidate(WeightedBodyFunction([(1.0, a), (-1.0, a)]))
    assert res.kind == "indeterminate"


# ---------------------------------------------------------------------------
# decomposition identities
# ---------------------------------------------------------------------------

def test_equivalence_identities(rng):
    tri = make_tri345()
    cases = [(make_square(), np.zeros(2)),
             (tri, centroid(tri)),
             (make_unit_disk(), np.array([0.3, -0.1]))]
    for body, x in cases:
        rep = equivalence_check(body, x)
        assert rep.passed
        assert rep.complement_violation < 1e-10
        assert rep.split_violation == 0.0


# ---------------------------------------------------------------------------
# contact points
# ---------------------------------------------------------------------------

def test_contact_points_square():
    cs = contact_points(make_square(), [0, 0])
    assert len(cs.points) == 4
    assert cs.r_star == pytest.approx(1.0, abs=1e-14)
    assert np.hypot(*cs.sum) < 1e-12


def test_contact_points_equilateral_angles():
    cs = contact_points(make_equilateral(), [0, 0])
    assert len(cs.points) == 3
    angles = sorted(math.atan2(p[1], p[0]) % (2 * math.pi) for p in cs.points)
    diffs = np.diff(angles + [angles[0] + 2 * math.pi])
    assert diffs == pytest.approx([2 * math.pi / 3] * 3, abs=1e-9)
    assert np.hypot(*cs.sum) < 1e-12


def test_contact_points_rectangle_two_points():
    rect = Polygon([[-2, -1], [2, -1], [2, 1], [-2, 1]])
    cs = contact_points(rect, [0, 0])
    assert len(cs.points) == 2
    assert np.hypot(*cs.sum) < 1e-12


def test_contact_points_errors():
    with pytest.raises(NotInterior):
        contact_points(make_square(), [5, 0])
    with pytest.raises(ContinuumContact):
        contact_points(make_unit_disk(), [0, 0])
    lshape = Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])
    with pytest.raises(ValueError):
        contact_points(lshape, [0.5, 0.5])


def test_contact_sum_law_random_parallelograms(rng):
    for _ in range(10):
        par = random_parallelogram(rng)
        g = centroid(par)
        cs = contact_points(par, g)
        assert float(np.hypot(*cs.sum)) < 1e-8 * diameter(par)
        assert len(cs.points) >= 2


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_equilateral():
    assert classify_polygon(make_equilateral()) is PolygonClass.BALANCED_EQUILATERAL


def test_classify_parallelogram():
    par = Polygon([[0, 0], [3, 0], [4, 2], [1, 2]])
    assert classify_polygon(par) is PolygonClass.BALANCED_PARALLELOGRAM


def test_classify_scalene():
    assert classify_polygon(make_tri345()) is PolygonClass.NOT_BALANCED


def test_classify_invariant_under_rigid_motion_and_scaling(rng):
    eq = make_equilateral()
    par = random_parallelogram(rng)
    tri = make_tri345()
    for body, want in ((eq, PolygonClass.BALANCED_EQUILATERAL),
                       (par, PolygonClass.BALANCED_PARALLELOGRAM),
                       (tri, PolygonClass.NOT_BALANCED)):
        moved = transformed(body, angle=0.83, shift=(5.0, -2.5), scale=3.7)
        assert classify_polygon(moved) is want


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_polygon(Polygon([[0, 0], [1, 0], [1.2, 1], [0.5, 1.4], [-0.2, 1]]))


def test_shape_defect_helpers():
    assert equilateral_defect(make_equilateral()) < 1e-12
    assert equilateral_defect(make_tri345()) > 0.1
    par = Polygon([[0, 0], [3, 0], [4, 2], [1, 2]])
    assert parallelogram_defect(par) < 1e-12
    quad = Polygon([[0, 0], [3, 0], [4, 2], [0.5, 2.5]])
    assert parallelogram_defect(quad) > 0.01


# ---------------------------------------------------------------------------
# stationarity bridge: balanced point <=> vanishing gradients
# ---------------------------------------------------------------------------

def test_balanced_points_are_stationary():
    cases = [(make_square(), np.zeros(2)),
             (make_equilateral(), np.zeros(2))]
    par = Polygon([[0, 0], [3, 0], [4, 2], [1, 2]])
    cases.append((par, centroid(par)))
    for body, x in cases:
        for alpha in (-1.0, 0.0, 0.5, 1.0, 3.0, 5.0, 4.0):
            g = riesz_gradient(body, x, Riesz(alpha))
            scale = max(1.0, abs(potential(body, x, Riesz(alpha)).value))
            assert float(np.hypot(*g)) < 1e-6 * scale, (alpha, x)
        for h in (0.3, 1.0, 3.0):
            g = poisson_gradient(body, x, Poisson(h))
            assert float(np.hypot(*g)) < 1e-6


def test_unbalanced_centroid_has_nonzero_gradient():
    tri = make_tri345()
    g = centroid(tri)
    norms = []
    for alpha in (-1.0, 0.0, 0.5, 1.0, 3.0, 5.0):
        norms.append(float(np.hypot(*riesz_gradient(tri, g, Riesz(alpha)))))
    for h in (0.3, 1.0, 3.0):
        norms.append(float(np.hypot(*poisson_gradient(tri, g, Poisson(h)))))
    assert max(norms) > 1e-3


# ---------------------------------------------------------------------------
# the asymmetric balanced body
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def asym_body():
    return generate_asymmetric_balanced(1.04)


def test_asym_body_balanced(asym_body):
    rep = balance_report(asym_body, [0, 0])
    assert rep.balanced
    assert rep.sup_residual < 1e-6


def test_asym_body_full_circles_below_unit_radius(asym_body):
    for r in (0.3, 0.8, 0.999):
        assert circle_clip(asym_body, np.zeros(2), r).is_full()


def test_asym_body_convex(asym_body):
    assert asym_body.is_convex()
    assert asym_body.convexity_defect() > 0


def test_asym_body_no_symmetry(asym_body):
    assert symmetry_search(asym_body) == []


def test_asym_body_slice_moments(asym_body):
    rng = np.random.default_rng(7)
    for r in rng.uniform(1.0 + 1e-6, asym_body.r_max - 1e-9, 100):
        moment = np.sin(asym_body.half_widths(float(r))) @ asym_body.directions
        assert float(np.hypot(*moment)) < 1e-10


def test_asym_body_centroid_origin(asym_body):
    assert np.array_equal(asym_body.centroid(), np.zeros(2))

    # oracle: the first moment, integrated in polar coordinates over the outline
    def moment_density(t):
        rb = asym_body.boundary_radius(t) ** 3 / 3.0
        return np.stack([np.cos(t) * rb, np.sin(t) * rb], axis=1)

    moment, _ = adaptive_gk(moment_density, asym_body.angular_breakpoints(np.zeros(2)))
    assert float(np.hypot(*moment)) / asym_body.area() < 1e-9


def test_asym_body_stationary_for_potentials(asym_body):
    for alpha in (0.5, 3.0, 4.0):
        g = riesz_gradient(asym_body, np.zeros(2), Riesz(alpha))
        scale = max(1.0, abs(potential(asym_body, np.zeros(2), Riesz(alpha)).value))
        assert float(np.hypot(*g)) < 1e-6 * scale
    g = poisson_gradient(asym_body, np.zeros(2), Poisson(1.0))
    assert float(np.hypot(*g)) < 1e-6


def test_asym_body_serialization_round_trip(asym_body):
    data = asym_body.to_dict()
    assert sorted(data) == ["amplitude", "direction_angles", "r_max", "type"]
    back = RadialArcBody.from_dict(json.loads(json.dumps(data)))
    assert back == asym_body
    t = np.linspace(0, 2 * math.pi, 257)
    assert np.array_equal(back.boundary_radius(t), asym_body.boundary_radius(t))


def test_asym_body_lobe_radius_inverts_profile(asym_body):
    r = np.linspace(1.0, asym_body.r_max, 1001)[1:-1]
    widths = asym_body.half_widths(r)
    for k in range(3):
        assert np.abs(asym_body._lobe_radius_many(widths[:, k], k) - r).max() <= 1e-12


@pytest.mark.parametrize("spec", [Riesz(0.5), Riesz(4.0), Riesz(10.0), Poisson(0.5),
                                  Heat(0.2)])
def test_asym_body_offcenter_ascent_reaches_origin(asym_body, spec):
    # the center does not depend on the family or its parameter
    x, _, _, _ = ascend(asym_body, spec, (0.15, -0.1))
    assert float(np.hypot(*x)) < 1e-10


def test_asym_body_high_order_value_is_cheap(asym_body):
    # a smooth lobe profile needs few integrand calls at the strictest tolerance
    calls = 0
    profile = _riesz_profile(5.477)

    def counted(rho):
        nonlocal calls
        calls += 1
        return profile(rho)

    integrate_angular(asym_body, np.zeros(2), counted, CENTER_CFG)
    assert calls <= 1000


def test_asym_body_offcenter_clip_consistency(asym_body):
    x = np.array([0.05, -0.03])
    for r in (0.5, 1.0, 1.02):
        arcs = circle_clip(asym_body, x, r)
        oracle = _residual_oracle(asym_body, x, r, n=100000)
        got = vector_residual(asym_body, x, r)
        assert np.abs(got - oracle).max() < 1e-7


@pytest.mark.parametrize("x", [(0.3, -0.2), (-0.5, 0.4), (0.0, 0.95)])
def test_asym_body_offcenter_ray_exits(asym_body, x):
    x = np.array(x)
    thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    rho = asym_body.radial_function_many(x, thetas)
    u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    exits = x + rho[:, None] * u
    phi = np.arctan2(exits[:, 1], exits[:, 0])
    assert np.abs(np.hypot(exits[:, 0], exits[:, 1])
                  - asym_body.boundary_radius(phi)).max() <= 1e-13
    for r, d in zip(rho, u):
        assert asym_body.contains(x + (1 - 1e-9) * r * d, tol=0)
        assert not asym_body.contains(x + (1 + 1e-9) * r * d, tol=0)


@pytest.mark.parametrize("x", [(0.3, -0.2), (-0.5, 0.4), (0.9, 0.1), (0.05, 0.02)])
def test_asym_body_ray_exits_take_few_rounds(asym_body, x, monkeypatch):
    # the Illinois step needs 11-15 rounds where bisection needed 57-60
    calls = 0
    polar = RadialArcBody._polar

    def counted(self, pts):
        nonlocal calls
        calls += 1
        return polar(self, pts)

    monkeypatch.setattr(RadialArcBody, "_polar", counted)
    asym_body.radial_function_many(np.array(x), np.linspace(0, 2 * math.pi, 200,
                                                            endpoint=False))
    assert calls <= 20


def test_asym_body_circumcenter_is_origin(asym_body):
    cc = circumcenter(asym_body)
    assert np.abs(cc.center).max() <= 1e-12
    assert cc.radius == asym_body.r_max
    t = np.linspace(0, 2 * math.pi, 100001)
    assert asym_body.boundary_radius(t).max() <= cc.radius


def test_asym_body_incenter_is_unit_disk(asym_body):
    ic = incenter(asym_body)
    assert np.abs(ic.center).max() <= 1e-12
    assert ic.radius == 1.0 and not ic.ambiguous


def test_asym_body_riesz_limit_is_circumcenter(asym_body):
    diag = limit_diagnostics(asym_body)
    assert np.abs(diag.circumcenter).max() <= 1e-12
    assert all(dist <= 1e-10 for _, _, dist in diag.riesz)


def test_asym_body_membership_near_boundary(asym_body):
    phi = np.random.default_rng(11).uniform(0, 2 * math.pi, 2000)
    rb = asym_body.boundary_radius(phi)
    u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    for scale, want in ((1 - 1e-9, True), (1 + 1e-9, False)):
        pts = (scale * rb)[:, None] * u
        got = asym_body.contains_many(pts)
        assert np.all(got == want)
        assert [asym_body.contains(p) for p in pts] == got.tolist()


# ---------------------------------------------------------------------------
# the asymmetric body answers on its boundary pieces; the ray exits (angular
# route) and the sampled circle clip are the oracles
# ---------------------------------------------------------------------------

PIECE_SPECS = [Riesz(a) for a in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)] + [Poisson(0.5),
                                                                           Heat(0.1)]


def _piece_route_points(body):
    """The origin, 20 seeded interior points, and three points 1e-6 diameters
    inside the boundary: on the inner normals at the middles of a lobe half,
    an arc and the other half of the next lobe."""
    rng = np.random.default_rng(41)
    phi = rng.uniform(0, 2 * math.pi, 20)
    rad = 0.95 * np.sqrt(rng.uniform(0, 1, 20)) * body.boundary_radius(phi)
    pts = [np.zeros(2)] + list(rad[:, None] * np.stack([np.cos(phi), np.sin(phi)], 1))
    for piece in np.array(body.boundary_pieces(), dtype=object)[[0, 2, 4]]:
        y, n_ds = piece.curve(np.array([0.5 * (piece.t0 + piece.t1)]))
        pts.append(y[0] - 1e-6 * body.diameter() * n_ds[0] / np.hypot(*n_ds[0]))
    return pts


@pytest.mark.parametrize("spec", PIECE_SPECS, ids=spec_id)
def test_asym_piece_route_matches_angular_oracle(asym_body, spec):
    # Near the boundary the oracle's ray exits carry a rounding of one ulp of
    # the body's size, 5e-11 of the distance there, which keeps it from the
    # strict tolerance: it runs at the default 1e-10 there, with a tolerance
    # ten times that.
    fam, p = _family(spec)
    sign, scale = fam.scales(p)
    pts = _piece_route_points(asym_body)
    for x, cfg, tol in ([(x, CENTER_CFG, 1e-11) for x in pts[:-3]]
                        + [(x, DEFAULT_CONFIG, 1e-9) for x in pts[-3:]]):
        value = potential(asym_body, x, spec, CENTER_CFG).value
        want = sign * integrate_angular(asym_body, x, fam.profile(p, "interior"), cfg)
        assert abs(value - want) <= tol * max(abs(want), 1.0), x
        g = potential_gradient(asym_body, x, spec, CENTER_CFG)
        g_want = scale * integrate_angular_vector(asym_body, x,
                                                  fam.gradient_profile(p, "interior"), cfg)
        assert np.abs(g - g_want).max() <= tol * max(np.abs(g_want).max(), abs(want), 1.0), x


@pytest.mark.parametrize("spec", PIECE_SPECS, ids=spec_id)
def test_asym_piece_hessian_matches_gradient_differences(asym_body, spec):
    # fourth-order central differences of the gradient, which the test above
    # holds to the angular oracle, with steps well inside the distance to the
    # boundary
    for x in _piece_route_points(asym_body):
        dist = asym_body.boundary_distance(x)
        h = 0.004 * min(dist, 0.05)
        H = np.empty((2, 2))
        for j in range(2):
            e = h * np.eye(2)[j]
            g = [potential_gradient(asym_body, x + k * e, spec, CENTER_CFG) for k in (2, 1, -1, -2)]
            H[:, j] = (-g[0] + 8 * g[1] - 8 * g[2] + g[3]) / (12 * h)
        got = potential_hessian(asym_body, x, spec, CENTER_CFG)
        assert np.abs(got - H).max() <= 1e-7 * np.abs(H).max(), x


def test_asym_exterior_matches_polar_quadrature(asym_body):
    # outside the body the pieces route sums signed chords; the oracle
    # integrates the kernel and its gradient over the body in polar
    # coordinates about the origin, from which the body is star-shaped
    x = np.array([2.0, 0.5])
    kernels = {Riesz(1.5): (lambda r: r ** -0.5, lambda r: -0.5 * r ** -1.5),
               Poisson(0.5): (lambda r: 0.5 / (2 * math.pi * (r * r + 0.25) ** 1.5),
                              lambda r: -0.75 * r / (math.pi * (r * r + 0.25) ** 2.5)),
               Heat(0.2): (lambda r: math.exp(-r * r / 0.8) / (0.8 * math.pi),
                           lambda r: -r * math.exp(-r * r / 0.8) / (0.32 * math.pi))}
    breaks = asym_body.angular_breakpoints(np.zeros(2))

    def polar(fn):
        def f(r, th):
            d = x - r * np.array([math.cos(th), math.sin(th)])
            return fn(d, math.hypot(*d)) * r

        return sum(dblquad(f, a, b, 0, lambda th: float(asym_body.boundary_radius(th)[0]),
                           epsabs=1e-14, epsrel=1e-12)[0] for a, b in zip(breaks[:-1], breaks[1:]))

    for spec, (k, dk) in kernels.items():
        want = polar(lambda d, r: k(r))
        grad = [polar(lambda d, r, i=i: dk(r) * d[i] / r) for i in range(2)]
        assert potential(asym_body, x, spec).value == pytest.approx(want, rel=1e-11)
        assert np.abs(potential_gradient(asym_body, x, spec) - grad).max() \
            <= 1e-11 * np.abs(grad).max()
    for alpha in (-1.0, 0.5, 2.0, 3.0, 20.0):
        g = potential_gradient(asym_body, x, Riesz(alpha))
        want = riesz_gradient_boundary(asym_body, x, alpha)
        assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()


def _narrow_moment(arcs, width):
    """The moment of the arcs of a set narrower than ``width``."""
    return vector_residual_of_arcs(ArcSet(arcs.center, arcs.radius,
                                          tuple(a for a in arcs.arcs if a[1] - a[0] < width)))


@pytest.mark.parametrize("x", [(0.3, -0.2), (0.12, -0.05), (0.0, 0.95)])
def test_asym_crossings_match_sampled_clip(asym_body, x):
    # The oracle scans 2048 samples of the circle, so it cannot see an arc or
    # a gap narrower than their spacing; near a tangency to a unit-circle arc
    # the grid has such radii (one per point here), where the oracle's answer
    # is the crossings' without the narrow arcs and with the narrow gaps
    # filled.  Its brentq roots there are conditioned by the square root of
    # the distance to the tangency, whence the tolerance.
    x = np.array(x)
    width = 2 * math.pi / 2048
    rep = balance_report(asym_body, x)
    assert not rep.balanced
    for r, res in zip(rep.radii, rep.residual_vectors):
        clip = circle_clip(asym_body, x, r)
        assert np.abs(vector_residual_of_arcs(clip) - res).max() <= 1e-14 * r
        want = vector_residual_of_arcs(circle_clip_offcenter(asym_body, x, r))
        blind = res - _narrow_moment(clip, width) + _narrow_moment(clip.complement(), width)
        assert min(np.abs(res - want).max(), np.abs(blind - want).max()) <= 1e-11 * r, r
        for arcs, inside in ((clip, True), (clip.complement(), False)):
            for t1, t2 in arcs.arcs:
                if t2 - t1 < width:     # a narrow arc or gap is where it is said to be
                    mid = x + r * np.array([math.cos(0.5 * (t1 + t2)), math.sin(0.5 * (t1 + t2))])
                    assert asym_body.contains(mid, tol=0) == inside


def _mp_lobe_feet(body, x, piece):
    """The least distance from x to a lobe half in 30-digit arithmetic: the
    profile R = 1 + (r_max - 1)(1 - asin(sin(delta) / c) / amplitude)^2 from
    its definition, the candidates from a 2000-sample scan of the piece and
    each one refined by mpmath's root finder on the derivative of |y - x|^2."""
    c = mp.mpf(body._c[piece.which])

    def y(t):
        q = 1 - mp.asin(mp.sin(piece.side * (t - piece.apex)) / c) / body.amplitude
        rad = 1 + (body.r_max - 1) * q * q
        return rad * mp.cos(t), rad * mp.sin(t)

    def d2(t):
        yx, yy = y(t)
        return (yx - x[0]) ** 2 + (yy - x[1]) ** 2

    ts = np.linspace(piece.t0, piece.t1, 2000)
    pts, _ = piece.curve(ts)
    samples = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
    best = min(mp.sqrt(d2(mp.mpf(piece.t0))), mp.sqrt(d2(mp.mpf(piece.t1))))
    for k in np.flatnonzero((samples[1:-1] <= samples[:-2]) & (samples[1:-1] <= samples[2:])):
        t = mp.findroot(lambda t: mp.diff(d2, t), mp.mpf(ts[k + 1]))
        if piece.t0 <= t <= piece.t1:
            best = min(best, mp.sqrt(d2(t)))
    return best


def test_asym_boundary_distance_matches_mpmath_feet(asym_body):
    mp.mp.dps = 30
    rng = np.random.default_rng(43)
    pts = rng.uniform(-1.6, 1.6, (50, 2))
    many = asym_body.boundary_distance_many(pts)
    for p, got in zip(pts, many):
        want = min(_mp_lobe_feet(asym_body, p, piece) for piece in asym_body.boundary_pieces()
                   if piece.__class__ is not CircleArc)
        for arc in asym_body.boundary_pieces()[2::3]:
            ends = [mp.sqrt((mp.cos(t) - p[0]) ** 2 + (mp.sin(t) - p[1]) ** 2)
                    for t in (arc.t0, arc.t1)]
            if arc.t0 <= arc.nearest(p) < arc.t1 and arc.nearest(p) != arc.t0:
                ends.append(abs(1 - mp.sqrt(mp.mpf(p[0]) ** 2 + mp.mpf(p[1]) ** 2)))
            want = min([want] + ends)
        assert abs(got - want) <= 1e-15 * max(1.0, float(want)), p
        assert got == asym_body.boundary_distance(p)


def test_asym_distances_about_the_origin_are_exact(asym_body):
    assert abs(asym_body.boundary_distance(np.zeros(2)) - 1.0) <= 1e-14
    assert abs(asym_body.reach(np.zeros(2)) - asym_body.r_max) <= 1e-14


def test_asym_symmetry_search_skips_the_identity(asym_body, monkeypatch):
    # the candidates are confirmed on the radial function, so no Hausdorff
    # distance over boundary samples is measured at all
    def fail(*args):
        raise AssertionError("Hausdorff test on the asymmetric body")

    monkeypatch.setattr(RadialArcBody, "boundary_distance_many", fail)
    assert symmetry_search(asym_body) == []


def test_generator_fails_honestly_beyond_tangent_bound():
    # tall lobes cannot stay convex for admissible widths; all retries fail
    with pytest.raises(ConstructionFailed):
        generate_asymmetric_balanced(1.3)


def test_generator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_asymmetric_balanced(0.9)
    with pytest.raises(ValueError):
        generate_asymmetric_balanced(1.05, a0=1.0)


def test_radial_arc_directions_are_unit_vectors(asym_body):
    d = asym_body.directions
    assert d.shape == (3, 2)
    assert np.hypot(d[:, 0], d[:, 1]) == pytest.approx([1, 1, 1], abs=1e-14)


def test_radial_arc_rejects_symmetric_frame():
    from radialcenters.errors import InvalidBody
    # 223 degrees mirrors 137 degrees across the first direction: two equal gaps
    with pytest.raises(InvalidBody):
        RadialArcBody((0.0, math.radians(137), math.radians(223)), 1.04, 0.4)


@pytest.mark.parametrize("degrees", [(0, 120, 250), (0, 165, 200)],
                         ids=["wider_than_120", "overlapping"])
def test_radial_arc_rejects_wide_lobes(degrees):
    # the exact incenter needs disjoint lobes, each at most 120 degrees wide
    with pytest.raises(InvalidBody, match="lobes"):
        RadialArcBody(tuple(math.radians(a) for a in degrees), 1.04, math.pi / 3)


@pytest.mark.parametrize("amplitude", [0.0, -0.1, math.pi / 3 + 1e-9])
def test_radial_arc_rejects_bad_amplitude(amplitude):
    from radialcenters.errors import InvalidBody
    with pytest.raises(InvalidBody):
        RadialArcBody((0.0, math.radians(137), math.radians(219)), 1.04, amplitude)


# ---------------------------------------------------------------------------
# symmetry search on reference shapes
# ---------------------------------------------------------------------------

def test_symmetry_counts():
    assert len(symmetry_search(make_square())) == 8
    assert len(symmetry_search(make_equilateral())) == 6
    assert symmetry_search(make_tri345()) == []


def test_symmetry_search_rotated_square():
    sq = transformed(make_square(), angle=0.37, shift=(2.0, -1.0))
    assert len(symmetry_search(sq)) == 8
