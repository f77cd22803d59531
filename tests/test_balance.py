"""Balance law: residuals, contact points, classification, the asymmetric body."""

import math

import numpy as np
import pytest

from radialcenters.balance import (PolygonClass, RadialArcBody,
                                   WeightedBodyFunction, balance_report,
                                   classify_polygon, contact_points,
                                   equilateral_defect, equivalence_check,
                                   generate_asymmetric_balanced,
                                   parallelogram_defect, scalar_residual,
                                   stationary_candidate, symmetry_search,
                                   vector_residual)
from radialcenters.errors import ConstructionFailed, ContinuumContact, NotInterior
from radialcenters.geometry import (Disk, Polygon, centroid, contains,
                                    contains_many, diameter, transformed)
from radialcenters.potentials import Poisson, Riesz, poisson_gradient, \
    potential, riesz_gradient
from radialcenters.quadrature import adaptive_gk

from conftest import (make_equilateral, make_square, make_tri345,
                      make_unit_disk, random_parallelogram)


def _residual_oracle(body, x, r, n=10 ** 6):
    """Membership scan plus bisection-refined arc endpoints, integrated exactly."""
    x = np.asarray(x, dtype=float)
    t = np.linspace(0, 2 * math.pi, n, endpoint=False)
    pts = x + r * np.stack([np.cos(t), np.sin(t)], axis=1)
    inside = contains_many(body, pts)
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
        assert not balance_report(poly, offset, early_stop=True).balanced


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
        contains_many(a, pts).mean() - contains_many(b, pts).mean())
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
    from radialcenters.geometry import circle_clip
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
        assert float(np.hypot(*asym_body.slice_moment(float(r)))) < 1e-10


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
    back = RadialArcBody.from_dict(data)
    t = np.linspace(0, 2 * math.pi, 257)
    assert np.allclose(back.boundary_radius(t), asym_body.boundary_radius(t),
                       atol=1e-14)


def test_asym_body_offcenter_clip_consistency(asym_body):
    from radialcenters.geometry import circle_clip
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


def test_asym_body_membership_near_boundary(asym_body):
    phi = np.random.default_rng(11).uniform(0, 2 * math.pi, 2000)
    rb = asym_body.boundary_radius(phi)
    u = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    for scale, want in ((1 - 1e-9, True), (1 + 1e-9, False)):
        pts = (scale * rb)[:, None] * u
        got = asym_body.contains_many(pts)
        assert np.all(got == want)
        assert [asym_body.contains(p) for p in pts] == got.tolist()


def test_generator_fails_honestly_beyond_tangent_bound():
    # tall lobes cannot stay convex for admissible widths; all retries fail
    with pytest.raises(ConstructionFailed):
        generate_asymmetric_balanced(1.3, n_nodes=2049)


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
    rr = np.linspace(1.0, 1.04, 64)
    aa = np.linspace(0.4, 0.0, 64)
    # 223 degrees mirrors 137 degrees across the first direction: two equal gaps
    with pytest.raises(InvalidBody):
        RadialArcBody((0.0, math.radians(137), math.radians(223)), 1.04, rr, aa)


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
