"""Potential values and gradients: closed forms, regime routes, identities."""

import math

import numpy as np
import pytest

from radialcenters.balance import generate_asymmetric_balanced
from radialcenters.centers import CENTER_CFG
from radialcenters.errors import BoundaryPoint
from radialcenters.geometry import Disk, Polygon, area, boundary_distance, centroid, \
    classify_location, diameter, transformed
from radialcenters.potentials import (Heat, Poisson, Riesz, heat_gradient, heat_value,
                                      poisson_gradient, poisson_kernel, poisson_value,
                                      potential, potential_gradient, potential_hessian,
                                      riesz_gradient, riesz_value, weierstrass_kernel)
from radialcenters.quadrature import DEFAULT_CONFIG, adaptive_gk, integrate_polygon

from conftest import interior_points, make_square, make_tri345, make_unit_disk, \
    random_convex_polygon, spec_id
from oracles import poisson_kernel_gauss_integral, riesz_gradient_annulus, \
    riesz_gradient_boundary, riesz_value_complement, riesz_value_finite_part_eps

SQUARE_LOG_FINITE_PART = 0.6913098038983282


def _fd_gradient(fun, x, h):
    e = np.eye(2)
    return np.array([(fun(x + h * e[j]) - fun(x - h * e[j])) / (2 * h)
                     for j in range(2)])


# ---------------------------------------------------------------------------
# disk closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,expected", [
    (0.5, 4 * math.pi),
    (1.0, 2 * math.pi),
    (3.0, -2 * math.pi / 3),
    (2.0, math.pi / 2),
    (0.0, 0.0),
    (-1.0, -2 * math.pi),
])
def test_disk_center_closed_forms(alpha, expected):
    got = riesz_value(make_unit_disk(), [0, 0], Riesz(alpha)).value
    assert got == pytest.approx(expected, abs=1e-14)


def test_disk_exterior_log_potential_matches_point_mass():
    # the logarithmic potential of a disk acts like its total mass from outside
    d = make_unit_disk()
    for dist in (1.5, 2.5, 4.0):
        got = riesz_value(d, [dist, 0], Riesz(2.0)).value
        assert got == pytest.approx(-math.pi * math.log(dist), abs=1e-14)


def test_square_finite_part_closed_form():
    got = riesz_value(make_square(), [0, 0], Riesz(0.0)).value
    assert got == pytest.approx(SQUARE_LOG_FINITE_PART, abs=1e-11)


# ---------------------------------------------------------------------------
# finite-part identities
# ---------------------------------------------------------------------------

def test_eps_independence(rng):
    bodies_points = [(make_square(), np.zeros(2)),
                     (make_tri345(), np.array([1.0, 0.9]))]
    for body, x in bodies_points:
        d = boundary_distance(body, x)
        for alpha in (0.0, -1.0):
            vals = [riesz_value_finite_part_eps(body, x, alpha, f * d)
                    for f in (0.1, 0.2, 0.4)]
            assert max(vals) - min(vals) < 1e-8
            assert vals[0] == pytest.approx(
                riesz_value(body, x, Riesz(alpha)).value, abs=1e-9)


def test_complement_identity_negative_alpha():
    sq = make_square()
    for alpha in (-1.0, -2.0):
        direct = riesz_value(sq, [0.1, -0.2], Riesz(alpha)).value
        via_complement = riesz_value_complement(sq, [0.1, -0.2], alpha)
        assert direct == pytest.approx(via_complement, abs=1e-8)


def test_disk_complement_identity():
    got = riesz_value_complement(make_unit_disk(), [0, 0], -1.0)
    assert got == pytest.approx(-2 * math.pi, abs=1e-9)


def test_boundary_point_refused_for_nonpositive_alpha():
    sq = make_square()
    with pytest.raises(BoundaryPoint):
        riesz_value(sq, [1.0, 0.0], Riesz(0.0))
    with pytest.raises(BoundaryPoint):
        riesz_value(sq, [1.0, 0.0], Riesz(-1.0))
    with pytest.raises(BoundaryPoint):
        riesz_gradient(sq, [1.0, 0.0], Riesz(0.5))


# Outcome of the value, gradient and Hessian at a boundary point: finite
# ("ok") or refused as diverging ("BP", Riesz orders alpha <= k at order k).
# It is the same on every body: each takes its boundary pieces in the band.
BOUNDARY_OUTCOMES = [
    (Riesz(-1.0), "BP BP BP"),
    (Riesz(0.0), "BP BP BP"),
    (Riesz(0.5), "ok BP BP"),
    (Riesz(1.0), "ok BP BP"),
    (Riesz(1.5), "ok ok BP"),
    (Riesz(2.0), "ok ok BP"),
    (Riesz(4.0), "ok ok ok"),
    (Poisson(0.5), "ok ok ok"),
    (Heat(0.5), "ok ok ok"),
]

BOUNDARY_POINTS = {
    "square": (make_square, (1.0, 0.3)),
    "disk": (make_unit_disk, (0.6, 0.8)),
    # the tip of the lobe at angle 0; (1, 0) lies 0.04 inside it
    "asym": (generate_asymmetric_balanced, (1.04, 0.0)),
}


def _boundary_cases():
    for spec, want in BOUNDARY_OUTCOMES:
        for where in BOUNDARY_POINTS:
            yield pytest.param(where, spec, want.split(), id=f"{where}-{spec_id(spec)}")


@pytest.mark.parametrize("where, spec, want", _boundary_cases())
def test_boundary_refusal_matrix(where, spec, want):
    make, x = BOUNDARY_POINTS[where]
    body = make()
    assert classify_location(body, x) == "boundary"
    got = []
    for fn in (potential, potential_gradient, potential_hessian):
        try:
            out = fn(body, x, spec)
        except BoundaryPoint:
            got.append("BP")
            continue
        out = out.value if fn is potential else out
        got.append("ok" if np.all(np.isfinite(out)) else "not finite")
    assert got == want


@pytest.mark.parametrize("make", [make_unit_disk, make_tri345], ids=["disk", "tri345"])
def test_overflow_is_not_finite_on_either_route(make):
    # Riesz(40) at distance 1e10 is about 1e380: the disk route overflows as
    # the polygon route does, to a non-finite result with a RuntimeWarning
    body = make()
    with pytest.warns(RuntimeWarning):
        value = potential(body, (1e10, 0.0), Riesz(40)).value
    with pytest.warns(RuntimeWarning):
        grad = potential_gradient(body, (1e10, 0.0), Riesz(40))
    assert not math.isfinite(value)
    assert not np.isfinite(grad).all()


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_zero_by_symmetry():
    sq = make_square()
    assert np.hypot(*riesz_gradient(sq, [0, 0], Riesz(3.0))) < 1e-10
    d = make_unit_disk()
    for alpha in (-1.0, 0.0, 0.5, 1.0, 3.0, 5.0):
        assert np.all(riesz_gradient(d, [0, 0], Riesz(alpha)) == 0)


def test_gradient_matches_finite_differences_alpha4():
    tri = make_tri345()
    g = centroid(tri)
    x = g + np.array([0.3, -0.1])
    got = riesz_gradient(tri, x, Riesz(4.0))
    want = -2 * area(tri) * (x - g)   # quadratic potential, exact gradient
    assert got == pytest.approx(want, abs=1e-10)
    fd = _fd_gradient(lambda p: riesz_value(tri, p, Riesz(4.0)).value, x, 1e-5)
    assert got == pytest.approx(fd, abs=1e-6)


def test_gradient_routes_agree(rng):
    poly = random_convex_polygon(rng)
    d = diameter(poly)
    pts = interior_points(rng, poly, 4)
    for alpha in (0.0, 0.5, 1.0, 3.0):
        for x in pts:
            # production takes the volume route; the boundary and annulus
            # forms are independent oracles for it
            g_disp = riesz_gradient(poly, x, Riesz(alpha))
            g_bd = riesz_gradient_boundary(poly, x, alpha)
            eps = 0.5 * boundary_distance(poly, x)
            g_ann = riesz_gradient_annulus(poly, x, alpha, eps)
            fd = _fd_gradient(lambda p: riesz_value(poly, p, Riesz(alpha)).value,
                              x, 1e-5 * d)
            assert np.abs(g_disp - g_bd).max() < 1e-8
            assert np.abs(g_disp - g_ann).max() < 1e-8
            assert np.abs(g_disp - fd).max() < 1e-6


@pytest.mark.parametrize("x", [(0.3, -0.2), (0.05, 0.02)])
@pytest.mark.parametrize("alpha", [0.5, 3.0, 4.0])
def test_boundary_gradient_on_radial_arc_body(x, alpha):
    # the lobe pieces' normals against the production volume route
    body = generate_asymmetric_balanced()
    want = riesz_gradient(body, x, Riesz(alpha), CENTER_CFG)
    got = riesz_gradient_boundary(body, x, alpha, CENTER_CFG)
    assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()


def test_gradient_annulus_eps_choice_is_immaterial(rng):
    poly = random_convex_polygon(rng)
    x = interior_points(rng, poly, 1)[0]
    d = boundary_distance(poly, x)
    for alpha in (0.0, 0.5, 1.0):
        grads = [riesz_gradient_annulus(poly, x, alpha, f * d) for f in (0.1, 0.3, 0.7)]
        for g in grads[1:]:
            assert np.abs(g - grads[0]).max() < 1e-10


def test_exterior_gradient_matches_fd():
    tri = make_tri345()
    x = np.array([5.5, 4.0])
    for alpha in (-1.0, 0.0, 1.0, 2.0, 3.0):
        got = riesz_gradient(tri, x, Riesz(alpha))
        fd = _fd_gradient(lambda p: riesz_value(tri, p, Riesz(alpha)).value, x, 1e-6)
        assert np.abs(got - fd).max() < 1e-6, alpha


def test_nonconvex_interior_values_and_gradients():
    lshape = Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])
    x = np.array([0.5, 2.5])        # not star-shaped from here

    def k2d(pts):
        d2 = (pts[:, 0] - x[0]) ** 2 + (pts[:, 1] - x[1]) ** 2
        return d2  # |x-y|^2 integrand of the order-4 potential (sign flipped)

    want = -integrate_polygon(k2d, lshape)
    got = riesz_value(lshape, x, Riesz(4.0)).value
    assert got == pytest.approx(want, rel=1e-9)

    d = diameter(lshape)
    for alpha in (0.0, 0.5, 3.0):
        g = riesz_gradient(lshape, x, Riesz(alpha))
        fd = _fd_gradient(lambda p: riesz_value(lshape, p, Riesz(alpha)).value,
                          x, 1e-5 * d)
        assert np.abs(g - fd).max() < 1e-6, alpha
    gp = poisson_gradient(lshape, x, Poisson(1.0))
    fd = _fd_gradient(lambda p: poisson_value(lshape, p, Poisson(1.0)).value, x, 1e-5)
    assert np.abs(gp - fd).max() < 1e-6


# ---------------------------------------------------------------------------
# equivariance and monotonicity
# ---------------------------------------------------------------------------

def test_translation_rotation_equivariance(rng):
    poly = random_convex_polygon(rng)
    x = interior_points(rng, poly, 1)[0]
    angle, shift = 1.1, np.array([3.0, -1.0])
    moved = transformed(poly, angle=angle, shift=shift)
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    x2 = R @ x + shift
    for spec in (Riesz(0.5), Riesz(3.0), Poisson(1.0), Heat(0.7)):
        v1 = potential(poly, x, spec).value
        v2 = potential(moved, x2, spec).value
        assert v2 == pytest.approx(v1, abs=1e-10 * max(1, abs(v1)))
        g1 = potential_gradient(poly, x, spec)
        g2 = potential_gradient(moved, x2, spec)
        assert np.abs(g2 - R @ g1).max() < 1e-9 * max(1.0, float(np.hypot(*g1)))


def test_domain_monotonicity_at_exterior_points():
    inner = make_square(half=0.5)
    outer = make_square(half=1.0)
    x = np.array([3.0, 2.0])
    for alpha in (-1.0, 0.0, 0.5, 1.0):
        v_in = riesz_value(inner, x, Riesz(alpha)).value
        v_out = riesz_value(outer, x, Riesz(alpha)).value
        assert v_in <= v_out + 1e-12


# ---------------------------------------------------------------------------
# Poisson integral
# ---------------------------------------------------------------------------

def test_poisson_kernel_constants():
    assert poisson_kernel([0, 0], 1.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)


@pytest.mark.parametrize("kernel", [poisson_kernel, weierstrass_kernel])
def test_kernels_take_one_planar_point(kernel):
    # a stack of points or a point of another dimension is refused, not
    # folded into one squared norm
    assert kernel([0.3, 0.4], 0.7) > kernel([0.6, 0.8], 0.7) > 0
    for z in ([[0.3, 0.4], [0.0, 0.0]], [0.3, 0.4, 0.0], [0.3]):
        with pytest.raises(ValueError):
            kernel(z, 0.7)


def test_poisson_kernel_normalization():
    # the kernel's radial antiderivative tends to 1 at infinity (m = 2)
    h = 0.7
    big = 1e9
    mass = 2 * math.pi * (1.0 - h / math.sqrt(big * big + h * h)) / (2 * math.pi)
    assert mass == pytest.approx(1.0, abs=1e-8)
    huge_disk = Disk([0, 0], 1e5)
    val = poisson_value(huge_disk, [0, 0], Poisson(1.0)).value
    assert val == pytest.approx(1.0, abs=1e-4)


def test_poisson_gauss_integral_identity():
    got = poisson_kernel_gauss_integral([0.3, 0.4], 0.7)
    want = poisson_kernel([0.3, 0.4], 0.7)
    assert got == pytest.approx(want, abs=1e-8)


def test_poisson_disk_center_closed_form():
    for h in (0.5, 1.0, 2.0):
        got = poisson_value(make_unit_disk(), [0, 0], Poisson(h)).value
        assert got == pytest.approx(1.0 - h / math.sqrt(1 + h * h), abs=1e-15)
        assert 0.0 < got < 1.0


def test_poisson_far_field_decay():
    sq = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    val = poisson_value(sq, [1e3, 0], Poisson(1.0)).value
    assert val < 1e-6


def test_poisson_flatness_for_large_height():
    sq = make_square()
    d = diameter(sq)
    h = 100 * d
    val = poisson_value(sq, [0.2, 0.1], Poisson(h)).value
    approx = area(sq) * poisson_kernel([0.2, 0.1], h)
    assert val == pytest.approx(approx, rel=0.01)


def test_poisson_gradient_symmetry_and_fd():
    sq = make_square()
    assert np.hypot(*poisson_gradient(sq, [0, 0], Poisson(0.5))) < 1e-10
    assert np.all(poisson_gradient(make_unit_disk(), [0, 0], Poisson(2.0)) == 0)
    tri = make_tri345()
    x = np.array([1.0, 1.0])
    got = poisson_gradient(tri, x, Poisson(1.0))
    fd = _fd_gradient(lambda p: poisson_value(tri, p, Poisson(1.0)).value, x, 1e-5)
    assert np.abs(got - fd).max() < 1e-6


# ---------------------------------------------------------------------------
# heat potential
# ---------------------------------------------------------------------------

def test_heat_disk_center_closed_form():
    for t in (0.1, 0.25, 2.0):
        got = heat_value(make_unit_disk(), [0, 0], Heat(t)).value
        assert got == pytest.approx(1.0 - math.exp(-1.0 / (4 * t)), abs=1e-15)
    assert heat_value(make_unit_disk(), [0, 0], Heat(0.25)).value == pytest.approx(
        1 - math.exp(-1), abs=1e-15)


def test_heat_small_time_limit():
    got = heat_value(make_unit_disk(), [0, 0], Heat(1e-4)).value
    assert abs(got - 1.0) < 1e-15


def test_heat_large_time_flatness():
    d = make_unit_disk()
    t = 1e6
    got = heat_value(d, [0, 0], Heat(t)).value
    assert got == pytest.approx(area(d) / (4 * math.pi * t), rel=1e-6)


def test_heat_gradient_symmetry_and_fd():
    sq = make_square()
    assert np.hypot(*heat_gradient(sq, [0, 0], Heat(1.0))) < 1e-10
    tri = make_tri345()
    x = centroid(tri)
    got = heat_gradient(tri, x, Heat(0.5))
    fd = _fd_gradient(lambda p: heat_value(tri, p, Heat(0.5)).value, x, 1e-5)
    assert np.abs(got - fd).max() < 1e-6


def _heat_rectangle(x, lo, hi, t):
    """Heat potential of the rectangle [lo, hi] at ``x``: a product of erf differences.

    Each difference is taken on the erfc side of its arguments, so it keeps
    its relative accuracy far out in the tails.
    """
    s = 2 * math.sqrt(t)

    def erf_diff(u, v):
        return math.erfc(-u) - math.erfc(-v) if u + v < 0 else math.erfc(v) - math.erfc(u)

    return 0.25 * math.prod(erf_diff((hi[k] - x[k]) / s, (lo[k] - x[k]) / s) for k in range(2))


def _heat_rectangle_gradient(x, lo, hi, t):
    """Gradient of ``_heat_rectangle`` in ``x``: one erf difference differentiated."""
    s = 2 * math.sqrt(t)
    u = [(hi[k] - x[k]) / s for k in range(2)]
    v = [(lo[k] - x[k]) / s for k in range(2)]
    diff = [math.erfc(-u[k]) - math.erfc(-v[k]) if u[k] + v[k] < 0
            else math.erfc(v[k]) - math.erfc(u[k]) for k in range(2)]
    deriv = [2 / (s * math.sqrt(math.pi)) * (math.exp(-v[k] ** 2) - math.exp(-u[k] ** 2))
             for k in range(2)]
    return 0.25 * np.array([deriv[0] * diff[1], diff[0] * deriv[1]])


# reflex interior, notch exterior, far exterior (value about 2e-25)
@pytest.mark.parametrize("x", [(0.5, 0.5), (1.5, 1.5), (4.0, 3.5)])
def test_heat_lshape_closed_form(x):
    lshape = Polygon([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])
    t = 0.05
    want = _heat_rectangle(x, (0, 0), (2, 1), t) + _heat_rectangle(x, (0, 1), (1, 2), t)
    assert heat_value(lshape, x, Heat(t)).value == pytest.approx(want, rel=1e-12, abs=0)
    grad = (_heat_rectangle_gradient(x, (0, 0), (2, 1), t)
            + _heat_rectangle_gradient(x, (0, 1), (1, 2), t))
    assert heat_gradient(lshape, x, Heat(t)) == pytest.approx(grad, rel=1e-12, abs=0)


def test_poisson_gradient_far_exterior():
    # the gradient (about 2e-19) against Richardson-extrapolated central differences
    tri, x, spec = make_tri345(), np.array([40000.0, 30000.0]), Poisson(0.5)

    def central(k, step):
        e = step * np.eye(2)[k]
        return (poisson_value(tri, x + e, spec).value
                - poisson_value(tri, x - e, spec).value) / (2 * step)

    fd = [(4 * central(k, 50.0) - central(k, 100.0)) / 3 for k in range(2)]
    assert poisson_gradient(tri, x, spec) == pytest.approx(fd, rel=1e-4, abs=0)


def test_weierstrass_kernel_value():
    assert weierstrass_kernel([0, 0], 1.0) == pytest.approx(1 / (4 * math.pi), abs=1e-15)


# ---------------------------------------------------------------------------
# dispatch and metadata
# ---------------------------------------------------------------------------

def test_dispatch_identity():
    sq = make_square()
    x = np.array([0.2, -0.1])
    assert potential(sq, x, Riesz(3.0)).value == riesz_value(sq, x, Riesz(3.0)).value
    assert potential(sq, x, Poisson(1.0)).value == poisson_value(sq, x, Poisson(1.0)).value
    assert potential(sq, x, Heat(1.0)).value == heat_value(sq, x, Heat(1.0)).value


def test_regime_and_location_labels():
    sq = make_square()
    assert riesz_value(sq, [0, 0], Riesz(1.0)).regime == "alpha_positive_ne_m"
    assert riesz_value(sq, [0, 0], Riesz(2.0)).regime == "alpha_eq_m"
    assert riesz_value(sq, [0, 0], Riesz(0.0)).regime == "alpha_zero_finite_part"
    assert riesz_value(sq, [0, 0], Riesz(-1.0)).regime == "alpha_negative"
    assert riesz_value(sq, [3, 0], Riesz(1.0)).location == "exterior"
    assert poisson_value(sq, [0, 0], Poisson(1.0)).regime == "poisson"
    assert heat_value(sq, [0, 0], Heat(1.0)).regime == "heat"


def test_spec_validation():
    with pytest.raises(ValueError):
        Poisson(h=0.0)
    with pytest.raises(ValueError):
        Heat(t=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for family in (Riesz, Poisson, Heat):
            with pytest.raises(ValueError):
                family(bad)


# ---------------------------------------------------------------------------
# balls: the disk's value as one angular integral, and the kernel constants
# in other dimensions
# ---------------------------------------------------------------------------

def _disk_value_psi(disk, x, alpha):
    """Order-``alpha`` value at an interior point of a disk, as an integral
    over the angle psi from the direction to the center: the ray at psi
    leaves at rho(psi), and both halves of the circle give the same."""
    R = disk.radius
    d = float(np.hypot(*(x - disk.center)))
    if alpha == 2:
        F = lambda rho: rho ** 2 / 4 - rho ** 2 * np.log(rho) / 2
    elif alpha == 0:
        F = lambda rho: np.log(rho)
    else:
        F = lambda rho: rho ** alpha / alpha
    sign = 1.0 if alpha == 2 else math.copysign(1.0, 2 - alpha)

    def integrand(psi):
        return F(-d * np.cos(psi) + np.sqrt(R * R - (d * np.sin(psi)) ** 2))

    raw, _ = adaptive_gk(integrand, [0.0, math.pi / 2, math.pi], DEFAULT_CONFIG)
    return sign * 2 * float(raw)


def test_ball_offcenter_consistency_m2_routes():
    # the psi integral must agree with the planar disk route
    ball = make_unit_disk()
    x = np.array([0.3, 0.2])
    for alpha in (-1.0, 0.5, 1.0, 2.0, 3.0):
        assert _disk_value_psi(ball, x, alpha) == pytest.approx(
            riesz_value(ball, x, Riesz(alpha)).value, rel=1e-12)
