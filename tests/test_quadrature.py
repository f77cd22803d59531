"""Quadrature engines: angular route, fan route, triangulated 2D route."""

import math

import numpy as np
import pytest

from radialcenters.errors import ToleranceNotMet
from radialcenters.geometry import Polygon
from radialcenters.quadrature import (QuadratureConfig, adaptive_gk, fan_integral,
                                      integrate_angular, integrate_polygon,
                                      triangle_rule, triangulate)

from conftest import make_square, make_tri345, make_unit_disk

# finite-part value of the inverse-square kernel over [-1,1]^2 at the center;
# equals 2*pi*ln 2 - 4*Catalan (two independent derivations agree to 1e-15)
SQUARE_LOG_FINITE_PART = 0.6913098038983282


def test_angular_area_disk():
    val = integrate_angular(make_unit_disk(), [0, 0], lambda r: 0.5 * r * r)
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_angular_area_square():
    val = integrate_angular(make_square(), [0, 0], lambda r: 0.5 * r * r)
    assert val == pytest.approx(4.0, rel=1e-11)


def test_angular_log_profile_square_finite_part():
    val = integrate_angular(make_square(), [0, 0], np.log)
    assert val == pytest.approx(SQUARE_LOG_FINITE_PART, abs=1e-11)


def test_angular_log_profile_vs_masked_2d_quadrature():
    """Excluded-ball integral of |y|^-2 plus its counterterm, done the blunt way.

    The masked integrand is discontinuous along the circle so only modest
    accuracy is achievable; this is an independent sanity check, the sharp
    comparison lives in the closed-form test above.
    """
    sq = make_square()
    eps = 0.35
    cfg = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-4, max_subdivisions=3000)

    def masked(pts):
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return np.where(r2 > eps * eps, 1.0 / np.maximum(r2, 1e-300), 0.0)

    try:
        raw = integrate_polygon(masked, sq, cfg)
    except ToleranceNotMet as exc:
        raw = exc.estimate
    finite_part = raw - 2 * math.pi * math.log(1.0 / eps)
    assert finite_part == pytest.approx(SQUARE_LOG_FINITE_PART, abs=5e-3)


def test_integrate_polygon_constant_and_moment():
    unit = Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert integrate_polygon(lambda p: np.ones(len(p)), unit) == pytest.approx(1.0, rel=1e-12)
    assert integrate_polygon(lambda p: p[:, 0], unit) == pytest.approx(0.5, rel=1e-11)


def test_dual_method_agreement_poisson_kernel():
    sq = make_square()
    h = 1.0
    x = np.zeros(2)
    cfg = QuadratureConfig()
    angular = integrate_angular(
        sq, x, lambda r: (1.0 - h / np.sqrt(r * r + h * h)) / (2 * math.pi), cfg)

    def kernel2d(pts):
        d2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        return (1.0 / (2 * math.pi)) * h / (d2 + h * h) ** 1.5

    planar = integrate_polygon(kernel2d, sq, cfg)
    assert angular == pytest.approx(planar, abs=1e-9)


def test_dual_method_agreement_smooth_radial(rng):
    from conftest import interior_points, random_convex_polygon
    poly = random_convex_polygon(rng)
    x = interior_points(rng, poly, 1)[0]
    cfg = QuadratureConfig()
    # kernel exp(-r^2), radial antiderivative (1 - exp(-rho^2)) / 2
    angular = integrate_angular(poly, x, lambda r: 0.5 * (1.0 - np.exp(-r * r)), cfg)

    def kernel2d(pts):
        d2 = (pts[:, 0] - x[0]) ** 2 + (pts[:, 1] - x[1]) ** 2
        return np.exp(-d2)

    planar = integrate_polygon(kernel2d, poly, cfg)
    assert abs(angular - planar) < 10 * max(cfg.rel_tol * abs(planar), cfg.abs_tol) + 1e-12


def test_fan_matches_angular_inside_and_2d_outside():
    tri = make_tri345()
    profile = lambda r: 0.5 * (1.0 - np.exp(-r * r))
    inside = np.array([1.0, 0.8])
    assert fan_integral(tri, inside, profile) == pytest.approx(
        integrate_angular(tri, inside, profile), abs=1e-10)
    outside = np.array([5.0, 4.0])

    def kernel2d(pts):
        d2 = (pts[:, 0] - outside[0]) ** 2 + (pts[:, 1] - outside[1]) ** 2
        return np.exp(-d2)

    assert fan_integral(tri, outside, profile) == pytest.approx(
        integrate_polygon(kernel2d, tri), abs=1e-9)


def test_triangle_rule_exact_to_degree_five():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for i in range(6):
        for j in range(6 - i):
            exact = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
            got = triangle_rule(lambda p: p[:, 0] ** i * p[:, 1] ** j, tri)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-15), (i, j)


def test_triangulate_partitions_area(rng):
    from conftest import random_convex_polygon
    from radialcenters.geometry import area
    poly = random_convex_polygon(rng, n_points=12)
    tris = triangulate(poly)
    total = sum(0.5 * abs((t[1] - t[0])[0] * (t[2] - t[0])[1]
                          - (t[1] - t[0])[1] * (t[2] - t[0])[0]) for t in tris)
    assert total == pytest.approx(area(poly), rel=1e-12)


def test_triangulate_nonconvex():
    lshape = Polygon([[0, 0], [3, 0], [3, 1], [1, 1], [1, 3], [0, 3]])
    tris = triangulate(lshape)
    total = sum(0.5 * abs((t[1] - t[0])[0] * (t[2] - t[0])[1]
                          - (t[1] - t[0])[1] * (t[2] - t[0])[0]) for t in tris)
    assert total == pytest.approx(5.0, rel=1e-12)


def test_refinement_monotonicity():
    f = lambda x: np.exp(np.sin(3 * x)) / (1.0 + x * x)
    errs = []
    for rel in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
        _, err = adaptive_gk(f, [0.0, 5.0], QuadratureConfig(rel_tol=rel, abs_tol=1e-15))
        errs.append(err)
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-15


def test_tolerance_not_met_reports_estimate():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=16)
    spiky = lambda x: np.abs(np.sin(40.0 / (x + 0.02)))
    with pytest.raises(ToleranceNotMet) as err:
        adaptive_gk(spiky, [0.0, 1.0], cfg)
    assert math.isfinite(err.value.error_estimate)
    assert err.value.error_estimate > 0
    assert math.isfinite(float(err.value.estimate))


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1.0)
    for field in ("rel_tol", "abs_tol"):
        with pytest.raises(ValueError, match="finite"):
            QuadratureConfig(**{field: math.inf})
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=4)
