"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
tolerances are pinned here and must not be loosened.
"""

import math

import numpy as np
import pytest

from radialcenters.balance import (PolygonClass, balance_report, classify_polygon,
                                   contact_points, equilateral_defect,
                                   generate_asymmetric_balanced,
                                   parallelogram_defect, symmetry_search)
from radialcenters.centers import (ascend, find_center, limit_diagnostics,
                                   multistart_seeds, _normalize)
from radialcenters.errors import TheoremViolation
from radialcenters.geometry import (Polygon, boundary_distance, centroid,
                                    circumcenter, contains, convex_hull, diameter,
                                    incenter, unfolded_region)
from radialcenters.potentials import (Heat, Poisson, Riesz, heat_value,
                                      poisson_gradient, poisson_kernel, poisson_value,
                                      potential, riesz_gradient, riesz_value)

from conftest import (interior_points, make_equilateral, make_square, make_tri345,
                      make_unit_disk, random_convex_polygon,
                      random_convex_quadrangle, random_parallelogram,
                      random_triangle)
from oracles import (poisson_kernel_gauss_integral, riesz_gradient_annulus,
                     riesz_gradient_boundary, riesz_value_finite_part_eps)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_disk_analytics():
    disk = make_unit_disk()
    cases = [
        (0.5, math.copysign(1, 2 - 0.5) * 2 * math.pi / 0.5),
        (1.0, 2 * math.pi),
        (3.0, math.copysign(1, 2 - 3.0) * 2 * math.pi / 3.0),
        (2.0, math.pi / 2),
        (0.0, 0.0),
        (-1.0, -2 * math.pi),
    ]
    worst = max(abs(riesz_value(disk, [0, 0], Riesz(a)).value - want)
                for a, want in cases)
    report(1, "disk closed forms", worst < 1e-8, f"worst |err| = {worst:.2e}")


def test_criterion_02_centroid_exactness(rng):
    worst = 0.0
    for _ in range(50):
        poly = random_convex_polygon(rng)
        res = find_center(poly, Riesz(4.0))
        off = float(np.hypot(*(res.point - centroid(poly)))) / diameter(poly)
        worst = max(worst, off)
    report(2, "order m+2 center is the centroid on 50 random convex polygons",
           worst < 1e-9, f"worst offset = {worst:.2e} diam")


def test_criterion_03_balance_iff_stationary():
    sq = make_square()
    origin = np.zeros(2)
    worst = 0.0
    for alpha in (-1.0, 0.0, 0.5, 1.0, 3.0, 5.0):
        g = riesz_gradient(sq, origin, Riesz(alpha))
        scale = max(1.0, abs(potential(sq, origin, Riesz(alpha)).value))
        worst = max(worst, float(np.hypot(*g)) / scale)
    for h in (0.3, 1.0, 3.0):
        worst = max(worst, float(np.hypot(*poisson_gradient(sq, origin, Poisson(h)))))
    balanced_ok = worst < 1e-6

    tri = make_tri345()
    g0 = centroid(tri)
    norms = [float(np.hypot(*riesz_gradient(tri, g0, Riesz(a))))
             for a in (-1.0, 0.0, 0.5, 1.0, 3.0, 5.0)]
    norms += [float(np.hypot(*poisson_gradient(tri, g0, Poisson(h))))
              for h in (0.3, 1.0, 3.0)]
    rep = balance_report(tri, g0)
    unbalanced_ok = max(norms) > 1e-3 and not rep.balanced
    report(3, "balance law iff stationary gradients", balanced_ok and unbalanced_ok,
           f"balanced worst {worst:.2e}, unbalanced max {max(norms):.2e}")


def test_criterion_04_characterization_corpus(rng):
    corpus = []
    for _ in range(200):
        corpus.append(random_triangle(rng))
    for _ in range(200):
        corpus.append(random_convex_quadrangle(rng))
    # exactly balanced instances in random poses keep the criterion two-sided
    for k in range(8):
        c = (rng.random(2) - 0.5) * 6
        corpus.append(make_equilateral(c, 0.5 + 2 * rng.random(), rng.random() * 6))
    for k in range(8):
        corpus.append(random_parallelogram(rng))

    violations = 0
    mismatches = 0
    for poly in corpus:
        defect = equilateral_defect(poly) if poly.n == 3 else parallelogram_defect(poly)
        try:
            result = classify_polygon(poly)
        except TheoremViolation:
            violations += 1
            continue
        is_balanced_class = result in (PolygonClass.BALANCED_EQUILATERAL,
                                       PolygonClass.BALANCED_PARALLELOGRAM)
        if is_balanced_class != (defect < 1e-6):
            mismatches += 1
    report(4, "balanced classification over 416 shapes",
           violations == 0 and mismatches == 0,
           f"theorem violations {violations}, mismatches {mismatches}")


def test_criterion_05_contact_point_law(rng):
    worst = 0.0
    bodies = [random_parallelogram(rng) for _ in range(50)] + [make_equilateral()]
    for poly in bodies:
        g = centroid(poly)
        cs = contact_points(poly, g)
        worst = max(worst, float(np.hypot(*cs.sum)) / diameter(poly))
    report(5, "contact points sum to the center", worst < 1e-8,
           f"worst |sum| = {worst:.2e} diam")


def test_criterion_06_parameter_limits():
    tri = make_tri345()
    d = diameter(tri)
    cc = circumcenter(tri).center
    g = centroid(tri)
    ic = incenter(tri).center

    d200 = float(np.hypot(*(find_center(tri, Riesz(200.0)).point - cc)))
    d10 = float(np.hypot(*(find_center(tri, Riesz(10.0)).point - cc)))
    riesz_ok = d200 < 0.05 * d and d200 < d10

    dh = float(np.hypot(*(find_center(tri, Poisson(100 * d)).point - g)))
    poisson_ok = dh < 1e-3 * d

    dt_large = float(np.hypot(*(find_center(tri, Heat(1e6)).point - g)))
    heat_large_ok = dt_large < 1e-3 * d

    diag = limit_diagnostics(tri)          # warm-tracked small-time hot spot
    dt_small = diag.heat[0][3]
    heat_small_ok = dt_small < 0.1 * d

    report(6, "parameter limits (circumcenter / centroid / incenter)",
           riesz_ok and poisson_ok and heat_large_ok and heat_small_ok,
           f"a=200: {d200:.3f} (<{0.05 * d:.2f}, a=10: {d10:.3f}); "
           f"h: {dh:.1e}; t=1e6: {dt_large:.1e}; t=1e-3 vs incenter: {dt_small:.3f}")


def test_criterion_07_kernel_identity(rng):
    worst = 0.0
    for _ in range(20):
        z = (rng.random(2) - 0.5) * 4
        h = 0.2 + 2.5 * rng.random()
        worst = max(worst, abs(poisson_kernel_gauss_integral(z, h)
                               - poisson_kernel(z, h)))
    report(7, "Gaussian-integral form of the Poisson kernel", worst < 1e-8,
           f"worst |err| = {worst:.2e}")


def test_criterion_08_gradient_route_consistency(rng):
    poly = random_convex_polygon(rng, n_points=9)
    d = diameter(poly)
    pts = interior_points(rng, poly, 20, margin_rel=0.04)
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 3.0):
        for x in pts:
            g_bd = riesz_gradient_boundary(poly, x, alpha)
            eps = 0.5 * boundary_distance(poly, x)
            g_ann = riesz_gradient_annulus(poly, x, alpha, eps)
            h = 1e-5 * d
            e = np.eye(2)
            fd = np.array([
                (riesz_value(poly, x + h * e[j], Riesz(alpha)).value
                 - riesz_value(poly, x - h * e[j], Riesz(alpha)).value) / (2 * h)
                for j in range(2)])
            worst = max(worst, float(np.abs(g_bd - g_ann).max()),
                        float(np.abs(g_ann - fd).max()))
    report(8, "boundary / annulus / finite-difference gradients agree",
           worst < 1e-6, f"worst discrepancy = {worst:.2e}")


def test_criterion_09_concavity_suite(rng):
    poly = random_convex_polygon(rng, n_points=8)
    d = diameter(poly)
    g = centroid(poly)
    h, t = 0.5 * d, 0.1 * d * d

    def box_pair():
        return (g + (rng.random(2) - 0.5) * 2 * d,
                g + (rng.random(2) - 0.5) * 2 * d)

    inv_p = lambda x: 1.0 / poisson_value(poly, x, Poisson(h)).value
    log_w = lambda x: math.log(heat_value(poly, x, Heat(t)).value)
    p_ok = w_ok = True
    for _ in range(100):
        a, b = box_pair()
        m = 0.5 * (a + b)
        p_ok &= inv_p(m) <= 0.5 * inv_p(a) + 0.5 * inv_p(b) + 1e-12
        w_ok &= log_w(m) >= 0.5 * log_w(a) + 0.5 * log_w(b) - 1e-12

    v_int_ok = True
    for alpha in (-1.0, 0.0, 0.5, 1.0):
        f = lambda x: riesz_value(poly, x, Riesz(alpha)).value
        pts = interior_points(rng, poly, 20, margin_rel=0.08)
        for i in range(10):
            a, b = pts[2 * i], pts[2 * i + 1]
            v_int_ok &= f(0.5 * (a + b)) >= 0.5 * f(a) + 0.5 * f(b) - 1e-10

    v_glob_ok = True
    for alpha in (3.0, 4.0):
        f = lambda x: riesz_value(poly, x, Riesz(alpha)).value
        for _ in range(10):
            a, b = box_pair()
            scale = max(1.0, abs(f(a)), abs(f(b)))
            v_glob_ok &= f(0.5 * (a + b)) >= 0.5 * f(a) + 0.5 * f(b) - 1e-10 * scale

    tri = make_tri345()
    dt = diameter(tri)
    unique_ok = True
    for spec in (Riesz(0.5), Riesz(3.0), Poisson(0.3 * dt), Heat(0.05 * dt * dt)):
        norm = _normalize(tri, spec)
        ends = []
        for s in multistart_seeds(norm.body):
            y, _, _, _ = ascend(norm.body, norm.spec, s)
            ends.append(norm.to_original(y))
        spread = max(float(np.hypot(*(p - ends[0]))) for p in ends)
        unique_ok &= spread < 1e-7 * dt

    ok = p_ok and w_ok and v_int_ok and v_glob_ok and unique_ok
    report(9, "power-concavity and multistart uniqueness", ok,
           f"1/P {p_ok}, logW {w_ok}, V-interior {v_int_ok}, "
           f"V-global {v_glob_ok}, uniqueness {unique_ok}")


def test_criterion_10_asymmetric_generator():
    body = generate_asymmetric_balanced(1.04)
    rep = balance_report(body, np.zeros(2))
    syms = symmetry_search(body)
    ok = rep.sup_residual < 1e-6 and body.is_convex() and syms == []
    report(10, "asymmetric balanced convex body", ok,
           f"sup residual {rep.sup_residual:.2e}, "
           f"convexity defect {body.convexity_defect():.2e}, symmetries {len(syms)}")


def test_criterion_11_location_suite(rng):
    bodies = [make_tri345(), random_convex_quadrangle(rng)]
    ok = True
    details = []
    for poly in bodies:
        reg = unfolded_region(poly, 64)
        tol = math.pi * diameter(poly) / 64
        hull = Polygon(convex_hull(poly.vertices))
        d = diameter(poly)
        for spec in (Riesz(2.5), Riesz(5.0), Poisson(0.5 * d), Heat(0.1 * d * d)):
            res = find_center(poly, spec)
            inside_reg = reg.contains(res.point, tol=tol)
            inside_hull = contains(hull, res.point) and \
                boundary_distance(hull, res.point) > 1e-9 * d
            ok &= inside_reg and inside_hull
            if not (inside_reg and inside_hull):
                details.append(f"{spec} fails")
    report(11, "centers live in the folding region, strictly inside the hull",
           ok, "; ".join(details))


def test_criterion_12_eps_independence():
    cases = [(make_square(), np.zeros(2)), (make_tri345(), np.array([1.0, 0.9]))]
    worst = 0.0
    for body, x in cases:
        dist = boundary_distance(body, x)
        for alpha in (0.0, -1.0):
            vals = [riesz_value_finite_part_eps(body, x, alpha, f * dist)
                    for f in (0.1, 0.2, 0.4)]
            worst = max(worst, max(vals) - min(vals))
    report(12, "finite parts independent of the excluded-ball radius",
           worst < 1e-8, f"worst spread = {worst:.2e}")
