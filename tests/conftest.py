"""Shared fixtures and random-body generators for the test suite."""

import math

import numpy as np
import pytest

from radialcenters.geometry import Disk, Polygon, convex_hull


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def spec_id(spec):
    """Test id of a spec: its repr with the planar dimension spelled out.

    Specs are planar and no longer carry ``m``; the ids keep the ``m=2`` they
    had when they did, so each parametrized case keeps its name.
    """
    return f"{str(spec)[:-1]}, m=2)"


def make_square(half=1.0, center=(0.0, 0.0)):
    c = np.asarray(center, dtype=float)
    return Polygon(c + half * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]))


def make_unit_disk():
    return Disk([0.0, 0.0], 1.0)


def make_tri345():
    return Polygon([[0, 0], [4, 0], [0, 3]])


def make_equilateral(center=(0.0, 0.0), radius=1.0, phase=math.pi / 2):
    c = np.asarray(center, dtype=float)
    pts = [c + radius * np.array([math.cos(phase + 2 * math.pi * k / 3),
                                  math.sin(phase + 2 * math.pi * k / 3)])
           for k in range(3)]
    return Polygon(pts)


def random_convex_polygon(rng, n_points=10, scale=None, center=None):
    """Convex hull of random points; retries until at least 3 hull vertices."""
    scale = scale if scale is not None else 0.5 + 3.0 * rng.random()
    center = center if center is not None else (rng.random(2) - 0.5) * 4.0
    for _ in range(100):
        pts = center + scale * (rng.random((n_points, 2)) - 0.5)
        hull = convex_hull(pts)
        if len(hull) >= 3:
            try:
                return Polygon(hull)
            except Exception:
                continue
    raise RuntimeError("could not build a random convex polygon")


def random_triangle(rng, scale=3.0):
    for _ in range(100):
        pts = scale * rng.random((3, 2))
        e1 = pts[1] - pts[0]
        e2 = pts[2] - pts[0]
        cross = e1[0] * e2[1] - e1[1] * e2[0]
        if abs(cross) < 0.05 * scale * scale:
            continue
        if cross < 0:
            pts = pts[::-1]
        try:
            return Polygon(pts)
        except Exception:
            continue
    raise RuntimeError("could not build a random triangle")


def random_convex_quadrangle(rng, scale=3.0):
    for _ in range(200):
        pts = scale * rng.random((8, 2))
        hull = convex_hull(pts)
        if len(hull) == 4:
            try:
                return Polygon(hull)
            except Exception:
                continue
    raise RuntimeError("could not build a random convex quadrangle")


def random_parallelogram(rng, scale=2.0):
    for _ in range(100):
        p = (rng.random(2) - 0.5) * 4.0
        a = scale * (rng.random(2) - 0.5)
        b = scale * (rng.random(2) - 0.5)
        cross = a[0] * b[1] - a[1] * b[0]
        if abs(cross) < 0.05 * scale * scale:
            continue
        if cross < 0:
            a, b = b, a
        try:
            return Polygon([p, p + a, p + a + b, p + b])
        except Exception:
            continue
    raise RuntimeError("could not build a random parallelogram")


def interior_points(rng, body, n, margin_rel=0.05):
    """Random interior points with a relative clearance from the boundary."""
    from radialcenters.geometry import boundary_distance, contains, diameter

    if isinstance(body, Polygon):
        lo = body.vertices.min(axis=0)
        hi = body.vertices.max(axis=0)
    else:
        lo = body.center - body.radius
        hi = body.center + body.radius
    d = diameter(body)
    out = []
    while len(out) < n:
        p = lo + (hi - lo) * rng.random(2)
        if contains(body, p) and boundary_distance(body, p) > margin_rel * d:
            out.append(p)
    return out
