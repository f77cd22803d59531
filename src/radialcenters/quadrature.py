"""Quadrature engines for radially symmetric kernels over planar bodies.

``adaptive_gk`` is the engine of the ``pieces`` route, which integrates over
a body's boundary pieces (``potentials``), and ``fan_integral`` serves the
polygon values that have no closed form off the boundary band.  The other
engines compute no potential; tests use them as oracles:

* ``integrate_angular`` / ``integrate_angular_vector`` -- polar
  decomposition about an interior base point of a star-shaped body:
  integrates ``profile(rho(theta))`` over the circle, where ``profile`` is
  the exact radial antiderivative of the kernel, so singular kernels are
  absorbed analytically.  Subdivision is forced at the body's
  ``angular_breakpoints``.
* ``fan_integral_vector`` -- the signed-sector decomposition of a polygon
  about an arbitrary base point, for vector profiles; no code calls it.
* ``disk_exterior_integral`` / ``disk_exterior_integral_vector`` -- chords
  of a disk seen from an exterior point, the oracle of the closed-form disk
  route.
* ``integrate_polygon`` -- triangulation plus degree-5 Gauss rules with
  recursive subdivision, for general smooth integrands.

They stay in this module because the benchmark's tracer counts their calls
by these names.  Each body names the route for a base point through its
``route`` method; a polygon's ``edges`` route and a disk's ``disk`` route
are closed form (``edges`` and ``disks`` modules), and ``pieces`` is the
quadrature.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ToleranceNotMet
from .geometry import Disk, Polygon, _cross, as_point

__all__ = [
    "QuadratureConfig", "adaptive_gk", "integrate_angular", "integrate_polygon",
    "fan_integral", "fan_integral_vector", "disk_exterior_integral",
    "disk_exterior_integral_vector", "triangulate", "triangle_rule",
]


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2 ** 16

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be at least 16")


DEFAULT_CONFIG = QuadratureConfig()

# 15-point Kronrod extension of 7-point Gauss, nodes ascending on [-1, 1].
_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G7_INDEX = np.arange(1, 15, 2)


def _gk15_panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _K15_NODES
    fx = np.asarray(f(x), dtype=float)
    if fx.ndim == 1:
        k = half * float(_K15_WEIGHTS @ fx)
        g = half * float(_G7_WEIGHTS @ fx[_G7_INDEX])
        err = abs(k - g)
        mag = half * float(_K15_WEIGHTS @ np.abs(fx))
    else:
        k = half * (_K15_WEIGHTS @ fx)
        g = half * (_G7_WEIGHTS @ fx[_G7_INDEX])
        err = float(np.linalg.norm(k - g))
        mag = half * float(_K15_WEIGHTS @ np.linalg.norm(fx, axis=1))
    return k, err, mag


def adaptive_gk(f, breakpoints: Sequence[float],
                cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Adaptive Gauss-Kronrod over panels between consecutive breakpoints.

    ``f`` must accept an ndarray of abscissae and return values of shape
    ``(n,)`` or ``(n, d)``.  Returns ``(integral, error_estimate)``; the
    integral is a float or an ndarray of shape ``(d,)``.  Termination uses
    ``max(abs_tol, rel_tol * sum_of_panel_magnitudes)`` so that cancelling
    integrals are not chased below their conditioning.
    """
    pts = sorted(float(t) for t in breakpoints)
    panels = []
    counter = 0
    for a, b in zip(pts[:-1], pts[1:]):
        if b - a <= 1e-15 * max(1.0, abs(a), abs(b)):
            continue
        val, err, mag = _gk15_panel(f, a, b)
        panels.append((-err, counter, a, b, val, err, mag))
        counter += 1
    if not panels:
        return 0.0, 0.0
    heapq.heapify(panels)
    splits, total_err, total_mag = 0, 0.0, 0.0      # the first test takes exact sums
    while True:
        # the running totals drift by rounding: a near pass is confirmed on exact sums
        if total_err <= 1.001 * max(cfg.abs_tol, cfg.rel_tol * total_mag):
            total_err = math.fsum(p[5] for p in panels)
            total_mag = math.fsum(p[6] for p in panels)
            if total_err <= max(cfg.abs_tol, cfg.rel_tol * total_mag):
                break
        if splits >= cfg.max_subdivisions:
            raise ToleranceNotMet(_panel_sum(panels), math.fsum(p[5] for p in panels))
        _, _, a, b, _, err, mag = heapq.heappop(panels)
        total_err -= err
        total_mag -= mag
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            val, err, mag = _gk15_panel(f, aa, bb)
            heapq.heappush(panels, (-err, counter, aa, bb, val, err, mag))
            total_err += err
            total_mag += mag
            counter += 1
        splits += 1
    return _panel_sum(panels), total_err


def _panel_sum(panels):
    vals = [p[4] for p in panels]
    if np.ndim(vals[0]) == 0:
        return math.fsum(vals)
    out = np.zeros_like(np.asarray(vals[0]))
    for d in range(out.shape[0]):
        out[d] = math.fsum(float(v[d]) for v in vals)
    return out


# ---------------------------------------------------------------------------
# angular (polar) route
# ---------------------------------------------------------------------------

def integrate_angular(body, x, profile: Callable[[np.ndarray], np.ndarray],
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of ``profile(rho(x, theta))`` over theta in [0, 2pi).

    ``profile`` is typically the exact antiderivative of ``kernel(r) * r``
    so the result equals the kernel's integral over the body.  Requires an
    interior base point of a star-shaped body; subdivision is forced at the
    vertex angles where ``rho`` is only piecewise smooth.
    """
    x = as_point(x)

    def integrand(thetas):
        return profile(body.radial_function_many(x, thetas))

    val, _ = adaptive_gk(integrand, body.angular_breakpoints(x), cfg)
    return float(val)


def integrate_angular_vector(body, x, vec_profile, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Integral of ``u(theta) * vec_profile(rho(x, theta))`` over [0, 2pi)."""
    x = as_point(x)

    def integrand(thetas):
        rho = body.radial_function_many(x, thetas)
        u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        return u * np.asarray(vec_profile(rho))[:, None]

    val, _ = adaptive_gk(integrand, body.angular_breakpoints(x), cfg)
    return np.asarray(val)


# ---------------------------------------------------------------------------
# signed-sector (fan) route for polygons
# ---------------------------------------------------------------------------

def _fan_sectors(poly: Polygon, x: np.ndarray):
    """Yield (sign, sweep, rho(t)) per edge; the union of signed sectors is the polygon.

    For each edge the sector at apex ``x`` spans the edge's angular window;
    ``rho`` is the distance from ``x`` to the edge's supporting line.  Along
    any ray the signed crossings telescope to the chord decomposition, which
    drops the (possibly divergent) contribution at radius zero -- exactly the
    finite-part convention for singular kernels at interior base points.
    """
    scale = poly.diameter()
    for a_pt, b_pt in poly.edges():
        a = a_pt - x
        b = b_pt - x
        cross = a[0] * b[1] - a[1] * b[0]
        if abs(cross) <= 1e-14 * scale * scale:
            continue
        phi_a = math.atan2(a[1], a[0])
        phi_b = math.atan2(b[1], b[0])
        dphi = (phi_b - phi_a + math.pi) % (2 * math.pi) - math.pi
        sweep = abs(dphi)
        sgn = 1.0 if dphi > 0 else -1.0
        e = b - a

        def rho(t, phi_a=phi_a, sgn=sgn, cross=cross, e=e):
            theta = phi_a + sgn * t
            denom = np.cos(theta) * e[1] - np.sin(theta) * e[0]
            return cross / denom

        yield sgn, sweep, phi_a, rho


def fan_integral(poly: Polygon, x, profile, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Kernel integral over a polygon about any base point off the boundary.

    ``profile`` is the radial antiderivative of ``kernel(r) * r`` (value at
    radius zero dropped); equals the plain integral for exterior points and
    the finite-part value for interior ones.
    """
    x = as_point(x)
    parts = []
    n = max(1, poly.n)
    sub_cfg = QuadratureConfig(cfg.rel_tol, cfg.abs_tol / n, cfg.max_subdivisions)
    for sgn, sweep, _, rho in _fan_sectors(poly, x):
        val, _ = adaptive_gk(lambda t, rho=rho: profile(rho(t)), [0.0, sweep], sub_cfg)
        parts.append(sgn * val)
    return math.fsum(parts)


def fan_integral_vector(poly: Polygon, x, vec_profile,
                        cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vector variant: integrates ``u(theta) * vec_profile(rho)`` sector-wise."""
    x = as_point(x)
    acc_x, acc_y = [], []
    n = max(1, poly.n)
    sub_cfg = QuadratureConfig(cfg.rel_tol, cfg.abs_tol / n, cfg.max_subdivisions)
    for sgn, sweep, phi_a, rho in _fan_sectors(poly, x):
        def integrand(t, rho=rho, phi_a=phi_a, sgn=sgn):
            theta = phi_a + sgn * t
            g = np.asarray(vec_profile(rho(t)))
            return np.stack([np.cos(theta) * g, np.sin(theta) * g], axis=1)

        val, _ = adaptive_gk(integrand, [0.0, sweep], sub_cfg)
        acc_x.append(sgn * val[0])
        acc_y.append(sgn * val[1])
    return np.array([math.fsum(acc_x), math.fsum(acc_y)])


# ---------------------------------------------------------------------------
# disks seen from outside (a test oracle)
# ---------------------------------------------------------------------------

def _disk_window(disk: Disk, x: np.ndarray):
    d = float(np.hypot(*(disk.center - x)))
    if d <= disk.radius:
        raise ValueError("base point must be exterior to the disk")
    w = math.asin(min(1.0, disk.radius / d))
    phi_c = math.atan2(disk.center[1] - x[1], disk.center[0] - x[0])
    return d, w, phi_c


def disk_exterior_integral(disk: Disk, x, profile,
                           cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Kernel integral over a disk from an exterior base point (chord route).

    A test oracle: production takes the closed-form ``disk`` route, which
    this quadrature misses by 1e-8 to 1e-6 relative far from the disk.
    """
    x = as_point(x)
    d, w, _ = _disk_window(disk, x)
    R = disk.radius

    def integrand(t):
        s = np.sqrt(np.maximum(R * R - (d * np.sin(t)) ** 2, 0.0))
        near = d * np.cos(t) - s
        far = d * np.cos(t) + s
        return profile(far) - profile(near)

    val, _ = adaptive_gk(integrand, [-w, 0.0, w], cfg)
    return float(val)


def disk_exterior_integral_vector(disk: Disk, x, vec_profile,
                                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Vector variant of ``disk_exterior_integral``, a test oracle as well."""
    x = as_point(x)
    d, w, phi_c = _disk_window(disk, x)
    R = disk.radius

    def integrand(t):
        s = np.sqrt(np.maximum(R * R - (d * np.sin(t)) ** 2, 0.0))
        near = d * np.cos(t) - s
        far = d * np.cos(t) + s
        g = np.asarray(vec_profile(far)) - np.asarray(vec_profile(near))
        theta = phi_c + t
        return np.stack([np.cos(theta) * g, np.sin(theta) * g], axis=1)

    val, _ = adaptive_gk(integrand, [-w, 0.0, w], cfg)
    return np.asarray(val)


# ---------------------------------------------------------------------------
# 2D triangulated quadrature
# ---------------------------------------------------------------------------

# degree-5 rule, 7 points, barycentric coordinates and weights (sum to 1)
_TRI_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.797426985353087, 0.101286507323456, 0.101286507323456],
    [0.101286507323456, 0.797426985353087, 0.101286507323456],
    [0.101286507323456, 0.101286507323456, 0.797426985353087],
    [0.059715871789770, 0.470142064105115, 0.470142064105115],
    [0.470142064105115, 0.059715871789770, 0.470142064105115],
    [0.470142064105115, 0.470142064105115, 0.059715871789770],
])
_TRI_WEIGHTS = np.array([
    0.225,
    0.125939180544827, 0.125939180544827, 0.125939180544827,
    0.132394152788506, 0.132394152788506, 0.132394152788506,
])


def triangle_rule(f, tri: np.ndarray) -> float:
    """Degree-5 Gauss rule on one triangle (exact for polynomials up to degree 5)."""
    tri = np.asarray(tri, dtype=float)
    a = 0.5 * abs(_cross(tri[1] - tri[0], tri[2] - tri[0]))
    pts = _TRI_BARY @ tri
    return a * float(_TRI_WEIGHTS @ np.asarray(f(pts), dtype=float))


def triangulate(poly: Polygon) -> list[np.ndarray]:
    """Fan triangulation for convex polygons, ear clipping otherwise."""
    v = [np.asarray(p, dtype=float) for p in poly.vertices]
    if poly.is_convex():
        return [np.array([v[0], v[i], v[i + 1]]) for i in range(1, len(v) - 1)]
    tris = []
    idx = list(range(len(v)))
    guard = 0
    while len(idx) > 3 and guard < 10000:
        guard += 1
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = v[i0], v[i1], v[i2]
            if _cross(b - a, c - a) <= 0:
                continue
            if any(_point_in_tri(v[j], a, b, c) for j in idx
                   if j not in (i0, i1, i2)):
                continue
            tris.append(np.array([a, b, c]))
            idx.pop(k)
            break
        else:
            raise RuntimeError("ear clipping failed; polygon may be degenerate")
    tris.append(np.array([v[idx[0]], v[idx[1]], v[idx[2]]]))
    return tris


def _point_in_tri(p, a, b, c) -> bool:
    d1 = _cross(b - a, p - a)
    d2 = _cross(c - b, p - b)
    d3 = _cross(a - c, p - c)
    return (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0)


def _split4(tri):
    a, b, c = tri
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return [np.array([a, ab, ca]), np.array([ab, b, bc]),
            np.array([ca, bc, c]), np.array([ab, bc, ca])]


def integrate_polygon(f, poly: Polygon, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Adaptive 2D quadrature of ``f`` over a polygon.

    Triangulates once, then refines the worst triangle by quadrisection using
    the parent/children discrepancy as the error estimate.
    """
    heap = []
    counter = 0
    for tri in triangulate(poly):
        q = triangle_rule(f, tri)
        kids = _split4(tri)
        qk = math.fsum(triangle_rule(f, t) for t in kids)
        heapq.heappush(heap, (-abs(q - qk), counter, tri, qk, kids))
        counter += 1
    splits = 0
    while True:
        total_err = math.fsum(-h[0] for h in heap)
        total_mag = math.fsum(abs(h[3]) for h in heap)
        tol = max(cfg.abs_tol, cfg.rel_tol * total_mag)
        if total_err <= tol:
            break
        if splits >= cfg.max_subdivisions:
            raise ToleranceNotMet(math.fsum(h[3] for h in heap), total_err)
        _, _, _, _, kids = heapq.heappop(heap)
        for t in kids:
            q = triangle_rule(f, t)
            sub = _split4(t)
            qk = math.fsum(triangle_rule(f, s) for s in sub)
            heapq.heappush(heap, (-abs(q - qk), counter, t, qk, sub))
            counter += 1
        splits += 1
    return math.fsum(h[3] for h in heap)
