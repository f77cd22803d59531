"""Reference computations made apart from the program.

Closed forms and elementary formulas that the benchmark compares the
program's outputs against.  Nothing here calls into ``radialcenters``
except to read a body's defining data (polygon vertices, disk center and
radius, the radial function of the radially parameterized body).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf


# ---------------------------------------------------------------------------
# polygons
# ---------------------------------------------------------------------------

def polygon_moments(v: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Area, first moment (integral of y) and polar moment (integral of |y|^2)."""
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    w = x * yn - xn * y
    a = 0.5 * float(np.sum(w))
    s = np.array([float(np.sum((x + xn) * w)) / 6.0, float(np.sum((y + yn) * w)) / 6.0])
    jx = float(np.sum(w * (x * x + x * xn + xn * xn))) / 12.0
    jy = float(np.sum(w * (y * y + y * yn + yn * yn))) / 12.0
    return a, s, jx + jy


def polygon_centroid(v: np.ndarray) -> np.ndarray:
    a, s, _ = polygon_moments(v)
    return s / a


def polygon_diameter(v: np.ndarray) -> float:
    return float(max(math.hypot(*(p - q)) for p in v for q in v))


def inside_polygon(v: np.ndarray, p) -> bool:
    """Even-odd crossing test; ``p`` strictly off the boundary."""
    x, y = float(p[0]), float(p[1])
    inside = False
    n = len(v)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def inside_polygon_many(v: np.ndarray, pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(v)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xi, np.inf))
    return inside


def riesz4_polygon(v: np.ndarray, x) -> tuple[float, np.ndarray]:
    """Order-4 potential -int |x-y|^2 dy of a polygon and its gradient."""
    a, s, j = polygon_moments(v)
    x = np.asarray(x, dtype=float)
    raw = a * float(x @ x) - 2.0 * float(x @ s) + j
    return -raw, -(2.0 * a * x - 2.0 * s)


def _solid_angle_triangle(a, b, c) -> float:
    """Signed solid angle of a triangle seen from the origin (Van Oosterom-Strackee)."""
    la, lb, lc = np.linalg.norm(a), np.linalg.norm(b), np.linalg.norm(c)
    num = float(np.dot(a, np.cross(b, c)))
    den = la * lb * lc + float(np.dot(a, b)) * lc + float(np.dot(a, c)) * lb \
        + float(np.dot(b, c)) * la
    return 2.0 * math.atan2(num, den)


def poisson_polygon(v: np.ndarray, x, h: float) -> float:
    """Poisson integral at height ``h``: the polygon's solid angle from (x, h) over 2 pi."""
    p = np.array([float(x[0]), float(x[1]), float(h)])
    pts = [np.array([q[0], q[1], 0.0]) - p for q in v]
    total = math.fsum(_solid_angle_triangle(pts[0], pts[i], pts[i + 1])
                      for i in range(1, len(pts) - 1))
    return abs(total) / (2 * math.pi)


def central_gradient(f, x, step: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        out[k] = (f(x + e) - f(x - e)) / (2 * step)
    return out


# ---------------------------------------------------------------------------
# axis-aligned rectangles (the square and the L-shape are unions of these)
# ---------------------------------------------------------------------------

def heat_rectangles(rects, x, t: float) -> tuple[float, np.ndarray]:
    """Heat potential of a union of disjoint rectangles: products of erf differences."""
    s = 2.0 * math.sqrt(t)
    c = 2.0 / (math.sqrt(math.pi) * s)
    val = 0.0
    grad = np.zeros(2)
    for (x0, y0), (x1, y1) in rects:
        fx = 0.5 * (erf((x1 - x[0]) / s) - erf((x0 - x[0]) / s))
        fy = 0.5 * (erf((y1 - x[1]) / s) - erf((y0 - x[1]) / s))
        dfx = 0.5 * c * (-math.exp(-((x1 - x[0]) / s) ** 2) + math.exp(-((x0 - x[0]) / s) ** 2))
        dfy = 0.5 * c * (-math.exp(-((y1 - x[1]) / s) ** 2) + math.exp(-((y0 - x[1]) / s) ** 2))
        val += fx * fy
        grad += np.array([dfx * fy, fx * dfy])
    return val, grad


# ---------------------------------------------------------------------------
# disks
# ---------------------------------------------------------------------------

def disk_riesz(center, radius: float, x, alpha: float):
    """Closed forms for the orders 2 and 4 anywhere, and every order at the center.

    Returns (value, gradient) or None where no closed form is used.
    """
    d = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    r2 = float(d @ d)
    R = radius
    if alpha == 4.0:
        return -(math.pi * R ** 4 / 2 + math.pi * R * R * r2), -2 * math.pi * R * R * d
    if alpha == 2.0:
        if r2 < R * R:
            return math.pi * (R * R - r2) / 2 - math.pi * R * R * math.log(R), -math.pi * d
        return -math.pi * R * R * 0.5 * math.log(r2), -math.pi * R * R * d / r2
    if r2 == 0.0:
        if alpha == 0.0:
            return 2 * math.pi * math.log(R), np.zeros(2)
        return math.copysign(1.0, 2 - alpha) * 2 * math.pi * R ** alpha / alpha, np.zeros(2)
    return None


def disk_poisson_center(radius: float, h: float) -> float:
    return 1.0 - h / math.sqrt(radius * radius + h * h)


def disk_heat_center(radius: float, t: float) -> float:
    return 1.0 - math.exp(-radius * radius / (4 * t))


def disk_residual(center, radius: float, x, r: float) -> np.ndarray:
    """First angular moment of the disk's arcs on the circle of radius ``r`` about ``x``."""
    c = np.asarray(center, dtype=float)
    dv = c - np.asarray(x, dtype=float)
    d = math.hypot(*dv)
    if r + d <= radius or r >= d + radius or d >= r + radius:
        return np.zeros(2)
    beta = math.acos(max(-1.0, min(1.0, (d * d + r * r - radius * radius) / (2 * d * r))))
    return 2.0 * r * math.sin(beta) * dv / d


def sampled_residual(inside_many, x, r: float, n: int = 20000) -> np.ndarray:
    """First angular moment of a circle's inside part, by dense midpoint sampling."""
    th = (np.arange(n) + 0.5) * (2 * math.pi / n)
    pts = np.stack([x[0] + r * np.cos(th), x[1] + r * np.sin(th)], axis=1)
    ins = inside_many(pts)
    w = 2 * math.pi / n
    return r * w * np.array([float(np.sum(np.cos(th[ins]))), float(np.sum(np.sin(th[ins])))])


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

def triangle_incenter(v: np.ndarray) -> np.ndarray:
    a = math.hypot(*(v[1] - v[2]))
    b = math.hypot(*(v[2] - v[0]))
    c = math.hypot(*(v[0] - v[1]))
    return (a * v[0] + b * v[1] + c * v[2]) / (a + b + c)


def triangle_circumcenter(v: np.ndarray) -> np.ndarray:
    """Minimal enclosing disk center: the hypotenuse midpoint for right or obtuse triangles."""
    sides = [(math.hypot(*(v[(i + 1) % 3] - v[(i + 2) % 3])), i) for i in range(3)]
    longest, i = max(sides)
    p, q, o = v[(i + 1) % 3], v[(i + 2) % 3], v[i]
    mid = 0.5 * (p + q)
    if math.hypot(*(o - mid)) <= 0.5 * longest * (1 + 1e-12):
        return mid
    ax, ay = v[0]
    bx, by = v[1]
    cx, cy = v[2]
    dd = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / dd
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / dd
    return np.array([ux, uy])


# ---------------------------------------------------------------------------
# the radially parameterized balanced body
# ---------------------------------------------------------------------------

def radial_moments(rho, n: int = 1 << 17) -> tuple[float, float]:
    """Area and polar moment of a body star-shaped about the origin, by the midpoint rule."""
    th = (np.arange(n) + 0.5) * (2 * math.pi / n)
    r = np.asarray(rho(th), dtype=float)
    w = 2 * math.pi / n
    return 0.5 * w * float(np.sum(r * r)), 0.25 * w * float(np.sum(r ** 4))
