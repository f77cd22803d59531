"""Closed-form disk potentials: functions of the distance to the center.

Seen from a point x, a disk of center c and radius R has every potential
depend on d = |x - c| alone, V(x) = V(d).  Each family here gives the value
V(d), the slope g = V'(d) / d and the curvature d g'(d) = V''(d) - V'(d) / d,
written so that both stay finite at d = 0.  With delta = x - c and
u = delta / d,

* the gradient is V'(d) u = g delta;
* the Hessian is V'' u u^T + (V' / d)(I - u u^T) = g I + d g' u u^T.

Riesz potentials are Gauss hypergeometric functions of d^2 / R^2 inside and
of R^2 / d^2 outside, with d/dz 2F1(a, b; c; z) = (ab / c) 2F1(a + 1, b + 1;
c + 1; z).  The heat value is the noncentral chi-square distribution with two
degrees of freedom (a Marcum Q function), summed as a series of modified
Bessel functions, as are its derivatives.  The Poisson value is the solid
angle of the disk (Paxton, Rev. Sci. Instrum. 30, 1959) in Carlson's
symmetric form (Carlson, Numer. Algorithms 10, 1995), its derivatives
hypergeometric again.  Points in the disk's boundary band stay on quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import elliprf, elliprj, hyp2f1, ive

__all__ = ["riesz_value", "riesz_slope", "riesz_curvature", "poisson_value",
           "poisson_slope", "poisson_curvature", "heat_value", "heat_slope",
           "heat_curvature", "hessian"]


# ---------------------------------------------------------------------------
# Riesz: k(r) = sign(2 - alpha) r^(alpha - 2), and -log r at alpha = 2
# ---------------------------------------------------------------------------

def _f21(a: float, b: float, c: float, p: float, q: float) -> float:
    """2F1(a, b; c; p^2/q^2) for 0 <= p < q.  Where it diverges at 1 (c < a + b)
    it is (1 - z)^(c - a - b) 2F1(c - a, c - b; c; z) (Euler), with 1 - z
    formed as (q - p)(q + p) / q^2, which keeps its digits near the rim."""
    z = (p / q) ** 2
    e = c - a - b
    if e >= 0:
        return float(hyp2f1(a, b, c, z))
    return ((q - p) * (q + p) / (q * q)) ** e * float(hyp2f1(c - a, c - b, c, z))


def riesz_value(d: float, R: float, alpha: float) -> float:
    """sign(2 - alpha) (2 pi / alpha) R^alpha 2F1(1 - alpha/2, -alpha/2; 1; d^2/R^2)
    inside, sign(2 - alpha) pi R^2 d^(alpha - 2) 2F1(1 - alpha/2, 1 - alpha/2;
    2; R^2/d^2) outside; logs at the orders 0 and 2."""
    if alpha == 0:
        if d < R:
            return math.pi * math.log((R - d) * (R + d))
        return -math.pi * math.log1p(-(R / d) ** 2)
    if alpha == 2:
        if d < R:
            return math.pi * (R - d) * (R + d) / 2 - math.pi * R * R * math.log(R)
        return -math.pi * R * R * math.log(d)
    s = math.copysign(1.0, 2 - alpha)
    if d < R:
        return s * 2 * math.pi / alpha * R ** alpha \
            * _f21(1 - alpha / 2, -alpha / 2, 1.0, d, R)
    return s * math.pi * R * R * d ** (alpha - 2) \
        * _f21(1 - alpha / 2, 1 - alpha / 2, 2.0, R, d)


def _riesz_scale(alpha: float) -> float:
    """|alpha - 2|, the kernel's derivative factor; 1 for the log at order 2."""
    return 1.0 if alpha == 2 else abs(alpha - 2)


def riesz_slope(d: float, R: float, alpha: float) -> float:
    """-pi |alpha - 2| R^(alpha - 2) 2F1(2 - alpha/2, 1 - alpha/2; 2; d^2/R^2)
    inside, -pi |alpha - 2| R^2 d^(alpha - 4) 2F1(..; R^2/d^2) outside."""
    a, b = 2 - alpha / 2, 1 - alpha / 2
    c = -math.pi * _riesz_scale(alpha)
    if d < R:
        return c * R ** (alpha - 2) * _f21(a, b, 2.0, d, R)
    return c * R * R * d ** (alpha - 4) * _f21(a, b, 2.0, R, d)


def riesz_curvature(d: float, R: float, alpha: float) -> float:
    """d g'(d) for the slope g above.  Inside it is 2z times the z-derivative
    of g, z = d^2/R^2; outside g is a multiple of w^a 2F1(a, b; 2; w),
    w = R^2/d^2, whose w-derivative is a w^(a - 1) 2F1(a + 1, b; 2; w)."""
    a, b = 2 - alpha / 2, 1 - alpha / 2
    c = -math.pi * _riesz_scale(alpha)
    if d < R:
        return c * R ** (alpha - 2) * a * b * (d / R) ** 2 * _f21(a + 1, b + 1, 3.0, d, R)
    return -2 * a * c * R * R * d ** (alpha - 4) * _f21(a + 1, b, 2.0, R, d)


# ---------------------------------------------------------------------------
# Poisson: k(r) = h / (2 pi (r^2 + h^2)^(3/2))
# ---------------------------------------------------------------------------

def poisson_value(d: float, R: float, h: float) -> float:
    """Omega / 2 pi, with the disk's solid angle seen from height h

        Omega = 2 pi [d < R] - 2 h / sqrt(s^2 + h^2) (K(m) - (g / s) Pi(n, m)),

    s = d + R, g = d - R, 1 - m = (g^2 + h^2) / (s^2 + h^2), n = 4 d R / s^2.
    The complements 1 - m and 1 - n = g^2 / s^2 are formed directly: as
    1 - m and 1 - n they would cancel near the rim.  Outside, the bracket is
    (2R / s)(K - (2 d g / 3 s^2) R_J), whose terms cancel to O(R / d) where
    K and (g / s) Pi cancel to O(R^2 / d^2).
    """
    s, g = d + R, d - R
    q2 = s * s + h * h
    m1 = (g * g + h * h) / q2
    K = float(elliprf(0.0, m1, 1.0))
    rj = float(elliprj(0.0, m1, 1.0, (g / s) ** 2))
    if d < R:
        Pi = K + 4 * d * R / (3 * s * s) * rj
        return 1 - h / (math.pi * math.sqrt(q2)) * (K - g / s * Pi)
    return -2 * h * R / (math.pi * s * math.sqrt(q2)) * (K - 2 * d * g / (3 * s * s) * rj)


def poisson_slope(d: float, R: float, h: float) -> float:
    """-(3 h R^2 / 2 A^(5/2)) 2F1(5/4, 7/4; 2; B^2/A^2), A = d^2 + R^2 + h^2, B = 2 d R."""
    A = d * d + R * R + h * h
    return -1.5 * h * R * R / A ** 2.5 * float(hyp2f1(1.25, 1.75, 2.0, (2 * d * R / A) ** 2))


def poisson_curvature(d: float, R: float, h: float) -> float:
    """d g'(d) with the slope g above, through A' = 2d and (B^2/A^2)'."""
    A = d * d + R * R + h * h
    z = (2 * d * R / A) ** 2
    return -1.5 * h * R * R * d * d / A ** 3.5 * (
        8.75 * R * R * (R * R + h * h - d * d) / (A * A) * float(hyp2f1(2.25, 2.75, 3.0, z))
        - 5 * float(hyp2f1(1.25, 1.75, 2.0, z)))


# ---------------------------------------------------------------------------
# heat: k(r) = exp(-r^2 / 4t) / (4 pi t)
# ---------------------------------------------------------------------------

def heat_value(d: float, R: float, t: float) -> float:
    """P(|Z| <= R) for Z Gaussian about d with variance 2t per coordinate,
    1 - Q_1(d / sqrt(2t), R / sqrt(2t)) with Marcum's Q, by its Neumann series:

        1 - e^(-(d - R)^2 / 4t) sum_(k >= 0) (d / R)^k ive(k, z)    inside,
        e^(-(d - R)^2 / 4t) sum_(k >= 1) (R / d)^k ive(k, z)        outside,

    z = d R / 2t.  Both sums have positive terms, so a value outside keeps its
    relative accuracy down to underflow; the noncentral chi-square
    distribution (scipy's ``chndtr``) flushes values below about 1e-100 to zero.
    """
    e = math.exp(-(d - R) ** 2 / (4 * t))
    z = d * R / (2 * t)
    if d < R:
        return 1 - e * _bessel_series(d / R, z, 0)
    return e * _bessel_series(R / d, z, 1)


def _bessel_series(rho: float, z: float, k: int) -> float:
    """sum_(j >= k) rho^j ive(j, z) for 0 <= rho < 1; the terms are positive and
    decrease, and once rho^j or ive(j, z) (past j ~ sqrt z) takes over they
    fall geometrically or faster, so the sum stops at a term below 1e-17 of it."""
    total, n = 0.0, 16
    while True:
        j = np.arange(k, k + n, dtype=float)
        terms = rho ** j * ive(j, z)
        total += float(terms.sum())
        if terms[-1] <= 1e-17 * total:
            return total
        k, n = k + n, 2 * n


def _heat_front(d: float, R: float, t: float):
    """(R^2 / 4t^2) exp(-(d - R)^2 / 4t) and z = d R / 2t: e^(-(d^2 + R^2)/4t)
    I_nu(z) is this exponential times ive(nu, z)."""
    return R * R / (4 * t * t) * math.exp(-(d - R) ** 2 / (4 * t)), d * R / (2 * t)


def heat_slope(d: float, R: float, t: float) -> float:
    """-(R^2 / 4t^2) e^(-(d^2 + R^2)/4t) I_1(z) / z; I_1(z) / z = (I_0 - I_2)(z) / 2
    near z = 0."""
    f, z = _heat_front(d, R, t)
    if z < 1:
        return -f * float(ive(0, z) - ive(2, z)) / 2
    return -f * float(ive(1, z)) / z


def heat_curvature(d: float, R: float, t: float) -> float:
    """-(R^2 / 4t^2) e^(-(d^2 + R^2)/4t) (I_2(z) - (d / R) I_1(z))."""
    f, z = _heat_front(d, R, t)
    return -f * float(ive(2, z) - d / R * ive(1, z))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def hessian(delta, d: float, slope: float, curvature: float):
    """g I + d g' u u^T; at d = 0 the curvature vanishes and u is immaterial."""
    H = slope * np.eye(2)
    if d > 0:
        u = delta / d
        H += curvature * np.outer(u, u)
    return H
