"""Closed-form polygon potentials: one vectorized sum over the edges.

Seen from a point x, edge i of a polygon has a frame: its unit tangent e and
unit outward normal n, the signed distance p = b - n.x from x to its line
(positive on the inner side), q = |p|, and its ends at s_a < s_b along e,
measured from the foot of the perpendicular from x (``Polygon.locate``).
With r = sqrt(q^2 + s^2), theta = atan2(s, q) and [f] = f(s_b) - f(s_a):

* values are sums of signed sectors, the sector of edge i being the triangle
  (x, v_i, v_i+1) with sign sign(p);
* gradients are boundary integrals, grad V = -sum n int k(r) ds;
* Hessians are -sum (int w d ds) (x) n with w = k'(r) / r and
  d = x - y = -(p n + s e), where int w s ds = [k(r)].

Everything Riesz reduces to G_a(q, s) = int_0^s (q^2 + u^2)^((a-2)/2) du
(``_bracket``).  Poisson values are the triangles' solid angles (Van
Oosterom & Strackee, IEEE TBME 30, 1983), heat values Owen's T function
(Owen, Ann. Math. Statist. 27, 1956).  Riesz orders 0 and 2 have no value
here (they need a log or a Clausen function); neither do Poisson and heat
values outside the body, where the sector sum cancels in the far tail.
Those stay on quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, hyp2f1, owens_t

__all__ = ["riesz_value", "riesz_flux", "riesz_moments", "poisson_value",
           "poisson_flux", "poisson_moments", "heat_value", "heat_flux",
           "heat_moments", "gradient", "hessian"]


# ---------------------------------------------------------------------------
# G_a(q, s) = int_0^s (q^2 + u^2)^((a-2)/2) du
# ---------------------------------------------------------------------------

def _g_limit(a: float, q: np.ndarray) -> np.ndarray:
    """G_a(q, s) as s -> inf for a < 1, and -log q for a = 1; q > 0."""
    if a == 1:
        return -np.log(q)
    return math.sqrt(math.pi) * math.gamma((1 - a) / 2) / (2 * math.gamma(1 - a / 2)) \
        * q ** (a - 1)


def _g_parts(a: float, q: np.ndarray, s: np.ndarray):
    """G_a = c * _g_limit(a, q) + g for a <= 1.

    Where |s| >= q, c = sign(s) and g = -sign(s) times the tail
    int_|s|^inf, which is r^(a-1) / (1 - a) 2F1((1 - a)/2, 1/2; (3 - a)/2;
    q^2/r^2) (for a = 1 the finite part -log(|s| + r)): finite at q = 0, and
    the divergent limit cancels exactly between two ends on the same side.
    Where |s| < q, c = 0 and g is the head integral in its Euler form
    s r^a / q^2 2F1(1, (a + 1)/2; 3/2; -s^2/q^2).
    """
    sign = np.sign(s)
    r2 = q * q + s * s
    if a == 1:
        tail = -np.log(np.abs(s) + np.sqrt(r2))
    else:
        tail = r2 ** ((a - 1) / 2) / (1 - a) * hyp2f1((1 - a) / 2, 0.5, (3 - a) / 2, q * q / r2)
    head = np.abs(s) < q
    if not head.any():
        return sign, -sign * tail
    qh = np.where(head, q, 1.0)
    sh = np.where(head, s, 0.0)
    if a == 1:
        hv = np.arcsinh(sh / qh)
    else:
        hv = (qh * qh + sh * sh) ** (a / 2) * sh / (qh * qh) \
            * hyp2f1(1.0, (a + 1) / 2, 1.5, -(sh / qh) ** 2)
    return np.where(head, 0.0, sign), np.where(head, hv, -sign * tail)


def _g_recurrence(a: float, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G_a for a > 1, upward from b = a - 2k in (-1, 1] by
    (b + 1) G_(b+2) = s r^b + b q^2 G_b, which damps errors by q^2 / r^2 a step
    and keeps every factor representable at large orders."""
    k = math.ceil((a - 1) / 2)
    b = a - 2 * k
    c, g = _g_parts(b, q, s)
    q2 = q * q
    # q^2 G_b; the divergent part vanishes with q (q^(b+1), or q^2 log q)
    q2g = q2 * (g + c * _g_limit(b, q + (q == 0)))
    r2 = q2 + s * s
    rb = r2 ** (b / 2)
    G = (s * rb + b * q2g) / (b + 1)
    for _ in range(k - 1):
        b += 2
        rb = rb * r2
        G = (s * rb + b * q2 * G) / (b + 1)
    return G


def _bracket(a: float, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[G_a] per edge; ``s`` has the rows s_a and s_b.

    At odd orders a >= 1 the tail has a log; at a distance delta from one
    the split into limit and tail, or the recurrence step, cancels to about
    1e-16 / delta relative.  Orders within 1e-8 of an odd one are taken as
    it, which bounds the loss by a few times 1e-8.
    """
    odd = 2 * round((a - 1) / 2) + 1
    if odd >= 1 and abs(a - odd) < 1e-8:
        a = float(odd)
    if a > 1:
        G = _g_recurrence(a, q, s)
        return G[1] - G[0]
    c, g = _g_parts(a, q, s)
    jump = c[1] - c[0]
    if jump.any():
        # the limit where it counts, which has q > 0; elsewhere q may be 0
        return g[1] - g[0] + jump * _g_limit(a, np.where(jump != 0, q, 1.0))
    return g[1] - g[0]


# ---------------------------------------------------------------------------
# Riesz: k(r) = sign(2 - alpha) r^(alpha - 2), and -log r at alpha = 2
# ---------------------------------------------------------------------------

def riesz_value(frame, alpha: float, flux=None) -> float:
    """sign(2 - alpha) / alpha * sum p [G_alpha], for alpha not in {0, 2}.

    Given the edges' ``flux`` (``riesz_flux``, sign(2 - alpha) [G_alpha]),
    the bracket is read off it, exactly, instead of computed again.
    """
    c = math.copysign(1.0, 2 - alpha)
    g = _bracket(alpha, np.abs(frame.p), frame.s) if flux is None else c * flux
    return c / alpha * float(frame.p @ g)


def riesz_flux(frame, alpha: float) -> np.ndarray:
    """int k ds per edge."""
    q, s = np.abs(frame.p), frame.s
    if alpha == 2:
        r = np.hypot(q, s)
        f = s * np.log(r) - s + q * np.arctan2(s, q)
        return f[0] - f[1]
    return math.copysign(1.0, 2 - alpha) * _bracket(alpha, q, s)


def riesz_moments(frame, alpha: float):
    """int w ds and int w s ds per edge, w = k'(r) / r."""
    q, s = np.abs(frame.p), frame.s
    r2 = q * q + s * s
    if alpha == 2:
        return -_bracket(0.0, q, s), -0.5 * (np.log(r2[1]) - np.log(r2[0]))
    k = r2 ** (0.5 * (alpha - 2))
    return -abs(alpha - 2) * _bracket(alpha - 2, q, s), \
        math.copysign(1.0, 2 - alpha) * (k[1] - k[0])


# ---------------------------------------------------------------------------
# Poisson: k(r) = h / (2 pi (r^2 + h^2)^(3/2))
# ---------------------------------------------------------------------------

def poisson_value(frame, h: float) -> float:
    """(1 / 2 pi) sum [atan2(p s, Q^2 + h R)], Q^2 = q^2 + h^2, R^2 = Q^2 + s^2.

    This is sign(p) [theta - arcsin(h sin(theta) / Q)] without cancellation;
    the sectors' angles make up the constant 1 inside the body.
    """
    q, s = np.abs(frame.p), frame.s
    Q2 = q * q + h * h
    a = np.arctan2(frame.p * s, Q2 + h * np.sqrt(Q2 + s * s))
    return float(np.sum(a[1] - a[0])) / (2 * math.pi)


def poisson_flux(frame, h: float) -> np.ndarray:
    q, s = np.abs(frame.p), frame.s
    Q2 = q * q + h * h
    f = s / (Q2 * np.sqrt(Q2 + s * s))
    return h / (2 * math.pi) * (f[1] - f[0])


def poisson_moments(frame, h: float):
    q, s = np.abs(frame.p), frame.s
    Q2 = q * q + h * h
    R2 = Q2 + s * s
    R3 = R2 * np.sqrt(R2)
    w = s * (2 * s * s + 3 * Q2) / (3 * Q2 * Q2 * R3)
    c = h / (2 * math.pi)
    return -3 * c * (w[1] - w[0]), c * (1 / R3[1] - 1 / R3[0])


# ---------------------------------------------------------------------------
# heat: k(r) = exp(-r^2 / 4t) / (4 pi t)
# ---------------------------------------------------------------------------

def heat_value(frame, t: float) -> float:
    """sum sign(p) [theta / 2 pi - T(q / sqrt(2t), s / q)], T Owen's T."""
    q, s = np.abs(frame.p), frame.s
    qs = q + (q == 0)           # sign(p) = 0 drops those edges
    f = np.arctan2(s, q) / (2 * math.pi) - owens_t(qs / math.sqrt(2 * t), s / qs)
    return float(np.sign(frame.p) @ (f[1] - f[0]))


def _erf_bracket(u: np.ndarray) -> np.ndarray:
    """erf(u_b) - erf(u_a) per edge (rows u_a < u_b) as a difference of erfc,
    mirrored where u_b <= 0, so that no end in a far tail cancels."""
    side = np.where(u[1] > 0, 1.0, -1.0)
    e = erfc(side * u)
    return side * (e[0] - e[1])


def heat_flux(frame, t: float) -> np.ndarray:
    q, s = np.abs(frame.p), frame.s
    return np.exp(-q * q / (4 * t)) * _erf_bracket(s / (2 * math.sqrt(t))) \
        / (4 * math.sqrt(math.pi * t))


def heat_moments(frame, t: float):
    q, s = np.abs(frame.p), frame.s
    k = np.exp(-(q * q + s * s) / (4 * t))
    return -heat_flux(frame, t) / (2 * t), (k[1] - k[0]) / (4 * math.pi * t)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def gradient(frame, flux: np.ndarray) -> np.ndarray:
    """-sum n int k ds."""
    return -(flux @ frame.normals)


def hessian(frame, moments) -> np.ndarray:
    """sum (p int w ds n + int w s ds e) (x) n, symmetrized."""
    w0, w1 = moments
    d = (frame.p * w0)[:, None] * frame.normals + w1[:, None] * frame.tangents
    H = d.T @ frame.normals
    return 0.5 * (H + H.T)
