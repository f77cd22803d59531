"""Reference computations that the tests compare the package against.

No production path calls these; each computes a quantity of the package a
second way.  Each has a blind spot, a kind of fault it cannot see:

* ``poisson_kernel_gauss_integral`` -- the Poisson kernel from its Gaussian
  integral representation, by ``adaptive_gk``.  The quadrature stops at its
  absolute tolerance (1e-12 by default), so where the integral is small its
  relative error grows: 3e-12 at |z| = 500, h = 0.7, against 3e-15 near the
  origin.  It sees a wrong constant only as far as that error allows.
* ``riesz_value_finite_part_eps`` and ``riesz_gradient_annulus`` -- the
  finite-part value (alpha <= 0) and the gradient from an explicit excluded
  ball of radius eps.  They integrate over the boundary pieces as the
  ``pieces`` route does (``potentials._piece_integral``), so they check the
  counterterms and their independence of eps, not that integral: a fault in
  the pieces route shows in both sides of the comparison.  Interior points
  only.
* ``riesz_value_complement`` -- the finite-part value (alpha < 0) as minus
  the integral over the complement, with the circle arcs outside the body
  measured by ``circle_clip``.  It shares no quadrature with the pieces
  route but reads the same ``crossings`` as the balance residuals, so a
  crossing fault that keeps the arcs' measure goes unseen.  Its radial
  integrand has kinks at the tangent radii, which its three fixed
  breakpoints do not name; the quadrature finds them by bisection alone.
* ``riesz_gradient_boundary`` -- the gradient as a boundary integral against
  the outward normal, at any point off the boundary.  It shares the boundary
  pieces and their panels (``potentials._boundary_integral``) with the
  pieces route, so it checks the volume profiles and the route choice, not
  the pieces' geometry.
* ``circle_clip_offcenter`` -- the arcs of a circle inside a
  ``RadialArcBody`` from 2048 samples of |p| - R(arg p), each sign change
  refined by ``balance.brentq``.  It misses every arc and gap narrower than
  2 pi / 2048, and near a tangency its roots are conditioned by the square
  root of the distance to it.
* ``arcs_between`` -- the arcs between given crossing angles whose midpoints
  lie inside.  It is only as right as the crossings it is handed and the
  membership test at each midpoint; an arc whose midpoint lies within the
  membership slack of the boundary is kept or dropped by that slack.
"""

import math

import numpy as np

from radialcenters import balance
from radialcenters.errors import BoundaryPoint
from radialcenters.geometry import ArcSet, _build_arcset, _unit, _whole_circle, as_point, \
    circle_clip
from radialcenters.potentials import _boundary_integral, _piece_integral, \
    _riesz_grad_profile, _riesz_profile
from radialcenters.quadrature import DEFAULT_CONFIG, QuadratureConfig, adaptive_gk


def poisson_kernel_gauss_integral(z, h: float,
                                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Poisson kernel through its Gaussian integral representation.

    Numerically evaluates ``(2 / (pi^(3/2) h^2)) * int_0^inf s^2
    exp(-(|z|^2 + h^2) s^2 / h^2) ds``; agrees with ``poisson_kernel`` and is
    an independent cross-check of the kernel constant.
    """
    z = as_point(z)
    beta = (float(z @ z) + h * h) / (h * h)
    s_hi = math.sqrt(80.0 / beta)

    def integrand(s):
        return s ** 2 * np.exp(-beta * s * s)

    val, _ = adaptive_gk(integrand, [0.0, s_hi / 8, s_hi], cfg)
    return 2.0 / (math.pi ** 1.5 * h ** 2) * float(val)


def riesz_value_finite_part_eps(body, x, alpha: float, eps: float,
                                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Finite-part value assembled from an explicit excluded-ball radius.

    Computes ``int over body minus the eps-ball`` plus the regularizing
    counterterm; the result is independent of ``eps`` for any admissible
    choice ``0 < eps < dist(x, boundary)``.  Only defined for ``alpha <= 0``
    at interior points.
    """
    x = as_point(x)
    if alpha > 0:
        raise ValueError("explicit-eps assembly is for alpha <= 0")
    loc, dist, _ = body.locate(x)
    if loc != "interior":
        raise BoundaryPoint("finite-part assembly needs an interior point")
    if not (0 < eps < dist):
        raise ValueError("eps must lie in (0, dist(x, boundary))")
    total = _piece_integral(body, x, _riesz_profile(alpha), cfg, False)
    if alpha == 0:
        annulus = total - 2 * math.pi * math.log(eps)
        counterterm = -2 * math.pi * math.log(1.0 / eps)
    else:
        annulus = total - 2 * math.pi * eps ** alpha / alpha
        counterterm = -(2 * math.pi / (-alpha)) * eps ** alpha
    return annulus + counterterm


def riesz_value_complement(body, x, alpha: float,
                           cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Finite-part value through the complement identity (``alpha < 0`` interior).

    Evaluates ``-int over the complement of |x-y|^(alpha-2) dy`` by splitting
    the complement at the circumscribed radius and measuring the inner part
    with circle-arc clipping; independent of the radial-function route.
    """
    x = as_point(x)
    if alpha >= 0:
        raise ValueError("complement identity holds for alpha < 0")
    loc, r_near, _ = body.locate(x)
    if loc != "interior":
        raise BoundaryPoint("complement identity needs an interior point")
    r_far = body.reach(x) * (1 + 1e-12)
    # tail beyond the circumscribed circle, closed form
    tail = -2 * math.pi * r_far ** alpha / alpha
    # inside the circumscribed circle but outside the body

    def integrand(rs):
        out = np.empty_like(rs)
        for i, r in enumerate(rs):
            gap = 2 * math.pi - circle_clip(body, x, float(r)).measure()
            out[i] = float(r) ** (alpha - 1) * gap
        return out

    inner, _ = adaptive_gk(integrand, [r_near, 0.5 * (r_near + r_far), r_far], cfg)
    return -(tail + inner)


def riesz_gradient_annulus(body, x, alpha: float, eps: float,
                           cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Interior gradient via the excluded-ball integral with explicit ``eps``.

    Valid for any admissible ``0 < eps < dist(x, boundary)``; the ``eps``
    term integrates to zero over the full circle, which is what makes the
    expression ``eps``-independent.
    """
    x = as_point(x)
    loc, dist, _ = body.locate(x)
    if loc != "interior":
        raise BoundaryPoint("annulus form needs an interior point")
    if not (0 < eps < dist):
        raise ValueError("eps must lie in (0, dist(x, boundary))")
    G = _riesz_grad_profile(alpha)
    pref = abs(2 - alpha)
    g_eps = float(G(np.asarray(eps)))
    return pref * _piece_integral(body, x, lambda r: G(r) - g_eps, cfg, True)


def riesz_gradient_boundary(body, x, alpha: float,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gradient as a boundary integral against the outward normal.

    Valid at any point off the boundary, for every ``alpha``.
    """
    x = as_point(x)
    if body.locate(x).location == "boundary":
        raise BoundaryPoint("boundary-integral gradient needs a point off the boundary")
    if alpha == 2:
        kern = lambda r: np.log(r)
        pref = 1.0
    else:
        kern = lambda r: r ** (alpha - 2)
        pref = -math.copysign(1.0, 2 - alpha)

    def integrand(d, n_ds):
        return kern(np.hypot(d[:, 0], d[:, 1]))[:, None] * n_ds

    return pref * _boundary_integral(body, x, integrand, cfg)


def circle_clip_offcenter(body, x, r) -> ArcSet:
    """Sign changes of |p| - R(arg p) among 2048 samples of the circle of
    radius ``r`` about ``x``, each bracket refined by ``balance.brentq``, and
    the arcs between them whose midpoints lie inside a ``RadialArcBody``."""
    ts = np.linspace(0, 2 * math.pi, 2048, endpoint=False)
    rad, rb = body._polar(x + r * np.stack([np.cos(ts), np.sin(ts)], axis=1))
    vals = rad - rb
    neg = vals < 0
    starts = ts[(vals == 0.0) | (neg != np.roll(neg, -1))]

    def g(t):
        rad, rb = body._polar(x + r * np.array([math.cos(t), math.sin(t)]))
        return float(rad[0] - rb[0])

    crossings = []
    for t_lo in starts:
        try:
            root = balance.brentq(g, t_lo, t_lo + 2 * math.pi / 2048, xtol=1e-14)
        except ValueError:
            continue
        crossings.append(root % (2 * math.pi))
    return arcs_between(x, r, sorted(crossings), body.contains)


def arcs_between(x, r, crossings, inside) -> ArcSet:
    """Arcs between consecutive sorted crossing angles whose midpoints are
    ``inside``."""
    if not crossings:
        return _whole_circle(x, r, inside)
    raw = []
    k = len(crossings)
    for i in range(k):
        t1 = crossings[i]
        t2 = crossings[(i + 1) % k] + (2 * math.pi if i == k - 1 else 0.0)
        if inside(x + r * _unit(0.5 * (t1 + t2))):
            raw.append((t1, t2))
    return _build_arcset(x, r, raw)
