"""Potential values, gradients and Hessians for planar bodies.

Families: the order-``alpha`` radial power potential (with Hadamard
finite-part regularization at interior points for ``alpha <= 0``), the
Poisson integral of the body's indicator at height ``h``, and the heat
potential at time ``t``.  Planar bodies (``m = 2``) get full support; balls
in arbitrary ambient dimension are evaluated semi-analytically for testing
dimension-generic constants.

Evaluation strategy: each body names one route for the base point's
location.  Off its boundary band a polygon names ``edges``: values,
gradients and Hessians are then closed-form sums over the edges, in one
vectorized pass (``edges`` module).  A disk names ``disk`` there: all three
are closed-form functions of the distance to its center (``disks``
module).  Everywhere else the singularity (if any) is absorbed into an
exact radial antiderivative and the remaining smooth angular integral is
done by adaptive quadrature: about the base point where the whole body is
visible from it (``angular``), or sector by sector over polygon edges
(``fan``).  Hessians, and Riesz gradients at exterior points, are
one-dimensional quadratures over the body's boundary pieces there.

Quadrature stays the production path for the radially parameterized body,
for points in a boundary band, and for the polygon values that have no
closed form here: Riesz orders 0 and 2 (a log or a Clausen function) and
Poisson and heat values outside the body (the sector sum loses relative
accuracy in the far tail).  Those polygon values take the fan route.  Off
the band, the angular and fan routes, the chord route outside a disk
(``quadrature.disk_exterior_integral``), the boundary-piece quadratures
(``riesz_gradient_boundary``) and the explicit-``eps`` forms are test
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import erf, erfc

from . import disks, edges
from .errors import BoundaryPoint
from .geometry import BOUNDARY_BAND, Disk, as_point, classify_location
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, adaptive_gk, fan_integral,
                         fan_integral_vector, integrate_angular, integrate_angular_vector)

__all__ = [
    "Riesz", "Poisson", "Heat", "PotentialSpec", "PotentialValue",
    "sphere_area", "poisson_kernel", "poisson_kernel_gauss_integral",
    "weierstrass_kernel",
    "riesz_value", "riesz_value_finite_part_eps", "riesz_value_complement",
    "riesz_gradient", "riesz_gradient_boundary", "riesz_gradient_annulus",
    "poisson_value", "poisson_gradient", "heat_value", "heat_gradient",
    "potential", "potential_gradient", "potential_hessian",
]


@dataclass(frozen=True)
class Riesz:
    alpha: float
    m: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("ambient dimension must be >= 1")


@dataclass(frozen=True)
class Poisson:
    h: float
    m: int = 2

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("height h must be positive")
        if self.m < 1:
            raise ValueError("ambient dimension must be >= 1")


@dataclass(frozen=True)
class Heat:
    t: float
    m: int = 2

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("time t must be positive")
        if self.m < 1:
            raise ValueError("ambient dimension must be >= 1")


PotentialSpec = Union[Riesz, Poisson, Heat]


@dataclass(frozen=True)
class PotentialValue:
    value: float
    regime: str
    location: str


def _riesz_regime(alpha: float, m: int) -> str:
    if alpha == 0:
        return "alpha_zero_finite_part"
    if alpha < 0:
        return "alpha_negative"
    if alpha == m:
        return "alpha_eq_m"
    return "alpha_positive_ne_m"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def sphere_area(n: int) -> float:
    """Surface measure of the unit n-sphere embedded in R^(n+1)."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def poisson_kernel(z, h: float, m: int = 2) -> float:
    """Upper-half-space Poisson kernel at offset ``z`` and height ``h``."""
    if h <= 0:
        raise ValueError("height h must be positive")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    r2 = float(zz @ zz) if zz.ndim == 1 else float(np.sum(zz * zz))
    return (2.0 / sphere_area(m)) * h / (r2 + h * h) ** ((m + 1) / 2)


def poisson_kernel_gauss_integral(z, h: float, m: int = 2,
                                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Poisson kernel through its Gaussian integral representation.

    Numerically evaluates ``(2 / (pi^((m+1)/2) h^m)) * int_0^inf s^m
    exp(-(|z|^2 + h^2) s^2 / h^2) ds``; agrees with ``poisson_kernel`` and is
    used as an independent cross-check of the kernel constant.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    beta = (float(zz @ zz) + h * h) / (h * h)
    s_hi = math.sqrt((60.0 + 10.0 * m) / beta)

    def integrand(s):
        return s ** m * np.exp(-beta * s * s)

    val, _ = adaptive_gk(integrand, [0.0, s_hi / 8, s_hi], cfg)
    return 2.0 / (math.pi ** ((m + 1) / 2) * h ** m) * float(val)


def weierstrass_kernel(z, t: float, m: int = 2) -> float:
    if t <= 0:
        raise ValueError("time t must be positive")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    r2 = float(zz @ zz)
    return (4 * math.pi * t) ** (-m / 2) * math.exp(-r2 / (4 * t))


# ---------------------------------------------------------------------------
# radial antiderivatives (m = 2): F(rho) = int_0^rho kernel(r) r dr,
# with the additive constant at zero dropped in the singular regimes
# (that convention realizes the finite part at interior base points).
# About an exterior point the signed chords cancel any additive constant, so
# the Poisson and heat profiles, values and gradients alike, drop their
# limits at infinity there: far from the body they then no longer cancel
# between O(1) sector integrals.
# ---------------------------------------------------------------------------

def _riesz_profile(alpha: float):
    if alpha == 2:
        # encodes -int log|x-y| directly
        return lambda rho: rho * rho * 0.25 - 0.5 * rho * rho * np.log(rho)
    if alpha == 0:
        return lambda rho: np.log(rho)
    return lambda rho: rho ** alpha / alpha


def _riesz_grad_profile(alpha: float):
    """G with gradient = |2 - alpha| * int u(theta) [G(rho) - G(eps)] dtheta."""
    if alpha == 1:
        return lambda r: np.log(r)
    return lambda r: r ** (alpha - 1) / (alpha - 1)


def _poisson_profile(h: float, loc: str):
    c = 0.0 if loc == "exterior" else 1.0
    return lambda rho: (c - h / np.sqrt(rho * rho + h * h)) / (2 * math.pi)


def _poisson_grad_profile(h: float, loc: str):
    if loc == "exterior":
        def g(r):  # minus the limit 1/(2 pi h), in a form free of cancellation
            s = np.sqrt(r * r + h * h)
            return -h * (s * s + s * r + r * r) / (2 * math.pi * s ** 3 * (s + r))
        return g
    return lambda r: r ** 3 / (2 * math.pi * h * (r * r + h * h) ** 1.5)


def _heat_profile(t: float, loc: str):
    c = 0.0 if loc == "exterior" else 1.0
    return lambda rho: (c - np.exp(-rho * rho / (4 * t))) / (2 * math.pi)


def _heat_grad_profile(t: float, loc: str):
    c = 1.0 / (4 * math.pi * t)
    sq = math.sqrt(math.pi * t)
    if loc == "exterior":
        return lambda r: -c * (sq * erfc(r / (2 * math.sqrt(t))) + r * np.exp(-r * r / (4 * t)))
    return lambda r: c * (sq * erf(r / (2 * math.sqrt(t))) - r * np.exp(-r * r / (4 * t)))


# ---------------------------------------------------------------------------
# routing helpers
# ---------------------------------------------------------------------------

def _location(body, x) -> str:
    return classify_location(body, x)


def _integrate(body, x, profile, route: str, cfg, vector: bool = False):
    """Kernel integral over the body by quadrature along ``route``; a
    polygon's ``edges`` route falls back to its signed sectors (``fan``),
    a disk's ``disk`` route about interior points to the angular one.

    ``profile`` is the radial antiderivative of the kernel, which gives the
    finite-part convention at interior points.  With ``vector`` the
    integrand is weighted by the unit direction, as gradients need.
    """
    if route in ("angular", "disk"):
        fn = integrate_angular_vector if vector else integrate_angular
    elif route in ("fan", "edges"):
        fn = fan_integral_vector if vector else fan_integral
    else:
        raise ValueError(f"no quadrature route for this point of {type(body).__name__}")
    return fn(body, x, profile, cfg)


def _disk_frame(body, x):
    """(x - c, |x - c|, R) for a body on the ``disk`` route."""
    delta = x - body.center
    return delta, math.hypot(delta[0], delta[1]), body.radius


def _ball(body) -> Disk:
    if not isinstance(body, Disk):
        raise ValueError("general ambient dimension is supported for balls only")
    return body


# ---------------------------------------------------------------------------
# Riesz values
# ---------------------------------------------------------------------------

def riesz_value(body, x, spec: Riesz, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    """Order-``alpha`` potential of the body at ``x``.

    Interior points use the finite-part convention for ``alpha <= 0``;
    boundary points are refused there (the value diverges).  Balls in
    ambient dimension other than two are handled semi-analytically.
    """
    x = as_point(x)
    alpha, m = spec.alpha, spec.m
    if m != 2:
        return _riesz_value_ball(_ball(body), x, alpha, m, cfg)
    loc = _location(body, x)
    if loc == "boundary" and alpha <= 0:
        raise BoundaryPoint("finite-part value undefined on the boundary for alpha <= 0")
    route = body.route(loc)
    if route == "edges" and alpha not in (0, 2):
        val = edges.riesz_value(body.edge_frame(x), alpha)
    elif route == "disk":
        val = disks.riesz_value(_disk_frame(body, x)[1], body.radius, alpha)
    else:
        sign = 1.0 if alpha == 2 else math.copysign(1.0, 2 - alpha)
        val = sign * _integrate(body, x, _riesz_profile(alpha), route, cfg)
    return PotentialValue(val, _riesz_regime(alpha, 2), loc)


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
    loc = _location(body, x)
    if loc != "interior":
        raise BoundaryPoint("finite-part assembly needs an interior point")
    if not (0 < eps < body.boundary_distance(x)):
        raise ValueError("eps must lie in (0, dist(x, boundary))")
    total = _integrate(body, x, _riesz_profile(alpha), body.route(loc), cfg)
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
    if _location(body, x) != "interior":
        raise BoundaryPoint("complement identity needs an interior point")
    r_far = body.reach(x) * (1 + 1e-12)
    # tail beyond the circumscribed circle, closed form
    tail = -2 * math.pi * r_far ** alpha / alpha
    # inside the circumscribed circle but outside the body
    r_near = body.boundary_distance(x)

    def integrand(rs):
        out = np.empty_like(rs)
        for i, r in enumerate(rs):
            gap = 2 * math.pi - body.circle_clip(x, float(r)).measure()
            out[i] = float(r) ** (alpha - 1) * gap
        return out

    inner, _ = adaptive_gk(integrand, [r_near, 0.5 * (r_near + r_far), r_far], cfg)
    return -(tail + inner)


def _riesz_value_ball(disk: Disk, x, alpha: float, m: int,
                      cfg: QuadratureConfig) -> PotentialValue:
    """Ball in ambient dimension m; only |x - center| matters by symmetry."""
    R = disk.radius
    d = float(np.hypot(*(as_point(x) - disk.center)))
    sign = 1.0 if alpha == m else math.copysign(1.0, m - alpha)
    if alpha == m:
        F = lambda rho: rho ** m / m ** 2 - rho ** m * np.log(rho) / m
    elif alpha == 0:
        F = lambda rho: np.log(rho)
    else:
        F = lambda rho: rho ** alpha / alpha

    band = BOUNDARY_BAND * 2 * R
    if abs(d - R) <= band and alpha <= 0:
        raise BoundaryPoint("finite-part value undefined on the sphere for alpha <= 0")
    if d <= band:  # center fast path
        val = sign * sphere_area(m - 1) * float(F(np.asarray(R)))
        loc = "interior"
    elif d < R:
        def integrand(psi):
            rho = -d * np.cos(psi) + np.sqrt(R * R - (d * np.sin(psi)) ** 2)
            return F(rho) * np.sin(psi) ** (m - 2)

        raw, _ = adaptive_gk(integrand, [0.0, math.pi / 2, math.pi], cfg)
        val = sign * sphere_area(m - 2) * float(raw)
        loc = "interior"
    else:
        w = math.asin(min(1.0, R / d))

        def integrand(psi):
            s = np.sqrt(np.maximum(R * R - (d * np.sin(psi)) ** 2, 0.0))
            return (F(d * np.cos(psi) + s) - F(d * np.cos(psi) - s)) * np.sin(psi) ** (m - 2)

        raw, _ = adaptive_gk(integrand, [0.0, w / 2, w], cfg)
        val = sign * sphere_area(m - 2) * float(raw)
        loc = "exterior"
    return PotentialValue(val, _riesz_regime(alpha, m), loc)


# ---------------------------------------------------------------------------
# Riesz gradients
# ---------------------------------------------------------------------------

def riesz_gradient(body, x, spec: Riesz, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gradient of the order-``alpha`` potential.

    On the edges and disk routes a closed form; otherwise exterior points use the
    boundary-integral form and every other point the volume form along the
    body's route, whose profile drops the antiderivative's value at zero and
    so equals the excluded-ball (annulus) form for ``alpha <= 1``.  Boundary
    points are refused for ``alpha <= 1`` where the potential is not
    differentiable.
    """
    x = as_point(x)
    alpha = spec.alpha
    if spec.m != 2:
        raise ValueError("gradients are implemented for the planar case only")
    loc = _location(body, x)
    if loc == "boundary" and alpha <= 1:
        raise BoundaryPoint("potential not differentiable on the boundary for alpha <= 1")
    route = body.route(loc)
    if route == "edges":
        frame = body.edge_frame(x)
        return edges.gradient(frame, edges.riesz_flux(frame, alpha))
    if route == "disk":
        delta, d, R = _disk_frame(body, x)
        return disks.riesz_slope(d, R, alpha) * delta
    if loc == "exterior":
        return riesz_gradient_boundary(body, x, alpha, cfg)
    if alpha == 2:
        return _integrate(body, x, lambda r: r, route, cfg, vector=True)
    return abs(2 - alpha) * _integrate(body, x, _riesz_grad_profile(alpha), route, cfg,
                                       vector=True)


def riesz_gradient_annulus(body, x, alpha: float, eps: float,
                           cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Interior gradient via the excluded-ball integral with explicit ``eps``.

    Valid for any admissible ``0 < eps < dist(x, boundary)``; the ``eps``
    term integrates to zero over the full circle, which is what makes the
    expression ``eps``-independent.
    """
    x = as_point(x)
    if _location(body, x) != "interior":
        raise BoundaryPoint("annulus form needs an interior point")
    if not (0 < eps < body.boundary_distance(x)):
        raise ValueError("eps must lie in (0, dist(x, boundary))")
    G = _riesz_grad_profile(alpha)
    pref = abs(2 - alpha)
    g_eps = float(G(np.asarray(eps)))
    return pref * integrate_angular_vector(body, x, lambda r: G(r) - g_eps, cfg)


def riesz_gradient_boundary(body, x, alpha: float,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gradient as a boundary integral against the outward normal.

    Valid at any point off the boundary, for every ``alpha``; the natural
    route for exterior points and an independent cross-check inside.
    """
    x = as_point(x)
    if _location(body, x) == "boundary":
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


def _boundary_integral(body, x: np.ndarray, integrand, cfg: QuadratureConfig) -> np.ndarray:
    """Sum over the body's boundary pieces of the integral of
    ``integrand(x - y, n_ds)`` in the piece parameter, with ``n_ds`` the
    outward normal scaled by |dy/dt|.  Each piece is split at its parameter
    nearest to ``x``, where the kernel peaks when ``x`` is near the boundary.
    """
    total = 0.0
    for piece in body.boundary_pieces():
        def f(t, piece=piece):
            y, n_ds = piece.curve(t)
            return integrand(x - y, n_ds)

        val, _ = adaptive_gk(f, [piece.t0, piece.nearest(x), piece.t1], cfg)
        total = total + np.asarray(val)
    return total


# ---------------------------------------------------------------------------
# Poisson and heat potentials
# ---------------------------------------------------------------------------

def poisson_value(body, x, spec: Poisson, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    x = as_point(x)
    h, m = spec.h, spec.m
    if m != 2:
        return _smooth_value_ball(_ball(body), x, m, "poisson", _poisson_radial_density(h, m), cfg)
    loc = _location(body, x)
    route = body.route(loc)
    if route == "edges" and loc == "interior":
        return PotentialValue(edges.poisson_value(body.edge_frame(x), h), "poisson", loc)
    if route == "disk":
        return PotentialValue(disks.poisson_value(_disk_frame(body, x)[1], body.radius, h),
                              "poisson", loc)
    return PotentialValue(_integrate(body, x, _poisson_profile(h, loc), route, cfg),
                          "poisson", loc)


def _poisson_radial_density(h: float, m: int):
    const = 2 * h / sphere_area(m)
    return lambda r: const * r ** (m - 1) / (r * r + h * h) ** ((m + 1) / 2)


def _heat_radial_density(t: float, m: int):
    const = (4 * math.pi * t) ** (-m / 2)
    return lambda r: const * r ** (m - 1) * np.exp(-r * r / (4 * t))


def poisson_gradient(body, x, spec: Poisson, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    x = as_point(x)
    if spec.m != 2:
        raise ValueError("gradients are implemented for the planar case only")
    loc = _location(body, x)
    route = body.route(loc)
    if route == "edges":
        frame = body.edge_frame(x)
        return edges.gradient(frame, edges.poisson_flux(frame, spec.h))
    if route == "disk":
        delta, d, R = _disk_frame(body, x)
        return disks.poisson_slope(d, R, spec.h) * delta
    return _integrate(body, x, _poisson_grad_profile(spec.h, loc), route, cfg, vector=True)


def heat_value(body, x, spec: Heat, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    x = as_point(x)
    t, m = spec.t, spec.m
    if m != 2:
        return _smooth_value_ball(_ball(body), x, m, "heat", _heat_radial_density(t, m), cfg)
    loc = _location(body, x)
    route = body.route(loc)
    if route == "edges" and loc == "interior":
        return PotentialValue(edges.heat_value(body.edge_frame(x), t), "heat", loc)
    if route == "disk":
        return PotentialValue(disks.heat_value(_disk_frame(body, x)[1], body.radius, t),
                              "heat", loc)
    return PotentialValue(_integrate(body, x, _heat_profile(t, loc), route, cfg), "heat", loc)


def heat_gradient(body, x, spec: Heat, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    x = as_point(x)
    if spec.m != 2:
        raise ValueError("gradients are implemented for the planar case only")
    loc = _location(body, x)
    route = body.route(loc)
    if route == "edges":
        frame = body.edge_frame(x)
        return edges.gradient(frame, edges.heat_flux(frame, spec.t))
    if route == "disk":
        delta, d, R = _disk_frame(body, x)
        return disks.heat_slope(d, R, spec.t) * delta
    return _integrate(body, x, _heat_grad_profile(spec.t, loc), route, cfg, vector=True)


def _smooth_value_ball(disk: Disk, x, m: int, regime: str, radial_density, cfg) -> PotentialValue:
    """Smooth-kernel value on a general-m ball, center only (test support)."""
    d = float(np.hypot(*(as_point(x) - disk.center)))
    if d > BOUNDARY_BAND * disk.radius:
        raise ValueError("general-m smooth-kernel values are supported at the center only")
    R = disk.radius
    val, _ = adaptive_gk(lambda r: sphere_area(m - 1) * radial_density(r),
                         [0.0, R / 2, R], cfg)
    return PotentialValue(float(val), regime, "interior")


# ---------------------------------------------------------------------------
# Hessians
# ---------------------------------------------------------------------------

def _hessian_kernel(spec: PotentialSpec):
    """k'(r) / r as a function of r^2, for the kernel k in the sign convention
    of ``potential``."""
    if isinstance(spec, Riesz):
        alpha = spec.alpha
        if alpha == 2:
            return lambda r2: -1.0 / r2
        c, p = -abs(alpha - 2), 0.5 * (alpha - 4)
        return lambda r2: c * r2 ** p
    if isinstance(spec, Poisson):
        h2, c = spec.h * spec.h, -3 * spec.h / (2 * math.pi)
        return lambda r2: c / (r2 + h2) ** 2.5
    if isinstance(spec, Heat):
        t = spec.t
        return lambda r2: np.exp(-r2 / (4 * t)) / (-8 * math.pi * t * t)
    raise TypeError(f"unknown potential spec {spec!r}")


def _edge_moments(frame, spec: PotentialSpec):
    if isinstance(spec, Riesz):
        return edges.riesz_moments(frame, spec.alpha)
    if isinstance(spec, Poisson):
        return edges.poisson_moments(frame, spec.h)
    if isinstance(spec, Heat):
        return edges.heat_moments(frame, spec.t)
    raise TypeError(f"unknown potential spec {spec!r}")


def _disk_slopes(d: float, R: float, spec: PotentialSpec):
    if isinstance(spec, Riesz):
        return disks.riesz_slope(d, R, spec.alpha), disks.riesz_curvature(d, R, spec.alpha)
    if isinstance(spec, Poisson):
        return disks.poisson_slope(d, R, spec.h), disks.poisson_curvature(d, R, spec.h)
    if isinstance(spec, Heat):
        return disks.heat_slope(d, R, spec.t), disks.heat_curvature(d, R, spec.t)
    raise TypeError(f"unknown potential spec {spec!r}")


def potential_hessian(body, x, spec: PotentialSpec,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Hessian of the potential, ``-int over the boundary of d_i K(x - y) n_j ds``.

    Differentiating the boundary form of the gradient once more leaves a
    smooth one-dimensional integral at any point off the boundary, for every
    family and order (the finite-part counterterm does not depend on ``x``);
    on the edges and disk routes it is in closed form.  In the boundary band the
    integral diverges for Riesz orders ``alpha <= 2``, which are refused
    there.
    """
    x = as_point(x)
    if spec.m != 2:
        raise ValueError("Hessians are implemented for the planar case only")
    loc = _location(body, x)
    if isinstance(spec, Riesz) and spec.alpha <= 2 and loc == "boundary":
        raise BoundaryPoint("Hessian diverges on the boundary for alpha <= 2")
    route = body.route(loc)
    if route == "edges":
        frame = body.edge_frame(x)
        return edges.hessian(frame, _edge_moments(frame, spec))
    if route == "disk":
        delta, d, R = _disk_frame(body, x)
        return disks.hessian(delta, d, *_disk_slopes(d, R, spec))
    dk = _hessian_kernel(spec)

    def integrand(d, n_ds):
        w = dk(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        return (w[:, None, None] * d[:, :, None] * n_ds[:, None, :]).reshape(-1, 4)

    H = -_boundary_integral(body, x, integrand, cfg).reshape(2, 2)
    return 0.5 * (H + H.T)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def potential(body, x, spec: PotentialSpec, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    if isinstance(spec, Riesz):
        return riesz_value(body, x, spec, cfg)
    if isinstance(spec, Poisson):
        return poisson_value(body, x, spec, cfg)
    if isinstance(spec, Heat):
        return heat_value(body, x, spec, cfg)
    raise TypeError(f"unknown potential spec {spec!r}")


def potential_gradient(body, x, spec: PotentialSpec,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    if isinstance(spec, Riesz):
        return riesz_gradient(body, x, spec, cfg)
    if isinstance(spec, Poisson):
        return poisson_gradient(body, x, spec, cfg)
    if isinstance(spec, Heat):
        return heat_gradient(body, x, spec, cfg)
    raise TypeError(f"unknown potential spec {spec!r}")
