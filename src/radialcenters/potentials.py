"""Potential values and gradients for planar bodies.

Families: the order-``alpha`` radial power potential (with Hadamard
finite-part regularization at interior points for ``alpha <= 0``), the
Poisson integral of the body's indicator at height ``h``, and the heat
potential at time ``t``.  Planar bodies (``m = 2``) get full support; balls
in arbitrary ambient dimension are evaluated semi-analytically for testing
dimension-generic constants.

Evaluation strategy: the singularity (if any) is absorbed into an exact
radial antiderivative and the remaining smooth angular integral is done by
adaptive quadrature along the one route the body names for the base point's
location, the same for all three families: about the base point where the
whole body is visible from it, sector-by-sector over polygon edges at every
other polygon point, and chord-by-chord for points outside a disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import erf, erfc

from .errors import BoundaryPoint
from .geometry import Disk, Polygon, as_point, classify_location
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, adaptive_gk,
                         disk_exterior_integral, disk_exterior_integral_vector,
                         fan_integral, fan_integral_vector, integrate_angular,
                         integrate_angular_vector)

__all__ = [
    "Riesz", "Poisson", "Heat", "PotentialSpec", "PotentialValue",
    "sphere_area", "poisson_kernel", "poisson_kernel_gauss_integral",
    "weierstrass_kernel",
    "riesz_value", "riesz_value_finite_part_eps", "riesz_value_complement",
    "riesz_gradient", "riesz_gradient_boundary", "riesz_gradient_annulus",
    "poisson_value", "poisson_gradient", "heat_value", "heat_gradient",
    "potential", "potential_gradient",
]

BOUNDARY_BAND = 1e-9   # relative exclusion band around the boundary


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
    return classify_location(body, x, BOUNDARY_BAND)


def _integrate(body, x, profile, loc: str, cfg, vector: bool = False):
    """Kernel integral over the body along the route the body names for ``loc``.

    ``profile`` is the radial antiderivative of the kernel, which gives the
    finite-part convention at interior points.  With ``vector`` the
    integrand is weighted by the unit direction, as gradients need.
    """
    route = body.route(loc)
    if route == "angular":
        fn = integrate_angular_vector if vector else integrate_angular
    elif route == "fan":
        fn = fan_integral_vector if vector else fan_integral
    else:
        fn = disk_exterior_integral_vector if vector else disk_exterior_integral
    return fn(body, x, profile, cfg)


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
    profile = _riesz_profile(alpha)
    raw = _integrate(body, x, profile, loc, cfg)
    sign = 1.0 if alpha == 2 else math.copysign(1.0, 2 - alpha)
    return PotentialValue(sign * raw, _riesz_regime(alpha, 2), loc)


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
    total = _integrate(body, x, _riesz_profile(alpha), loc, cfg)
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
    """Gradient of the order-``alpha`` potential, regime-dispatched.

    Exterior points use the boundary-integral form; interior points use the
    volume form for ``alpha > 1``, the excluded-ball (annulus) form at
    ``eps = dist(x, boundary)/2`` for ``0 <= alpha <= 1``, and the
    complement-tail form for ``alpha < 0``.  Boundary points are refused for
    ``alpha <= 1`` where the potential is not differentiable.
    """
    x = as_point(x)
    alpha = spec.alpha
    if spec.m != 2:
        raise ValueError("gradients are implemented for the planar case only")
    loc = _location(body, x)
    if loc == "boundary":
        if alpha <= 1:
            raise BoundaryPoint("potential not differentiable on the boundary for alpha <= 1")
        return _riesz_gradient_volume(body, x, alpha, loc, cfg)
    if loc == "exterior":
        return riesz_gradient_boundary(body, x, alpha, cfg)
    if alpha > 1:
        return _riesz_gradient_volume(body, x, alpha, loc, cfg)
    if alpha >= 0 and body.route(loc) == "angular":
        eps = 0.5 * body.boundary_distance(x)
        return riesz_gradient_annulus(body, x, alpha, eps, cfg)
    # alpha < 0 (complement-tail form) and non-star-shaped interiors: the
    # sector route with the antiderivative's value at zero dropped produces
    # the same excluded-ball value, for any chord structure
    return _riesz_gradient_volume(body, x, alpha, loc, cfg)


def _riesz_gradient_volume(body, x, alpha: float, loc: str,
                           cfg: QuadratureConfig) -> np.ndarray:
    if alpha == 2:
        return _integrate(body, x, lambda r: r, loc, cfg, vector=True)
    vec = _integrate(body, x, _riesz_grad_profile(alpha), loc, cfg, vector=True)
    return abs(2 - alpha) * vec


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
    if isinstance(body, Polygon):
        acc = np.zeros(2)
        for a, b in body.edges():
            e = b - a
            length = float(np.hypot(*e))
            n_out = np.array([e[1], -e[0]]) / length

            def integrand(ts, a=a, e=e):
                pts = a[None, :] + ts[:, None] * e[None, :]
                rr = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
                return kern(rr)

            val, _ = adaptive_gk(integrand, [0.0, 0.5, 1.0], cfg)
            acc += val * length * n_out
        return pref * acc
    if isinstance(body, Disk):
        c, R = body.center, body.radius

        def integrand(phis):
            u = np.stack([np.cos(phis), np.sin(phis)], axis=1)
            pts = c[None, :] + R * u
            rr = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
            return u * kern(rr)[:, None]

        val, _ = adaptive_gk(integrand, [0.0, math.pi, 2 * math.pi], cfg)
        return pref * R * np.asarray(val)
    raise ValueError("boundary-integral gradient supports polygons and disks")


# ---------------------------------------------------------------------------
# Poisson and heat potentials
# ---------------------------------------------------------------------------

def poisson_value(body, x, spec: Poisson, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    x = as_point(x)
    h, m = spec.h, spec.m
    if m != 2:
        return _smooth_value_ball(_ball(body), x, m, "poisson", _poisson_radial_density(h, m), cfg)
    loc = _location(body, x)
    return PotentialValue(_integrate(body, x, _poisson_profile(h, loc), loc, cfg), "poisson", loc)


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
    return _integrate(body, x, _poisson_grad_profile(spec.h, loc), loc, cfg, vector=True)


def heat_value(body, x, spec: Heat, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    x = as_point(x)
    t, m = spec.t, spec.m
    if m != 2:
        return _smooth_value_ball(_ball(body), x, m, "heat", _heat_radial_density(t, m), cfg)
    loc = _location(body, x)
    return PotentialValue(_integrate(body, x, _heat_profile(t, loc), loc, cfg), "heat", loc)


def heat_gradient(body, x, spec: Heat, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    x = as_point(x)
    if spec.m != 2:
        raise ValueError("gradients are implemented for the planar case only")
    loc = _location(body, x)
    return _integrate(body, x, _heat_grad_profile(spec.t, loc), loc, cfg, vector=True)


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
