"""Potential values, gradients and Hessians for planar bodies.

Families: the order-``alpha`` radial power potential (with Hadamard
finite-part regularization at interior points for ``alpha <= 0``), the
Poisson integral of the body's indicator at height ``h``, and the heat
potential at time ``t``.  ``_FAMILIES`` names each family (``make_spec``)
and says how its parameter scales with length (``rescaled``).

Evaluation strategy: ``potential_jet`` is the one place where a point is
routed.  It locates the point (``body.locate``), refuses it where the
family's derivatives diverge on the boundary, and takes the body's route for
that location; the families differ only in data that it reads
(``_FAMILIES``), and the other public functions are views of it.
``potential_jet_many`` takes a stack of points: it locates them in one call
(``body.locate_many``), and the points on the edges route with a closed-form
value share one stacked edge frame, so each part is one vectorized sum for
them all, with each point's bits those of its own jet; every other point
takes its own jet.

Off its boundary band a polygon names ``edges``: values, gradients and
Hessians are closed-form sums over the edge frame that located the point
(``edges`` module); the jet computes the edges' flux once, for the first
part that asks for it, and the Riesz value, a sum of the same bracket
[G_alpha], is read off it, as are the Hessian's moments where they read the
flux's computation (``_Family.ladder``: a rung of the Riesz ladder, the
heat flux itself).  A disk names ``disk`` there: all three are closed-form
functions of the distance to its center (``disks`` module).  In the
boundary band of every body, and everywhere on the radially parameterized
one, the route is ``pieces``: one-dimensional quadratures over the body's
boundary pieces, each in its offset from the foot of the point.  Seen from
x, a boundary point y subtends d theta = (y - x).n ds / |y - x|^2, so the
value and gradient are angular integrals of exact radial antiderivatives,
which absorb the singularity (if any), and the Hessian is
``-int over the boundary of d_i K(x - y) n_j ds``.  A jet prepares the
pieces about its point once (``_boundary_nodes``), and its parts share the
nodes of the panels they have in common.

The polygon values that have no closed form here, Riesz orders 0 and 2 (a
log or a Clausen function) and Poisson and heat values outside the body (the
sector sum loses relative accuracy in the far tail), take the signed edge
sectors (``quadrature.fan_integral``) off the band.  The angular route, the
chord route outside a disk (``quadrature.disk_exterior_integral``), the
boundary-integral gradient (``riesz_gradient_boundary``) and the
explicit-``eps`` forms are test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy.special import erf, erfc

from . import disks, edges
from .errors import BoundaryPoint, InvalidBody
from .geometry import EdgeFrame, as_point, circle_clip
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, adaptive_gk, fan_integral

__all__ = [
    "Riesz", "Poisson", "Heat", "PotentialSpec", "PotentialValue",
    "FAMILY_NAMES", "make_spec", "rescaled", "degree",
    "sphere_area", "poisson_kernel", "poisson_kernel_gauss_integral",
    "weierstrass_kernel",
    "riesz_value", "riesz_value_finite_part_eps", "riesz_value_complement",
    "riesz_gradient", "riesz_gradient_boundary", "riesz_gradient_annulus",
    "poisson_value", "poisson_gradient", "heat_value", "heat_gradient",
    "potential", "potential_gradient", "potential_hessian",
    "PotentialJet", "potential_jet", "potential_jet_many", "refused_on_boundary",
]


@dataclass(frozen=True)
class Riesz:
    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError("order alpha must be finite")


@dataclass(frozen=True)
class Poisson:
    h: float

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError("height h must be finite and positive")


@dataclass(frozen=True)
class Heat:
    t: float

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise ValueError("time t must be finite and positive")


PotentialSpec = Union[Riesz, Poisson, Heat]


@dataclass(frozen=True)
class PotentialValue:
    value: float
    regime: str
    location: str


def _riesz_regime(alpha: float) -> str:
    if alpha == 0:
        return "alpha_zero_finite_part"
    if alpha < 0:
        return "alpha_negative"
    if alpha == 2:
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
# radial antiderivatives: F(rho) = int_0^rho kernel(r) r dr,
# with the additive constant at zero dropped in the singular regimes
# (that convention realizes the finite part at interior base points).
# About an exterior point the signed chords cancel any additive constant, so
# the Poisson and heat profiles, values and gradients alike, drop their
# limits at infinity there: far from the body they then no longer cancel
# between O(1) sector integrals.
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny


def _riesz_profile(alpha: float, loc: str = "interior"):
    """The same about every point: Riesz kernels have no limit at infinity to drop."""
    if alpha == 2:
        # encodes -int log|x-y| directly; rho = 0, where a ray leaves at once
        # from a boundary point, gives 0 (the log's argument leaves every
        # normal rho > 0 unchanged)
        return lambda rho: rho * rho * 0.25 - 0.5 * rho * rho * np.log(np.maximum(rho, _TINY))
    if alpha == 0:
        return lambda rho: np.log(rho)
    return lambda rho: rho ** alpha / alpha


def _riesz_grad_profile(alpha: float, loc: str = "interior"):
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
# the pieces route
# ---------------------------------------------------------------------------

def _piece_integral(body, x: np.ndarray, profile, cfg, vector: bool, nodes=None):
    """The angular integral of ``profile(rho)`` over the body's boundary
    pieces: seen from x, a boundary point y subtends d theta = (y - x).n ds /
    |y - x|^2, so the integral is that of profile(|y - x|) (y - x).n / |y - x|^2
    in ds, and with ``vector`` of the same weighted by (y - x) / |y - x|.
    About a point that sees the whole body this is the angular route; about
    any other, the signed sum of the chords that a ray crosses.  ``nodes``:
    the pieces prepared about x (``_boundary_nodes``), or None."""
    def integrand(d, n_ds):           # d = x - y
        r2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        r = np.sqrt(r2)
        w = -np.asarray(profile(r)) * (d[:, 0] * n_ds[:, 0] + d[:, 1] * n_ds[:, 1]) / r2
        return (-d / r[:, None]) * w[:, None] if vector else w

    total = _boundary_integral(body, x, integrand, cfg, nodes)
    return total if vector else float(total)


# ---------------------------------------------------------------------------
# Riesz values
# ---------------------------------------------------------------------------

def riesz_value(body, x, spec: Riesz, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    """Order-``alpha`` potential of the body at ``x``.

    Interior points use the finite-part convention for ``alpha <= 0``;
    boundary points are refused there (the value diverges).
    """
    return _value(body, x, spec, cfg)


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


# ---------------------------------------------------------------------------
# Riesz gradients
# ---------------------------------------------------------------------------

def riesz_gradient(body, x, spec: Riesz, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gradient of the order-``alpha`` potential.

    On the edges and disk routes a closed form; on the pieces route the
    volume form over the boundary pieces, whose profile drops the
    antiderivative's value at zero and so equals the excluded-ball (annulus)
    form for ``alpha <= 1``.  Boundary points are refused for ``alpha <= 1``
    where the potential is not differentiable.
    """
    return potential_jet(body, x, spec, 1, cfg).gradient()


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

    Valid at any point off the boundary, for every ``alpha``; a test oracle
    for the volume forms.
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


def _boundary_integral(body, x: np.ndarray, integrand, cfg: QuadratureConfig,
                       nodes=None) -> np.ndarray:
    """Sum over the body's boundary pieces of the integral of
    ``integrand(x - y, n_ds)`` in the piece parameter, with ``n_ds`` the
    outward normal scaled by |dy/dt|, over the pieces prepared about x
    (``nodes``, from ``_boundary_nodes``; prepared here when None).

    The (x - y, n_ds) pairs at each panel's nodes are kept on ``nodes``,
    keyed by the nodes, so the integrals about one point that reach the same
    panel compute them once; an integrand must not write to them.
    """
    total = 0.0
    for piece, foot, gap, breaks, kept in nodes or _boundary_nodes(body, x):
        def f(s, piece=piece, foot=foot, gap=gap, kept=kept):
            key = s.tobytes()
            if key not in kept:
                kept[key] = gap - piece.chord(s, foot), piece.curve(foot + s)[1]
            return integrand(*kept[key])

        val, _ = adaptive_gk(f, breaks, cfg)
        total = total + np.asarray(val)
    return total


def _boundary_nodes(body, x: np.ndarray) -> list:
    """The body's boundary pieces seen from ``x``, prepared once for every
    integral about it: per piece, the foot of x, the gap x - y(foot), the
    panels' breakpoints, and a store for the nodes of its panels.

    Each piece is integrated in the offset s = t - foot from the foot of
    ``x``, where the kernel peaks when ``x`` is near the boundary, and x - y
    is formed as (x - y(foot)) - (y - y(foot)) with the piece's ``chord`` of
    s.  Formed from the absolute parameter instead, s and x - y would carry
    a rounding of one ulp of t and of the body's size, which near the
    boundary swamps the tolerance and sends the quadrature bisecting
    rounding noise.

    The peak is about w = |x - y(foot)| / |dy/dt| wide in s, and on a curved
    piece it sits on a smooth background that hides it from the quadrature
    nodes.  So the panels are graded toward the foot, with breakpoints at
    s = +-L 4^-j (j >= 1, L the larger of the piece's two sides of the foot)
    down to w.
    """
    out = []
    for piece in body.boundary_pieces():
        foot = piece.nearest(x)
        y, n_ds = piece.curve(np.array([foot]))
        gap = x - y[0]
        lo, hi = piece.t0 - foot, piece.t1 - foot
        w = math.hypot(gap[0], gap[1]) / math.hypot(n_ds[0, 0], n_ds[0, 1])
        breaks, g = [lo, 0.0, hi], 0.25 * max(-lo, hi)
        while g > w > 0:
            breaks += [s for s in (-g, g) if lo < s < hi]
            g *= 0.25
        out.append((piece, foot, gap, breaks, {}))
    return out


# ---------------------------------------------------------------------------
# Poisson and heat potentials
# ---------------------------------------------------------------------------

def poisson_value(body, x, spec: Poisson, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    return _value(body, x, spec, cfg)


def poisson_gradient(body, x, spec: Poisson, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    return potential_jet(body, x, spec, 1, cfg).gradient()


def heat_value(body, x, spec: Heat, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialValue:
    return _value(body, x, spec, cfg)


def heat_gradient(body, x, spec: Heat, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    return potential_jet(body, x, spec, 1, cfg).gradient()


# ---------------------------------------------------------------------------
# the families as data
# ---------------------------------------------------------------------------

def _riesz_hessian_kernel(alpha: float):
    """k'(r) / r as a function of r^2, for the kernel k in the sign convention
    of ``potential``; likewise for the other two families."""
    if alpha == 2:
        return lambda r2: -1.0 / r2
    c, p = -abs(alpha - 2), 0.5 * (alpha - 4)
    return lambda r2: c * r2 ** p


def _poisson_hessian_kernel(h: float):
    h2, c = h * h, -3 * h / (2 * math.pi)
    return lambda r2: c / (r2 + h2) ** 2.5


def _heat_hessian_kernel(t: float):
    return lambda r2: np.exp(-r2 / (4 * t)) / (-8 * math.pi * t * t)


class _Family(NamedTuple):
    """What sets one family apart, as data ``potential_jet`` reads: functions
    of the spec's parameter ``p``, the point's location ``loc`` and an order
    of differentiation ``k``.  The defaults are those of the Poisson and heat
    potentials, which are smooth up to the boundary."""

    name: str                   # the family's name in ``make_spec`` and the CLI
    param: str                  # the spec field that holds p
    length_power: int           # p scales as a length to this power
    regime: Callable            # p -> regime label
    profile: Callable           # (p, loc) -> the value's radial antiderivative F
    gradient_profile: Callable  # (p, loc) -> the gradient's G
    hessian_kernel: Callable    # p -> k'(r) / r as a function of r^2
    edges: tuple                # value, flux and moments on an edge frame
    disks: tuple                # value, slope and curvature in the distance to the center
    scales: Callable = lambda p: (1.0, 1.0)   # p -> factors of the integrals of F and G
    refused: Callable = lambda p, k: False    # (p, k) -> order k diverges on the boundary
    closed_value: Callable = lambda p, loc: loc == "interior"   # on the edges route
    value_reads_flux: bool = False   # the edges value takes the flux: value(frame, p, flux)
    # (frame, p) -> the edges' flux and what their moments read of its
    # computation, passed to them last; None where they read nothing of it
    ladder: Optional[Callable] = None
    degree: Callable = lambda p: 0.0  # p -> V scales as a length to this power


_FAMILIES = {
    Riesz: _Family(
        "riesz", "alpha", 0, _riesz_regime, _riesz_profile, _riesz_grad_profile,
        _riesz_hessian_kernel, (edges.riesz_value, edges.riesz_flux, edges.riesz_moments),
        (disks.riesz_value, disks.riesz_slope, disks.riesz_curvature),
        scales=lambda a: (math.copysign(1.0, 2 - a), 1.0 if a == 2 else abs(2 - a)),
        # V is finite on the boundary for alpha > 0, C^1 for alpha > 1 and
        # has a bounded Hessian for alpha > 2
        refused=lambda a, k: a <= k,
        closed_value=lambda a, loc: a not in (0, 2),
        # the value and the flux are sums of the same bracket [G_alpha], and
        # the moments' [G_(alpha - 2)] is a rung of its ladder
        value_reads_flux=True, ladder=edges.riesz_ladder,
        # up to a constant at alpha in {0, 2}
        degree=lambda a: a),
    Poisson: _Family(
        "poisson", "h", 1, lambda h: "poisson", _poisson_profile, _poisson_grad_profile,
        _poisson_hessian_kernel, (edges.poisson_value, edges.poisson_flux, edges.poisson_moments),
        (disks.poisson_value, disks.poisson_slope, disks.poisson_curvature)),
    Heat: _Family(
        "heat", "t", 2, lambda t: "heat", _heat_profile, _heat_grad_profile,
        _heat_hessian_kernel, (edges.heat_value, edges.heat_flux, edges.heat_moments),
        (disks.heat_value, disks.heat_slope, disks.heat_curvature), ladder=edges.heat_ladder),
}

FAMILY_NAMES = tuple(fam.name for fam in _FAMILIES.values())


def _family(spec: PotentialSpec) -> tuple[_Family, float]:
    fam = _FAMILIES.get(type(spec))
    if fam is None:
        raise TypeError(f"unknown potential spec {spec!r}")
    return fam, getattr(spec, fam.param)


def make_spec(name: str, p: float) -> PotentialSpec:
    """The spec of the family called ``name`` (one of ``FAMILY_NAMES``) with
    parameter ``p``."""
    for cls, fam in _FAMILIES.items():
        if fam.name == name:
            return cls(p)
    raise ValueError(f"unknown family {name!r}")


def rescaled(spec: PotentialSpec, s: float) -> PotentialSpec:
    """``spec`` for the body scaled by ``s``: its parameter is multiplied by
    ``s`` once per power of length in it."""
    fam, p = _family(spec)
    for _ in range(fam.length_power):
        p = p * s
    return type(spec)(p)


def degree(spec: PotentialSpec) -> float:
    """The potential's degree in length: on the body scaled by s, with the
    spec ``rescaled`` to it, the value is s^degree times the body's (up to a
    constant, at Riesz orders 0 and 2) and the gradient s^(degree - 1)
    times.  It is alpha for Riesz and 0 for Poisson and heat."""
    fam, p = _family(spec)
    return fam.degree(p)


def refused_on_boundary(spec: PotentialSpec, order: int) -> bool:
    """Whether derivatives of order ``order`` of the potential diverge or do
    not exist on the boundary: Riesz orders ``alpha <= order``."""
    fam, p = _family(spec)
    return fam.refused(p, order)


def _refusal(order: int) -> BoundaryPoint:
    part = ("value", "gradient", "Hessian")[order]
    return BoundaryPoint(f"{part} undefined on the boundary for alpha <= {order}")


# ---------------------------------------------------------------------------
# the jet: the one place where a point is routed
# ---------------------------------------------------------------------------

class PotentialJet(NamedTuple):
    """One potential at one located point.  ``value``, ``gradient`` and
    ``hessian`` are functions of no arguments that compute their part when
    called, so a caller pays only for the parts it calls; parts above the
    jet's order are None.  ``hessian()`` returns None in the boundary band,
    where the Hessian diverges (Riesz orders ``alpha <= 2``)."""

    regime: str
    location: str
    distance: float
    value: Callable[[], float]
    gradient: Optional[Callable[[], np.ndarray]]
    hessian: Optional[Callable[[], Optional[np.ndarray]]]


def potential_jet(body, x, spec: PotentialSpec, order: int,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> PotentialJet:
    """The potential at ``x`` with its derivatives up to ``order`` (0, 1 or 2).

    The point is located once.  In the boundary band a value or gradient that
    the family refuses raises ``BoundaryPoint``.  The body's route for the
    location then reads the view that located it, the edge frame (``edges``)
    or the distance to the disk's center (``disk``), or is quadrature.
    """
    x = as_point(x)
    fam, p = _family(spec)
    return _jet(body, x, fam, p, order, cfg, body.locate(x))


def potential_jet_many(body, points, spec: PotentialSpec, order: int,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """``potential_jet`` at each of ``points`` (N, 2), as a list of jets.

    The points are located in one call (``body.locate_many``).  Those on the
    edges route whose value is in closed form share one stacked edge frame:
    the first call of a part, on any of their jets, computes it for all of
    them at once.  Every other point, and a stack of one, takes its own jet.
    A point that ``potential_jet`` refuses gets a jet with its location and
    distance whose parts raise that ``BoundaryPoint``.
    """
    fam, p = _family(spec)
    if len(points) == 1:
        x = as_point(points[0])
        return [_jet_or_refused(body, x, fam, p, order, cfg, body.locate(x))]
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise InvalidBody(f"non-finite point among {points!r}")
    located = body.locate_many(pts)
    jets, shared = [], []
    for x, at in zip(pts, located):
        if body.route(at.location) == "edges" and fam.closed_value(p, at.location):
            shared.append(len(jets))
            jets.append(None)
        else:
            jets.append(_jet_or_refused(body, x, fam, p, order, cfg, at))
    if shared:
        for i, jet in zip(shared, _shared_edge_jets(fam, p, order, [located[i] for i in shared])):
            jets[i] = jet
    return jets


def _jet_or_refused(body, x: np.ndarray, fam: "_Family", p: float, order: int, cfg,
                    at) -> PotentialJet:
    """``_jet``, or where it refuses the point, a jet whose parts raise."""
    try:
        return _jet(body, x, fam, p, order, cfg, at)
    except BoundaryPoint as refusal:
        def part(refusal=refusal):
            raise refusal
        return PotentialJet(fam.regime(p), at.location, at.distance, part, part, part)


def _jet(body, x: np.ndarray, fam: "_Family", p: float, order: int, cfg, at) -> PotentialJet:
    """``potential_jet`` at ``x``, located at ``at``."""
    loc, dist, view = at
    # refusals grow with the order: a diverging value has no gradient either
    if loc == "boundary" and fam.refused(p, min(order, 1)):
        raise _refusal(min(order, 1))
    route = body.route(loc)
    if route == "edges":
        parts = _edge_parts(fam, p, view)
        if not fam.closed_value(p, loc):
            parts = (lambda: fam.scales(p)[0] * fan_integral(body, x, fam.profile(p, loc), cfg),
                     ) + parts[1:]
    elif route == "disk":
        delta, R, d = x - body.center, body.radius, view
        value, slope, curvature = fam.disks
        g = slope(d, R, p) if order else None     # serves the gradient and the Hessian
        parts = (lambda: value(d, R, p), lambda: g * delta,
                 lambda: disks.hessian(delta, d, g, curvature(d, R, p)))
    else:
        parts = _piece_parts(body, x, fam, p, loc, cfg)
    if order == 2 and loc == "boundary" and fam.refused(p, 2):
        parts = parts[:2] + (lambda: None,)
    return PotentialJet(fam.regime(p), loc, dist, parts[0], parts[1] if order else None,
                        parts[2] if order == 2 else None)


def _shared_edge_jets(fam: "_Family", p: float, order: int, located: list) -> list:
    """The jets of points off the boundary band on the edges route with a
    closed-form value, from one stacked edge frame (``p`` (N, n), ``s``
    (2, N, n)); each part is computed for all of them on its first call."""
    first = located[0].view
    frame = EdgeFrame(np.stack([at.view.p for at in located]),
                      np.stack([at.view.s for at in located], axis=1),
                      first.normals, first.tangents)
    values, gradients, hessians = map(_once, _edge_parts(fam, p, frame))
    regime = fam.regime(p)
    return [PotentialJet(regime, at.location, at.distance, lambda i=i: float(values()[i]),
                         (lambda i=i: gradients()[i]) if order else None,
                         (lambda i=i: hessians()[i]) if order == 2 else None)
            for i, at in enumerate(located)]


def _edge_parts(fam: "_Family", p: float, frame) -> tuple:
    """The closed-form value, gradient and Hessian on an edge frame, or on a
    stack of them.  The edges' flux is computed once, by the first part that
    reads it: the gradient, the value where it reads the flux, and the
    Hessian where its moments read the flux's ladder (``fam.ladder``)."""
    value, flux, moments = fam.edges
    ladder = _once(fam.ladder or (lambda frame, p: (flux(frame, p), None)), frame, p)
    if fam.value_reads_flux:
        value_part = lambda: value(frame, p, ladder()[0])
    else:
        value_part = lambda: value(frame, p)
    if fam.ladder is None:
        hessian = lambda: edges.hessian(frame, moments(frame, p))
    else:
        hessian = lambda: edges.hessian(frame, moments(frame, p, ladder()[1]))
    return value_part, lambda: edges.gradient(frame, ladder()[0]), hessian


def _once(f, *args):
    """``f(*args)`` as a function of no arguments that computes it on its
    first call and then returns it again."""
    kept = []

    def part():
        if not kept:
            kept.append(f(*args))
        return kept[0]
    return part


def _piece_parts(body, x, fam: _Family, p: float, loc: str, cfg):
    """The ``pieces`` route: the value and gradient as volume forms over the
    boundary pieces (``_piece_integral``), and the Hessian as
    ``-int over the boundary of d_i K(x - y) n_j ds``.  The pieces are
    prepared about x once, by the first part called, and the parts share
    the nodes of the panels they have in common."""
    sign, scale = fam.scales(p)
    nodes = _once(_boundary_nodes, body, x)

    def value():
        return sign * _piece_integral(body, x, fam.profile(p, loc), cfg, False, nodes())

    def gradient():
        return scale * _piece_integral(body, x, fam.gradient_profile(p, loc), cfg, True, nodes())

    def hessian():
        dk = fam.hessian_kernel(p)

        def integrand(d, n_ds):
            w = dk(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
            return (w[:, None, None] * d[:, :, None] * n_ds[:, None, :]).reshape(-1, 4)

        H = -_boundary_integral(body, x, integrand, cfg, nodes()).reshape(2, 2)
        return 0.5 * (H + H.T)

    return value, gradient, hessian


def _value(body, x, spec: PotentialSpec, cfg) -> PotentialValue:
    jet = potential_jet(body, x, spec, 0, cfg)
    return PotentialValue(jet.value(), jet.regime, jet.location)


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
    H = potential_jet(body, x, spec, 2, cfg).hessian()
    if H is None:
        raise _refusal(2)
    return H


# ---------------------------------------------------------------------------
# dispatch: the family names stay the entry points, so that a tracer that
# wraps them sees every single evaluation
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
