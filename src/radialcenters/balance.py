"""Balance-law analysis and the characterization of stationary centers.

A point satisfies the balance law for a body when the first angular moment
of the body's indicator over every circle about the point vanishes.  This
module computes those residuals, the nearest-contact analysis, the
triangle/quadrangle classification, candidate stationary points of weighted
indicator sums, and a generator for a convex body that is balanced at the
origin yet has no symmetry at all.

A residual spectrum is one ``balance_residuals(x, radii)`` call on the body:
a polygon sums signed circle-edge crossings over the whole radius grid at
once, a disk uses its closed form, and ``RadialArcBody`` integrates its
``circle_clip`` arc sets radius by radius.  ``vector_residual_of_arcs`` of a
``circle_clip`` stays as the reference for tests and for the decomposition
identities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (ConstructionFailed, ContinuumContact, InvalidBody, NotInterior,
                     TheoremViolation)
from .geometry import (ArcSet, CircleArc, CircumCenter, Disk, InCenter, Polygon, as_point,
                       circle_clip, _angle_breakpoints, _angle_within, _arcs_between,
                       _build_arcset, _polyline_distances)

__all__ = [
    "BalanceReport", "WeightedBodyFunction", "ContactSet", "RadialArcBody",
    "StationaryCandidate", "PolygonClass", "Isometry", "EquivalenceReport",
    "vector_residual", "vector_residual_of_arcs", "balance_report",
    "scalar_residual", "equivalence_check", "contact_points",
    "stationary_candidate", "classify_polygon", "generate_asymmetric_balanced",
    "symmetry_search",
]

BALANCED_TOL = 1e-8          # normalized residual threshold
CLASSIFY_TOL = 1e-6          # relative geometric tolerance for shape tests


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def vector_residual_of_arcs(arcs: ArcSet) -> np.ndarray:
    """Exact first angular moment of an arc set: sum of r * int u(theta) dtheta."""
    r = arcs.radius
    sx = math.fsum(math.sin(t2) - math.sin(t1) for t1, t2 in arcs.arcs)
    sy = math.fsum(math.cos(t1) - math.cos(t2) for t1, t2 in arcs.arcs)
    return np.array([r * sx, r * sy])


def vector_residual(body, x, r: float) -> np.ndarray:
    """Balance-law residual of the body on the circle of radius ``r`` about ``x``."""
    r = float(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    return body.balance_residuals(as_point(x), np.array([r]))[0]


@dataclass(frozen=True)
class BalanceReport:
    candidate: np.ndarray
    radii: np.ndarray
    residual_vectors: np.ndarray  # shape (k, 2)
    sup_residual: float           # max |residual| / (2 pi r)
    balanced: bool


def balance_report(body, x, n_radii: int = 256) -> BalanceReport:
    """Residual spectrum over a radius grid covering the whole body.

    The grid is log-uniform with exact breakpoints (plus small offsets)
    inserted at the radii where circle/boundary contacts change the arc
    structure.  The body answers the whole grid in one ``balance_residuals``
    call.  ``balanced`` holds when the sup of ``|residual| / (2 pi r)`` stays
    below 1e-8.
    """
    x = as_point(x)
    if n_radii < 32:
        raise ValueError("need at least 32 radii")
    r_far = body.reach(x)
    if r_far <= 0:
        raise ValueError("degenerate body")
    radii = set(np.geomspace(r_far * 1e-4, r_far, n_radii))
    jitter = 1e-9 * r_far
    for b in body.radius_breakpoints(x):
        for rb in (b - jitter, b, b + jitter):
            if 0 < rb <= r_far:
                radii.add(float(rb))
    grid = np.array(sorted(radii))
    residuals = body.balance_residuals(x, grid)
    sup = float(np.max(np.hypot(residuals[:, 0], residuals[:, 1]) / (2 * math.pi * grid)))
    return BalanceReport(x, grid, residuals, sup, bool(sup < BALANCED_TOL))


# ---------------------------------------------------------------------------
# weighted indicator sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedBodyFunction:
    """Finite sum of weighted body indicators, f = sum w_i * chi_{body_i}."""

    terms: tuple

    def __init__(self, terms: Sequence[tuple[float, object]]):
        terms = tuple((float(w), b) for w, b in terms)
        if not terms:
            raise InvalidBody("need at least one weighted body")
        object.__setattr__(self, "terms", terms)

    def mass(self) -> float:
        return math.fsum(w * b.area() for w, b in self.terms)

    def first_moment(self) -> np.ndarray:
        acc = np.zeros(2)
        for w, b in self.terms:
            acc += w * b.area() * b.centroid()
        return acc


def scalar_residual(f: WeightedBodyFunction, x, r: float) -> float:
    """Mean-value residual: sum of w_i * r * (angular measure of circle inside body_i)."""
    x = as_point(x)
    return math.fsum(w * r * circle_clip(b, x, float(r)).measure()
                     for w, b in f.terms)


@dataclass(frozen=True)
class StationaryCandidate:
    kind: str                      # "candidate" | "none_exists" | "indeterminate"
    point: Optional[np.ndarray]


def stationary_candidate(f: WeightedBodyFunction) -> StationaryCandidate:
    """The only point that can be a parameter-independent critical point.

    With nonzero total mass the candidate is the weighted centroid; zero mass
    with nonzero first moment rules any stationary point out; zero mass and
    zero moment leave the question open.
    """
    mass = f.mass()
    moment = f.first_moment()
    scale = math.fsum(abs(w) * b.area() for w, b in f.terms)
    length = max(b.diameter() for _, b in f.terms)
    if abs(mass) > 1e-10 * max(scale, 1e-300):
        return StationaryCandidate("candidate", moment / mass)
    if float(np.hypot(*moment)) > 1e-10 * max(scale * length, 1e-300):
        return StationaryCandidate("none_exists", None)
    return StationaryCandidate("indeterminate", None)


# ---------------------------------------------------------------------------
# decomposition identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    complement_violation: float
    split_violation: float
    passed: bool


def equivalence_check(body, x, n_radii: int = 48, tol: float = 1e-9) -> EquivalenceReport:
    """Verify the complement and split identities of the balance residual.

    On every test circle the residual of the body plus the residual of its
    complement must vanish (the full circle has zero first moment), and
    splitting the body at any ball radius must decompose the residual
    additively.
    """
    x = as_point(x)
    r_far = body.reach(x)
    r_star = body.boundary_distance(x)
    grid = np.geomspace(r_far * 1e-3, r_far * 0.999, n_radii)
    comp_viol = 0.0
    split_viol = 0.0
    rhos = [0.3 * r_star, 0.7 * r_star, 1.3 * r_star] if r_star > 0 else [0.5 * r_far]
    for r in grid:
        arcs = circle_clip(body, x, float(r))
        res = vector_residual_of_arcs(arcs)
        res_comp = vector_residual_of_arcs(arcs.complement())
        comp_viol = max(comp_viol, float(np.hypot(*(res + res_comp))))
        for rho in rhos:
            inner = res if r <= rho else np.zeros(2)
            outer = res if r > rho else np.zeros(2)
            split_viol = max(split_viol, float(np.hypot(*(inner + outer - res))))
    scale = max(1.0, r_far)
    return EquivalenceReport(comp_viol, split_viol,
                             comp_viol < tol * scale and split_viol < tol * scale)


# ---------------------------------------------------------------------------
# contact points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactSet:
    r_star: float
    points: tuple
    sum: np.ndarray   # sum of (p_j - x)


def contact_points(body, x) -> ContactSet:
    """Nearest-boundary contact points of a convex polygon from an interior point.

    Curved bodies are rejected: a circle tangent to a circular boundary piece
    meets it in a continuum, not finitely many points.
    """
    x = as_point(x)
    if not isinstance(body, Polygon):
        raise ContinuumContact("contact analysis requires a polygon boundary")
    if not body.is_convex():
        raise ValueError("contact analysis requires a convex polygon")
    if not body.contains(x) or body.boundary_distance(x) <= 0:
        raise NotInterior("contact analysis requires an interior point")
    feet = []
    for a, b in body.edges():
        e = b - a
        t = float(np.dot(x - a, e) / np.dot(e, e))
        t = min(1.0, max(0.0, t))
        p = a + t * e
        feet.append((float(np.hypot(*(p - x))), p))
    r_star = min(d for d, _ in feet)
    scale = body.diameter()
    pts = []
    for d, p in feet:
        if d <= r_star * (1 + 1e-9):
            if all(float(np.hypot(*(p - q))) > 1e-9 * scale for q in pts):
                pts.append(p)
    s = np.zeros(2)
    for p in pts:
        s += p - x
    return ContactSet(r_star, tuple(pts), s)


# ---------------------------------------------------------------------------
# triangle / quadrangle classification
# ---------------------------------------------------------------------------

class PolygonClass(enum.Enum):
    BALANCED_EQUILATERAL = "BalancedEquilateral"
    BALANCED_PARALLELOGRAM = "BalancedParallelogram"
    NOT_BALANCED = "NotBalanced"


def classify_polygon(poly: Polygon, n_radii: int = 256) -> PolygonClass:
    """Classify a convex triangle or quadrangle by balance at its centroid.

    Balanced triangles must be equilateral and balanced quadrangles must be
    parallelograms; a balanced report that fails the geometric test raises
    TheoremViolation, which signals a numerical tolerance bug rather than a
    legitimate outcome.
    """
    if poly.n not in (3, 4):
        raise ValueError("classification is defined for triangles and quadrangles")
    if not poly.is_convex():
        raise ValueError("classification requires a convex polygon")
    g = poly.centroid()
    report = balance_report(poly, g, n_radii=n_radii)
    if not report.balanced:
        return PolygonClass.NOT_BALANCED
    if poly.n == 3:
        if equilateral_defect(poly) <= CLASSIFY_TOL:
            return PolygonClass.BALANCED_EQUILATERAL
        raise TheoremViolation("balanced triangle is not equilateral")
    if parallelogram_defect(poly) <= CLASSIFY_TOL:
        return PolygonClass.BALANCED_PARALLELOGRAM
    raise TheoremViolation("balanced quadrangle is not a parallelogram")


def parallelogram_defect(poly: Polygon) -> float:
    """Relative distance between diagonal midpoints (0 for parallelograms)."""
    v = poly.vertices
    return float(np.hypot(*(0.5 * (v[0] + v[2]) - 0.5 * (v[1] + v[3])))) / poly.diameter()


def equilateral_defect(poly: Polygon) -> float:
    """Relative spread of side lengths (0 for equilateral triangles)."""
    v = poly.vertices
    sides = [float(np.hypot(*(v[(i + 1) % 3] - v[i]))) for i in range(3)]
    return (max(sides) - min(sides)) / poly.diameter()


# ---------------------------------------------------------------------------
# radially parameterized balanced body
# ---------------------------------------------------------------------------

# three lobe directions with no common symmetry: the angular gaps
# (137, 82, 141 degrees) are pairwise distinct, so no rotation or
# reflection can permute the frame
FRAME_ANGLES = (0.0, math.radians(137.0), math.radians(219.0))


def _frame_coefficients(angles) -> tuple[float, float]:
    """Solve sin(a_v) v + sin(a_w) w = -sin(a_u) u for the two sine ratios."""
    u = np.array([math.cos(angles[0]), math.sin(angles[0])])
    v = np.array([math.cos(angles[1]), math.sin(angles[1])])
    w = np.array([math.cos(angles[2]), math.sin(angles[2])])
    M = np.column_stack([v, w])
    c = np.linalg.solve(M, -u)
    return float(c[0]), float(c[1])


class _LobeCurve(NamedTuple):
    """Half of lobe ``which`` of a RadialArcBody: y(t) = R(t) u(t), t in [t0, t1].

    ``side`` is -1 on the half before the apex direction ``apex`` and +1 on
    the half after it.  With u' = (-sin t, cos t), the outward normal scaled
    by |dy/dt| is R u - R' u'.
    """

    body: "RadialArcBody"
    which: int
    apex: float
    side: float
    t0: float
    t1: float

    def curve(self, t: np.ndarray):
        delta = self.side * (t - self.apex)
        rad = self.body._lobe_radius_many(delta, self.which)
        slope = self.side * self.body._lobe_slope_many(delta, self.which)
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        y = rad[:, None] * u
        return y, y - slope[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=1)

    def nearest(self, x) -> float:
        """The direction of ``x``, clipped to the piece."""
        return _angle_within(math.atan2(x[1], x[0]), self.t0, self.t1)


@dataclass(frozen=True)
class RadialArcBody:
    """Unit disk grown by three balanced lobes; star-shaped about the origin.

    At every radius ``r`` in (1, r_max] the body meets the circle of radius
    ``r`` in three arcs whose half-widths ``a_d(r)`` satisfy
    ``sum_d sin(a_d(r)) * d = 0``, so the centroid of each circular slice
    stays at the origin.  The seed half-width is the closed form
    ``a_u(r) = amplitude * (1 - sqrt((r - 1) / (r_max - 1)))``; the companion
    half-widths are recovered exactly from the balance constraint at
    evaluation time so the slice centroids vanish to machine precision at
    every radius.  The lobe junction half-widths, convexity, the diameter and
    the boundary outlines used by ``boundary_distance`` (2048 points) and
    ``reach`` (1024 points) are computed once here.
    """

    direction_angles: tuple
    r_max: float
    amplitude: float

    def __init__(self, direction_angles, r_max, amplitude):
        angles = tuple(float(a) for a in direction_angles)
        if len(angles) != 3:
            raise InvalidBody("exactly three lobe directions required")
        r_max = float(r_max)
        if not 1.0 < r_max <= 1.3:
            raise InvalidBody("r_max must lie in (1, 1.3]")
        amplitude = float(amplitude)
        if not 0.0 < amplitude <= math.pi / 3:
            raise InvalidBody("seed amplitude must lie in (0, pi/3]")
        # a symmetry-free frame has pairwise distinct angular gaps: equal gaps
        # admit a reflection (two equal) or a rotation (all equal)
        sorted_angles = sorted(a % (2 * math.pi) for a in angles)
        gaps = sorted(np.diff(sorted_angles + [sorted_angles[0] + 2 * math.pi]))
        if gaps[1] - gaps[0] < 1e-9 or gaps[2] - gaps[1] < 1e-9:
            raise InvalidBody("frame admits a nontrivial symmetry (repeated angular gap)")
        object.__setattr__(self, "direction_angles", angles)
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "amplitude", amplitude)
        c_v, c_w = _frame_coefficients(angles)
        if not (0 < c_v and 0 < c_w):
            raise InvalidBody("frame directions must make both sine ratios positive")
        object.__setattr__(self, "_c", (1.0, c_v, c_w))
        w = tuple(math.asin(min(1.0, c * math.sin(amplitude))) for c in self._c)
        object.__setattr__(self, "_junctions", w)
        # the exact incenter needs unit-circle arcs within 60 degrees of every direction
        for i, j in ((0, 1), (1, 2), (2, 0)):
            gap = abs((angles[i] - angles[j] + math.pi) % (2 * math.pi) - math.pi)
            if max(w[i], w[j]) > math.pi / 3 or w[i] + w[j] >= gap:
                raise InvalidBody("lobes must be disjoint and at most 120 degrees wide")
        object.__setattr__(self, "_pieces", self._split_boundary())
        outline = self.boundary_polyline(2048)
        object.__setattr__(self, "_outline", outline)
        object.__setattr__(self, "_outline_next", np.roll(outline, -1, axis=0))
        object.__setattr__(self, "_reach_outline", self.boundary_polyline(1024))
        t = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        object.__setattr__(self, "_diameter", float(np.max(
            self.boundary_radius(t) + self.boundary_radius(t + math.pi))))
        object.__setattr__(self, "_convex", self.convexity_defect(4096) >= -1e-12)

    @property
    def directions(self) -> np.ndarray:
        """The three lobe directions as unit vectors, shape (3, 2)."""
        return np.array([[math.cos(a), math.sin(a)] for a in self.direction_angles])

    # -- profile evaluation -------------------------------------------------

    def seed_half_width(self, r) -> np.ndarray:
        q = np.clip((np.asarray(r, dtype=float) - 1.0) / (self.r_max - 1.0), 0.0, 1.0)
        return self.amplitude * (1.0 - np.sqrt(q))

    def half_widths(self, r) -> np.ndarray:
        """Half-widths (a_u, a_v, a_w) of radii r, on a new last axis; zero outside (1, r_max]."""
        r = np.asarray(r, dtype=float)
        s_u = np.where((r > 1.0) & (r <= self.r_max), np.sin(self.seed_half_width(r)), 0.0)
        return np.arcsin(np.minimum(1.0, np.multiply.outer(s_u, self._c)))

    def slice_moment(self, r) -> np.ndarray:
        """First angular moment of the slice at radius r (zero when balanced)."""
        return np.sin(self.half_widths(r)) @ self.directions

    def _lobe_radius_many(self, half_angles: np.ndarray, which: int) -> np.ndarray:
        """Inverse profile: radii at which lobe ``which`` has the given half-widths."""
        targets = np.arcsin(np.clip(np.sin(half_angles) / self._c[which], -1.0, 1.0))
        q = np.clip(1.0 - targets / self.amplitude, 0.0, 1.0)
        return 1.0 + (self.r_max - 1.0) * q * q

    def _lobe_slope_many(self, half_angles: np.ndarray, which: int) -> np.ndarray:
        """Derivative of ``_lobe_radius_many`` in the half-width, inside the lobe."""
        c = self._c[which]
        s = np.sin(half_angles)
        q = 1.0 - np.arcsin(s / c) / self.amplitude
        return (-2.0 * (self.r_max - 1.0) / self.amplitude * q * np.cos(half_angles)
                / np.sqrt(c * c - s * s))

    def boundary_radius(self, phi) -> np.ndarray:
        """Radial function about the origin."""
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        out = np.ones_like(phi)
        for k, (ang, width) in enumerate(zip(self.direction_angles, self._junctions)):
            delta = np.abs((phi - ang + math.pi) % (2 * math.pi) - math.pi)
            mask = delta < width
            if np.any(mask):
                out[mask] = np.maximum(out[mask], self._lobe_radius_many(delta[mask], k))
        return out

    # -- generic body protocol ------------------------------------------------

    def _polar(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """|p| and the boundary radius R(arg p) for points of shape (n, 2) or (2,)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return (np.hypot(pts[:, 0], pts[:, 1]),
                self.boundary_radius(np.arctan2(pts[:, 1], pts[:, 0])))

    def contains(self, p, tol=None) -> bool:
        rad, rb = self._polar(as_point(p))
        return bool(rad[0] <= rb[0] + (1e-12 * self.r_max if tol is None else tol))

    def contains_many(self, pts) -> np.ndarray:
        rad, rb = self._polar(pts)
        return rad <= rb + 1e-12 * self.r_max

    def area(self) -> float:
        from .quadrature import adaptive_gk
        val, _ = adaptive_gk(lambda t: 0.5 * self.boundary_radius(t) ** 2,
                             self.angular_breakpoints(np.zeros(2)))
        return float(val)

    def centroid(self) -> np.ndarray:
        """The origin, exactly: every circular slice is balanced about it, so
        the body's first moment vanishes."""
        return np.zeros(2)

    def diameter(self) -> float:
        return self._diameter

    def boundary_distance(self, p) -> float:
        return float(self.boundary_distance_many(as_point(p))[0])

    def boundary_distance_many(self, pts) -> np.ndarray:
        """Distances to the 2048-chord outline, short of the true ones by up to
        the outline's sagitta (about 1.2e-6 for the generated body)."""
        return _polyline_distances(pts, self._outline, self._outline_next)

    def boundary_polyline(self, n: int = 512) -> np.ndarray:
        t = np.linspace(0, 2 * math.pi, n, endpoint=False)
        rb = self.boundary_radius(t)
        return np.stack([rb * np.cos(t), rb * np.sin(t)], axis=1)

    def boundary_pieces(self) -> tuple:
        """Each lobe split at its apex, where R has a corner, and the
        unit-circle arcs between the lobes."""
        return self._pieces

    def _split_boundary(self) -> tuple:
        lobes = sorted((a % (2 * math.pi), w, k)
                       for k, (a, w) in enumerate(zip(self.direction_angles, self._junctions)))
        pieces = []
        for i, (a, w, k) in enumerate(lobes):
            a_next, w_next, _ = lobes[(i + 1) % 3]
            if i == 2:
                a_next += 2 * math.pi
            pieces += [_LobeCurve(self, k, a, -1.0, a - w, a),
                       _LobeCurve(self, k, a, 1.0, a, a + w),
                       CircleArc(np.zeros(2), 1.0, a + w, a_next - w_next)]
        return tuple(pieces)

    def radial_function(self, x, theta: float) -> float:
        return float(self.radial_function_many(x, theta)[0])

    def radial_function_many(self, x, thetas) -> np.ndarray:
        """Exit distances from ``x`` along ``thetas``.

        Off the origin, all rays are solved at once for the root of
        |p| - R(arg p) by the Illinois variant of regula falsi (Dowell and
        Jarratt, BIT 11, 1971): the secant point of the bracket replaces the
        end of its sign, and an end kept twice in a row has its value halved.
        Trial points keep two ulps from the bracket ends, and a ray stops
        when its bracket is four ulps wide or its value is zero.
        """
        x = as_point(x)
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if float(np.hypot(*x)) <= 1e-12:
            return self.boundary_radius(thetas)
        rad, rb = self._polar(x)
        if rad[0] >= rb[0]:
            raise NotInterior("base point must be interior")
        u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        lo = np.zeros_like(thetas)
        f_lo = np.full_like(thetas, rad[0] - rb[0])
        hi = np.full_like(thetas, rad[0] + self.r_max + 1.0)
        f_hi = np.subtract(*self._polar(x + hi[:, None] * u))
        moved = np.zeros_like(thetas)         # +1: the low end moved last, -1: the high end
        ulp = np.finfo(float).eps
        live = np.arange(len(thetas))
        while live.size:
            a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
            t = np.clip((a * fb - b * fa) / (fb - fa), a + 2 * ulp * b, b - 2 * ulp * b)
            rad, rb = self._polar(x + t[:, None] * u[live])
            f = rad - rb
            out = rad > rb
            lo[live], hi[live] = np.where(out, a, t), np.where(out | (f == 0), t, b)
            f_lo[live] = np.where(out, np.where(moved[live] < 0, 0.5 * fa, fa), f)
            f_hi[live] = np.where(out, f, np.where(moved[live] > 0, 0.5 * fb, fb))
            moved[live] = np.where(out, -1.0, 1.0)
            live = live[hi[live] - lo[live] > 4 * ulp * hi[live]]
        return 0.5 * (lo + hi)

    def angular_breakpoints(self, x) -> list[float]:
        """Lobe apex and junction directions as seen from ``x``."""
        pts = []
        for ang, width in zip(self.direction_angles, self._junctions):
            pts.append(self.r_max * np.array([math.cos(ang), math.sin(ang)]))
            for s in (-1.0, 1.0):
                a = ang + s * width
                pts.append(np.array([math.cos(a), math.sin(a)]))
        return _angle_breakpoints(pts, as_point(x))

    def is_convex(self) -> bool:
        return self._convex

    def convexity_defect(self, n: int = 4096) -> float:
        """Minimum normalized cross product of consecutive boundary steps."""
        pts = self.boundary_polyline(n)
        e = np.roll(pts, -1, axis=0) - pts
        e2 = np.roll(e, -1, axis=0)
        cross = e[:, 0] * e2[:, 1] - e[:, 1] * e2[:, 0]
        norm = np.hypot(e[:, 0], e[:, 1]) * np.hypot(e2[:, 0], e2[:, 1])
        return float(np.min(cross / norm))

    def circle_clip(self, x, r: float) -> ArcSet:
        x = as_point(x)
        r = float(r)
        if float(np.hypot(*x)) <= 1e-12:
            if r <= 1.0:
                return ArcSet(x, r, ((0.0, 2 * math.pi),))
            if r > self.r_max:
                return ArcSet(x, r, ())
            arcs = []
            widths = self.half_widths(r)
            for ang, hw in zip(self.direction_angles, widths):
                if hw > 1e-15:
                    arcs.append((ang - hw, ang + hw))
            return _build_arcset(x, r, arcs)
        return self._circle_clip_offcenter(x, r)

    def _circle_clip_offcenter(self, x, r) -> ArcSet:
        """Sign changes of |p| - R(arg p) among 2048 circle samples, each
        bracket refined by ``brentq``."""
        ts = np.linspace(0, 2 * math.pi, 2048, endpoint=False)
        rad, rb = self._polar(x + r * np.stack([np.cos(ts), np.sin(ts)], axis=1))
        vals = rad - rb
        neg = vals < 0
        starts = ts[(vals == 0.0) | (neg != np.roll(neg, -1))]

        def g(t):
            rad, rb = self._polar(x + r * np.array([math.cos(t), math.sin(t)]))
            return float(rad[0] - rb[0])

        crossings = []
        for t_lo in starts:
            try:
                root = brentq(g, t_lo, t_lo + 2 * math.pi / 2048, xtol=1e-14)
            except ValueError:
                continue
            crossings.append(root % (2 * math.pi))
        return _arcs_between(x, r, sorted(crossings), self.contains)

    def balance_residuals(self, x, radii) -> np.ndarray:
        """The moments of the ``circle_clip`` arc sets, one radius at a time."""
        return np.array([vector_residual_of_arcs(circle_clip(self, x, float(r)))
                         for r in radii]).reshape(-1, 2)

    def radius_breakpoints(self, x) -> list[float]:
        x = as_point(x)
        d = float(np.hypot(*x))
        return [abs(1.0 - d), 1.0 + d, abs(self.r_max - d), self.r_max + d]

    def reach(self, x) -> float:
        pts = self._reach_outline
        return float(np.max(np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])))

    def circumcenter(self) -> CircumCenter:
        """The origin with radius ``r_max``, exactly.

        R <= r_max everywhere, and the three lobe apexes lie at radius r_max.
        The positive sine ratios write the origin as a positive combination
        of the lobe directions, so it lies strictly inside the apex triangle;
        that triangle is acute, and the circumcircle of an acute triangle is
        its minimal enclosing circle.
        """
        return CircumCenter(np.zeros(2), self.r_max)

    def incenter(self) -> InCenter:
        """The origin with radius 1, exactly and unambiguously.

        The body contains the unit disk, and R = 1 outside the three lobes,
        which are disjoint and at most 120 degrees wide, so every direction
        lies within 60 degrees of a unit-circle arc of the boundary.  A disk
        of radius r >= 1 inside the body has its center c within
        r_max - r <= 0.3 of the origin; for c != 0 the boundary point e on
        such an arc nearest to the direction of c has
        |e - c|^2 <= 1 - |c| (1 - |c|) < r^2, inside that disk.
        """
        return InCenter(np.zeros(2), 1.0, False)

    def route(self, loc: str) -> str:
        """The angular route about interior points, and no route (``none``)
        elsewhere: only the boundary-piece quadratures serve those points."""
        return "angular" if loc == "interior" and self._convex else "none"

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "type": "radial_arc",
            "direction_angles": [float(a) for a in self.direction_angles],
            "r_max": self.r_max,
            "amplitude": self.amplitude,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RadialArcBody":
        return cls(data["direction_angles"], data["r_max"], data["amplitude"])


def generate_asymmetric_balanced(r_max: float = 1.04,
                                 a0: float = math.pi / 6) -> RadialArcBody:
    """Convex body balanced at the origin with no symmetry at all.

    Starts from the unit disk and grows three lobes along a symmetry-free
    frame; at each radius the two companion half-widths are solved from the
    zero-slice-centroid constraint.  The seed half-width
    ``a0 * (1 - sqrt((r - 1) / (r_max - 1)))`` is tangential at the lobe base
    (vertical slope in radius at r = 1), which is what keeps the lobe/disk
    junctions convex; steep-at-apex profiles provably create concave corners
    there.  Convexity is verified on 4096 boundary samples; on failure the
    lobe amplitude is shrunk geometrically.
    """
    if not 1.0 < r_max <= 1.3:
        raise ValueError("r_max must lie in (1, 1.3]")
    if not 0 < a0 <= math.pi / 6:
        raise ValueError("a0 must lie in (0, pi/6]")
    c_v, c_w = _frame_coefficients(FRAME_ANGLES)
    amp = a0
    last_defect = None
    for _ in range(20):
        if max(c_v, c_w) * math.sin(amp) >= math.sin(math.pi / 3):
            amp *= 0.8
            continue
        body = RadialArcBody(FRAME_ANGLES, r_max, amp)
        if body.is_convex():
            return body
        last_defect = body.convexity_defect()
        amp *= 0.8
    raise ConstructionFailed(
        f"no convex instance within retry budget (last defect {last_defect:.3e}); "
        f"r_max may exceed the tangent-line bound for admissible lobe widths")


# ---------------------------------------------------------------------------
# symmetry search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Isometry:
    kind: str          # "rotation" | "reflection"
    angle: float       # rotation angle, or axis angle for reflections
    center: np.ndarray


def symmetry_search(body, tol_rel: float = 1e-6) -> list[Isometry]:
    """Isometries (about the centroid) mapping the body onto itself.

    Tests rotations by 2 pi k / n for n <= 12 and reflections across
    candidate axes extracted from boundary extrema.  A candidate passes when
    the two-sided boundary Hausdorff distance stays below ``tol_rel`` times
    the diameter.  Returns the full symmetry group (identity included) when
    any nontrivial symmetry exists, and the empty list otherwise.
    """
    g = body.centroid()
    scale = body.diameter()
    tol = tol_rel * scale
    samples = body.boundary_polyline(512)
    prefilter = _signature_prefilter(body, g, scale)

    def h_dist(mat) -> float:
        fwd = (samples - g) @ mat.T + g
        d1 = body.boundary_distance_many(fwd)
        bwd = (samples - g) @ mat + g       # inverse of an orthogonal matrix
        d2 = body.boundary_distance_many(bwd)
        return max(float(d1.max()), float(d2.max()))

    found: list[Isometry] = []
    for ang in _rotation_candidates():
        if not prefilter("rotation", ang):
            continue
        c, s = math.cos(ang), math.sin(ang)
        if h_dist(np.array([[c, -s], [s, c]])) < tol:
            found.append(Isometry("rotation", ang, g))
    for ax in _axis_candidates(body, g):
        if not prefilter("reflection", ax):
            continue
        c, s = math.cos(2 * ax), math.sin(2 * ax)
        if h_dist(np.array([[c, s], [s, -c]])) < tol:
            found.append(Isometry("reflection", ax, g))
    nontrivial = [iso for iso in found
                  if not (iso.kind == "rotation" and abs(iso.angle) < 1e-15)]
    if not nontrivial:
        return []
    identity = Isometry("rotation", 0.0, g)
    return [identity] + nontrivial


def _signature_prefilter(body, g: np.ndarray, scale: float):
    """Cheap radial-signature screen for star-shaped bodies centered at the centroid.

    An exact symmetry permutes the radial function about the centroid; a
    candidate whose permuted signature differs grossly cannot pass the full
    Hausdorff test, so it is skipped.  Bodies without an origin-centered
    radial parameterization are never screened out.
    """
    if not hasattr(body, "boundary_radius") or float(np.hypot(*g)) > 1e-9 * scale:
        return lambda kind, ang: True
    t = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
    sig = body.boundary_radius(t)
    period = 2 * math.pi
    # gross-mismatch screen: exact symmetries land orders below either term
    thr = max(1e-4 * scale, 0.05 * float(np.ptp(sig)))

    def check(kind: str, ang: float) -> bool:
        if kind == "rotation":
            mapped = np.interp((t - ang) % period, t, sig, period=period)
        else:
            mapped = np.interp((2 * ang - t) % period, t, sig, period=period)
        return float(np.max(np.abs(mapped - sig))) < thr

    return check


def _rotation_candidates() -> list[float]:
    fracs = set()
    for n in range(1, 13):
        for k in range(n):
            fracs.add(round(k / n, 12))
    return sorted(2 * math.pi * f for f in fracs)


def _axis_candidates(body, g: np.ndarray) -> list[float]:
    if isinstance(body, Polygon):
        pts = list(body.vertices) + [0.5 * (a + b) for a, b in body.edges()]
        raw = [math.atan2(p[1] - g[1], p[0] - g[0]) % math.pi for p in pts]
    elif isinstance(body, Disk):
        raw = [math.pi * k / 8 for k in range(8)]
    else:
        t = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        rb = body.boundary_radius(t)
        prv = np.roll(rb, 1)
        nxt = np.roll(rb, -1)
        ext = t[((rb >= prv) & (rb > nxt)) | ((rb <= prv) & (rb < nxt))]
        raw = [float(a) % math.pi for a in ext]
        raw += [((a + b) / 2) % math.pi for a in raw for b in raw if a < b]
    out: list[float] = []
    for a in sorted(raw):
        if all(min(abs(a - b), math.pi - abs(a - b)) > 1e-9 for b in out):
            out.append(a)
    return out[:64]
