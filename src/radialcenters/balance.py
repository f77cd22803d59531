"""Balance-law analysis and the characterization of stationary centers.

A point satisfies the balance law for a body when the first angular moment
of the body's indicator over every circle about the point vanishes.  This
module computes those residuals, the nearest-contact analysis, the
triangle/quadrangle classification, candidate stationary points of weighted
indicator sums, and a generator for a convex body that is balanced at the
origin yet has no symmetry at all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (ConstructionFailed, ContinuumContact, InvalidBody, NotInterior,
                     TheoremViolation)
from .geometry import (ArcSet, Disk, Polygon, as_point, circle_clip, _angle_breakpoints,
                       _arcs_between, _build_arcset, _segment_distances)

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
    return vector_residual_of_arcs(circle_clip(body, as_point(x), float(r)))


@dataclass(frozen=True)
class BalanceReport:
    candidate: np.ndarray
    radii: np.ndarray
    residual_vectors: np.ndarray  # shape (k, 2)
    sup_residual: float           # max |residual| / (2 pi r)
    balanced: bool
    truncated: bool = False       # early stop after a gross violation


def balance_report(body, x, n_radii: int = 256, early_stop: bool = False) -> BalanceReport:
    """Residual spectrum over a radius grid covering the whole body.

    The grid is log-uniform with exact breakpoints (plus small offsets)
    inserted at the radii where circle/boundary contacts change the arc
    structure.  ``balanced`` holds when the sup of ``|residual| / (2 pi r)``
    stays below 1e-8.  With ``early_stop`` the scan aborts once the residual
    grossly exceeds the threshold (used by the classification corpus).
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
    residuals = []
    sup = 0.0
    truncated = False
    for i, r in enumerate(grid):
        res = vector_residual(body, x, float(r))
        residuals.append(res)
        sup = max(sup, float(np.hypot(*res)) / (2 * math.pi * float(r)))
        if early_stop and sup > 1e4 * BALANCED_TOL and i >= 7:
            grid = grid[: i + 1]
            truncated = True
            break
    return BalanceReport(x, grid, np.array(residuals), float(sup),
                         bool(sup < BALANCED_TOL), truncated)


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
    report = balance_report(poly, g, n_radii=n_radii, early_stop=True)
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


@dataclass(frozen=True)
class RadialArcBody:
    """Unit disk grown by three balanced lobes; star-shaped about the origin.

    At every radius ``r`` in (1, r_max] the body meets the circle of radius
    ``r`` in three arcs whose half-widths ``a_d(r)`` satisfy
    ``sum_d sin(a_d(r)) * d = 0``, so the centroid of each circular slice
    stays at the origin.  The seed half-width ``a_u`` is stored as a
    piecewise-linear profile; the companion half-widths are recovered
    exactly from the balance constraint at evaluation time so the slice
    centroids vanish to machine precision at every radius, not just at the
    stored nodes.  Convexity, the diameter and the boundary outlines used by
    ``boundary_distance`` (2048 points) and ``reach`` (1024 points) are
    computed once here.
    """

    direction_angles: tuple
    r_max: float
    profile_r: np.ndarray
    profile_a_u: np.ndarray

    def __init__(self, direction_angles, r_max, profile_r, profile_a_u):
        angles = tuple(float(a) for a in direction_angles)
        if len(angles) != 3:
            raise InvalidBody("exactly three lobe directions required")
        r_max = float(r_max)
        if not 1.0 < r_max <= 1.3:
            raise InvalidBody("r_max must lie in (1, 1.3]")
        rr = np.asarray(profile_r, dtype=float)
        aa = np.asarray(profile_a_u, dtype=float)
        if rr.shape != aa.shape or rr.ndim != 1 or len(rr) < 2:
            raise InvalidBody("profile arrays must be matching 1-D arrays")
        if abs(rr[0] - 1.0) > 1e-12 or abs(rr[-1] - r_max) > 1e-12:
            raise InvalidBody("profile must span [1, r_max]")
        if np.any(np.diff(rr) <= 0) or np.any(np.diff(aa) >= 0):
            raise InvalidBody("seed half-width must decrease strictly along increasing radius")
        if aa[0] > math.pi / 3 + 1e-12 or aa[-1] < -1e-12:
            raise InvalidBody("half-widths must lie in (0, pi/3] and reach 0 at r_max")
        rr = rr.copy(); rr.setflags(write=False)
        aa = aa.copy(); aa.setflags(write=False)
        # a symmetry-free frame has pairwise distinct angular gaps: equal gaps
        # admit a reflection (two equal) or a rotation (all equal)
        sorted_angles = sorted(a % (2 * math.pi) for a in angles)
        gaps = sorted(np.diff(sorted_angles + [sorted_angles[0] + 2 * math.pi]))
        if gaps[1] - gaps[0] < 1e-9 or gaps[2] - gaps[1] < 1e-9:
            raise InvalidBody("frame admits a nontrivial symmetry (repeated angular gap)")
        object.__setattr__(self, "direction_angles", angles)
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "profile_r", rr)
        object.__setattr__(self, "profile_a_u", aa)
        c_v, c_w = _frame_coefficients(angles)
        if not (0 < c_v and 0 < c_w):
            raise InvalidBody("frame directions must make both sine ratios positive")
        object.__setattr__(self, "_c", (1.0, c_v, c_w))
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
        r = np.asarray(r, dtype=float)
        return np.interp(r, self.profile_r, self.profile_a_u, left=self.profile_a_u[0],
                         right=0.0)

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
        c = self._c[which]
        s = np.sin(half_angles) / c
        s = np.clip(s, -1.0, 1.0)
        targets = np.arcsin(s)
        # profile_a_u decreases along profile_r: invert the piecewise-linear map
        a_rev = self.profile_a_u[::-1]
        r_rev = self.profile_r[::-1]
        return np.interp(targets, a_rev, r_rev, left=self.r_max, right=1.0)

    def boundary_radius(self, phi) -> np.ndarray:
        """Radial function about the origin."""
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        out = np.ones_like(phi)
        for k, ang in enumerate(self.direction_angles):
            width = math.asin(min(1.0, self._c[k] * math.sin(self.profile_a_u[0])))
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
        return float(np.min(_segment_distances(as_point(p), self._outline, self._outline_next)))

    def boundary_polyline(self, n: int = 512) -> np.ndarray:
        t = np.linspace(0, 2 * math.pi, n, endpoint=False)
        rb = self.boundary_radius(t)
        return np.stack([rb * np.cos(t), rb * np.sin(t)], axis=1)

    def radial_function(self, x, theta: float) -> float:
        return float(self.radial_function_many(x, theta)[0])

    def radial_function_many(self, x, thetas) -> np.ndarray:
        """Exit distances from ``x`` along ``thetas``; off the origin, all rays are
        bisected at once until the midpoints stop moving."""
        x = as_point(x)
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if float(np.hypot(*x)) <= 1e-12:
            return self.boundary_radius(thetas)
        rad, rb = self._polar(x)
        if rad[0] >= rb[0]:
            raise NotInterior("base point must be interior")
        u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        lo = np.zeros_like(thetas)
        hi = np.full_like(thetas, rad[0] + self.r_max + 1.0)
        mid = hi
        while True:
            mid, last = 0.5 * (lo + hi), mid
            if np.array_equal(mid, last):
                return mid
            rad, rb = self._polar(x + mid[:, None] * u)
            out = rad > rb
            lo, hi = np.where(out, lo, mid), np.where(out, mid, hi)

    def angular_breakpoints(self, x) -> list[float]:
        """Lobe apex and junction directions as seen from ``x``."""
        pts = []
        for k, ang in enumerate(self.direction_angles):
            width = math.asin(min(1.0, self._c[k] * math.sin(self.profile_a_u[0])))
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

    def radius_breakpoints(self, x) -> list[float]:
        x = as_point(x)
        d = float(np.hypot(*x))
        return [abs(1.0 - d), 1.0 + d, abs(self.r_max - d), self.r_max + d]

    def reach(self, x) -> float:
        pts = self._reach_outline
        return float(np.max(np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])))

    def route(self, loc: str) -> str:
        """The angular route about interior points; nothing else is supported."""
        if loc != "interior" or not self._convex:
            raise ValueError(f"{loc} evaluation not supported for RadialArcBody")
        return "angular"

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        widths = self.half_widths(self.profile_r)
        return {
            "type": "radial_arc",
            "direction_angles": [float(a) for a in self.direction_angles],
            "r_max": float(self.r_max),
            "profile_r": self.profile_r.tolist(),
            "profile_a_u": self.profile_a_u.tolist(),
            "profile_a_v": widths[:, 1].tolist(),
            "profile_a_w": widths[:, 2].tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RadialArcBody":
        return cls(data["direction_angles"], data["r_max"],
                   np.asarray(data["profile_r"], dtype=float),
                   np.asarray(data["profile_a_u"], dtype=float))


def generate_asymmetric_balanced(r_max: float = 1.04,
                                 seed_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                                 a0: float = math.pi / 6,
                                 n_nodes: int = 16385) -> RadialArcBody:
    """Convex body balanced at the origin with no symmetry at all.

    Starts from the unit disk and grows three lobes along a symmetry-free
    frame; at each radius the two companion half-widths are solved from the
    zero-slice-centroid constraint.  The default seed half-width profile is
    tangential at the lobe base (vertical slope in radius at r = 1), which
    is what keeps the lobe/disk junctions convex; steep-at-apex profiles
    provably create concave corners there.  Profile nodes are spaced
    uniformly in half-width (quadratically in radius) and kept much denser
    than the convexity scan so the piecewise-linear representation cannot
    alias into spurious concave turns.  Convexity is verified on 4096
    boundary samples; on failure the lobe amplitude is shrunk geometrically.
    """
    if not 1.0 < r_max <= 1.3:
        raise ValueError("r_max must lie in (1, 1.3]")
    if not 0 < a0 <= math.pi / 6:
        raise ValueError("a0 must lie in (0, pi/6]")
    c_v, c_w = _frame_coefficients(FRAME_ANGLES)
    amp = a0
    last_defect = None
    q = np.linspace(0.0, 1.0, n_nodes)
    rr = 1.0 + (r_max - 1.0) * q * q
    rr[-1] = r_max
    for _ in range(20):
        if seed_profile is None:
            aa = amp * (1.0 - q)
        else:
            aa = np.asarray(seed_profile(rr), dtype=float) * (amp / a0)
        aa[-1] = 0.0
        if np.any(np.diff(aa) >= 0):
            raise ValueError("seed profile must be strictly decreasing")
        if max(c_v, c_w) * math.sin(aa[0]) >= math.sin(math.pi / 3):
            amp *= 0.8
            continue
        body = RadialArcBody(FRAME_ANGLES, r_max, rr, aa)
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


def symmetry_search(body, tol_rel: float = 1e-6, n_samples: int = 512) -> list[Isometry]:
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
    samples = body.boundary_polyline(n_samples)
    dist_fn = _boundary_distance_oracle(body)
    prefilter = _signature_prefilter(body, g, scale)

    def h_dist(mat) -> float:
        fwd = (samples - g) @ mat.T + g
        d1 = dist_fn(fwd)
        bwd = (samples - g) @ mat + g       # inverse of an orthogonal matrix
        d2 = dist_fn(bwd)
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


def _boundary_distance_oracle(body):
    """Vectorized point-to-boundary distance with body data precomputed once."""
    if isinstance(body, Disk):
        c, R = body.center, body.radius
        return lambda pts: np.abs(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]) - R)
    seg_a = body.vertices if isinstance(body, Polygon) else body.boundary_polyline(2048)
    seg_b = np.roll(seg_a, -1, axis=0)

    def dist(pts):
        out = np.full(len(pts), np.inf)
        # chunk over segments to bound memory
        for i in range(0, len(seg_a), 512):
            d = _segment_distances(pts[:, None, :], seg_a[i:i + 512], seg_b[i:i + 512])
            out = np.minimum(out, d.min(axis=1))
        return out

    return dist


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
