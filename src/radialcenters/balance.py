"""Balance-law analysis and the characterization of stationary centers.

A point satisfies the balance law for a body when the first angular moment
of the body's indicator over every circle about the point vanishes.  This
module computes those residuals, the nearest-contact analysis, the
triangle/quadrangle classification, candidate stationary points of weighted
indicator sums, and the symmetry search.  The convex body that is balanced
at the origin yet has no symmetry at all lives in ``radialarc``; it is bound
here too.

A residual spectrum is one ``geometry.balance_residuals`` call, a signed
sum over the circle crossings that the body answers for the whole radius
grid (``crossings``); ``circle_clip`` builds its arcs from the same
crossings.  No function here branches on the body's type for these, nor for
the symmetries that ``symmetry_search`` reads from the body.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContinuumContact, InvalidBody, NotInterior, TheoremViolation
from .geometry import ArcSet, Polygon, as_point, balance_residuals, circle_clip, _foot
from .radialarc import RadialArcBody, generate_asymmetric_balanced

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


def brentq(f, a: float, b: float, **kwargs) -> float:
    """``scipy.optimize.brentq``, imported on the first call: the module
    costs about 24 MB and a third of a second to import.  No production path
    calls it; the sampled circle clip of the test oracles does, and the
    benchmark's tracer counts its calls under this name."""
    from scipy.optimize import brentq as scipy_brentq
    return scipy_brentq(f, a, b, **kwargs)


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
    return balance_residuals(body, x, [r])[0]


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
    structure.  One ``balance_residuals`` call answers the whole grid.
    ``balanced`` holds when the sup of ``|residual| / (2 pi r)`` stays below
    1e-8.
    """
    x = as_point(x)
    if n_radii < 32:
        raise ValueError("need at least 32 radii")
    r_far = body.reach(x)
    if r_far <= 0:
        raise ValueError("degenerate body")
    radii = set(np.geomspace(r_far * 1e-4, r_far, n_radii).tolist())     # Python floats
    jitter = 1e-9 * r_far
    for b in body.radius_breakpoints(x):
        for rb in (b - jitter, b, b + jitter):
            if 0 < rb <= r_far:
                radii.add(float(rb))
    grid = np.array(sorted(radii))
    residuals = balance_residuals(body, x, grid)
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
    additively.  The split holds by construction, so ``split_violation`` is
    0.0: a circle about x lies wholly inside or wholly outside a ball about
    x, so one part's residual on it is the body's and the other's is zero.
    """
    x = as_point(x)
    r_far = body.reach(x)
    grid = np.geomspace(r_far * 1e-3, r_far * 0.999, n_radii)
    comp_viol = 0.0
    for r in grid:
        arcs = circle_clip(body, x, float(r))
        res = vector_residual_of_arcs(arcs)
        res_comp = vector_residual_of_arcs(arcs.complement())
        comp_viol = max(comp_viol, float(np.hypot(*(res + res_comp))))
    return EquivalenceReport(comp_viol, 0.0, comp_viol < tol * max(1.0, r_far))


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
    where, r_star, frame = body.locate(x)
    if where != "interior":
        raise NotInterior("contact analysis requires an interior point")
    along = _foot(frame.s)          # each edge's nearest point
    feet = x + frame.p[:, None] * frame.normals + along[:, None] * frame.tangents
    pts = []
    for d, p in zip(np.hypot(frame.p, along), feet):
        if d <= r_star * (1 + 1e-9) and \
                all(float(np.hypot(*(p - q))) > 1e-9 * body.diameter() for q in pts):
            pts.append(p)
    return ContactSet(r_star, tuple(pts), np.sum(np.array(pts) - x, axis=0))


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
# symmetry search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Isometry:
    kind: str          # "rotation" | "reflection"
    angle: float       # rotation angle, or axis angle for reflections
    center: np.ndarray


def symmetry_search(body, tol_rel: float = 1e-6) -> list[Isometry]:
    """Isometries (about the centroid) mapping the body onto itself: the
    body's own ``symmetries(tol_rel)``.  Returns the full symmetry group
    (identity first) when any nontrivial symmetry exists, and the empty
    list otherwise."""
    found = body.symmetries(tol_rel)
    if not found:
        return []
    g = body.centroid()
    return [Isometry("rotation", 0.0, g)] + [Isometry(kind, ang, g) for kind, ang in found]
