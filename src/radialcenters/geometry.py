"""Planar body representations and classical centers.

Every body answers one protocol: ``area``, ``centroid``, ``diameter``,
``is_convex``, ``locate``, ``contains`` / ``contains_many``,
``boundary_distance`` / ``boundary_distance_many``, ``radial_function`` /
``radial_function_many``, ``crossings``, ``symmetries``,
``angular_breakpoints``, ``radius_breakpoints``, ``reach``, ``route``,
``boundary_polyline``, ``boundary_pieces``, ``circumcenter``, ``incenter``,
``normalized``, ``transformed``, ``locate_many`` and ``to_dict``.  The
module functions ``circle_clip`` and ``balance_residuals`` read ``crossings``.
``locate(x)`` gives x's location and boundary distance with the view of x
that the routes read: a polygon's ``EdgeFrame``, which also gives its
distance and membership, or a disk's distance to its ``center`` (a disk has
a ``radius`` too);
``locate_many`` does the same for a stack of points, a polygon from one edge
frame of them all.  Simple polygons and disks live here, the radially
parameterized balanced body in the balance module.  Bodies are immutable and
prepare their derived geometry once; what is derived later is built on first
use and kept on the body (``kept``): the normalized copy that the center
search works on (``normalized``), a polygon's incenter and circumcenter, and
the center search's seeds.  The module-level functions of the same names
delegate to the methods; points are arrays of shape (2,), checked by
``as_point`` once per public entry.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .errors import InvalidBody, NotStarShaped

__all__ = [
    "Polygon", "Disk", "ArcSet", "UnfoldedRegion", "Segment", "CircleArc", "EdgeFrame",
    "Located",
    "CircumCenter", "InCenter",
    "area", "centroid", "diameter", "contains", "boundary_distance",
    "classify_location", "is_convex", "convex_hull",
    "circumcenter", "incenter", "radial_function", "radial_function_many",
    "circle_clip", "balance_residuals", "maximal_folding", "unfolded_region",
    "halfplane_intersection", "boundary_polyline", "transformed",
    "body_to_dict", "body_from_dict", "kept",
]

# Angular dedup tolerance for arc endpoints (intersection noise floor).
ANGLE_TOL = 1e-12
BOUNDARY_BAND = 1e-9   # relative exclusion band around the boundary
# Relative slack for containment / membership tests.
REL_TOL = 1e-12


def as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float).reshape(2)
    if not (math.isfinite(q[0]) and math.isfinite(q[1])):
        raise InvalidBody(f"non-finite point {p!r}")
    return q


def _unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def _cross(a, b) -> float:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _point_set_diameter(v: np.ndarray) -> float:
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    return math.sqrt(float(d2.max()))


# the rotation angles a symmetry search tries: 2 pi k / n for n <= 12
ROTATIONS = tuple(sorted(2 * math.pi * f for f in
                         {round(k / n, 12) for n in range(1, 13) for k in range(n)}))


def _angle_breakpoints(points, x) -> list[float]:
    """0, the sorted directions of ``points`` seen from ``x``, and 2 pi, deduplicated."""
    angs = sorted((math.atan2(p[1] - x[1], p[0] - x[0]) % (2 * math.pi)) for p in points)
    out = [0.0]
    for t in angs + [2 * math.pi]:
        if t - out[-1] > 1e-13:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# boundary pieces: parametrized curves y(t), t in [t0, t1], counterclockwise
# ---------------------------------------------------------------------------

def _angle_within(phi: float, t0: float, t1: float) -> float:
    """The direction ``phi`` as a parameter in [t0, t1] (mod 2 pi), or the nearer end."""
    t = t0 + (phi - t0) % (2 * math.pi)
    if t <= t1:
        return t
    return t1 if t - t1 < t0 + 2 * math.pi - t else t0


class Segment(NamedTuple):
    """The boundary piece y(t) = a + t e, t in [0, 1]."""

    a: np.ndarray
    e: np.ndarray
    t0: float = 0.0
    t1: float = 1.0

    def curve(self, t: np.ndarray):
        """Points y(t) and outward normals scaled by |dy/dt|, each of shape (n, 2)."""
        n_ds = np.array([self.e[1], -self.e[0]])
        return self.a + t[:, None] * self.e, np.broadcast_to(n_ds, (len(t), 2))

    def nearest(self, x) -> float:
        """The foot of the perpendicular from ``x``, clipped to the segment."""
        e = self.e
        return float(np.clip(np.dot(x - self.a, e) / np.dot(e, e), 0.0, 1.0))

    def chord(self, s: np.ndarray, t_ref: float) -> np.ndarray:
        """y(t_ref + s) - y(t_ref), shape (n, 2)."""
        return s[:, None] * self.e


class EdgeFrame(NamedTuple):
    """A polygon's edges seen from a point x, one entry per edge.

    ``p`` is the signed distance from x to the edge's line, positive on the
    inner side; the rows of ``s`` are the edge's ends s_a < s_b along its
    unit tangent, measured from the foot of the perpendicular from x.
    """

    p: np.ndarray
    s: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray


def _foot(s) -> np.ndarray:
    """Where each edge is nearest to x: min(max(0, s_a), s_b) along it."""
    return np.minimum(np.maximum(s[..., 0, :], 0.0), s[..., 1, :])


def _distance(p, s) -> np.ndarray:
    """The distance from x to the nearest edge."""
    return np.hypot(p, _foot(s)).min(axis=-1)


def _inside(p, s) -> np.ndarray:
    """Whether x lies inside: its winding number, sum sign(p) [atan2(s, |p|)],
    is 2 pi inside and 0 outside (Hormann and Agathos, Comput. Geom. 20, 2001)."""
    turn = np.arctan2(s[..., 1, :], np.abs(p))
    turn -= np.arctan2(s[..., 0, :], np.abs(p))
    turn *= np.sign(p)
    return turn.sum(axis=-1) > math.pi


class Located(NamedTuple):
    """Where a point lies, its boundary distance and the body's view of it."""

    location: str
    distance: float
    view: object


def _located(distance: float, diameter: float, inside, view=None) -> Located:
    """``inside()`` decides off the band, where membership needs no slack."""
    if distance <= BOUNDARY_BAND * diameter:
        return Located("boundary", distance, view)
    return Located("interior" if inside() else "exterior", distance, view)


class CircleArc(NamedTuple):
    """The boundary piece y(t) = center + radius (cos t, sin t), t in [t0, t1]."""

    center: np.ndarray
    radius: float
    t0: float
    t1: float

    def curve(self, t: np.ndarray):
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        return self.center + self.radius * u, self.radius * u

    def nearest(self, x) -> float:
        """The direction of ``x`` from the center, clipped to the arc."""
        c = self.center
        return _angle_within(math.atan2(x[1] - c[1], x[0] - c[0]), self.t0, self.t1)

    def chord(self, s: np.ndarray, t_ref: float) -> np.ndarray:
        """y(t_ref + s) - y(t_ref) = 2 radius sin(s / 2) u'(t_ref + s / 2),
        which keeps its digits for small s."""
        m, h = t_ref + 0.5 * s, self.radius * 2 * np.sin(0.5 * s)
        return np.stack([-h * np.sin(m), h * np.cos(m)], axis=1)


# ---------------------------------------------------------------------------
# body types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counterclockwise vertices and positive area.

    Degenerate input (repeated or collinear consecutive vertices,
    self-intersection, clockwise orientation) is rejected.  Edges, unit
    outward normals, offsets, boundary segments, convexity, diameter, area
    and centroid are computed once here.
    """

    vertices: np.ndarray

    def __init__(self, vertices):
        arr = np.asarray(vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
            raise InvalidBody("polygon needs at least 3 points of shape (n, 2)")
        if not np.all(np.isfinite(arr)):
            raise InvalidBody("polygon has non-finite coordinates")
        scale = float(np.max(np.ptp(arr, axis=0)))
        if scale <= 0:
            raise InvalidBody("polygon has zero extent")
        n = arr.shape[0]
        outline = _outline(arr)
        nxt, edges, lengths, w, crosses = outline
        if np.any(lengths <= REL_TOL * scale):
            raise InvalidBody("consecutive vertices coincide")
        if float(np.sum(w)) <= 0:
            raise InvalidBody("vertices must be counterclockwise with positive area")
        if np.any(np.abs(crosses) <= REL_TOL * scale * scale):
            raise InvalidBody("collinear vertex triple")
        for i in range(n - 2):
            # edge i against the later edges that share no vertex with it
            j = slice(i + 2, n if i else n - 1)
            if np.any(_segments_cross(arr[i], nxt[i], arr[j], nxt[j], REL_TOL * scale)):
                raise InvalidBody("polygon is self-intersecting")
        self._prepare(arr.copy(), *outline)

    @classmethod
    def _similar(cls, vertices: np.ndarray) -> "Polygon":
        """The polygon of ``vertices``, the image of a valid polygon under a
        similarity with positive scale: that keeps it simple and
        counterclockwise, so it is prepared without validation."""
        poly = object.__new__(cls)
        poly._prepare(vertices, *_outline(vertices))
        return poly

    def _prepare(self, arr, nxt, edges, lengths, w, crosses):
        arr.setflags(write=False)
        nxt.setflags(write=False)
        object.__setattr__(self, "vertices", arr)
        object.__setattr__(self, "_next", nxt)
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_tangents", edges / lengths[:, None])
        # unit outward normals n_i and offsets b_i: interior = {n_i . x <= b_i}
        normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_offsets", np.sum(normals * arr, axis=1))
        # the edge frame's dot products, by coordinate: normals with the
        # starts, tangents with the starts and the ends
        object.__setattr__(self, "_frame_dirs", np.hstack([normals.T, self._tangents.T,
                                                           self._tangents.T]))
        object.__setattr__(self, "_frame_points", np.hstack([arr.T, arr.T, nxt.T]))
        object.__setattr__(self, "_pieces", tuple(Segment(a, e) for a, e in zip(arr, edges)))
        object.__setattr__(self, "_kept", {})          # ``kept``: built on first use
        object.__setattr__(self, "_convex", bool(np.all(crosses > 0)))
        object.__setattr__(self, "_diameter", _point_set_diameter(arr))
        a = 0.5 * float(np.sum(w))
        object.__setattr__(self, "_area", a)
        object.__setattr__(self, "_centroid", np.array(
            [float(np.sum((arr[:, 0] + nxt[:, 0]) * w)) / (6 * a),
             float(np.sum((arr[:, 1] + nxt[:, 1]) * w)) / (6 * a)]))

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    def edges(self) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        return zip(self.vertices, self._next)

    def area(self) -> float:
        return self._area

    def centroid(self) -> np.ndarray:
        return self._centroid.copy()

    def diameter(self) -> float:
        return self._diameter

    def is_convex(self) -> bool:
        return self._convex

    def locate(self, x) -> Located:
        """With the edge frame about ``x``, the view of the edges route."""
        frame = EdgeFrame(*self._frames(x), self._normals, self._tangents)
        return _located(float(_distance(frame.p, frame.s)), self._diameter,
                        lambda: _inside(frame.p, frame.s), frame)

    def locate_many(self, pts) -> list:
        """``locate`` for points (N, 2), from one edge frame about them all;
        each point's view is its row of it."""
        p, s = self._frames(np.asarray(pts, dtype=float).reshape(-1, 2))
        dist, inside = _distance(p, s), _inside(p, s)
        return [_located(float(d), self._diameter, lambda i=i: inside[i],
                         EdgeFrame(p[i], s[i], self._normals, self._tangents))
                for i, d in enumerate(dist)]

    def contains(self, p, tol: Optional[float] = None) -> bool:
        """Within ``tol`` of the boundary, or inside, both from one edge frame."""
        t = REL_TOL * self._diameter if tol is None else tol
        p, s = self._frames(as_point(p))
        return bool(_distance(p, s) <= t or _inside(p, s))

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Winding-number membership of many points (no boundary band)."""
        return self._over_frames(pts, _inside)

    def boundary_distance(self, p) -> float:
        return float(self.boundary_distance_many(as_point(p))[0])

    def boundary_distance_many(self, pts) -> np.ndarray:
        return self._over_frames(pts, _distance)

    def radial_function(self, x, theta: float) -> float:
        if self._convex:
            return float(self.radial_function_many(x, np.array([theta]))[0])
        return self._radial_general(as_point(x), theta)

    def radial_function_many(self, x, thetas: np.ndarray) -> np.ndarray:
        x = as_point(x)
        thetas = np.asarray(thetas, dtype=float)
        if not self._convex:
            # the half-plane formula is wrong for reflex polygons
            return np.array([self._radial_general(x, float(t)) for t in thetas])
        u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        denom = u @ self._normals.T                      # (k, n)
        num = self._offsets - self._normals @ x          # (n,)
        if np.any(num < -REL_TOL * self._diameter):
            raise NotStarShaped("base point outside the polygon")
        with np.errstate(divide="ignore"):
            lam = np.where(denom > 1e-14, num[None, :] / denom, np.inf)
        return lam.min(axis=1)

    def _radial_general(self, x: np.ndarray, theta: float) -> float:
        u = _unit(theta)
        scale = self._diameter
        hits = []
        for a, b in self.edges():
            e = b - a
            den = _cross(u, e)
            if abs(den) < 1e-15 * scale:
                continue
            t = _cross(a - x, e) / den          # distance along the ray
            s = _cross(a - x, u) / den          # position along the edge
            if t > REL_TOL * scale and -REL_TOL <= s <= 1 + REL_TOL:
                hits.append(t)
        hits.sort()
        dedup = []
        for t in hits:
            if not dedup or t - dedup[-1] > 1e-9 * scale:
                dedup.append(t)
        if not dedup:
            raise NotStarShaped("ray never leaves the polygon; base point may be exterior")
        if len(dedup) > 1:
            raise NotStarShaped(f"ray crosses the boundary {len(dedup)} times")
        return dedup[0]

    def crossings(self, x, radii):
        """Where the circles of ``radii`` (shape (k,)) about ``x`` cross the
        edges: the radius index of each crossing, its offset d = y - x from
        the center, and whether the counterclockwise circle leaves the body
        there.

        On the edge a + t e the smaller root of |a - x + t e| = r is a leave
        and the larger one an enter.  Written with the signed line distance s
        and the half chord h = sqrt(r^2 - s^2), a leave is at d = s n - h e/|e|
        and an enter at d = s n + h e/|e| (n the unit outward normal).  One
        status per vertex, |v - x| < r, decides both of its edges, so a vertex
        on the circle is counted once or not at all: an edge that runs into
        the circle is left there, one that runs out of it is entered.  An
        edge whose two ends lie outside the circle is crossed twice when the
        foot of the perpendicular lies inside it and the circle reaches more
        than ``REL_TOL`` diameters past its line; the thinner band is a
        tangency, which ``contains`` also counts as boundary.
        """
        r = radii[:, None]                 # radii down, edges across
        rel = self.vertices - x
        inside = np.sum(rel * rel, axis=1) < r * r
        after = np.roll(inside, -1, axis=1)
        s = np.sum(self._normals * rel, axis=1)
        along = -np.sum(self._tangents * rel, axis=1)
        depth = r - np.abs(s)          # how far the circle reaches past each edge line
        pair = ~inside & ~after & (along > 0) & (along < self._lengths) \
            & (depth > REL_TOL * self._diameter)
        half_chord = np.sqrt(np.maximum(depth * (r + np.abs(s)), 0.0))
        # the leaves, then the enters
        enter, ri, e = np.nonzero(np.stack([after & ~inside | pair, inside & ~after | pair]))
        h = np.where(enter, half_chord[ri, e], -half_chord[ri, e])
        return ri, s[e, None] * self._normals[e] + h[:, None] * self._tangents[e], enter == 0

    def symmetries(self, tol_rel: float) -> list:
        """(kind, angle) of the isometries about the centroid that map the
        polygon onto itself (``balance.symmetry_search``): the ``ROTATIONS``
        and the reflections across the axes through the vertices and edge
        midpoints whose two-sided Hausdorff distance over 512 boundary
        samples stays below ``tol_rel`` diameters."""
        g = self.centroid()
        samples = self.boundary_polyline(512)
        pts = list(self.vertices) + [0.5 * (a + b) for a, b in self.edges()]
        axes: list[float] = []
        for a in sorted(math.atan2(p[1] - g[1], p[0] - g[0]) % math.pi for p in pts):
            if all(min(abs(a - b), math.pi - abs(a - b)) > 1e-9 for b in axes):
                axes.append(a)

        def h_dist(mat) -> float:
            fwd = (samples - g) @ mat.T + g
            d1 = self.boundary_distance_many(fwd)
            bwd = (samples - g) @ mat + g       # inverse of an orthogonal matrix
            d2 = self.boundary_distance_many(bwd)
            return max(float(d1.max()), float(d2.max()))

        found = []
        for ang in ROTATIONS[1:]:       # the identity always passes
            c, s = math.cos(ang), math.sin(ang)
            if h_dist(np.array([[c, -s], [s, c]])) < tol_rel * self._diameter:
                found.append(("rotation", ang))
        for ax in axes[:64]:
            c, s = math.cos(2 * ax), math.sin(2 * ax)
            if h_dist(np.array([[c, s], [s, -c]])) < tol_rel * self._diameter:
                found.append(("reflection", ax))
        return found

    def angular_breakpoints(self, x) -> list[float]:
        """Vertex directions seen from ``x``, where the radial function kinks."""
        return _angle_breakpoints(self.vertices, as_point(x))

    def radius_breakpoints(self, x) -> list[float]:
        """Vertex and edge-foot distances, where circle arcs appear or vanish."""
        p, s = self._frames(as_point(x))
        return np.hypot(p, [s[0], _foot(s)]).ravel().tolist()

    def reach(self, x) -> float:
        """Largest distance from ``x`` to a point of the body."""
        x = as_point(x)
        v = self.vertices
        return float(np.max(np.hypot(v[:, 0] - x[0], v[:, 1] - x[1])))

    def route(self, loc: str) -> str:
        """Route for a point at location ``loc``: closed-form edge sums over
        the frame from ``locate`` off the boundary band (``edges``), the
        boundary-piece integrals in it (``pieces``)."""
        return "pieces" if loc == "boundary" else "edges"

    def _frames(self, x):
        """``p`` (..., n) and ``s`` (..., 2, n) of the frames about ``x`` (..., 2)."""
        w = (self._frame_points[0] - x[..., 0, None]) * self._frame_dirs[0]
        t = self._frame_points[1] - x[..., 1, None]
        w += np.multiply(t, self._frame_dirs[1], out=t)   # in place: many points' frames are large
        n = self.n
        return w[..., :n], w[..., n:].reshape(w.shape[:-1] + (2, n))

    def _over_frames(self, pts, fn) -> np.ndarray:
        """``fn(p, s)`` on the frames about points (N, 2), 2**18 point-edge pairs at a time."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        rows = max(1, 2 ** 18 // self.n)
        return np.concatenate([fn(*self._frames(pts[i:i + rows]))
                               for i in range(0, max(len(pts), 1), rows)])

    def boundary_polyline(self, n: int = 512) -> np.ndarray:
        pts = []
        per_edge = max(1, n // self.n)
        for a, b in self.edges():
            ts = np.linspace(0.0, 1.0, per_edge, endpoint=False)
            pts.append(a[None, :] + ts[:, None] * (b - a)[None, :])
        return np.vstack(pts)

    def boundary_pieces(self) -> tuple[Segment, ...]:
        """One segment per edge."""
        return self._pieces

    def circumcenter(self) -> CircumCenter:
        """The minimal enclosing disk of the vertices (Welzl); found on the
        first call and kept (``_kept_center``)."""
        def find():
            c = _welzl(self.vertices)
            return CircumCenter(np.array([c[0], c[1]]), c[2])
        return _kept_center(self, "circumcenter", find)

    def incenter(self) -> InCenter:
        """The straight-skeleton wavefront when convex, grid search plus local
        refinement otherwise; found on the first call and kept
        (``_kept_center``)."""
        return _kept_center(self, "incenter", lambda: _incenter_convex(self) if self._convex
                            else _incenter_grid(self))

    def normalized(self):
        """``(body, shift, scale)``: this polygon with its centroid moved to
        the origin and its diameter scaled to 2, new = (old - shift) * scale.
        Prepared on the first call and kept; the polygon itself does not
        change, and the kept arrays are read-only."""
        return _normal_frame(self)

    def transformed(self, R: np.ndarray, shift: np.ndarray, scale: float) -> "Polygon":
        """The image under x -> R x + shift, R a rotation times ``scale``
        (``geometry.transformed``); under a positive scale it skips the
        validation of its vertices."""
        vertices = self.vertices @ R.T + shift
        if scale > 0 and np.isfinite(vertices).all():
            return Polygon._similar(vertices)
        return Polygon(vertices)

    def to_dict(self) -> dict:
        return {"vertices": [[float(x), float(y)] for x, y in self.vertices]}


@dataclass(frozen=True)
class Disk:
    center: np.ndarray
    radius: float

    def __init__(self, center, radius):
        c = as_point(center)
        r = float(radius)
        if not (r > 0 and math.isfinite(r)):
            raise InvalidBody("disk radius must be positive and finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "_pieces", (CircleArc(c, r, 0.0, 2 * math.pi),))
        object.__setattr__(self, "_kept", {})          # ``kept``: built on first use

    def area(self) -> float:
        return math.pi * self.radius ** 2

    def centroid(self) -> np.ndarray:
        return self.center.copy()

    def diameter(self) -> float:
        return 2.0 * self.radius

    def is_convex(self) -> bool:
        return True

    def locate(self, x) -> Located:
        """With the distance from ``x`` to the center, the view of the disk route."""
        d = math.hypot(x[0] - self.center[0], x[1] - self.center[1])
        return _located(abs(d - self.radius), 2.0 * self.radius, lambda: d <= self.radius, d)

    def locate_many(self, pts) -> list:
        """``locate`` for points (N, 2), one at a time: ``math.hypot`` keeps
        the distances those of ``locate``, bit for bit."""
        return [self.locate(x) for x in np.asarray(pts, dtype=float).reshape(-1, 2)]

    def contains(self, p, tol: Optional[float] = None) -> bool:
        p = as_point(p)
        t = REL_TOL * self.radius if tol is None else tol
        return float(np.hypot(*(p - self.center))) <= self.radius + t

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1]) <= self.radius

    def boundary_distance(self, p) -> float:
        return float(self.boundary_distance_many(as_point(p))[0])

    def boundary_distance_many(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return np.abs(np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1])
                      - self.radius)

    def radial_function(self, x, theta: float) -> float:
        d = as_point(x) - self.center
        u = _unit(theta)
        du = float(np.dot(d, u))
        disc = self.radius ** 2 - float(np.dot(d, d)) + du * du
        if disc < 0 or float(np.dot(d, d)) > self.radius ** 2:
            raise NotStarShaped("base point outside the disk")
        return -du + math.sqrt(disc)

    def radial_function_many(self, x, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        u = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        d = as_point(x) - self.center
        dd, du = float(np.dot(d, d)), u @ d
        if dd > self.radius ** 2:
            raise NotStarShaped("base point outside the disk")
        return -du + np.sqrt(self.radius ** 2 - dd + du * du)

    def crossings(self, x, radii):
        """As ``Polygon.crossings``: the circle of radius r meets the disk in
        the arc phi +- beta about the direction phi of the center, so it
        enters at phi - beta and leaves at phi + beta.  There is no arc where
        the circle lies inside the disk, within ``ANGLE_TOL`` of an inner
        tangency, or outside it, outer tangencies included."""
        c = self.center - x
        d = float(np.hypot(*c))
        R = self.radius
        ri = np.flatnonzero((d + radii > R + ANGLE_TOL * np.maximum(radii, 1.0))
                            & (radii < d + R) & (d < radii + R))
        if not ri.size:             # as always where d = 0
            return ri, np.empty((0, 2)), np.empty(0, dtype=bool)
        r = radii[ri]
        cosb = np.clip((d * d + r * r - R * R) / (2 * d * r), -1.0, 1.0)
        u = c / d
        along = np.outer(r * cosb, u)
        across = np.outer(r * np.sqrt((1 - cosb) * (1 + cosb)), [-u[1], u[0]])
        return (np.concatenate([ri, ri]), np.concatenate([along - across, along + across]),
                np.repeat([False, True], len(ri)))

    def symmetries(self, tol_rel: float) -> list:
        """As ``Polygon.symmetries``: every rotation but the identity and the
        reflections across the axes at pi k / 8, with no sampling."""
        return [("rotation", a) for a in ROTATIONS[1:]] \
            + [("reflection", math.pi * k / 8) for k in range(8)]

    def angular_breakpoints(self, x) -> list[float]:
        return [0.0, 2 * math.pi]

    def radius_breakpoints(self, x) -> list[float]:
        d = float(np.hypot(*(self.center - as_point(x))))
        return [abs(d - self.radius), d + self.radius]

    def reach(self, x) -> float:
        return float(np.hypot(*(self.center - as_point(x)))) + self.radius

    def route(self, loc: str) -> str:
        """Closed forms in the distance to the center (``disk``) off the
        boundary band, the boundary-piece integrals (``pieces``) in it."""
        return "pieces" if loc == "boundary" else "disk"

    def boundary_polyline(self, n: int = 512) -> np.ndarray:
        t = np.linspace(0, 2 * math.pi, n, endpoint=False)
        return self.center + self.radius * np.stack([np.cos(t), np.sin(t)], axis=1)

    def boundary_pieces(self) -> tuple[CircleArc, ...]:
        """The whole circle."""
        return self._pieces

    def circumcenter(self) -> CircumCenter:
        return CircumCenter(self.center.copy(), self.radius)

    def incenter(self) -> InCenter:
        return InCenter(self.center.copy(), self.radius, False)

    def normalized(self):
        """The unit disk about the origin, with the shift and scale that
        give it, as ``Polygon.normalized``."""
        return _normal_frame(self)

    def transformed(self, R: np.ndarray, shift: np.ndarray, scale: float) -> "Disk":
        """The image under x -> R x + shift, as ``Polygon.transformed``."""
        return Disk(R @ self.center + shift, self.radius * scale)

    def to_dict(self) -> dict:
        return {"type": "disk", "center": [float(self.center[0]), float(self.center[1])],
                "radius": float(self.radius)}


Body = Union[Polygon, Disk, "RadialArcBody"]  # noqa: F821  (radial-arc lives in balance)


def kept(body, name: str, build):
    """What ``build()`` returns, built on the first call for ``body`` and
    ``name`` and kept on the body: bodies are immutable, so what is derived
    from one stays valid.  Whoever keeps an array makes it read-only."""
    store = body._kept
    if name not in store:
        store[name] = build()
    return store[name]


def _normal_frame(body):
    """``body.normalized()`` of a polygon or a disk, kept on the body."""
    def build():
        shift = body.centroid()
        shift.setflags(write=False)
        s = 2.0 / body.diameter()
        return transformed(body, angle=0.0, shift=-shift * s, scale=s), shift, s
    return kept(body, "normalized", build)


def _kept_center(body, name: str, find):
    """``find()``, a ``CircumCenter`` or an ``InCenter``, found on the first
    call and kept with a read-only copy of its center; each call returns it
    with a fresh copy, which the caller may change."""
    def build():
        c = find()
        center = np.array(c.center, dtype=float)
        center.setflags(write=False)
        return c._replace(center=center)
    c = kept(body, name, build)
    return c._replace(center=c.center.copy())


def _outline(arr: np.ndarray):
    """A polygon's next vertices, edges, edge lengths, shoelace terms and the
    cross products of consecutive edges."""
    nxt = np.roll(arr, -1, axis=0)
    edges = nxt - arr
    prv = np.roll(edges, 1, axis=0)
    return (nxt, edges, np.hypot(edges[:, 0], edges[:, 1]),
            arr[:, 0] * nxt[:, 1] - nxt[:, 0] * arr[:, 1],
            prv[:, 0] * edges[:, 1] - prv[:, 1] * edges[:, 0])


def _segments_cross(a, b, c, d, tol):
    """Proper crossing test: segment interiors intersect transversally.

    Endpoint arrays of shape (..., 2) broadcast; one verdict per segment pair.
    """
    d1 = _cross(b - a, c - a)
    d2 = _cross(b - a, d - a)
    d3 = _cross(d - c, a - c)
    d4 = _cross(d - c, b - c)
    return ((d1 > tol) & (d2 < -tol) | (d1 < -tol) & (d2 > tol)) & \
           ((d3 > tol) & (d4 < -tol) | (d3 < -tol) & (d4 > tol))


# ---------------------------------------------------------------------------
# arc sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcSet:
    """Angular intervals of the circle of given radius about ``center``.

    Arcs are half-open ``[t1, t2)`` with ``t1`` in [0, 2pi) and
    ``t1 < t2 <= t1 + 2pi``; they are sorted and pairwise disjoint mod 2pi.
    """

    center: np.ndarray
    radius: float
    arcs: tuple[tuple[float, float], ...]

    def measure(self) -> float:
        return math.fsum(t2 - t1 for t1, t2 in self.arcs)

    def is_full(self) -> bool:
        return abs(self.measure() - 2 * math.pi) <= 4 * ANGLE_TOL

    def is_empty(self) -> bool:
        return not self.arcs

    def to_dict(self) -> dict:
        return {"center": [float(self.center[0]), float(self.center[1])],
                "radius": float(self.radius),
                "arcs": [[float(t1), float(t2)] for t1, t2 in self.arcs]}

    def complement(self) -> "ArcSet":
        """Arcs of the same circle lying outside the body."""
        if not self.arcs:
            return ArcSet(self.center, self.radius, ((0.0, 2 * math.pi),))
        if self.is_full():
            return ArcSet(self.center, self.radius, ())
        gaps = []
        arcs = self.arcs
        for i in range(len(arcs)):
            end = arcs[i][1]
            start_next = arcs[(i + 1) % len(arcs)][0] + (2 * math.pi if i == len(arcs) - 1 else 0.0)
            if start_next - end > ANGLE_TOL:
                gaps.append((end % (2 * math.pi), end % (2 * math.pi) + (start_next - end)))
        gaps.sort()
        return ArcSet(self.center, self.radius, tuple(gaps))


def _build_arcset(center, radius, raw_arcs) -> ArcSet:
    """Normalize, merge adjacent, and sort raw (t1, t2) intervals."""
    arcs = []
    for t1, t2 in raw_arcs:
        if t2 - t1 <= ANGLE_TOL:
            continue
        base = t1 % (2 * math.pi)
        arcs.append((base, base + (t2 - t1)))
    arcs.sort()
    merged: list[list[float]] = []
    for t1, t2 in arcs:
        if merged and t1 - merged[-1][1] <= ANGLE_TOL:
            merged[-1][1] = max(merged[-1][1], t2)
        else:
            merged.append([t1, t2])
    # wrap-around merge
    if len(merged) > 1 and (merged[0][0] + 2 * math.pi) - merged[-1][1] <= ANGLE_TOL:
        first = merged.pop(0)
        merged[-1][1] = first[1] + 2 * math.pi
    total = math.fsum(t2 - t1 for t1, t2 in merged)
    if total >= 2 * math.pi - ANGLE_TOL:
        return ArcSet(center, radius, ((0.0, 2 * math.pi),))
    return ArcSet(center, radius, tuple((t1, t2) for t1, t2 in merged))


def _whole_circle(x, r, inside) -> ArcSet:
    """The full or the empty circle, as one probe point decides."""
    return ArcSet(x, r, ((0.0, 2 * math.pi),) if inside(x + r * _unit(0.1234567)) else ())


def _arcs_between(x, r, crossings, inside) -> ArcSet:
    """Arcs between consecutive sorted crossing angles whose midpoints are
    ``inside``; the arcs of the sampled test oracle
    ``RadialArcBody._circle_clip_offcenter``."""
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


# ---------------------------------------------------------------------------
# protocol functions: delegations to the body methods
# ---------------------------------------------------------------------------

def area(body: Body) -> float:
    return body.area()


def centroid(body: Body) -> np.ndarray:
    return body.centroid()


def diameter(body: Body) -> float:
    return body.diameter()


def contains(body: Body, p, tol: Optional[float] = None) -> bool:
    """Closed-set membership; points within ``tol`` of the boundary count as inside."""
    return body.contains(p, tol)


def contains_many(body: Body, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership (boundary treatment not hardened; for sampling oracles)."""
    return body.contains_many(pts)


def boundary_distance(body: Body, p) -> float:
    return body.boundary_distance(p)


def classify_location(body: Body, p) -> str:
    """'interior' | 'exterior' | 'boundary', with a band of ``BOUNDARY_BAND``
    diameters: the location that ``body.locate`` reports."""
    return body.locate(as_point(p)).location


def is_convex(body: Body) -> bool:
    return body.is_convex()


def radial_function(body: Body, x, theta: float) -> float:
    """Distance from interior point ``x`` to the boundary along direction ``theta``.

    Raises NotStarShaped when the ray re-enters the body beyond its first exit.
    """
    return body.radial_function(x, theta)


def radial_function_many(body: Body, x, thetas: np.ndarray) -> np.ndarray:
    """Vectorized radial function (fast for convex polygons and disks)."""
    return body.radial_function_many(x, thetas)


def circle_clip(body: Body, x, r: float) -> ArcSet:
    """Arcs of the circle of radius ``r`` about ``x`` that lie inside the body.

    Built from the body's ``crossings``, the ones ``balance_residuals`` sums:
    an enter and a leave closer than ``ANGLE_TOL`` are a tangency and cancel,
    then each arc runs counterclockwise from an enter to the next leave.  A
    circle left without crossings lies wholly inside or wholly outside the
    body, and one probe point decides which.  The operation never fails on
    degeneracies.
    """
    r = float(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    x = as_point(x)
    _, d, leave = body.crossings(x, np.array([r]))
    angles = np.arctan2(d[:, 1], d[:, 0]) % (2 * math.pi)
    events: list[tuple[float, bool]] = []
    for i in np.argsort(angles, kind="stable"):
        t, out = float(angles[i]), bool(leave[i])
        if events and events[-1][1] != out and t - events[-1][0] <= ANGLE_TOL:
            events.pop()
        else:
            events.append((t, out))
    while len(events) > 1 and events[0][1] != events[-1][1] \
            and events[0][0] + 2 * math.pi - events[-1][0] <= ANGLE_TOL:
        events = events[1:-1]
    enters = [t for t, out in events if not out]
    leaves = [t for t, out in events if out]
    if not (enters and leaves):
        return _whole_circle(x, r, body.contains)
    leaves.append(leaves[0] + 2 * math.pi)         # the first leave, once round
    return _build_arcset(x, r, [(t, leaves[bisect.bisect_right(leaves, t)]) for t in enters])


def balance_residuals(body: Body, x, radii) -> np.ndarray:
    """Balance-law residuals on the circles of ``radii`` about ``x``, shape
    (k, 2): one signed sum over the body's ``crossings``.  With d = y - x at
    a crossing y, the counterclockwise circle adds (d_y, -d_x) where it
    leaves the body and subtracts it where it enters."""
    x = as_point(x)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    ri, d, leave = body.crossings(x, radii)
    out = np.zeros((len(radii), 2))
    np.add.at(out, ri, np.where(leave, 1.0, -1.0)[:, None] * np.stack([d[:, 1], -d[:, 0]], 1))
    return out


def boundary_polyline(body: Body, n: int = 512) -> np.ndarray:
    """Closed boundary sample loop (last point connects back to the first)."""
    return body.boundary_polyline(n)


def body_to_dict(body: Body) -> dict:
    return body.to_dict()


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns hull vertices counterclockwise."""
    pts = sorted(map(tuple, np.asarray(points, dtype=float)))
    if len(pts) <= 2:
        return np.asarray(pts)

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and _cross(np.subtract(out[-1], out[-2]),
                                           np.subtract(q, out[-2])) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.asarray(lower[:-1] + upper[:-1])


# ---------------------------------------------------------------------------
# classical centers
# ---------------------------------------------------------------------------

class CircumCenter(NamedTuple):
    center: np.ndarray
    radius: float


class InCenter(NamedTuple):
    center: np.ndarray
    radius: float
    ambiguous: bool


def circumcenter(body: Body) -> CircumCenter:
    """Center and radius of the minimal enclosing disk (unique)."""
    return body.circumcenter()


def _welzl(points) -> tuple[float, float, float]:
    """Minimal enclosing circle, randomized incremental (expected linear)."""
    pts = [(float(x), float(y)) for x, y in points]
    rng = random.Random(0x5eed)
    rng.shuffle(pts)
    c = None
    for i, p in enumerate(pts):
        if c is None or not _in_circle(c, p):
            c = _circle_one(pts[: i + 1], p)
    return c


def _circle_one(points, p):
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(points):
        if not _in_circle(c, q):
            c = _circle_diameter(p, q) if c[2] == 0.0 else _circle_two(points[: i + 1], p, q)
    return c


def _circle_two(points, p, q):
    circ = _circle_diameter(p, q)
    left = right = None
    px, py = p
    qx, qy = q
    for r in points:
        if _in_circle(circ, r):
            continue
        cr = _cross3(px, py, qx, qy, r[0], r[1])
        c = _circumscribed(p, q, r)
        if c is None:
            continue
        if cr > 0 and (left is None or _cross3(px, py, qx, qy, c[0], c[1]) >
                       _cross3(px, py, qx, qy, left[0], left[1])):
            left = c
        elif cr < 0 and (right is None or _cross3(px, py, qx, qy, c[0], c[1]) <
                         _cross3(px, py, qx, qy, right[0], right[1])):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _circle_diameter(a, b):
    cx, cy = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _circumscribed(a, b, c):
    ox, oy = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2, \
             (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - p[0], y - p[1]) for p in (a, b, c))
    return (x, y, r)


def _cross3(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _in_circle(c, p, eps=1e-12):
    return c is not None and math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + eps) + eps


def incenter(body: Body) -> InCenter:
    """A deepest interior point (Chebyshev center) and the inradius.

    Convex polygons are solved exactly by the wavefront of their straight
    skeleton; when the optimal set is a segment (e.g. long rectangles) the
    canonical midpoint of that face is returned and ``ambiguous`` is set.
    Non-convex polygons fall back to grid search plus local refinement and
    are always flagged ambiguous.  Disks and radial-arc bodies answer in
    closed form.
    """
    return body.incenter()


def _incenter_convex(poly: Polygon) -> InCenter:
    normals, offsets = poly._normals, poly._offsets
    p, r = _wavefront_collapse(normals, offsets)
    # canonical point: midpoint (vertex mean) of the optimal face
    face = halfplane_intersection(normals, offsets - r + 1e-12 * poly.diameter(),
                                  _bounding_box(poly, pad=1.0))
    if face is not None and len(face) > 0:
        point = face.mean(axis=0)
        amb = float(np.max(np.ptp(face, axis=0))) > 1e-9 * poly.diameter()
    else:
        point = p
        amb = False
    return InCenter(point, r, amb)


def _wavefront_collapse(normals: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, float]:
    """The last event of a convex polygon's straight-skeleton wavefront
    (Aichholzer, Aurenhammer, Alberts and Gaertner, J. UCS 1, 1995): the
    point and time at which it collapses, which are an incenter and the
    inradius.

    Every edge line n . p = b moves inward at unit speed, to n . p + t = b.
    Edge i vanishes where the moving lines i - 1, i and i + 1 meet, at the
    (p, t) that solves those three equations.  The earliest event drops its
    edge, and its two neighbours, now adjacent, get new events; with three
    lines left their common event is the last.
    """
    live = list(range(len(offsets)))

    def event(k):
        i, j, l = live[k - 1], live[k], live[(k + 1) % len(live)]
        # subtract the middle equation from the outer two: a 2x2 system for p
        a, b = normals[i] - normals[j], normals[l] - normals[j]
        e, f = offsets[i] - offsets[j], offsets[l] - offsets[j]
        det = a[0] * b[1] - a[1] * b[0]
        p = np.array([e * b[1] - f * a[1], a[0] * f - b[0] * e]) / det
        return p, float(offsets[j] - normals[j] @ p)

    points, times = map(list, zip(*(event(k) for k in range(len(live)))))
    while len(live) > 3:
        k = times.index(min(times))
        del live[k], points[k], times[k]
        for m in (k - 1, k % len(live)):
            points[m], times[m] = event(m)
    return points[0], times[0]


_PATTERN = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
                    dtype=float)


def _incenter_grid(poly: Polygon, n: int = 96) -> InCenter:
    def depth(p, s):         # the boundary distance inside, -inf outside
        return np.where(_inside(p, s), _distance(p, s), -np.inf)

    xs = np.linspace(poly.vertices[:, 0].min(), poly.vertices[:, 0].max(), n)
    ys = np.linspace(poly.vertices[:, 1].min(), poly.vertices[:, 1].max(), n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dist = poly._over_frames(pts, depth)
    k = int(np.argmax(dist))        # the first deepest grid point
    p, best_d = pts[k], float(dist[k])
    if best_d == -np.inf:
        raise InvalidBody("no interior grid point found")
    # local refinement by shrinking pattern search: move to the deepest of
    # the eight neighbours when it improves, else halve the step; one move a
    # round, so 480 rounds allow the moves of 60 rounds of eight
    step = (xs[1] - xs[0])
    for _ in range(480):
        q = p + step * _PATTERN
        d = poly._over_frames(q, depth)
        k = int(np.argmax(d))
        if d[k] > best_d:
            p, best_d = q[k], float(d[k])
        else:
            step *= 0.5
            if step < 1e-13 * poly.diameter():
                break
    return InCenter(p, best_d, True)


def _bounding_box(poly: Polygon, pad: float = 0.0) -> np.ndarray:
    lo = poly.vertices.min(axis=0)
    hi = poly.vertices.max(axis=0)
    d = float(np.max(hi - lo)) * (1.0 + pad) + 1.0
    c = (lo + hi) / 2
    return np.array([c + [-d, -d], c + [d, -d], c + [d, d], c + [-d, d]])


def halfplane_intersection(normals, offsets, seed_polygon) -> Optional[np.ndarray]:
    """Clip ``seed_polygon`` by every half-plane {x : n . x <= b}.

    Returns the vertices of the (convex) intersection, or None when empty.
    Each clip keeps, in order, every vertex p with n . p - b <= 0 and, after
    it, the point where the edge to the next vertex crosses the line.  The
    vertices' values n . p are one stacked (m, 1, 2) @ (2, 1) product, which
    gives each the bits of its own ``np.dot``.
    """
    pts = np.array(seed_polygon, dtype=float).reshape(-1, 2)      # a copy: it may be returned
    for nvec, b in zip(np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float)):
        if not len(pts):
            return None
        vals = (pts[:, None, :] @ nvec[:, None])[:, 0, 0] - b
        side = np.sign(vals)
        if not (side > 0).any():        # every vertex kept, no edge crossing
            continue
        # each vertex, then its edge's crossing, where there is one
        both = np.empty((len(pts), 2, 2))
        mask = np.empty((len(pts), 2), dtype=bool)
        both[:, 0], mask[:, 0] = pts, side <= 0
        mask[:-1, 1] = side[:-1] * side[1:] < 0
        mask[-1, 1] = side[-1] * side[0] < 0
        i = mask[:, 1].nonzero()[0]
        j = (i + 1) % len(pts)
        t = vals[i] / (vals[i] - vals[j])
        both[i, 1] = pts[i] + t[:, None] * (pts[j] - pts[i])
        pts = both[mask]
    return pts if len(pts) else None


# ---------------------------------------------------------------------------
# folding and the unfolded region
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnfoldedRegion:
    """Intersection of half-planes {z . v <= offset(v)} over sampled directions.

    An outer approximation of the region containing all potential critical
    points; it shrinks as the direction count grows.
    """

    directions: np.ndarray
    offsets: np.ndarray
    polygon: Optional[np.ndarray]

    def contains(self, p, tol: float = 0.0) -> bool:
        p = as_point(p)
        return bool(np.all(self.directions @ p <= self.offsets + tol))

    def diameter(self) -> float:
        if self.polygon is None or len(self.polygon) == 0:
            return 0.0
        return _point_set_diameter(self.polygon)

    def to_dict(self) -> dict:
        return {"directions": [[float(a), float(b)] for a, b in self.directions],
                "offsets": [float(o) for o in self.offsets],
                "polygon": None if self.polygon is None
                else [[float(a), float(b)] for a, b in self.polygon]}


def maximal_folding(poly: Polygon, v) -> float:
    """Smallest offset from which every cap folds into the polygon.

    The cap {z . v >= b} reflected across {z . v = b} must land inside the
    polygon for every b at or beyond the returned offset.  Found by bisection
    on b with an exact clipped-and-reflected containment test.
    """
    v = as_point(v)
    v = v / float(np.hypot(*v))
    proj = poly.vertices @ v
    lo, hi = float(proj.min()), float(proj.max())
    convex = poly.is_convex()
    if _fold_ok(poly, v, lo, convex):
        return lo
    if not convex:
        # containment is only guaranteed monotone for convex bodies; locate the
        # last failing offset on a coarse grid before refining
        grid = np.linspace(lo, hi, 129)
        lo_fail = lo
        for b in grid[1:-1]:
            if not _fold_ok(poly, v, float(b), convex):
                lo_fail = float(b)
        lo = lo_fail
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _fold_ok(poly, v, mid, convex):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _fold_ok(poly: Polygon, v: np.ndarray, b: float, convex: bool) -> bool:
    scale = poly.diameter()
    # the cap {p . v >= b}
    cap = halfplane_intersection([-v], [-b], poly.vertices)
    if cap is None or len(cap) < 3:
        return True
    reflected = [p - 2.0 * (float(np.dot(p, v)) - b) * v for p in cap]
    tol = REL_TOL * scale
    for p in reflected:
        if not poly.contains(p, tol=tol):
            return False
    if convex:
        return True
    m = len(reflected)
    for i in range(m):
        p, q = reflected[i], reflected[(i + 1) % m]
        if not poly.contains(0.5 * (p + q), tol=tol) or \
                np.any(_segments_cross(p, q, poly.vertices, poly._next, tol)):
            return False
    return True


def unfolded_region(poly: Polygon, n_dirs: int) -> UnfoldedRegion:
    """Outer approximation over ``n_dirs`` uniformly spaced fold directions."""
    if n_dirs < 8:
        raise ValueError("need at least 8 directions")
    thetas = 2 * math.pi * np.arange(n_dirs) / n_dirs
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    offsets = np.array([maximal_folding(poly, d) for d in dirs])
    region = halfplane_intersection(dirs, offsets, _bounding_box(poly, pad=1.0))
    return UnfoldedRegion(dirs, offsets, region)


# ---------------------------------------------------------------------------
# transforms, sampling, serialization
# ---------------------------------------------------------------------------

def transformed(body: Body, angle: float = 0.0, shift=(0.0, 0.0), scale: float = 1.0) -> Body:
    """Rotate about the origin, scale, then translate.  A polygon's image
    under a positive scale skips the validation of its vertices."""
    c, s = math.cos(angle), math.sin(angle)
    return body.transformed(np.array([[c, -s], [s, c]]) * scale, as_point(shift), scale)


def body_from_dict(data: dict) -> Body:
    """The body that ``to_dict`` describes; ``InvalidBody`` for JSON that
    describes none."""
    try:
        kind = data.get("type")
    except AttributeError:
        raise InvalidBody(f"body JSON must be an object, not {type(data).__name__}") from None
    try:
        if "vertices" in data:
            return Polygon(np.asarray(data["vertices"], dtype=float))
        if kind == "disk":
            return Disk(data["center"], data["radius"])
        if kind == "radial_arc":
            from .balance import RadialArcBody
            return RadialArcBody.from_dict(data)
    except KeyError as exc:
        raise InvalidBody(f"{kind} body JSON lacks key {exc.args[0]!r}") from None
    except InvalidBody:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidBody(f"{kind or 'polygon'} body JSON has a malformed field: {exc}") from None
    raise InvalidBody(f"unrecognized body JSON with keys {sorted(data)}")


def load_body(path: str) -> Body:
    with open(path) as fh:
        return body_from_dict(json.load(fh))
