"""A convex body balanced at the origin that has no symmetry at all.

``RadialArcBody`` is the unit disk grown by three lobes along a
symmetry-free frame of directions.  At every radius the three lobe arcs'
half-widths satisfy the balance constraint, so every circle about the origin
meets the body in a slice whose first moment vanishes: the body satisfies
the balance law at its centroid (Magnanini and Sakaguchi, J. Anal. Math.
2008) without the symmetry that usually forces it.
``generate_asymmetric_balanced`` builds a convex instance of it.

The boundary is nine pieces: three unit-circle arcs and six lobe halves
(``_LobeCurve``).  Seen from a point x it is cut where |y - x| is
stationary (``_Cut``); distances, reaches, circle crossings and the
potentials' boundary integrals are answered exactly on those parts.  The
body answers the protocol of ``geometry``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstructionFailed, InvalidBody, NotStarShaped
from .geometry import (CircleArc, CircumCenter, InCenter, Located, as_point,
                       _angle_breakpoints, _located)

__all__ = ["RadialArcBody", "FRAME_ANGLES", "generate_asymmetric_balanced"]

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
    """Half ``half`` (of six) of a RadialArcBody's boundary, on lobe ``which``:
    y(t) = R(t) u(t), t in [t0, t1].

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
    half: int

    def curve(self, t: np.ndarray):
        rad, slope, _ = self.body._lobe_profile(t, self.half)
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        y = rad[:, None] * u
        return y, y - slope[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=1)

    def nearest(self, x) -> float:
        """The foot of the perpendicular from ``x``: where |y(t) - x| is least
        on the piece."""
        return self.body._cut(x).nearest[self.half]

    def chord(self, s: np.ndarray, t_ref: float) -> np.ndarray:
        """y(t) - y(t_ref) at t = t_ref + s, as (R - R_ref) u + R_ref (u - u_ref),
        from differences that keep their digits for small s: with
        sigma = sin(delta) / c, R - R_ref = (r_max - 1)(q - q_ref)(q + q_ref),
        where amplitude (q_ref - q) = asin(sigma) - asin(sigma_ref) =
        asin((sigma^2 - sigma_ref^2) / (sigma sqrt(1 - sigma_ref^2) +
        sigma_ref sqrt(1 - sigma^2))), and sigma - sigma_ref =
        2 cos((delta + delta_ref) / 2) sin(side s / 2) / c."""
        body = self.body
        c = body._c[self.which]
        t = t_ref + s
        delta, d_ref = self.side * (t - self.apex), self.side * (t_ref - self.apex)
        sg, sg_ref = np.sin(delta) / c, math.sin(d_ref) / c
        ds = 2 * np.cos(0.5 * (delta + d_ref)) * np.sin(0.5 * self.side * s) / c
        den = sg * math.sqrt(1 - sg_ref * sg_ref) + sg_ref * np.sqrt(1 - sg * sg)
        num = ds * (sg + sg_ref)
        dq = -np.arcsin(np.divide(num, den, out=np.zeros_like(num), where=den > 0)) \
            / body.amplitude
        q, q_ref = 1 - np.arcsin(sg) / body.amplitude, 1 - math.asin(sg_ref) / body.amplitude
        rad_ref = 1 + (body.r_max - 1) * q_ref * q_ref
        u = np.stack([np.cos(t), np.sin(t)], axis=1)
        return ((body.r_max - 1) * dq * (q + q_ref))[:, None] * u \
            + CircleArc(np.zeros(2), rad_ref, self.t0, self.t1).chord(s, t_ref)


class _Cut(NamedTuple):
    """The boundary of a RadialArcBody seen from one point x, cut into parts
    on which |y - x| is monotone: the pieces' ends and the points where
    |y - x| is stationary, counterclockwise, with their parameters ``t`` and
    distances ``dist``, the first repeated at the end.  ``kind`` names the
    lobe half of each part, or -1 on the unit circle; ``nearest`` is the foot
    on each lobe half."""

    t: np.ndarray
    dist: np.ndarray
    kind: np.ndarray
    nearest: tuple


FOOT_NODES = 24      # samples of the foot-point equation on each lobe half
KEPT_CUTS = 16       # points whose cuts a RadialArcBody keeps


def _newton(fn, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Roots of ``fn`` in the brackets [lo, hi], all at once; ``f_lo`` and
    ``f_hi`` are its values at the ends, one negative and one not.

    Safeguarded Newton steps from the secant point: a step that would leave
    the bracket is replaced by bisection, and each trial point becomes the
    end of its sign.  ``fn(t, live)`` returns the function and its
    derivative at ``t`` for the brackets ``live``.  A bracket stops when its
    Newton step or its width falls to four ulps or its value is zero.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    neg_lo = f_lo < 0
    t = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    tiny = 4 * np.finfo(float).eps
    live = np.arange(len(t))
    for _ in range(100):
        if not live.size:
            break
        tl = t[live]
        f, df = fn(tl, live)
        low = (f < 0) == neg_lo[live]
        a = lo[live] = np.where(low, tl, lo[live])
        b = hi[live] = np.where(low, hi[live], tl)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        new = tl - step
        newton = (new >= a) & (new <= b)
        scale = tiny * np.maximum(np.abs(tl), 1.0)
        done = (f == 0) | (newton & (np.abs(step) <= scale)) | (b - a <= scale)
        t[live] = np.where(f == 0, tl, np.where(newton, new, 0.5 * (a + b)))
        live = live[~done]
    return t


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
    every radius.

    The boundary is nine pieces: three unit-circle arcs and six lobe halves.
    Distances, reaches, circle crossings and the potentials' boundary
    integrals are answered on them exactly, from the points where the
    distance to a query point is stationary on each piece.  The lobe
    junction half-widths, convexity, the diameter and the lobe samples of
    the foot-point equation are computed once here.
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
        object.__setattr__(self, "_cs", np.array(self._c))
        w = tuple(math.asin(min(1.0, c * math.sin(amplitude))) for c in self._c)
        object.__setattr__(self, "_junctions", w)
        # the exact incenter needs unit-circle arcs within 60 degrees of every direction
        for i, j in ((0, 1), (1, 2), (2, 0)):
            gap = abs((angles[i] - angles[j] + math.pi) % (2 * math.pi) - math.pi)
            if max(w[i], w[j]) > math.pi / 3 or w[i] + w[j] >= gap:
                raise InvalidBody("lobes must be disjoint and at most 120 degrees wide")
        pieces = self._split_boundary()
        object.__setattr__(self, "_pieces", pieces)
        halves = [p for i, p in enumerate(pieces) if i % 3 != 2]
        for name in ("which", "apex", "side"):
            object.__setattr__(self, "_h_" + name, np.array([getattr(h, name) for h in halves]))
        # the lobes' ends on the unit circle (starts, then ends) and their apexes
        ends = np.array([p.t0 for p in pieces[0::3]] + [p.t1 for p in pieces[1::3]])
        object.__setattr__(self, "_junction_u", np.stack([np.cos(ends), np.sin(ends)], 1))
        apex = np.array([p.t0 for p in pieces[1::3]])
        rad = self._lobe_profile(apex, np.array([p.half for p in pieces[1::3]]))[0]
        object.__setattr__(self, "_apex_points", rad[:, None] * np.stack(
            [np.cos(apex), np.sin(apex)], 1))
        # the foot-point equation's samples: f = R R' - x . y' at each node
        nodes = np.array([h.t0 + (h.t1 - h.t0) * np.linspace(0.0, 1.0, FOOT_NODES)
                          for h in halves])
        rad, r1, _ = self._lobe_profile(nodes, np.arange(6)[:, None])
        c, s = np.cos(nodes), np.sin(nodes)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_node_f0", rad * r1)
        object.__setattr__(self, "_node_yt", (r1 * c - rad * s, r1 * s + rad * c))
        object.__setattr__(self, "_cuts", {})          # ``_cut``: the last few points'
        object.__setattr__(self, "_kept", {})          # ``geometry.kept``: built on first use
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

    def _lobe_radius_many(self, half_angles: np.ndarray, which: int) -> np.ndarray:
        """Inverse profile: radii at which lobe ``which`` has the given half-widths."""
        targets = np.arcsin(np.clip(np.sin(half_angles) / self._c[which], -1.0, 1.0))
        q = np.clip(1.0 - targets / self.amplitude, 0.0, 1.0)
        return 1.0 + (self.r_max - 1.0) * q * q

    def _lobe_profile(self, t: np.ndarray, half: np.ndarray):
        """R, dR/dt and d2R/dt2 on the lobe halves ``half`` at parameters
        ``t`` (broadcast together).

        With delta the angle from the apex, s = sin(delta) and the sine
        ratio c, R = 1 + (r_max - 1) q^2 for q = 1 - asin(s / c) / amplitude,
        q' = -cos(delta) / (amplitude sqrt(c^2 - s^2)) and
        q'' = -s (1 - c^2) / (amplitude (c^2 - s^2)^(3/2)).
        """
        side = self._h_side[half]
        delta = side * (t - self._h_apex[half])
        c = self._cs[self._h_which[half]]
        s = np.sin(delta)
        root = np.sqrt(c * c - s * s)
        q = 1.0 - np.arcsin(s / c) / self.amplitude
        dq = -np.cos(delta) / (self.amplitude * root)
        ddq = -s * (1.0 - c * c) / (self.amplitude * root ** 3)
        k = self.r_max - 1.0
        return 1.0 + k * q * q, 2 * k * side * q * dq, 2 * k * (dq * dq + q * ddq)

    def _lobe_points(self, t: np.ndarray, half: np.ndarray) -> np.ndarray:
        return self._lobe_profile(t, half)[0][:, None] * np.stack([np.cos(t), np.sin(t)], 1)

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

    # -- the boundary seen from a point ---------------------------------------

    def _feet(self, x: np.ndarray):
        """Where |y - x| is stationary inside the lobe halves: the roots of
        the foot-point equation f(t) = (y(t) - x) . y'(t) = 0 (Hu and Wallner,
        CAGD 22, 2005), bracketed by the sign changes of f between
        ``FOOT_NODES`` samples of each half.  Two roots closer than the
        samples' spacing can go unseen; |y - x| then varies between them by
        far less than the spacing squared.  Returns the half, the parameter
        and the distance of each root.

        In polar form, with y = R u, u = (cos t, sin t), u' = (-sin t, cos t),
        a = x . u and b = x . u', f = R R' - R' a - R b, and its derivative
        is R'^2 + R R'' - (R'' - R) a - 2 R' b.
        """
        ytx, yty = self._node_yt
        f = self._node_f0 - (x[0] * ytx + x[1] * yty)
        neg = f < 0
        h, j = np.nonzero(neg[:, :-1] != neg[:, 1:])

        def foot(t, live):
            rad, r1, r2 = self._lobe_profile(t, h[live])
            c, s = np.cos(t), np.sin(t)
            a, b = x[0] * c + x[1] * s, x[1] * c - x[0] * s
            return rad * r1 - r1 * a - rad * b, r1 * r1 + rad * r2 - (r2 - rad) * a - 2 * r1 * b

        t = _newton(foot, self._nodes[h, j], self._nodes[h, j + 1], f[h, j], f[h, j + 1])
        d = self._lobe_points(t, h) - x
        return h, t, np.hypot(d[:, 0], d[:, 1])

    def _cut(self, x: np.ndarray) -> _Cut:
        """The boundary seen from ``x``; the cuts of the last ``KEPT_CUTS``
        points are kept, since a potential, its boundary integrals and a
        balance spectrum all ask for the same point in turn, and a lockstep
        multistart locates its dozen points before it integrates about them."""
        key = x.tobytes()
        cut = self._cuts.get(key)
        if cut is None:
            if len(self._cuts) >= KEPT_CUTS:
                del self._cuts[next(iter(self._cuts))]      # the oldest
            cut = self._cuts[key] = self._cut_at(x)
        return cut

    def _cut_at(self, x: np.ndarray) -> _Cut:
        half, roots, dist = self._feet(x)
        d0 = math.hypot(x[0], x[1])
        psi = math.atan2(x[1], x[0])
        # to the lobes' ends on the unit circle as sqrt((1 - |x|)^2 + 2 (|x| - x.u)),
        # which is exactly 1 about the origin
        junction = np.sqrt(np.maximum((1 - d0) ** 2 + 2 * (d0 - self._junction_u @ x), 0.0))
        apex = np.hypot(self._apex_points[:, 0] - x[0], self._apex_points[:, 1] - x[1])
        t, dd, kind, nearest = [], [], [], []
        for i, piece in enumerate(self._pieces):
            lobe, part = divmod(i, 3)        # a lobe's two halves, then an arc
            t.append(piece.t0)
            dd.append((junction[lobe], apex[lobe], junction[3 + lobe])[part])
            if part == 2:
                # on the unit circle |y - x| is least at psi and greatest at psi + pi
                for off, d in sorted((((psi - piece.t0) % (2 * math.pi), abs(1 - d0)),
                                      ((psi + math.pi - piece.t0) % (2 * math.pi), 1 + d0))):
                    if 0 < off < piece.t1 - piece.t0:
                        t.append(piece.t0 + off)
                        dd.append(d)
                kind += [-1] * (len(t) - len(kind))
            else:
                mine = half == 2 * lobe + part
                t += roots[mine].tolist()
                dd += dist[mine].tolist()
                kind += [2 * lobe + part] * (len(t) - len(kind))
                # the foot: the least distance on the half, its end included
                ts = t[-1 - int(mine.sum()):] + [piece.t1]
                ds = dd[-1 - int(mine.sum()):] + [(apex[lobe], junction[3 + lobe])[part]]
                nearest.append(ts[ds.index(min(ds))])
        t.append(self._pieces[0].t0 + 2 * math.pi)
        dd.append(dd[0])
        return _Cut(np.array(t), np.array(dd), np.array(kind), tuple(nearest))

    def crossings(self, x: np.ndarray, radii: np.ndarray):
        """Where the circles of ``radii`` about ``x`` cross the boundary: the
        radius index of each crossing, its offset d = y - x from the center,
        and whether the counterclockwise circle leaves the body there, which
        is where |y - x| falls through r along the boundary
        (``geometry.Polygon.crossings``).

        One status per vertex of the cut, |y - x| < r, decides both of its
        parts, so a crossing at a vertex is counted once or not at all.  A
        part whose ends differ in status is crossed once: on a lobe half at
        the root of |y - x| - r, on the unit circle at the intersection point
        a u + sigma h u', with u the direction of x, a = (1 + |x|^2 - r^2) /
        (2 |x|), h = sqrt(1 - a^2) and sigma = +1 where |y - x| rises.
        """
        cut = self._cut(x)
        inside = cut.dist < radii[:, None]
        ri, part = np.nonzero(inside[:, :-1] != inside[:, 1:])
        leave = inside[ri, part + 1]
        r, kind = radii[ri], cut.kind[part]
        d = np.empty((len(ri), 2))
        arc = kind < 0
        if arc.any():         # then x is off the origin: the circle's distances vary
            d0 = math.hypot(x[0], x[1])
            u, ra = x / d0, r[arc]
            a = (1 + d0 * d0 - ra * ra) / (2 * d0)
            # 1 - a^2 as a product of the gaps to the two tangent radii, which
            # keeps its digits where the circles touch
            h = np.sqrt(np.maximum((ra - (1 - d0)) * (ra + (1 - d0)) * ((1 + d0) - ra)
                                   * ((1 + d0) + ra), 0.0)) / (2 * d0)
            d[arc] = np.outer(a, u) + np.outer(np.where(leave[arc], -h, h), [-u[1], u[0]]) - x
        lobe = np.flatnonzero(~arc)
        if lobe.size:
            half, rl = kind[lobe], r[lobe]

            def gap(t, live):     # |y - x| - r, and its derivative (y - x) . y' / |y - x|
                rad, r1, _ = self._lobe_profile(t, half[live])
                c, s = np.cos(t), np.sin(t)
                dist = np.hypot(rad * c - x[0], rad * s - x[1])
                a, b = x[0] * c + x[1] * s, x[1] * c - x[0] * s
                return dist - rl[live], (rad * r1 - r1 * a - rad * b) / dist

            lo, hi = part[lobe], part[lobe] + 1
            t = _newton(gap, cut.t[lo], cut.t[hi], cut.dist[lo] - rl, cut.dist[hi] - rl)
            d[lobe] = self._lobe_points(t, half) - x
        return ri, d, leave

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

    def locate(self, x) -> Located:
        """From the cut about ``x``, which the boundary-piece integrals reuse."""
        return _located(float(self._cut(x).dist.min()), self._diameter,
                        lambda _: bool(self.contains_many(x)[0]))

    def locate_many(self, pts) -> list:
        """``locate`` for points (N, 2), one at a time."""
        return [self.locate(x) for x in np.asarray(pts, dtype=float).reshape(-1, 2)]

    def boundary_distance(self, p) -> float:
        """The least distance over the vertices of the cut about ``p``."""
        return float(self._cut(as_point(p)).dist.min())

    def boundary_distance_many(self, pts) -> np.ndarray:
        return np.array([self.boundary_distance(p)
                         for p in np.asarray(pts, dtype=float).reshape(-1, 2)])

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
            pieces += [_LobeCurve(self, k, a, -1.0, a - w, a, 2 * i),
                       _LobeCurve(self, k, a, 1.0, a, a + w, 2 * i + 1),
                       CircleArc(np.zeros(2), 1.0, a + w, a_next - w_next)]
        return tuple(pieces)

    def radial_function(self, x, theta: float) -> float:
        return float(self.radial_function_many(x, theta)[0])

    def radial_function_many(self, x, thetas) -> np.ndarray:
        """Exit distances from ``x`` along ``thetas``, for the angular route
        that serves as the test oracle of the boundary-piece integrals.

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
            raise NotStarShaped("base point outside the body")
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

    def symmetries(self, tol_rel: float) -> list:
        """As ``Polygon.symmetries``.  Such an isometry permutes the lobe
        apexes, the only boundary points at radius ``r_max``: two rotations
        and three reflections, each confirmed when the radial function's
        largest change over 1024 directions, a bound on the two-sided
        Hausdorff distance, stays below ``tol_rel`` diameters."""
        t = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        rb = self.boundary_radius(t)
        a = self.direction_angles
        found = []
        for kind, ang in ([("rotation", (a[k] - a[0]) % (2 * math.pi)) for k in (1, 2)]
                          + [("reflection", ak % math.pi) for ak in a]):
            image = t - ang if kind == "rotation" else 2 * ang - t
            if np.abs(self.boundary_radius(image) - rb).max() < tol_rel * self._diameter:
                found.append((kind, ang))
        return found

    def radius_breakpoints(self, x) -> list[float]:
        x = as_point(x)
        d = float(np.hypot(*x))
        return [abs(1.0 - d), 1.0 + d, abs(self.r_max - d), self.r_max + d]

    def reach(self, x) -> float:
        """The greatest distance from ``x`` to the boundary, at a vertex of its cut."""
        return float(self._cut(as_point(x)).dist.max())

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
        """Boundary-piece integrals (``pieces``) about every point: no closed
        form serves this body."""
        return "pieces"

    def normalized(self):
        """The body itself, with zero shift and unit scale: its centroid is
        the origin and its radii lie between 1 and ``r_max``."""
        shift = np.zeros(2)
        shift.setflags(write=False)
        return self, shift, 1.0

    def transformed(self, R, shift, scale):
        """Not supported: the body is defined about the origin, its balance
        point; raises ``TypeError``."""
        raise TypeError(f"cannot transform body of type {type(self).__name__}")

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
