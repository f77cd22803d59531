"""Locating potential maxima: centers, loci, and parameter-limit diagnostics.

The optimizer is a damped Newton ascent (exact Hessian from a boundary
integral of the kernel's derivative) with projected backtracking that keeps
iterates strictly interior when the potential family requires it.  Uniqueness
regimes follow the concavity theory: order-``alpha`` potentials are
strictly concave inside convex bodies for ``alpha <= 1`` and globally for
``alpha >= 3``; Poisson and heat potentials of convex bodies are
strictly power-concave globally.  Everything else falls back to a
deterministic multistart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import BoundaryPoint, NoInteriorSeed, NonConvergence
from .geometry import (Disk, Polygon, as_point, centroid, circumcenter, diameter, incenter,
                       is_convex, transformed)
from .potentials import (PotentialSpec, Riesz, make_spec, potential_jet, refused_on_boundary,
                         rescaled)
from .quadrature import QuadratureConfig

__all__ = ["CenterResult", "LocusTrace", "LimitDiagnostics", "find_center",
           "ascend", "multistart_seeds", "trace_locus", "limit_diagnostics"]

GRAD_TOL_REL = 1e-9
MAX_ITERATIONS = 500
INTERIOR_MARGIN_REL = 1e-6

# tighter than the default so the convergence test is not noise-limited
CENTER_CFG = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-14)
SHARP_CFG = QuadratureConfig(rel_tol=3e-13, abs_tol=1e-16)


@dataclass(frozen=True)
class CenterResult:
    point: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    regime: str                    # concave_interior | concave_global | multistart
    uniqueness_guaranteed: bool


@dataclass(frozen=True)
class LocusTrace:
    family: str
    params: np.ndarray
    points: np.ndarray             # shape (k, 2)
    grad_norms: np.ndarray


def _family_cfg(spec: PotentialSpec) -> QuadratureConfig:
    if isinstance(spec, Riesz) and abs(spec.alpha) > 20:
        return SHARP_CFG
    return CENTER_CFG


# ---------------------------------------------------------------------------
# normalization: translate the centroid to the origin and rescale to
# diameter 2 so that extreme orders keep potential magnitudes representable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Normalized:
    body: object
    spec: PotentialSpec
    shift: np.ndarray
    scale: float                   # new = (old - shift) * scale

    def to_original(self, y: np.ndarray) -> np.ndarray:
        return y / self.scale + self.shift

    def to_normalized(self, x) -> np.ndarray:
        return (as_point(x) - self.shift) * self.scale

    def with_spec(self, spec: PotentialSpec) -> "_Normalized":
        """The same normalized body with ``spec`` rescaled to it."""
        return replace(self, spec=rescaled(spec, self.scale))


def _normalize(body, spec: PotentialSpec) -> _Normalized:
    if not isinstance(body, (Polygon, Disk)):
        return _Normalized(body, spec, np.zeros(2), 1.0)
    shift = centroid(body)
    s = 2.0 / diameter(body)
    nbody = transformed(body, angle=0.0, shift=-shift * s, scale=s)
    return _Normalized(nbody, spec, shift, s).with_spec(spec)


# ---------------------------------------------------------------------------
# core ascent
# ---------------------------------------------------------------------------

def _value_resolution(cfg: QuadratureConfig, val: float) -> float:
    """Differences of potential values below this are quadrature noise."""
    return 32 * max(cfg.abs_tol, (cfg.rel_tol + 4e-16) * abs(val))


def _inside_by(body, p: np.ndarray, margin: float) -> bool:
    """Whether ``p`` lies inside the body, more than ``margin`` from its
    boundary; the margin exceeds the boundary band."""
    loc, dist, _ = body.locate(p)
    return loc == "interior" and dist > margin


def ascend(body, spec: PotentialSpec, x0, cfg: Optional[QuadratureConfig] = None):
    """Damped Newton ascent from ``x0``; returns (point, value, grad_norm, iterations).

    Convergence at ``|grad| < 1e-9 * max(|value at start|, 1)``.  When the
    family requires interior iterates, trial points must keep a relative
    margin of 1e-6 diameters inside the body; backtracking shrinks steps
    until they do.  One jet per evaluated point gives its location and the
    parts of its value, gradient and Hessian that the ascent reads.
    """
    cfg = cfg or _family_cfg(spec)
    x = as_point(x0).astype(float)
    # the potential diverges or loses differentiability at the boundary
    keep_in = refused_on_boundary(spec, 1)
    diam = diameter(body)
    margin = INTERIOR_MARGIN_REL * diam

    def jet_at(p):
        """The jet at ``p``, or None where an iterate may not go."""
        try:
            there = potential_jet(body, p, spec, 2, cfg)
        except BoundaryPoint:
            return None
        inside = there.location == "interior" and there.distance > margin
        return there if inside or not keep_in else None

    jet = jet_at(x)
    if jet is None:
        raise NoInteriorSeed(f"infeasible start {x!r}")
    val = jet.value()
    scale = max(abs(val), 1.0)
    gtol = GRAD_TOL_REL * scale

    grad = jet.gradient()
    gnorm = float(np.hypot(*grad))
    iterations = 0
    while iterations < MAX_ITERATIONS:
        if gnorm < gtol:
            return x, val, gnorm, iterations
        iterations += 1
        direction = _newton_direction(jet.hessian(), grad)
        if direction is None or float(np.dot(grad, direction)) <= 0:
            direction = grad / gnorm * min(0.2 * diam, gnorm)
        slope = float(np.dot(grad, direction))
        # once the predicted gain drops below the value's resolution the
        # sufficient-increase test only measures quadrature noise; accept
        # steps on gradient-norm decrease instead (Newton endgame)
        endgame = 1e-4 * slope <= _value_resolution(cfg, val)
        for k in range(20 if endgame else 60):
            step = 0.5 ** k
            trial = x + step * direction
            there = jet_at(trial)
            if there is not None:
                part = there.gradient() if endgame else there.value()
                if (float(np.hypot(*part)) < gnorm if endgame
                        else part >= val + 1e-4 * step * slope):
                    break
        else:
            # flat to resolution: a gradient floor (endgame) or step underflow
            if gnorm < max(gtol, (1e4 if endgame else 1e3) * cfg.abs_tol):
                return x, val, gnorm, iterations
            raise NonConvergence(x, gnorm, iterations,
                                 "gradient stagnated above tolerance" if endgame
                                 else "line search stalled above gradient tolerance")
        x, jet = trial, there
        val, grad = (jet.value(), part) if endgame else (part, jet.gradient())
        gnorm = float(np.hypot(*grad))
    if gnorm < gtol:
        return x, val, gnorm, iterations
    raise NonConvergence(x, gnorm, iterations)


def _newton_direction(H: Optional[np.ndarray], grad) -> Optional[np.ndarray]:
    """Solve -H d = g with the exact Hessian of the iterate's jet.

    Returns None, and so a gradient step, where the Hessian is not negative
    definite or diverges (Riesz orders alpha <= 2 in the boundary band).
    """
    if H is None:
        return None
    eig = np.linalg.eigvalsh(H)
    if eig.max() >= -1e-300:        # not negative definite: reject
        return None
    try:
        return np.linalg.solve(H, -grad)
    except np.linalg.LinAlgError:
        return None


# ---------------------------------------------------------------------------
# seeds and the public finder
# ---------------------------------------------------------------------------

def _halton(index: int, base: int) -> float:
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


def multistart_seeds(body) -> list[np.ndarray]:
    """Deterministic interior seed set: classical centers plus low-discrepancy points."""
    diam = diameter(body)
    margin = 2 * INTERIOR_MARGIN_REL * diam
    seeds: list[np.ndarray] = []

    def push(p):
        if _inside_by(body, p, margin) and \
                all(float(np.hypot(*(p - q))) > 1e-12 * diam for q in seeds):
            seeds.append(p)

    push(centroid(body))
    push(incenter(body).center)
    push(circumcenter(body).center)
    outline = body.boundary_polyline()
    lo, hi = outline.min(axis=0), outline.max(axis=0)
    need = max(3, len(seeds)) + 9
    i = 1
    while len(seeds) < need and i < 10000:
        p = np.array([lo[0] + (hi[0] - lo[0]) * _halton(i, 2),
                      lo[1] + (hi[1] - lo[1]) * _halton(i, 3)])
        push(p)
        i += 1
    if not seeds:
        raise NoInteriorSeed("no interior seed points found")
    return seeds


def _regime(body, spec: PotentialSpec) -> tuple[str, bool]:
    convex = is_convex(body)
    if isinstance(spec, Riesz):
        if convex and spec.alpha <= 1:
            return "concave_interior", True
        if spec.alpha >= 3:
            return "concave_global", True
        return "multistart", False
    if convex:
        return "concave_global", True
    return "multistart", False


def find_center(body, spec: PotentialSpec,
                cfg: Optional[QuadratureConfig] = None) -> CenterResult:
    """Maximum point of the potential, with the concavity regime used.

    In guaranteed-unique regimes a single ascent from the centroid (or the
    deepest interior point) suffices; otherwise twelve deterministic seeds
    are ascended and the best maximum is reported with
    ``uniqueness_guaranteed = False``; of maxima whose values agree to the
    quadrature's resolution, the one with the smallest gradient wins.
    """
    cfg = cfg or _family_cfg(spec)
    norm = _normalize(body, spec)
    regime, unique = _regime(body, spec)
    nbody, nspec = norm.body, norm.spec

    if regime == "multistart":
        seeds = multistart_seeds(nbody)
        cands = []
        for s in seeds:
            try:
                cands.append(ascend(nbody, nspec, s, cfg))
            except NonConvergence:
                continue
        if not cands:
            raise NonConvergence(seeds[0], math.nan, MAX_ITERATIONS,
                                 "no seed converged")
        # maxima whose values tie to the value's resolution are told apart by
        # stationarity, not by rounding noise in the last bits
        top = max(c[1] for c in cands)
        best = min((c for c in cands if c[1] >= top - _value_resolution(cfg, top)),
                   key=lambda c: c[2])
        y, _, _, iters = best
    else:
        start = centroid(nbody)
        if refused_on_boundary(nspec, 1) and not _inside_by(
                nbody, start, INTERIOR_MARGIN_REL * diameter(nbody)):
            start = incenter(nbody).center
        y, _, _, iters = ascend(nbody, nspec, start, cfg)

    point = norm.to_original(y)
    final = potential_jet(body, point, spec, 1, cfg)
    return CenterResult(point, final.value(), float(np.hypot(*final.gradient())),
                        iters, regime, unique)


# ---------------------------------------------------------------------------
# locus tracing and limit diagnostics
# ---------------------------------------------------------------------------

def trace_locus(body, family: str, param_range: tuple[float, float],
                n_steps: int, cfg: Optional[QuadratureConfig] = None) -> LocusTrace:
    """Center locus over a log-spaced parameter grid with warm starts.

    Each center search starts from the previous center (predictor), corrected
    by the ascent; when a correction needs more than 20 iterations the
    parameter step is halved by inserting intermediate grid points (up to six
    times per interval).
    """
    lo, hi = param_range
    if not (lo < hi):
        raise ValueError("parameter range must satisfy lo < hi")
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    grid = [float(p) for p in (np.geomspace(lo, hi, n_steps) if lo > 0 else
                               np.linspace(lo, hi, n_steps))]
    spec = make_spec(family, grid[0])
    first = find_center(body, spec, cfg or _family_cfg(spec))
    rows = [(grid[0], first.point, first.grad_norm)]
    rows += _walk(body, family, grid[0], first.point, grid[1:], cfg, refine=True)
    params, points, gnorms = zip(*rows)
    return LocusTrace(family, np.array(params), np.array(points), np.array(gnorms))


def _walk(body, family: str, param: float, point: np.ndarray, params,
          cfg: Optional[QuadratureConfig] = None, refine: bool = False) -> list:
    """Follow the center from ``point``, the center at ``param``, through ``params``.

    Each step ascends from the previous center; the body is normalized once
    for the whole walk.  Returns ``(param, point, grad_norm)`` per step.  With
    ``refine``, a step whose ascent needs more than 20 iterations is retaken
    after first walking to the middle of its parameter interval (up to six
    nested halvings); those intermediate steps are returned too.
    """
    frame = _normalize(body, make_spec(family, param))
    rows = []

    def ascend_to(q, x):
        spec = make_spec(family, q)
        norm = frame.with_spec(spec)
        y, _, gn, iters = ascend(norm.body, norm.spec, norm.to_normalized(x),
                                 cfg or _family_cfg(spec))
        return norm.to_original(y), gn, iters

    def step(q, depth=0):
        nonlocal param, point
        x, gn, iters = ascend_to(q, point)
        if refine and iters > 20 and depth < 6:
            step(math.sqrt(param * q) if param > 0 else 0.5 * (param + q), depth + 1)
            x, gn, _ = ascend_to(q, point)
        rows.append((q, x, gn))
        param, point = q, x

    for q in params:
        step(float(q))
    return rows


@dataclass(frozen=True)
class LimitDiagnostics:
    diam: float
    circumcenter: np.ndarray
    centroid: np.ndarray
    incenter: np.ndarray
    riesz: list          # (alpha, point, distance to circumcenter)
    poisson: list        # (h, point, distance to centroid)
    heat: list           # (t, point, distance to centroid, distance to incenter)
    monotone_riesz: bool
    monotone_poisson: bool
    monotone_heat: bool


def limit_diagnostics(body, riesz_alphas=(10.0, 50.0, 200.0),
                      poisson_h_rel=(1.0, 10.0, 100.0),
                      heat_ts=(1e-3, 1.0, 1e3)) -> LimitDiagnostics:
    """Distances from computed centers to their theoretical parameter limits.

    Tracks each family by warm-started continuation from its best-conditioned
    parameter toward the limit, so the reported distances reflect followed
    optima rather than cold starts in numerically flat regions.  Distances to
    the claimed limit must not increase along each escalating sequence.
    """
    if not is_convex(body):
        raise ValueError("limit diagnostics require a convex body")
    d = diameter(body)
    cc = circumcenter(body).center
    g = centroid(body)
    ic = incenter(body).center

    alphas = sorted(riesz_alphas)
    riesz_pts = _continuation(body, "riesz", alphas, alphas[0])
    riesz_rows = [(a, p, float(np.hypot(*(p - cc)))) for a, p in zip(alphas, riesz_pts)]

    hs = sorted(h * d for h in poisson_h_rel)
    pois_pts = _continuation(body, "poisson", hs, hs[0])
    pois_rows = [(h, p, float(np.hypot(*(p - g)))) for h, p in zip(hs, pois_pts)]

    ts = sorted(heat_ts)
    anchor = max(min(1.0, ts[-1]), ts[0])
    heat_pts = _continuation(body, "heat", ts, anchor)
    heat_rows = [(t, p, float(np.hypot(*(p - g))), float(np.hypot(*(p - ic))))
                 for t, p in zip(ts, heat_pts)]

    def non_increasing(seq):
        return all(b <= a + 1e-12 * d for a, b in zip(seq, seq[1:]))

    return LimitDiagnostics(
        d, cc, g, ic, riesz_rows, pois_rows, heat_rows,
        monotone_riesz=non_increasing([r[2] for r in riesz_rows]),
        monotone_poisson=non_increasing([r[2] for r in pois_rows]),
        monotone_heat=non_increasing([r[2] for r in heat_rows]),
    )


def _continuation(body, family: str, params, anchor: float) -> list:
    """Centers at ``params``, followed outward from a cold search at ``anchor``.

    Targets below and above the anchor are walked in two chains, each
    interval between consecutive targets in four geometric sub-steps.
    """
    start = find_center(body, make_spec(family, anchor)).point
    points = {anchor: start}
    for targets in (sorted((p for p in params if p < anchor), reverse=True),
                    sorted(p for p in params if p > anchor)):
        if targets:
            path = np.concatenate([np.geomspace(a, b, 5)[1:]
                                   for a, b in zip([anchor] + targets, targets)])
            points.update((q, x) for q, x, _ in _walk(body, family, anchor, start, path))
    return [points[p] for p in params]
