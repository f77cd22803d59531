"""Locating potential maxima: centers, loci, and parameter-limit diagnostics.

The optimizer is a damped Newton ascent (exact Hessian from a boundary
integral of the kernel's derivative) with projected backtracking that keeps
iterates strictly interior when the potential family requires it.  Uniqueness
regimes follow the concavity theory: order-``alpha`` potentials are
strictly concave inside convex bodies for ``alpha <= 1`` and globally for
``alpha >= 3``; Poisson and heat potentials of convex bodies are
strictly power-concave globally.  Everything else falls back to a
deterministic multistart: twelve seeds ascended in lockstep.  The ascent is
written once, as a generator (``_ascent``) that yields each point it
evaluates and is sent the jet there; it solves its Newton step itself, in
closed form from the Hessian's three entries (``_newton_direction``).  One
driver runs it (``_ascend_all``): each round, the trial points of all live
ascents are one stacked jet (``potential_jet_many``), so every start takes
the steps, and reaches the bits, that it would take alone.  ``ascend`` is
that driver run from one start.

Every search runs on the body's normal frame: its copy with the centroid at
the origin and diameter 2, and the spec rescaled to it.  The body prepares
that copy on first use and keeps it (``body.normalized``), so the searches of
a multistart, a locus and the limit diagnostics on one body build it once.
The multistart's seeds are kept on the normalized body in the same way
(``geometry.kept``), with the incenter and circumcenter they start from.
``find_center`` evaluates its point once more in the body's own frame;
loci and the limit diagnostics read the normal frame's search
(``_search``) directly, and report gradient norms in the body's frame by
the gradient's scaling law.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoInteriorSeed, NonConvergence
from .geometry import as_point, centroid, circumcenter, diameter, incenter, is_convex, kept
from .potentials import (PotentialSpec, Riesz, degree, make_spec, potential_jet,
                         potential_jet_many, refused_on_boundary, rescaled)
from .quadrature import QuadratureConfig

__all__ = ["CenterResult", "LocusTrace", "LimitDiagnostics", "find_center",
           "ascend", "multistart_seeds", "trace_locus", "limit_diagnostics"]

GRAD_TOL_REL = 1e-9
MAX_ITERATIONS = 500
INTERIOR_MARGIN_REL = 1e-6
# a Newton step needs a Hessian whose largest eigenvalue lies below this
NEGATIVE_DEFINITE_BELOW = -1e-300

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
# diameter 2 so that extreme orders keep potential magnitudes representable;
# each body keeps its normalized copy (``body.normalized``)
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

    def to_original_gradient_norm(self, gnorm: float) -> float:
        """A gradient norm of the normal frame in the body's: gradients scale
        as s^(1 - degree) (``potentials.degree``); inf where that overflows."""
        try:
            factor = self.scale ** (1 - degree(self.spec))
        except OverflowError:
            return math.inf if gnorm else 0.0
        return gnorm * factor


def _normalize(body, spec: PotentialSpec) -> _Normalized:
    nbody, shift, s = body.normalized()
    return _Normalized(nbody, rescaled(spec, s), shift, s)


# ---------------------------------------------------------------------------
# core ascent
# ---------------------------------------------------------------------------

def _value_resolution(cfg: QuadratureConfig, val: float) -> float:
    """Differences of potential values below this are quadrature noise."""
    return 32 * max(cfg.abs_tol, (cfg.rel_tol + 4e-16) * abs(val))


def _inside_by(at, margin: float) -> bool:
    """Whether the point that ``at`` locates (a ``Located`` or a jet) lies
    inside the body, more than ``margin`` from its boundary; the margin
    exceeds the boundary band."""
    return at.location == "interior" and at.distance > margin


def ascend(body, spec: PotentialSpec, x0, cfg: Optional[QuadratureConfig] = None):
    """Damped Newton ascent from ``x0``; returns (point, value, grad_norm, iterations).

    Convergence at ``|grad| < 1e-9 * max(|value at start|, 1)``.  When the
    family requires interior iterates, trial points must keep a relative
    margin of 1e-6 diameters inside the body; backtracking shrinks steps
    until they do.  One jet per evaluated point gives its location and the
    parts of its value, gradient and Hessian that the ascent reads.  This is
    the lockstep driver (``_ascend_all``) run from one start.
    """
    (result, failure), = _ascend_all(body, spec, [x0], cfg)
    if failure is not None:
        raise failure
    return result


def _ascent(x: np.ndarray, cfg: QuadratureConfig, keep_in: bool, diam: float):
    """The ascent from ``x``, as a generator that yields each point it
    evaluates and is sent the jet there.  It returns (point, value,
    grad_norm, iterations), or raises ``NoInteriorSeed`` or
    ``NonConvergence``.  ``keep_in``: the family refuses the boundary
    (``refused_on_boundary``), so iterates keep a margin inside the body.
    """
    margin = INTERIOR_MARGIN_REL * diam

    def allowed(jet) -> bool:
        """Whether an iterate may go to the jet's point; a refused point lies
        in the boundary band, which only families that keep iterates inside
        refuse."""
        return not keep_in or _inside_by(jet, margin)

    jet = yield x
    if not allowed(jet):
        raise NoInteriorSeed(f"infeasible start {x!r}")
    val = jet.value()
    gtol = GRAD_TOL_REL * max(abs(val), 1.0)
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
            there = yield trial
            if allowed(there):
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


def _ascend_all(body, spec: PotentialSpec, starts, cfg: Optional[QuadratureConfig] = None) -> list:
    """The ascents (``_ascent``) from each of ``starts``, in lockstep: per
    start, a pair of its (point, value, grad_norm, iterations) and None, or
    of None and the ``NonConvergence`` that ended it.  A start outside
    raises ``NoInteriorSeed``.

    Each round the points that the live ascents yield are one stacked jet
    (``potential_jet_many``).  Every ascent reads exactly what it would read
    alone, so it ends as it would from its start alone.
    """
    cfg = cfg or _family_cfg(spec)
    keep_in, diam = refused_on_boundary(spec, 1), diameter(body)
    ascents = [_ascent(as_point(x0).astype(float), cfg, keep_in, diam) for x0 in starts]
    points = [next(a) for a in ascents]
    ends = [None] * len(ascents)
    live = list(range(len(ascents)))
    while live:
        for i, jet in zip(live, potential_jet_many(body, [points[i] for i in live], spec, 2, cfg)):
            try:
                points[i] = ascents[i].send(jet)
            except StopIteration as done:
                ends[i] = done.value, None
            except NonConvergence as exc:
                ends[i] = None, exc
        live = [i for i in live if ends[i] is None]
    return ends


def _negative_definite(top: float) -> bool:
    """Whether a Hessian with largest eigenvalue ``top`` takes a Newton step."""
    return not top >= NEGATIVE_DEFINITE_BELOW


def _newton_direction(H: Optional[np.ndarray], grad) -> Optional[np.ndarray]:
    """Solve -H d = g with the exact Hessian of the iterate's jet, in closed
    form from H's lower triangle (a, b; b, c), as ``eigvalsh`` reads it: the
    largest eigenvalue is (a + c)/2 + hypot((a - c)/2, b), and d comes by
    Cramer's rule with det = ac - b^2.

    Returns None, and so a gradient step, where the Hessian diverges (Riesz
    orders alpha <= 2 in the boundary band), is not finite, is not negative
    definite (``_negative_definite``), or is singular to working precision:
    its det is not a positive normal float.
    """
    if H is None:
        return None
    (a, _), (b, c) = H.tolist()
    top = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)     # nan or inf if H is not finite
    if not (math.isfinite(top) and _negative_definite(top)):
        return None
    det = a * c - b * b
    if not sys.float_info.min <= det < math.inf:
        return None
    g0, g1 = float(grad[0]), float(grad[1])
    d0, d1 = (b * g1 - c * g0) / det, (b * g0 - a * g1) / det
    if not (math.isfinite(d0) and math.isfinite(d1)):
        return None
    return np.array([d0, d1])


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
    """Deterministic interior seed set: classical centers plus low-discrepancy points.

    ``find_center`` builds it once per body and keeps it (``_kept_seeds``)."""
    diam = diameter(body)
    margin = 2 * INTERIOR_MARGIN_REL * diam
    seeds: list[np.ndarray] = []

    def push(p):
        if _inside_by(body.locate(p), margin) and \
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


def _kept_seeds(body) -> list[np.ndarray]:
    """``multistart_seeds(body)``, built on first use and kept on the body,
    read-only."""
    def build():
        seeds = multistart_seeds(body)
        for s in seeds:
            s.setflags(write=False)
        return tuple(seeds)
    return list(kept(body, "multistart_seeds", build))


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
    deepest interior point) suffices; otherwise twelve deterministic seeds,
    kept on the body, are ascended in lockstep and the best maximum is
    reported with ``uniqueness_guaranteed = False``; of maxima whose values
    agree to the quadrature's resolution, the one with the smallest gradient
    wins.  The value and gradient norm are those at the reported point in
    the body's own frame.
    """
    cfg = cfg or _family_cfg(spec)
    norm, (y, val, gnorm, iters), regime, unique = _search(body, spec, cfg)
    point = norm.to_original(y)
    if norm.body is not body or point.tobytes() != y.tobytes():
        # the ascent's value and gradient are those of the normal frame, or of
        # a point whose zeros changed sign (-0.0 + 0.0): evaluate at the point
        final = potential_jet(body, point, spec, 1, cfg)
        val, gnorm = final.value(), float(np.hypot(*final.gradient()))
    return CenterResult(point, val, gnorm, iters, regime, unique)


def _search(body, spec: PotentialSpec, cfg: QuadratureConfig):
    """``find_center``'s search, on the body's normal frame: the frame, the
    ascent's (point, value, grad_norm, iterations) in it, the regime, and
    whether the maximum is unique."""
    norm = _normalize(body, spec)
    regime, unique = _regime(body, spec)
    nbody, nspec = norm.body, norm.spec

    if regime == "multistart":
        seeds = _kept_seeds(nbody)
        cands = [result for result, failed in _ascend_all(nbody, nspec, seeds, cfg)
                 if failed is None]
        if not cands:
            raise NonConvergence(seeds[0], math.nan, MAX_ITERATIONS,
                                 "no seed converged")
        # maxima whose values tie to the value's resolution are told apart by
        # stationarity, not by rounding noise in the last bits
        top = max(c[1] for c in cands)
        best = min((c for c in cands if c[1] >= top - _value_resolution(cfg, top)),
                   key=lambda c: c[2])
    else:
        try:
            best = ascend(nbody, nspec, centroid(nbody), cfg)
        except NoInteriorSeed:
            # the family keeps iterates inside, and the centroid is not
            best = ascend(nbody, nspec, incenter(nbody).center, cfg)
    return norm, best, regime, unique


# ---------------------------------------------------------------------------
# locus tracing and limit diagnostics
# ---------------------------------------------------------------------------

def trace_locus(body, family: str, param_range: tuple[float, float],
                n_steps: int, cfg: Optional[QuadratureConfig] = None) -> LocusTrace:
    """Center locus over a log-spaced parameter grid with warm starts.

    Each center search starts from the previous center (predictor), corrected
    by the ascent; when a correction needs more than 20 iterations the
    parameter step is halved by inserting intermediate grid points (up to six
    times per interval).  Every row's gradient norm is that of the body's own
    frame, from the ascent's in the normal frame by the gradient's scaling
    law (``_Normalized.to_original_gradient_norm``).
    """
    lo, hi = param_range
    if not (lo < hi):
        raise ValueError("parameter range must satisfy lo < hi")
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    grid = [float(p) for p in (np.geomspace(lo, hi, n_steps) if lo > 0 else
                               np.linspace(lo, hi, n_steps))]
    spec = make_spec(family, grid[0])
    norm, (y, _, gnorm, _), _, _ = _search(body, spec, cfg or _family_cfg(spec))
    first = norm.to_original(y)
    rows = [(grid[0], first, norm.to_original_gradient_norm(gnorm))]
    rows += _walk(body, family, grid[0], first, grid[1:], cfg, refine=True)
    params, points, gnorms = zip(*rows)
    return LocusTrace(family, np.array(params), np.array(points), np.array(gnorms))


def _walk(body, family: str, param: float, point: np.ndarray, params,
          cfg: Optional[QuadratureConfig] = None, refine: bool = False) -> list:
    """Follow the center from ``point``, the center at ``param``, through ``params``.

    Each step ascends from the previous center, on the body's kept normal
    frame (``body.normalized``).  Returns ``(param, point, grad_norm)`` per
    step, the gradient norm in the body's frame.  With ``refine``, a step
    whose ascent needs more than 20 iterations is retaken after first
    walking to the middle of its parameter interval (up to six nested
    halvings); those intermediate steps are returned too.
    """
    rows = []

    def ascend_to(q, x):
        spec = make_spec(family, q)
        norm = _normalize(body, spec)
        y, _, gn, iters = ascend(norm.body, norm.spec, norm.to_normalized(x),
                                 cfg or _family_cfg(spec))
        return norm.to_original(y), norm.to_original_gradient_norm(gn), iters

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
    spec = make_spec(family, anchor)
    norm, (y, _, _, _), _, _ = _search(body, spec, _family_cfg(spec))
    start = norm.to_original(y)
    points = {anchor: start}
    for targets in (sorted((p for p in params if p < anchor), reverse=True),
                    sorted(p for p in params if p > anchor)):
        if targets:
            path = np.concatenate([np.geomspace(a, b, 5)[1:]
                                   for a, b in zip([anchor] + targets, targets)])
            points.update((q, x) for q, x, _ in _walk(body, family, anchor, start, path))
    return [points[p] for p in params]
