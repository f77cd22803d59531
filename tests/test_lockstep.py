"""Stacked jets, the lockstep multistart and the geometry a body keeps.

Each stacked or lockstep answer is compared with its one-point or one-start
counterpart by ``repr``: the stacking must not move a single bit.
"""

import math

import numpy as np
import pytest

from radialcenters import centers, geometry, potentials
from radialcenters.balance import generate_asymmetric_balanced
from radialcenters.centers import (_ascend_all, _family_cfg, _kept_seeds, _normalize, ascend,
                                   find_center, multistart_seeds, trace_locus)
from radialcenters.errors import BoundaryPoint, NonConvergence
from radialcenters.geometry import Polygon, circumcenter, incenter
from radialcenters.potentials import Heat, Poisson, Riesz, potential_jet, potential_jet_many

from conftest import make_square, make_tri345, make_unit_disk

LSHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]


def _ninegon():
    rng = np.random.default_rng(909)
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, 9))
    radii = rng.uniform(0.6, 1.4, 9)
    return Polygon(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))


def _reflex_polygons(count=10):
    """Seeded star-shaped polygons with radii from 0.35 to 1.35, so most have
    reflex vertices, as the reflex half of ``tools/same_answers.py``."""
    rng = np.random.default_rng(14)
    out = []
    while len(out) < count:
        n = 5 + len(out) % 6
        ang = 2 * math.pi * (np.arange(n) + 0.6 * (rng.random(n) - 0.5)) / n
        rad = 0.35 + rng.random(n)
        poly = Polygon(np.stack([1.3 * rad * np.cos(ang), 0.8 * rad * np.sin(ang)], axis=1))
        if not poly.is_convex():
            out.append(poly)
    return out


def _r(x):
    """An exact rendering: the reprs of the floats, signed zeros included."""
    return repr(None if x is None else np.asarray(x, dtype=float).tolist())


# ---------------------------------------------------------------------------
# stacked jets
# ---------------------------------------------------------------------------

JET_BODIES = {"tri345": make_tri345, "square": make_square,
              "lshape": lambda: Polygon(LSHAPE), "ninegon": _ninegon,
              "disk": make_unit_disk, "asym": generate_asymmetric_balanced}
JET_SPECS = [Riesz(-1.0), Riesz(0.5), Riesz(1.5), Riesz(4.0), Riesz(20.0), Poisson(0.3),
             Heat(0.2)]


def _mixed_points(body):
    """Interior, near-boundary, band and exterior points in one stack, with
    a repeated point; the band points are refused for Riesz orders <= 1.
    (On tri345 these are off the hypotenuse, where the pieces route misses
    its tolerance for Riesz(20) in the band, after seconds, on both sides.)"""
    d, c = body.diameter(), body.centroid()
    edge = body.boundary_polyline(48)
    pts = [c, c + 0.05 * d * np.array([0.3, -0.2])]
    for k in (3, 36):
        e = edge[k]
        u = (c - e) / math.hypot(*(c - e))
        pts += [e + 1e-3 * d * u, e + 1e-11 * d * u, e - 5e-10 * d * u, e - 0.5 * d * u]
    pts.append(pts[0])
    return np.array(pts)


def _single(body, x, spec):
    try:
        return potential_jet(body, x, spec, 2)
    except BoundaryPoint as exc:
        return exc


def _read(part):
    """A part's value, or what it raises: the pieces route may not meet its
    tolerance at a band point, on both sides alike."""
    try:
        return _r(part())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", JET_BODIES)
def test_stacked_jets_match_single_jets(name):
    body = JET_BODIES[name]()
    pts = _mixed_points(body)
    if name == "asym":         # boundary-piece quadratures: fewer points
        pts = pts[[0, 2, 3, 4, 5]]
    refused = 0
    for spec in JET_SPECS:
        jets = potential_jet_many(body, pts, spec, 2)
        assert len(jets) == len(pts)
        # read the stacked parts in another order than the single ones
        for x, jet in zip(pts[::-1], jets[::-1]):
            many = {part: _read(getattr(jet, part)) for part in ("hessian", "gradient", "value")}
            one = _single(body, x, spec)
            if isinstance(one, BoundaryPoint):
                refused += 1
                assert jet.location == "boundary"
                assert set(many.values()) == {f"BoundaryPoint: {one}"}
                continue
            assert (jet.regime, jet.location, repr(jet.distance)) == \
                (one.regime, one.location, repr(one.distance))
            assert many == {part: _read(getattr(one, part))
                            for part in ("hessian", "gradient", "value")}, (spec, x)
            assert _read(jet.value) == many["value"]     # a part read again
    assert refused >= 2 * (1 if name == "asym" else 2)


def test_stack_of_one_is_potential_jet():
    body = make_tri345()
    x = np.array([1.0, 0.9])
    (jet,) = potential_jet_many(body, [x], Riesz(1.5), 2)
    one = potential_jet(body, x, Riesz(1.5), 2)
    assert _r(jet.value()) == _r(one.value()) and _r(jet.hessian()) == _r(one.hessian())
    (refused,) = potential_jet_many(body, [[0.0, 0.0]], Riesz(0.5), 1)
    with pytest.raises(BoundaryPoint):
        potential_jet(body, [0.0, 0.0], Riesz(0.5), 1)
    with pytest.raises(BoundaryPoint):
        refused.gradient()


def test_stacked_jets_compute_each_shared_part_once(monkeypatch):
    calls = 0
    parts = potentials.edges._g_parts

    def counted(*args):
        nonlocal calls
        calls += 1
        return parts(*args)

    monkeypatch.setattr(potentials.edges, "_g_parts", counted)
    body = Polygon(LSHAPE)
    jets = potential_jet_many(body, [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [3.0, 3.0]],
                              Riesz(1.5), 2)
    for jet in jets:
        jet.value(), jet.gradient(), jet.hessian()
    assert calls == 1       # one ladder, [G_alpha] and [G_(alpha - 2)], for the four points


@pytest.mark.parametrize("make", [make_tri345, make_unit_disk, generate_asymmetric_balanced],
                         ids=["polygon", "disk", "radial_arc"])
def test_locate_many_matches_locate(make):
    body = make()
    pts = _mixed_points(body)
    for x, at in zip(pts, body.locate_many(pts)):
        one = body.locate(x)
        assert (at.location, repr(at.distance)) == (one.location, repr(one.distance))
        if at.view is not None and hasattr(at.view, "p"):
            assert _r(at.view.p) == _r(one.view.p) and _r(at.view.s) == _r(one.view.s)
        else:
            assert repr(at.view) == repr(one.view)


# ---------------------------------------------------------------------------
# the lockstep multistart
# ---------------------------------------------------------------------------

def _outcome(fn):
    try:
        point, value, gnorm, iterations = fn()
    except NonConvergence as exc:
        return ("NonConvergence", str(exc), _r(exc.point), repr(exc.grad_norm),
                exc.iterations)
    return _r(point), repr(value), repr(gnorm), iterations


def _raise_or_return(result, failed):
    if failed is not None:
        raise failed
    return result


def _lockstep_and_sequential(body, spec):
    norm = _normalize(body, spec)
    cfg = _family_cfg(spec)
    seeds = multistart_seeds(norm.body)
    lockstep = [_outcome(lambda end=end: _raise_or_return(*end))
                for end in _ascend_all(norm.body, norm.spec, seeds, cfg)]
    sequential = [_outcome(lambda s=s: ascend(norm.body, norm.spec, s, cfg)) for s in seeds]
    return lockstep, sequential


LOCKSTEP_CASES = [(make_tri345, Riesz(1.5)), (lambda: Polygon(LSHAPE), Riesz(0.5)),
                  (make_unit_disk, Riesz(1.5))]


@pytest.mark.parametrize("make,spec", LOCKSTEP_CASES, ids=["tri345", "lshape", "disk"])
def test_lockstep_multistart_matches_sequential_ascents(make, spec):
    """The twelve seeds, ascended as one stack of twelve, end bit for bit as
    each does in a stack of one (``ascend``, the lockstep driver run from one
    start)."""
    lockstep, sequential = _lockstep_and_sequential(make(), spec)
    assert len(lockstep) == 12
    assert lockstep == sequential


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_lockstep_multistart_matches_on_reflex_polygons(alpha):
    for body in _reflex_polygons():
        lockstep, sequential = _lockstep_and_sequential(body, Riesz(alpha))
        assert lockstep == sequential


@pytest.mark.parametrize("make,spec", [(make_tri345, Riesz(4.0)),
                                       (lambda: Polygon(LSHAPE), Riesz(0.5))],
                         ids=["tri345", "lshape"])
def test_ascent_yields_only_points(make, spec):
    """Driven by hand, one jet per yielded point, the ascent yields float
    points of shape (2,) and returns what ``ascend`` returns."""
    norm = _normalize(make(), spec)
    cfg = _family_cfg(spec)
    x0 = multistart_seeds(norm.body)[-1]          # a Halton point, off the center
    ascent = centers._ascent(x0.astype(float), cfg, potentials.refused_on_boundary(norm.spec, 1),
                             norm.body.diameter())
    x, evaluated = next(ascent), 0
    while True:
        assert isinstance(x, np.ndarray) and x.dtype == float and x.shape == (2,), x
        evaluated += 1
        try:
            x = ascent.send(potential_jet_many(norm.body, [x], norm.spec, 2, cfg)[0])
        except StopIteration as done:
            result = done.value
            break
    assert evaluated > result[3] > 0
    assert _outcome(lambda: result) == _outcome(lambda: ascend(norm.body, norm.spec, x0, cfg))


def test_ascend_raises_the_failure_the_lockstep_driver_reports(monkeypatch):
    monkeypatch.setattr(centers, "MAX_ITERATIONS", 2)
    norm = _normalize(Polygon(LSHAPE), Riesz(0.5))
    cfg = _family_cfg(norm.spec)
    x0 = multistart_seeds(norm.body)[0]
    ((result, failed),) = _ascend_all(norm.body, norm.spec, [x0], cfg)
    assert result is None and isinstance(failed, NonConvergence)
    with pytest.raises(NonConvergence) as raised:
        ascend(norm.body, norm.spec, x0, cfg)
    assert _outcome(lambda: _raise_or_return(None, raised.value)) == \
        _outcome(lambda: _raise_or_return(None, failed))
    assert raised.value.iterations == 2


def test_lockstep_drops_the_seeds_that_do_not_converge(monkeypatch):
    body = Polygon(LSHAPE)
    free = [o[3] for o in _lockstep_and_sequential(body, Riesz(0.5))[0]]
    cap = sorted(free)[len(free) // 2]          # half of the seeds need more
    monkeypatch.setattr(centers, "MAX_ITERATIONS", cap)
    lockstep, sequential = _lockstep_and_sequential(body, Riesz(0.5))
    assert lockstep == sequential
    failed = [o for o in lockstep if o[0] == "NonConvergence"]
    assert 0 < len(failed) < len(lockstep)
    # the search reports one of the seeds that converged
    norm = _normalize(body, Riesz(0.5))
    ends = _ascend_all(norm.body, norm.spec, multistart_seeds(norm.body), _family_cfg(norm.spec))
    converged = {_r(norm.to_original(result[0])) for result, failed in ends if failed is None}
    assert _r(find_center(body, Riesz(0.5)).point) in converged
    monkeypatch.setattr(centers, "MAX_ITERATIONS", 0)
    with pytest.raises(NonConvergence, match="no seed converged"):
        find_center(body, Riesz(0.5))


# ---------------------------------------------------------------------------
# geometry kept on the body
# ---------------------------------------------------------------------------

def test_incenter_grid_runs_once_per_body(monkeypatch):
    runs = 0
    grid = geometry._incenter_grid

    def counted(*args, **kwargs):
        nonlocal runs
        runs += 1
        return grid(*args, **kwargs)

    monkeypatch.setattr(geometry, "_incenter_grid", counted)
    body = Polygon(LSHAPE)
    first = find_center(body, Riesz(0.5))
    for _ in range(2):
        again = find_center(body, Riesz(0.5))
        assert _r(again.point) == _r(first.point) and again.iterations == first.iterations
    trace_locus(body, "riesz", (0.5, 1.5), 3)
    assert runs == 1


def test_kept_centers_and_seeds_are_read_only():
    body = Polygon(LSHAPE)
    find_center(body, Riesz(0.5))
    nbody = body.normalized()[0]
    kept = [nbody._kept["incenter"].center, nbody._kept["circumcenter"].center]
    kept += _kept_seeds(nbody)
    assert len(kept) == 14
    for arr in kept:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_changing_a_returned_center_moves_no_later_answer():
    fresh = find_center(Polygon(LSHAPE), Riesz(0.5))
    body = Polygon(LSHAPE)
    want = incenter(body).center.copy(), circumcenter(body).center.copy()
    incenter(body).center[:] = 99.0
    circumcenter(body).center[:] = -99.0
    nbody = body.normalized()[0]
    incenter(nbody).center[:] = 99.0
    for seed in multistart_seeds(nbody):
        seed[:] = 99.0
    assert np.array_equal(incenter(body).center, want[0])
    assert np.array_equal(circumcenter(body).center, want[1])
    res = find_center(body, Riesz(0.5))
    assert (_r(res.point), repr(res.value), repr(res.grad_norm), res.iterations) == \
        (_r(fresh.point), repr(fresh.value), repr(fresh.grad_norm), fresh.iterations)


# ---------------------------------------------------------------------------
# a body that is its own normal frame reports the ascent's own value
# ---------------------------------------------------------------------------

def test_identity_frame_reports_the_ascents_value(monkeypatch):
    calls = 0
    integral = potentials._boundary_integral

    def counted(*args):
        nonlocal calls
        calls += 1
        return integral(*args)

    monkeypatch.setattr(potentials, "_boundary_integral", counted)
    asym = generate_asymmetric_balanced()
    for spec in (Riesz(0.5), Heat(0.05 * asym.diameter() ** 2)):
        calls = 0
        res = find_center(asym, spec)
        assert calls == 2
        jet = potential_jet(asym, res.point, spec, 1, _family_cfg(spec))
        assert (repr(res.value), repr(res.grad_norm)) == \
            (repr(jet.value()), repr(float(np.hypot(*jet.gradient()))))
    calls = 0
    trace_locus(asym, "riesz", (-1.0, 0.9), 3)
    assert calls == 6
    # a polygon's normal frame is another body: its value is evaluated anew
    tri = make_tri345()
    res = find_center(tri, Riesz(4.0))
    jet = potential_jet(tri, res.point, Riesz(4.0), 1, _family_cfg(Riesz(4.0)))
    assert repr(res.value) == repr(jet.value())


# ---------------------------------------------------------------------------
# the closed-form Newton step against LAPACK
# ---------------------------------------------------------------------------

def _lapack_direction(H, grad):
    """The Newton step as ``eigvalsh`` and ``solve`` take it: the oracle of
    ``centers._newton_direction``."""
    if not centers._negative_definite(np.linalg.eigvalsh(H).max()):
        return None
    return np.linalg.solve(H, -grad)


def _hessian(rng, eigenvalues):
    """A symmetric 2x2 matrix with the given eigenvalues in a random frame."""
    theta = rng.uniform(0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    Q = np.array([[c, -s], [s, c]])
    H = Q @ np.diag(eigenvalues) @ Q.T
    return 0.5 * (H + H.T)


def test_closed_form_newton_step_matches_lapack():
    rng = np.random.default_rng(1603)
    checked = 0
    for trial in range(4000):
        scale = 10.0 ** rng.uniform(-100, 100)
        cond = 10.0 ** rng.uniform(0, 8)
        kind = ("negative_definite", "indefinite", "positive")[trial % 3]
        top = {"negative_definite": -1.0, "indefinite": 1.0, "positive": cond}[kind]
        H = _hessian(rng, [top * scale, -cond * scale] if kind != "positive"
                     else [scale, cond * scale])
        grad = rng.normal(size=2) * 10.0 ** rng.uniform(-20, 20)
        got, want = centers._newton_direction(H, grad), _lapack_direction(H, grad)
        eig = np.linalg.eigvalsh(H)
        if abs(eig.max()) < 1e-12 * abs(eig).max():
            continue            # at the threshold: rounding decides either way
        assert (got is None) == (want is None), (H, eig)
        if want is not None:
            k = np.linalg.cond(H)
            err = np.hypot(*(got - want)) / np.hypot(*want)
            assert err <= (1e-13 if k < 100 else 1e-15 * k), (H, grad, k, err)
            checked += 1
    assert checked > 1000


def test_closed_form_newton_step_refuses_singular_and_non_finite_hessians():
    grad = np.array([0.3, -0.7])
    singular = [np.array([[-1.0, -2.0], [-2.0, -4.0]]), np.zeros((2, 2)),
                np.array([[-1.0, 0.0], [0.0, 0.0]])]
    broken = [np.array([[np.nan, 0.0], [0.0, -1.0]]), np.array([[-np.inf, 0.0], [0.0, -1.0]]),
              np.array([[-1.0, 0.0], [np.inf, -1.0]]), np.array([[-1.0, 0.0], [0.0, -np.inf]])]
    for H in singular + broken:
        assert centers._newton_direction(H, grad) is None, H
    assert centers._newton_direction(None, grad) is None
    # the upper triangle is not read, as eigvalsh does not read it
    H = np.array([[-2.0, 99.0], [0.5, -1.0]])
    want = np.linalg.solve(np.array([[-2.0, 0.5], [0.5, -1.0]]), -grad)
    assert np.allclose(centers._newton_direction(H, grad), want, rtol=1e-15, atol=0)
    # a determinant that underflows to a subnormal reads as singular
    assert centers._newton_direction(np.array([[-1e-160, 0.0], [0.0, -1e-160]]), grad) is None


# ---------------------------------------------------------------------------
# a pieces-route jet prepares its boundary nodes once
# ---------------------------------------------------------------------------

def test_asym_jet_computes_each_panels_nodes_once(monkeypatch):
    from radialcenters import balance
    seen = []
    for cls in (balance._LobeCurve, geometry.CircleArc):
        chord = cls.chord

        def counted(self, s, t_ref, chord=chord):
            seen.append((id(self), s.tobytes()))
            return chord(self, s, t_ref)
        monkeypatch.setattr(cls, "chord", counted)
    asym = generate_asymmetric_balanced()
    for spec in (Riesz(0.5), Riesz(3.0), Poisson(0.4), Heat(0.3)):
        for x in ([0.0, 0.0], [0.2, -0.1]):
            seen.clear()
            jet = potential_jet(asym, x, spec, 2)
            parts = _r(jet.value()), _r(jet.gradient()), _r(jet.hessian())
            # a lobe's chord takes an arc's, so count the pieces' own calls
            own = [k for k in seen if k[0] in {id(p) for p in asym.boundary_pieces()}]
            assert len(own) == len(set(own)) > 0
            assert parts == (_r(potential_jet(asym, x, spec, 0).value()),
                             _r(potential_jet(asym, x, spec, 1).gradient()),
                             _r(potentials.potential_hessian(asym, x, spec)))
