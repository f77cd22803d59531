"""Closed-form polygon potentials (the edges route) against independent references."""

import math

import mpmath as mp
import numpy as np
import pytest

from radialcenters import edges, potentials as pot
from radialcenters.centers import CENTER_CFG, SHARP_CFG, _normalize, find_center
from radialcenters.geometry import Polygon, classify_location
from radialcenters.potentials import (Heat, Poisson, Riesz, heat_gradient, potential,
                                      potential_gradient, potential_hessian, riesz_value)
from radialcenters.quadrature import QuadratureConfig, adaptive_gk

from conftest import interior_points, make_square, make_tri345, spec_id

LSHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
TIGHT = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300)


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---------------------------------------------------------------------------
# mpmath references where the quadrature routes were wrong
# ---------------------------------------------------------------------------

def _tri345_riesz_value_reference(x, alpha):
    """-int over tri345 of |x - y|^(alpha - 2) for even alpha - 2: the inner
    integral over y2 term by term from the binomial expansion, the outer one
    by Gauss-Legendre, exact for the polynomial in y1 it integrates."""
    n = (int(alpha) - 2) // 2
    x1, x2 = mp.mpf(x[0]), mp.mpf(x[1])

    def inner(y1):
        a = (y1 - x1) ** 2
        hi, lo = 3 - mp.mpf(3) / 4 * y1 - x2, -x2
        return mp.fsum(mp.binomial(n, k) * a ** (n - k) * (hi ** (2 * k + 1) - lo ** (2 * k + 1))
                       / (2 * k + 1) for k in range(n + 1))

    # 12 nodes a panel (degree 3) integrate the degree alpha - 1 exactly
    assert alpha - 1 <= 23
    return -mp.quad(inner, [0, x1, 4], method="gauss-legendre", maxdegree=3)


def _tri345_heat_gradient_reference(x, t):
    """Gradient of the heat potential of tri345: the inner integral over y2 in
    closed form (erfc on the side of its far tail), the outer one by
    Gauss-Legendre on narrow panels."""
    x1, x2, t = mp.mpf(x[0]), mp.mpf(x[1]), mp.mpf(t)
    c = 1 / (4 * mp.pi * t)
    w = 2 * mp.sqrt(t)

    def g(u):
        return mp.exp(-u * u / (4 * t))

    def strip(y1):                      # int_0^Y exp(-(x2 - y2)^2 / 4t) dy2
        Y = 3 - mp.mpf(3) / 4 * y1
        if x2 >= Y:
            return mp.sqrt(mp.pi * t) * (mp.erfc((x2 - Y) / w) - mp.erfc(x2 / w))
        return mp.sqrt(mp.pi * t) * (mp.erf((Y - x2) / w) + mp.erf(x2 / w))

    def d1(y1):
        return -(x1 - y1) / (2 * t) * g(x1 - y1) * strip(y1) * c

    def d2(y1):
        Y = 3 - mp.mpf(3) / 4 * y1
        return g(x1 - y1) * (g(x2) - g(x2 - Y)) * c

    # panels of width 1/40, narrower than the peak (about 0.1 wide) and
    # split at x1, where d1 changes sign
    cuts = sorted({mp.mpf(k) / 40 for k in range(161)} | ({x1} if 0 < x1 < 4 else set()))
    return np.array([float(mp.quad(f, cuts, method="gauss-legendre")) for f in (d1, d2)])


def test_high_order_value_near_an_edge_matches_mpmath():
    # the fan route was 7.6e-8 off here under CENTER_CFG
    x = (2.0, 0.01)
    with mp.workdps(40):
        want = float(_tri345_riesz_value_reference(x, 20))
    got = riesz_value(make_tri345(), x, Riesz(20.0), CENTER_CFG).value
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("x", [(1.0, 0.9), (6.0, 4.0)], ids=["interior", "far_exterior"])
def test_small_time_heat_gradient_matches_mpmath(x):
    # the volume form cancelled to 8.4e-8 inside, and erfc underflow left the
    # gradient 5% off outside, at a magnitude of about 1e-210
    with mp.workdps(40):
        want = _tri345_heat_gradient_reference(x, 0.01)
    got = heat_gradient(make_tri345(), x, Heat(0.01))
    assert _rel_err(got, want) <= 1e-12


# ---------------------------------------------------------------------------
# degenerate geometry against the quadrature oracles
# ---------------------------------------------------------------------------

def _kernel(spec):
    """k(r) and w(r) = k'(r) / r in the sign convention of ``potential``."""
    if isinstance(spec, Riesz):
        a = spec.alpha
        sign = math.copysign(1.0, 2 - a)
        return (lambda r: sign * r ** (a - 2)), (lambda r: sign * (a - 2) * r ** (a - 4))
    if isinstance(spec, Poisson):
        h = spec.h
        return (lambda r: h / (2 * math.pi * (r * r + h * h) ** 1.5),
                lambda r: -3 * h / (2 * math.pi * (r * r + h * h) ** 2.5))
    t = spec.t
    return (lambda r: np.exp(-r * r / (4 * t)) / (4 * math.pi * t),
            lambda r: -np.exp(-r * r / (4 * t)) / (8 * math.pi * t * t))


def _profile(spec, loc):
    """Radial antiderivative F of k(r) r, without its value at zero."""
    inside = 1.0 if loc == "interior" else 0.0
    if isinstance(spec, Riesz):
        a = spec.alpha
        return lambda rho: math.copysign(1.0, 2 - a) * rho ** a / a
    if isinstance(spec, Poisson):
        h = spec.h
        return lambda rho: (inside - h / np.sqrt(rho * rho + h * h)) / (2 * math.pi)
    t = spec.t
    return lambda rho: (inside - np.exp(-rho * rho / (4 * t))) / (2 * math.pi)


def _boundary_quadrature(body, x, integrand, cfg):
    total = 0.0
    for piece in body.boundary_pieces():
        def f(t, piece=piece):
            y, n_ds = piece.curve(t)
            return integrand(x - y, n_ds)

        total = total + np.asarray(adaptive_gk(f, [piece.t0, piece.nearest(x), piece.t1],
                                               cfg)[0])
    return total


def _oracles(body, x, spec, cfg=TIGHT):
    x = np.asarray(x, dtype=float)
    k, w = _kernel(spec)
    F = _profile(spec, classify_location(body, x))

    def value_integrand(d, n):
        # the signed sectors: int F(r) (y - x).n / r^2 ds
        r2 = d[:, 0] ** 2 + d[:, 1] ** 2
        return -F(np.sqrt(r2)) * np.sum(d * n, axis=1) / r2

    value = _boundary_quadrature(body, x, value_integrand, cfg)
    grad = -_boundary_quadrature(
        body, x, lambda d, n: k(np.hypot(d[:, 0], d[:, 1]))[:, None] * n, cfg)

    def hess_integrand(d, n):
        wd = w(np.hypot(d[:, 0], d[:, 1]))[:, None] * d
        return (wd[:, :, None] * n[:, None, :]).reshape(-1, 4)

    H = -_boundary_quadrature(body, x, hess_integrand, cfg).reshape(2, 2)
    return value, grad, 0.5 * (H + H.T)


SPECS = [Riesz(-1.0), Riesz(0.5), Riesz(1.0), Riesz(1.5), Riesz(3.0), Riesz(5.5),
         Poisson(0.5), Heat(0.5)]


@pytest.mark.parametrize("body,x", [(Polygon(LSHAPE), (0.5, 1.0)),
                                    (make_tri345(), (6.0, 0.0)),
                                    (make_tri345(), (-1.0, 0.0))],
                         ids=["lshape_interior", "tri345_right", "tri345_left"])
@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_points_on_an_edge_line_match_quadrature(body, x, spec):
    # each point lies on the line of an edge it does not touch, where q = 0
    assert np.abs(body.locate(np.array(x)).view.p).min() == 0.0
    value, grad, hess = _oracles(body, x, spec)
    assert potential(body, x, spec).value == pytest.approx(value, rel=1e-11)
    assert _rel_err(potential_gradient(body, x, spec), grad) < 1e-11
    assert _rel_err(potential_hessian(body, x, spec), hess) < 1e-11


def test_lshape_center_through_edge_line_points():
    # the multistart passes through points on the edge lines of the reflex vertex
    res = find_center(Polygon(LSHAPE), Riesz(0.5))
    assert np.all(np.isfinite(res.point)) and math.isfinite(res.value)
    assert res.point == pytest.approx([0.7298099120912962] * 2, abs=1e-9)
    assert res.grad_norm < 1e-9


@pytest.mark.parametrize("alpha", [40.0, 200.0])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["inside", "outside"])
def test_high_orders_near_an_edge_are_finite(alpha, side):
    # r^alpha 2F1 underflowed times overflowed here; the recurrence keeps every
    # factor representable (a RuntimeWarning fails the test)
    norm = _normalize(make_tri345(), Riesz(alpha))
    body, spec = norm.body, norm.spec
    v = body.vertices
    e = v[2] - v[1]                                 # the hypotenuse
    x = 0.5 * (v[1] + v[2]) - side * 1e-3 * np.array([e[1], -e[0]]) / np.hypot(*e)
    assert np.min(np.abs(body.locate(x).view.p)) == pytest.approx(1e-3, rel=1e-9)
    value, grad, hess = _oracles(body, x, spec, SHARP_CFG)
    got_value = potential(body, x, spec).value
    got_grad = potential_gradient(body, x, spec)
    got_hess = potential_hessian(body, x, spec)
    assert all(np.all(np.isfinite(g)) for g in (got_value, got_grad, got_hess))
    assert got_value == pytest.approx(value, rel=1e-10)
    assert _rel_err(got_grad, grad) < 1e-10
    assert _rel_err(got_hess, hess) < 1e-10


@pytest.mark.parametrize("alpha", [0.9999999999, 2.999999999, 3.0 + 1e-12, 3.0000001])
def test_orders_near_odd_integers(alpha):
    # where the tail's log appears the split cancels; orders within 1e-8 of
    # an odd one are taken as it
    tri = make_tri345()
    x = (1.0, 0.9)
    value, grad, hess = _oracles(tri, x, Riesz(alpha))
    assert potential(tri, x, Riesz(alpha)).value == pytest.approx(value, rel=1e-8)
    assert _rel_err(potential_gradient(tri, x, Riesz(alpha)), grad) < 1e-8
    assert _rel_err(potential_hessian(tri, x, Riesz(alpha + 2)), _oracles(
        tri, x, Riesz(alpha + 2))[2]) < 1e-8


# ---------------------------------------------------------------------------
# the boundary band: the pieces route against the closed forms on the frame
# that located the point (the fan route missed them by up to 3e-8 here)
# ---------------------------------------------------------------------------

BAND_BODIES = {"tri345": make_tri345, "square": make_square, "lshape": lambda: Polygon(LSHAPE)}
BAND_SPECS = [Riesz(1.5), Riesz(3.0), Poisson(0.05), Poisson(0.5), Heat(0.2)]


@pytest.mark.parametrize("name", BAND_BODIES)
@pytest.mark.parametrize("gap", [1e-11, 5e-10, -5e-10])
def test_boundary_band_matches_edge_closed_forms(name, gap):
    # a boundary point moved toward the centroid (gap > 0) or away from it by
    # gap diameters, as in tools/same_answers.py
    body = BAND_BODIES[name]()
    d, c = body.diameter(), body.centroid()
    e = body.boundary_polyline(48)[3]
    x = e + gap * d * (c - e) / math.hypot(*(c - e))
    loc, _, view = body.locate(x)
    assert loc == "boundary" and body.route(loc) == "pieces"
    for spec in BAND_SPECS:
        family, p = pot._family(spec)
        value, flux, _ = family.edges
        assert potential(body, x, spec).value == pytest.approx(value(view, p), rel=1e-12)
        assert _rel_err(potential_gradient(body, x, spec),
                        edges.gradient(view, flux(view, p))) < 1e-12


# ---------------------------------------------------------------------------
# one bracket per Riesz jet: the value is read off the flux
# ---------------------------------------------------------------------------

def test_riesz_jet_computes_its_value_and_flux_bracket_once(monkeypatch):
    calls = 0
    parts = edges._g_parts

    def counted(*args):
        nonlocal calls
        calls += 1
        return parts(*args)

    monkeypatch.setattr(edges, "_g_parts", counted)
    jet = pot.potential_jet(make_tri345(), [1.0, 0.9], Riesz(1.5), 2)
    jet.value(), jet.gradient(), jet.hessian(), jet.value(), jet.gradient()
    # the value, the flux's [G_alpha] and the moments' [G_(alpha - 2)] are one ladder
    assert calls == 1


def test_heat_jet_computes_its_flux_once(monkeypatch):
    calls = 0
    flux = edges.heat_flux

    def counted(*args):
        nonlocal calls
        calls += 1
        return flux(*args)

    tri = make_tri345()
    for x in ([1.0, 0.9], [0.4, 0.3]):
        view = tri.locate(np.asarray(x)).view
        want = repr(edges.hessian(view, edges.heat_moments(view, 0.3)))
        monkeypatch.setattr(edges, "heat_flux", counted)
        calls = 0
        jet = pot.potential_jet(tri, x, Heat(0.3), 2)
        jet.value(), jet.gradient()
        assert repr(jet.hessian()) == want
        assert calls == 1       # the gradient's flux is also the moments' int w ds
        monkeypatch.setattr(edges, "heat_flux", flux)


def _seeded_ninegon():
    rng = np.random.default_rng(909)
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, 9))
    radii = rng.uniform(0.6, 1.4, 9)
    return Polygon(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))


SHARED_BRACKET_BODIES = {"tri345": make_tri345, "square": make_square,
                         "lshape": lambda: Polygon(LSHAPE), "ninegon": _seeded_ninegon}


@pytest.mark.parametrize("name", SHARED_BRACKET_BODIES)
@pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0, 1.5, 3.0, 4.0, 20.0])
def test_riesz_jet_parts_equal_fresh_evaluations(name, alpha):
    body = SHARED_BRACKET_BODIES[name]()
    spec = Riesz(alpha)
    for x in interior_points(np.random.default_rng(17), body, 4):
        loc, _, view = body.locate(x)
        assert loc == "interior"
        value = potential(body, x, spec).value
        assert value == edges.riesz_value(view, alpha)      # the bracket computed anew
        grad = potential_gradient(body, x, spec)
        # the flux is computed by whichever part asks first
        jet = pot.potential_jet(body, x, spec, 2)
        assert jet.value() == value and np.array_equal(jet.gradient(), grad)
        jet = pot.potential_jet(body, x, spec, 2)
        assert np.array_equal(jet.gradient(), grad) and jet.value() == value


# ---------------------------------------------------------------------------
# each 2F1 of G_a only where its form is read, with the bits of the whole array's
# ---------------------------------------------------------------------------

def _g_parts_on_every_element(a, q, s):
    """``edges._g_parts`` with both 2F1 forms taken over every element."""
    from scipy.special import hyp2f1
    sign = np.sign(s)
    r2 = q * q + s * s
    tail = -np.log(np.abs(s) + np.sqrt(r2)) if a == 1 else \
        r2 ** ((a - 1) / 2) / (1 - a) * hyp2f1((1 - a) / 2, 0.5, (3 - a) / 2, q * q / r2)
    head = np.abs(s) < q
    if not head.any():
        return sign, -sign * tail
    qh, sh = np.where(head, q, 1.0), np.where(head, s, 0.0)
    hv = np.arcsinh(sh / qh) if a == 1 else (qh * qh + sh * sh) ** (a / 2) * sh / (qh * qh) \
        * hyp2f1(1.0, (a + 1) / 2, 1.5, -(sh / qh) ** 2)
    return np.where(head, 0.0, sign), np.where(head, hv, -sign * tail)


@pytest.mark.parametrize("name", SHARED_BRACKET_BODIES)
def test_g_parts_equal_the_whole_array_forms_bit_for_bit(name):
    body, _, _ = SHARED_BRACKET_BODIES[name]().normalized()
    rng = np.random.default_rng(23)
    for n in (1, 2, 12):
        pts = rng.uniform(-1.3, 1.3, (n, 2))
        located = body.locate_many(pts)
        p = np.stack([at.view.p for at in located])
        s = np.stack([at.view.s for at in located], axis=1)       # a stack's (2, N, n)
        frames = [(p[0], s[:, 0])] if n == 1 else [(p, s), (p[0], s[:, 0])]
        for pp, ss in frames:
            q = np.abs(pp)
            for a in (-1.0, -0.5, 0.0, 0.5, 0.999, 1.0):
                got, want = edges._g_parts(a, q, ss), _g_parts_on_every_element(a, q, ss)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()
