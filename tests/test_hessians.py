"""Potential Hessians from boundary integrals, and the boundary pieces they use."""

import math

import numpy as np
import pytest
from scipy.special import erf

from radialcenters.balance import generate_asymmetric_balanced
from radialcenters.centers import CENTER_CFG, SHARP_CFG, _normalize
from radialcenters.errors import BoundaryPoint
from radialcenters.geometry import Disk, Polygon
from radialcenters.potentials import (Heat, Poisson, Riesz, potential, potential_gradient,
                                      potential_hessian, potential_jet)
from radialcenters.quadrature import adaptive_gk

from conftest import make_square, make_tri345, spec_id

LSHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]


def _fd_hessian(body, x, spec, h, cfg=CENTER_CFG):
    """Central differences of the analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    H = np.empty((2, 2))
    for j, e in enumerate(np.eye(2)):
        H[:, j] = (potential_gradient(body, x + h * e, spec, cfg)
                   - potential_gradient(body, x - h * e, spec, cfg)) / (2 * h)
    return 0.5 * (H + H.T)


def _richardson_hessian(body, x, spec, h, cfg=CENTER_CFG):
    """One Richardson step on the central differences: error O(h^4)."""
    return (4 * _fd_hessian(body, x, spec, h / 2, cfg) - _fd_hessian(body, x, spec, h, cfg)) / 3


def _rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---------------------------------------------------------------------------
# boundary pieces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [make_tri345, lambda: Polygon(LSHAPE),
                                  lambda: Disk([0.3, -0.2], 1.5),
                                  generate_asymmetric_balanced],
                         ids=["tri345", "lshape", "disk", "radial_arc"])
def test_boundary_pieces_close_and_enclose_the_area(make):
    body = make()
    pieces = body.boundary_pieces()
    # consecutive pieces join, and 1/2 int y x n ds is the area
    ends = [p.curve(np.array([p.t0, p.t1]))[0] for p in pieces]
    for (_, end), (start, _) in zip(ends, ends[1:] + ends[:1]):
        assert np.abs(end - start).max() < 1e-12
    area = 0.0
    for p in pieces:
        def half_flux(t, p=p):
            y, n_ds = p.curve(t)
            return 0.5 * np.sum(y * n_ds, axis=1)

        area += adaptive_gk(half_flux, [p.t0, p.t1], CENTER_CFG)[0]
    assert area == pytest.approx(body.area(), rel=1e-11)


def test_boundary_piece_nearest_parameters():
    tri = make_tri345()
    seg = tri.boundary_pieces()[0]                 # (0, 0) -> (4, 0)
    assert seg.nearest(np.array([1.0, 0.5])) == pytest.approx(0.25)
    assert seg.nearest(np.array([-1.0, 0.5])) == 0.0
    arc = Disk([1.0, 1.0], 2.0).boundary_pieces()[0]
    assert arc.nearest(np.array([1.0, 0.0])) == pytest.approx(1.5 * math.pi)
    asym = generate_asymmetric_balanced()
    for piece in asym.boundary_pieces():
        # the foot of a point on the inner normal at the middle of the piece
        mid = 0.5 * (piece.t0 + piece.t1)
        y, n_ds = piece.curve(np.array([mid]))
        x = y[0] - 0.05 * n_ds[0] / np.hypot(*n_ds[0])
        assert piece.nearest(x) == pytest.approx(mid, abs=1e-12)
        assert piece.t0 <= piece.nearest(-y[0]) <= piece.t1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("body,points", [
    (make_tri345(), [(1.0, 0.9), (5.0, 4.0)]),
    (Polygon(LSHAPE), [(0.5, 0.5), (1.5, 1.5)]),
    (Disk([0.3, -0.2], 1.5), [(0.5, 0.1), (2.5, 1.0)]),
    (generate_asymmetric_balanced(), [(0.3, -0.2), (1.5, 0.4)]),
], ids=["tri345", "lshape", "disk", "radial_arc"])
def test_order_four_hessian_is_minus_twice_the_area(body, points):
    # V(x) = -int |x - y|^2 dy has Hessian -2 |body| I everywhere
    want = -2 * body.area() * np.eye(2)
    for x in points:
        got = potential_hessian(body, x, Riesz(4.0), CENTER_CFG)
        assert _rel_err(got, want) < 1e-12, x


def _heat_square_hessian(x, t):
    """Second derivatives of prod_i (erf((1 - x_i) / s) + erf((1 + x_i) / s)) / 2."""
    s = 2 * math.sqrt(t)
    f, df, ddf = [], [], []
    for xi in x:
        a, b = (1 - xi) / s, (1 + xi) / s
        f.append(0.5 * (erf(a) + erf(b)))
        df.append((math.exp(-b * b) - math.exp(-a * a)) / (s * math.sqrt(math.pi)))
        ddf.append(-2 * (a * math.exp(-a * a) + b * math.exp(-b * b))
                   / (s * s * math.sqrt(math.pi)))
    return np.array([[ddf[0] * f[1], df[0] * df[1]], [df[0] * df[1], f[0] * ddf[1]]])


@pytest.mark.parametrize("x", [(0.3, -0.2), (1 - 1e-3 * 2 * math.sqrt(2), 0.1), (1.7, 0.4)],
                         ids=["interior", "near_edge", "exterior"])
def test_heat_hessian_on_square_matches_erf_product(x):
    t = 0.1
    got = potential_hessian(make_square(), x, Heat(t), CENTER_CFG)
    assert _rel_err(got, _heat_square_hessian(x, t)) < 1e-9


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("body,x", [
    (make_tri345(), (1.0, 0.9)),
    (Disk([0.3, -0.2], 1.5), (0.3, 0.1)),
    (generate_asymmetric_balanced(), (0.3, -0.2)),
], ids=["tri345", "disk", "radial_arc"])
@pytest.mark.parametrize("spec", [Riesz(-1.0), Riesz(0.5), Riesz(2.0), Riesz(20.0),
                                  Poisson(0.5), Heat(0.1)], ids=spec_id)
def test_hessian_matches_richardson_finite_differences(body, x, spec):
    got = potential_hessian(body, x, spec, CENTER_CFG)
    want = _richardson_hessian(body, x, spec, 1e-3 * body.diameter())
    assert _rel_err(got, want) < 1e-6


def test_high_order_hessian_where_plain_differences_fail():
    # the normalized tri345 at alpha = 200: the kernel varies on the scale
    # d / 200, so the plain central difference at 1e-4 d is the one that is
    # off here, not the boundary form
    norm = _normalize(make_tri345(), Riesz(200.0))
    body, spec = norm.body, norm.spec
    x = norm.to_normalized((1.0, 0.9))
    d = body.diameter()
    got = potential_hessian(body, x, spec, SHARP_CFG)
    ref = _richardson_hessian(body, x, spec, 1e-5 * d, SHARP_CFG)
    plain = _fd_hessian(body, x, spec, 1e-4 * d, SHARP_CFG)
    assert _rel_err(got, ref) < 1e-7
    assert _rel_err(plain, ref) > 100 * _rel_err(got, ref)


def test_hessian_refused_on_boundary_for_low_orders():
    tri = make_tri345()
    with pytest.raises(BoundaryPoint):
        potential_hessian(tri, (2.0, 0.0), Riesz(1.5))
    # integrable there for higher orders and the smooth families
    for spec in (Riesz(4.0), Heat(0.5)):
        assert np.all(np.isfinite(potential_hessian(tri, (2.0, 0.0), spec)))


def test_jet_parts_are_the_views_and_the_band_has_no_hessian():
    tri = make_tri345()
    for x in ((1.0, 0.9), (5.0, 4.0)):
        for spec in (Riesz(0.5), Riesz(2.0), Riesz(3.0), Poisson(0.5), Heat(0.2)):
            jet = potential_jet(tri, x, spec, 2)
            assert jet.value() == potential(tri, x, spec).value
            assert np.array_equal(jet.gradient(), potential_gradient(tri, x, spec))
            assert np.array_equal(jet.hessian(), potential_hessian(tri, x, spec))
    jet = potential_jet(tri, (1.0, 0.9), Riesz(3.0), 0)
    assert jet.gradient is None and jet.hessian is None
    # in the band the Hessian diverges for alpha <= 2: no Hessian, no raise
    jet = potential_jet(tri, (2.0, 0.0), Riesz(1.5), 2)
    assert jet.location == "boundary"
    assert jet.hessian() is None
    assert np.all(np.isfinite(jet.gradient()))
