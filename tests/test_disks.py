"""Closed-form disk potentials (the disk route) against independent references."""

import math

import mpmath as mp
import numpy as np
import pytest

from radialcenters import potentials as pot
from radialcenters.geometry import Disk, classify_location
from radialcenters.potentials import (Heat, Poisson, Riesz, potential, potential_gradient,
                                      potential_hessian)
from radialcenters.quadrature import (DEFAULT_CONFIG, QuadratureConfig,
                                      disk_exterior_integral, disk_exterior_integral_vector,
                                      integrate_angular, integrate_angular_vector)

from conftest import make_unit_disk

TIGHT = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300)


def _rel_err(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.abs(got - want).max() / np.abs(want).max())


# ---------------------------------------------------------------------------
# mpmath references where the quadrature routes were wrong (unit disk)
# ---------------------------------------------------------------------------

def _heat_reference(d, t):
    """int_0^1 (r / 2t) e^(-(r^2 + d^2)/4t) I_0(r d / 2t) dr for d > 1, by
    Gauss-Legendre on panels packed toward the rim at half the integrand's
    decay length 2t / (d - 1)."""
    d, t = mp.mpf(d), mp.mpf(t)

    def f(r):
        z = r * d / (2 * t)
        return r / (2 * t) * mp.exp(-(r - d) ** 2 / (4 * t)) * mp.exp(-z) * mp.besseli(0, z)

    w = t / (d - 1)
    cuts = sorted({mp.mpf(0)} | {max(mp.mpf(0), 1 - j * w) for j in range(80)})
    return mp.quad(f, cuts, method="gauss-legendre")


def _poisson_reference(d, h):
    """int_0^1 of the angular integral in closed form,
    r (h / 2 pi) 4 E(m) / ((A - B) sqrt(A + B)), A = d^2 + r^2 + h^2, B = 2 d r,
    m = 2B / (A + B), for d well outside the unit disk."""
    d, h = mp.mpf(d), mp.mpf(h)

    def f(r):
        A, B = d * d + r * r + h * h, 2 * d * r
        return r * h / (2 * mp.pi) * 4 * mp.ellipe(2 * B / (A + B)) / ((A - B) * mp.sqrt(A + B))

    return mp.quad(f, [mp.mpf(k) / 8 for k in range(9)], method="gauss-legendre")


@pytest.mark.parametrize("spec,x,reference", [
    # the chord quadrature was 9.1e-8 off
    (Riesz(-2.0), (50.0, 0.0), lambda: math.pi / (50.0 ** 2 - 1) ** 2),
    # 1.1e-6 and 1.3e-7 off
    (Heat(0.4), (6.0, 0.0), lambda: _heat_reference(6, 0.4)),
    (Heat(0.005), (3.0, 0.0), lambda: _heat_reference(3, 0.005)),
    # 3.2e-8 and 2.4e-5 off
    (Poisson(0.02), (20.0, 0.0), lambda: _poisson_reference(20, 0.02)),
    (Poisson(1.0), (2000.0, 0.0), lambda: _poisson_reference(2000, 1.0)),
], ids=["riesz-2", "heat0.4", "heat0.005", "poisson0.02", "poisson1_far"])
def test_far_values_match_references(spec, x, reference):
    with mp.workdps(30):
        want = float(reference())
    got = potential(make_unit_disk(), x, spec).value
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_far_heat_value_does_not_underflow_early():
    # about 1.6e-138: the chord quadrature was 5.8e-7 off, and the noncentral
    # chi-square distribution (scipy's chndtr) flushes it to zero
    with mp.workdps(30):
        want = float(_heat_reference(3.5, 0.005))
    got = potential(make_unit_disk(), (3.5, 0.0), Heat(0.005)).value
    assert 0 < want < 1e-100
    assert got == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the quadrature routes as oracles
# ---------------------------------------------------------------------------

def _profiles(spec, loc):
    """The radial antiderivatives of the volume forms: the value's profile,
    with its sign, and the gradient's."""
    if isinstance(spec, Riesz):
        a = spec.alpha
        sign = 1.0 if a == 2 else math.copysign(1.0, 2 - a)
        g, scale = pot._riesz_grad_profile(a), 1.0 if a == 2 else abs(2 - a)
        return sign, pot._riesz_profile(a), lambda r: scale * g(r)
    if isinstance(spec, Poisson):
        return 1.0, pot._poisson_profile(spec.h, loc), pot._poisson_grad_profile(spec.h, loc)
    return 1.0, pot._heat_profile(spec.t, loc), pot._heat_grad_profile(spec.t, loc)


def _volume_oracles(disk, x, spec, cfg):
    """The value and gradient on the angular route inside and the chord
    route outside."""
    loc = classify_location(disk, x)
    sign, profile, grad_profile = _profiles(spec, loc)
    if loc == "interior":
        return (sign * integrate_angular(disk, x, profile, cfg),
                integrate_angular_vector(disk, x, grad_profile, cfg))
    return (sign * disk_exterior_integral(disk, x, profile, cfg),
            disk_exterior_integral_vector(disk, x, grad_profile, cfg))


def _boundary_hessian(disk, x, spec):
    """The boundary integral ``potential_hessian`` takes off the closed-form routes."""
    dk = pot._hessian_kernel(spec)

    def integrand(d, n_ds):
        w = dk(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        return (w[:, None, None] * d[:, :, None] * n_ds[:, None, :]).reshape(-1, 4)

    H = -pot._boundary_integral(disk, x, integrand, TIGHT).reshape(2, 2)
    return 0.5 * (H + H.T)


def _richardson_hessian(disk, x, spec, h):
    """One Richardson step on central differences of the gradient."""
    def central(step):
        H = np.empty((2, 2))
        for j, e in enumerate(np.eye(2)):
            H[:, j] = (potential_gradient(disk, x + step * e, spec)
                       - potential_gradient(disk, x - step * e, spec)) / (2 * step)
        return 0.5 * (H + H.T)

    return (4 * central(h / 2) - central(h)) / 3


DISK = Disk([0.3, -0.2], 1.5)
SPECS = [Riesz(a) for a in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 20.0)] + [Poisson(0.5),
                                                                          Heat(0.2)]


@pytest.mark.parametrize("q", [0.0, 1e-9, 0.5, 0.999999, 1.000001, 3.0])
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_disk_route_matches_quadrature(q, spec):
    # a RuntimeWarning fails the test (pyproject's filterwarnings)
    x = DISK.center + q * DISK.radius * np.array([0.6, -0.8])
    assert DISK.route(classify_location(DISK, x)) == "disk"
    got_value = potential(DISK, x, spec).value
    got_grad = potential_gradient(DISK, x, spec)
    got_hess = potential_hessian(DISK, x, spec)
    if abs(q - 1) < 1e-3 and isinstance(spec, Riesz) and spec.alpha <= 2:
        # 1e-6 R from the rim the kernels of orders up to 2 peak on arcs that
        # the quadratures resolve only to their default tolerance, and the
        # boundary integral of the Hessian's sharper kernel not at all: take
        # differences of the closed-form gradient there (rounding of x +- h
        # limits them to about 1e-7)
        (value, grad), tol = _volume_oracles(DISK, x, spec, DEFAULT_CONFIG), 1e-9
        hess, hess_tol = _richardson_hessian(DISK, x, spec, 1e-9 * DISK.radius), 1e-6
    else:
        (value, grad), tol = _volume_oracles(DISK, x, spec, TIGHT), 1e-11
        hess, hess_tol = _boundary_hessian(DISK, x, spec), 1e-10
    assert got_value == pytest.approx(value, rel=tol, abs=0)
    # near the center the quadratures resolve the gradient to a share of the
    # value's scale, not of the vanishing gradient
    scale = max(np.abs(grad).max(), abs(value) / DISK.radius)
    assert np.abs(got_grad - grad).max() < tol * scale
    assert q > 0 or np.all(got_grad == 0)
    assert _rel_err(got_hess, hess) < hess_tol


def test_boundary_band_stays_on_quadrature():
    x = DISK.center + DISK.radius * (1 + 1e-10) * np.array([0.6, -0.8])
    loc = classify_location(DISK, x)
    assert loc == "boundary" and DISK.route(loc) == "angular"
