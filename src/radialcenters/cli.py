"""Command-line interface.

Subcommands: ``potential``, ``center``, ``locus``, ``balance``, ``classify``,
``generate-asym``, ``limits``, ``concavity-check``.  Outputs are
machine-readable (JSON or CSV) or SVG drawings; results are deterministic
for a fixed configuration.  Domain errors exit with status 1 and a
structured JSON object on standard error; configuration errors exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import balance as bal
from . import centers as ctr
from . import geometry as geo
from . import potentials as pot
from . import svg as svgmod
from .errors import RadialCentersError
from .quadrature import QuadratureConfig


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = _render(args.handler(args), args)
    except (RadialCentersError, ValueError, OSError, json.JSONDecodeError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1
    _emit(text, args)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged and
    gives each call a new namespace."""
    return _build_parser()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialcenters",
        description="Potential-theoretic centers and balance-law analysis of planar bodies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, body=True):
        if body:
            p.add_argument("--body", required=True,
                           help="path to a body JSON file ({\"vertices\": [[x,y],...]}, disk, or radial_arc)")
        p.add_argument("--out", help="output path (stdout when omitted); written atomically")
        p.add_argument("--format", choices=["json", "csv", "svg"], default="json")
        p.add_argument("--tol", type=float, default=None,
                       help="override quadrature relative tolerance")

    p = sub.add_parser("potential", help="potential value and gradient at a point")
    common(p)
    p.add_argument("--family", choices=pot.FAMILY_NAMES, required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--at", required=True, help="x,y or 'centroid'")
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("center", help="locate the potential maximum")
    common(p)
    p.add_argument("--family", choices=pot.FAMILY_NAMES, required=True)
    p.add_argument("--param", type=float, required=True)
    p.set_defaults(handler=_cmd_center)

    p = sub.add_parser("locus", help="trace the center locus over a parameter range")
    common(p)
    p.add_argument("--family", choices=pot.FAMILY_NAMES, required=True)
    p.add_argument("--range", required=True, dest="prange", help="lo:hi:n")
    p.set_defaults(handler=_cmd_locus)

    p = sub.add_parser("balance", help="balance-law residual spectrum at a point")
    common(p)
    p.add_argument("--at", default="centroid", help="x,y or 'centroid'")
    p.add_argument("--n-radii", type=int, default=256)
    p.set_defaults(handler=_cmd_balance)

    p = sub.add_parser("classify", help="balanced-shape classification of a triangle or quadrangle")
    common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("generate-asym", help="generate the symmetry-free balanced convex body")
    common(p, body=False)
    p.add_argument("--r-max", type=float, default=1.04)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("limits", help="distances of centers to their parameter limits")
    common(p)
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("concavity-check", help="power-concavity battery on a convex body")
    common(p)
    p.set_defaults(handler=_cmd_concavity)
    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_body(args):
    with open(args.body) as fh:
        return geo.body_from_dict(json.load(fh))


def _point_arg(spec: str, body):
    if spec.strip() == "centroid":
        return geo.centroid(body)
    try:
        x, y = (float(t) for t in spec.split(","))
    except Exception:
        raise ValueError(f"cannot parse point {spec!r}; expected 'x,y' or 'centroid'")
    return np.array([x, y])


def _cfg(args):
    if args.tol is None:
        return None
    return QuadratureConfig(rel_tol=args.tol, abs_tol=args.tol * 1e-2)


def _render(result, args) -> str:
    """The output in the format asked for.  A handler returns its JSON
    payload and, for each other format it has, a function that renders it,
    so that only the format asked for is rendered."""
    if args.format == "json":
        return json.dumps(result["json"], sort_keys=True, indent=2) + "\n"
    if args.format not in result:
        raise ValueError(f"command {args.command!r} has no {args.format.upper()} form")
    return result[args.format]()


def _emit(text: str, args):
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _point_list(p) -> list:
    return [float(p[0]), float(p[1])]


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_potential(args):
    body = _load_body(args)
    spec = pot.make_spec(args.family, args.param)
    x = _point_arg(args.at, body)
    cfg = _cfg(args)
    kwargs = {} if cfg is None else {"cfg": cfg}
    value = pot.potential(body, x, spec, **kwargs)
    grad = pot.potential_gradient(body, x, spec, **kwargs)
    if not (math.isfinite(value.value) and np.isfinite(grad).all()):
        raise ValueError(f"potential or gradient not finite at {_point_list(x)}: "
                         f"value {value.value}, gradient {_point_list(grad)}")
    return {"json": {
        "family": args.family, "param": args.param, "at": _point_list(x),
        "value": value.value, "regime": value.regime, "location": value.location,
        "gradient": _point_list(grad),
    }}


def _cmd_center(args):
    body = _load_body(args)
    spec = pot.make_spec(args.family, args.param)
    res = ctr.find_center(body, spec, _cfg(args))
    payload = {
        "family": args.family, "param": args.param,
        "point": _point_list(res.point), "value": res.value,
        "grad_norm": res.grad_norm, "iterations": res.iterations,
        "regime": res.regime, "uniqueness_guaranteed": res.uniqueness_guaranteed,
    }
    return {"json": payload,
            "svg": lambda: svgmod.render_body(body, extra_points=[res.point])}


def _cmd_locus(args):
    body = _load_body(args)
    try:
        lo, hi, n = args.prange.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except Exception:
        raise ValueError(f"cannot parse range {args.prange!r}; expected lo:hi:n")
    trace = ctr.trace_locus(body, args.family, (lo, hi), n, _cfg(args))
    rows = [{"param": float(p), "x": float(q[0]), "y": float(q[1]), "grad_norm": float(g)}
            for p, q, g in zip(trace.params, trace.points, trace.grad_norms)]
    return {"json": {"family": trace.family, "samples": rows},
            "csv": lambda: "param,x,y,grad_norm\n" + "".join(
                f"{r['param']!r},{r['x']!r},{r['y']!r},{r['grad_norm']!r}\n" for r in rows),
            "svg": lambda: svgmod.render_locus(body, trace.points)}


def _cmd_balance(args):
    body = _load_body(args)
    x = _point_arg(args.at, body)
    report = bal.balance_report(body, x, n_radii=args.n_radii)

    def normalized():
        return [float(np.hypot(*v) / (2 * math.pi * r))
                for v, r in zip(report.residual_vectors, report.radii)]

    return {"json": {
        "candidate": _point_list(report.candidate),
        "balanced": report.balanced,
        "sup_residual": report.sup_residual,
        "radii": [float(r) for r in report.radii],
        "residual_vectors": [_point_list(v) for v in report.residual_vectors],
    }, "csv": lambda: "radius,residual_x,residual_y,normalized\n" + "".join(
        f"{float(r)!r},{float(v[0])!r},{float(v[1])!r},{s!r}\n"
        for r, v, s in zip(report.radii, report.residual_vectors, normalized())),
        "svg": lambda: svgmod.render_balance_spectrum(report.radii, np.array(normalized()),
                                                      threshold=bal.BALANCED_TOL)}


def _cmd_classify(args):
    body = _load_body(args)
    if not isinstance(body, geo.Polygon):
        raise ValueError("classification requires a polygon body")
    result = bal.classify_polygon(body)
    return {"json": {"classification": result.value}}


def _cmd_generate(args):
    body = bal.generate_asymmetric_balanced(r_max=args.r_max)
    return {"json": body.to_dict(), "svg": lambda: svgmod.render_body(body)}


def _cmd_limits(args):
    body = _load_body(args)
    diag = ctr.limit_diagnostics(body)
    return {"json": {
        "diameter": diag.diam,
        "circumcenter": _point_list(diag.circumcenter),
        "centroid": _point_list(diag.centroid),
        "incenter": _point_list(diag.incenter),
        "riesz_vs_circumcenter": [
            {"alpha": a, "point": _point_list(p), "distance": d}
            for a, p, d in diag.riesz],
        "poisson_vs_centroid": [
            {"h": h, "point": _point_list(p), "distance": d}
            for h, p, d in diag.poisson],
        "heat": [
            {"t": t, "point": _point_list(p), "distance_to_centroid": dg,
             "distance_to_incenter": di}
            for t, p, dg, di in diag.heat],
        "monotone": {"riesz": diag.monotone_riesz, "poisson": diag.monotone_poisson,
                     "heat": diag.monotone_heat},
    }}


def _cmd_concavity(args):
    body = _load_body(args)
    if not geo.is_convex(body):
        raise ValueError("concavity battery requires a convex body")
    rng = np.random.default_rng(0x5eed)
    diam = geo.diameter(body)
    g = geo.centroid(body)
    checks = []

    def segments(n, box_scale):
        pts = []
        while len(pts) < 2 * n:
            p = g + (rng.random(2) - 0.5) * box_scale * diam
            if box_scale > 1.0 or geo.contains(body, p):
                pts.append(p)
        return [(pts[2 * i], pts[2 * i + 1]) for i in range(n)]

    h, t = 0.5 * diam, 0.1 * diam * diam
    inv_p = lambda x: 1.0 / pot.poisson_value(body, x, pot.Poisson(h)).value
    log_w = lambda x: math.log(pot.heat_value(body, x, pot.Heat(t)).value)
    segs_out = segments(20, 2.0)
    ok = all(inv_p(0.5 * (a + b)) <= 0.5 * inv_p(a) + 0.5 * inv_p(b) + 1e-12
             for a, b in segs_out)
    checks.append({"name": "inverse_poisson_midpoint_convex", "passed": bool(ok)})
    ok = all(log_w(0.5 * (a + b)) >= 0.5 * log_w(a) + 0.5 * log_w(b) - 1e-12
             for a, b in segs_out)
    checks.append({"name": "log_heat_midpoint_concave", "passed": bool(ok)})
    for alpha in (-1.0, 0.0, 0.5, 1.0):
        f = lambda x: pot.riesz_value(body, x, pot.Riesz(alpha)).value
        ok = all(f(0.5 * (a + b)) >= 0.5 * f(a) + 0.5 * f(b) - 1e-10
                 for a, b in segments(10, 0.5))
        checks.append({"name": f"riesz_alpha_{alpha}_interior_midpoint_concave",
                       "passed": bool(ok)})
    for alpha in (3.0, 4.0):
        f = lambda x: pot.riesz_value(body, x, pot.Riesz(alpha)).value
        ok = all(f(0.5 * (a + b)) >= 0.5 * f(a) + 0.5 * f(b) - 1e-10
                 for a, b in segs_out)
        checks.append({"name": f"riesz_alpha_{alpha}_global_midpoint_concave",
                       "passed": bool(ok)})
    return {"json": {"checks": checks, "all_passed": all(c["passed"] for c in checks)}}


if __name__ == "__main__":
    sys.exit(main())
