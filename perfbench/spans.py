"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces each traced public function of ``radialcenters``
with a wrapper, in every module namespace that binds it (so that calls made
through names other modules imported, such as ``potentials.adaptive_gk`` or
``balance.brentq``, are seen too).  ``Tracer.uninstall`` puts the original
objects back, so untraced passes run the program unchanged.

Each wrapper records a span (name, start, end, parent, operation id) in
memory.  Self time is a span's duration minus the durations of its direct
children.  Counts are kept at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# span name -> [(module attribute path, function name), ...]
TRACED = {
    "quadrature.adaptive_gk": [("quadrature", "adaptive_gk")],
    "quadrature.route.angular": [("quadrature", "integrate_angular"),
                                 ("quadrature", "integrate_angular_vector")],
    "quadrature.route.fan": [("quadrature", "fan_integral"),
                             ("quadrature", "fan_integral_vector")],
    "quadrature.route.polygon_2d": [("quadrature", "integrate_polygon")],
    "quadrature.route.disk_exterior": [("quadrature", "disk_exterior_integral"),
                                       ("quadrature", "disk_exterior_integral_vector")],
    "potentials.value": [("potentials", "riesz_value"), ("potentials", "poisson_value"),
                         ("potentials", "heat_value")],
    "potentials.gradient": [("potentials", "riesz_gradient"),
                            ("potentials", "poisson_gradient"),
                            ("potentials", "heat_gradient")],
    "geometry.radial_function_many": [("geometry", "radial_function_many"),
                                      ("balance.RadialArcBody", "radial_function_many")],
    "geometry.derived": [("geometry", "diameter"), ("geometry", "is_convex"),
                         ("geometry", "centroid")],
    "geometry.transformed": [("geometry", "transformed")],
    "geometry.membership": [("geometry", "contains"), ("geometry", "boundary_distance")],
    "geometry.circle_clip": [("geometry", "circle_clip")],
    "centers.find_center": [("centers", "find_center")],
    "centers.ascend": [("centers", "ascend")],
    "centers.trace_locus": [("centers", "trace_locus")],
    "centers.limit_diagnostics": [("centers", "limit_diagnostics")],
    "centers.multistart_seeds": [("centers", "multistart_seeds")],
    "balance.report": [("balance", "balance_report")],
    "balance.residual": [("balance", "vector_residual")],
    "balance.classify": [("balance", "classify_polygon")],
    "balance.equivalence": [("balance", "equivalence_check")],
    "balance.symmetry": [("balance", "symmetry_search")],
    "balance.brentq": [("balance", "brentq")],
    "cli.main": [("cli", "main")],
    "svg.render": [("svg", "render_body"), ("svg", "render_locus"),
                   ("svg", "render_balance_spectrum")],
    "concavity.check": [("concavity", "power_mean"), ("concavity", "segment_concavity"),
                        ("concavity", "second_derivative_criterion")],
}

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = [
    ("quadrature.panels", "count"),
    ("quadrature.adaptive_gk.calls", "count"),
    ("quadrature.adaptive_gk.self_s", "s"),
    ("quadrature.route.angular.calls", "count"),
    ("quadrature.route.angular.self_s", "s"),
    ("quadrature.route.fan.calls", "count"),
    ("quadrature.route.fan.self_s", "s"),
    ("quadrature.route.polygon_2d.calls", "count"),
    ("quadrature.route.polygon_2d.self_s", "s"),
    ("quadrature.route.disk_exterior.calls", "count"),
    ("quadrature.route.disk_exterior.self_s", "s"),
    ("potentials.value.calls", "count"),
    ("potentials.value.self_s", "s"),
    ("potentials.gradient.calls", "count"),
    ("potentials.gradient.self_s", "s"),
    ("potentials.panels_per_value", "panels/call"),
    ("potentials.panels_per_gradient", "panels/call"),
    ("geometry.radial_function_many.calls", "count"),
    ("geometry.radial_function_many.self_s", "s"),
    ("geometry.derived.calls", "count"),
    ("geometry.transformed.calls", "count"),
    ("geometry.transformed.self_s", "s"),
    ("geometry.membership.calls", "count"),
    ("geometry.circle_clip.calls", "count"),
    ("geometry.circle_clip.self_s", "s"),
    ("centers.ascend.calls", "count"),
    ("centers.iterations", "count"),
    ("centers.gradient_calls_per_iteration", "calls/iter"),
    ("centers.value_calls_per_iteration", "calls/iter"),
    ("centers.self_s", "s"),
    ("balance.circles.calls", "count"),
    ("balance.radii", "count"),
    ("balance.brentq.calls", "count"),
    ("balance.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("svg.self_s", "s"),
    ("concavity.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in
                                    ("geometry", "quadrature", "potentials", "centers",
                                     "balance", "concavity", "cli", "svg")]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self._stack: list[list] = []       # [name, start, child_time, span index]
        self.op_id = 0

    def _enter(self, name: str):
        self.counts[name + ".calls"] += 1
        self.active[name] += 1
        self.active[name.split(".", 1)[0]] += 1
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)

    def _exit(self, name: str):
        end = time.perf_counter()
        _, start, child, idx = self._stack.pop()
        dur = end - start
        self.self_time[name] += dur - child
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[idx] = (name, start, end, parent, self.op_id)
        self.active[name] -= 1
        self.active[name.split(".", 1)[0]] -= 1

    def _wrap(self, name: str, fn):
        tracer = self
        post = _POST_HOOKS.get(name)

        if name == "quadrature.adaptive_gk":
            def wrapper(f, *args, **kwargs):
                def counted(x):
                    tracer.counts["quadrature.panels"] += 1
                    if tracer.active["potentials.value"]:
                        tracer.counts["panels.in_value"] += 1
                    elif tracer.active["potentials.gradient"]:
                        tracer.counts["panels.in_gradient"] += 1
                    return f(x)
                tracer._enter(name)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._exit(name)
            return wrapper

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            if tracer.active["centers.ascend"] and name.startswith("potentials."):
                tracer.counts[name + ".in_ascend"] += 1
            if name == "geometry.circle_clip" and tracer.active["balance"]:
                tracer.counts["balance.circles.calls"] += 1
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if post is not None:
                    post(tracer, None, exc)
                raise
            finally:
                tracer._exit(name)
            if post is not None:
                post(tracer, out, None)
            return out
        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self):
        if self._patches:
            return
        for name, targets in TRACED.items():
            for owner_path, attr in targets:
                owner = self.package
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                wrapper = self._wrap(name, orig)
                holders = [owner] if isinstance(owner, type) else self.modules
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            self._patches.append((holder, key, orig))
                            setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches = []

    # -- per-layer metrics --------------------------------------------------

    def layer_counts(self) -> dict:
        c = self.counts
        iters = c["centers.iterations"]
        out = {
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.adaptive_gk.calls": c["quadrature.adaptive_gk.calls"],
            "potentials.value.calls": c["potentials.value.calls"],
            "potentials.gradient.calls": c["potentials.gradient.calls"],
            "potentials.panels_per_value":
                c["panels.in_value"] / c["potentials.value.calls"]
                if c["potentials.value.calls"] else 0.0,
            "potentials.panels_per_gradient":
                c["panels.in_gradient"] / c["potentials.gradient.calls"]
                if c["potentials.gradient.calls"] else 0.0,
            "geometry.radial_function_many.calls": c["geometry.radial_function_many.calls"],
            "geometry.derived.calls": c["geometry.derived.calls"],
            "geometry.transformed.calls": c["geometry.transformed.calls"],
            "geometry.membership.calls": c["geometry.membership.calls"],
            "geometry.circle_clip.calls": c["geometry.circle_clip.calls"],
            "centers.ascend.calls": c["centers.ascend.calls"],
            "centers.iterations": iters,
            "centers.gradient_calls_per_iteration":
                c["potentials.gradient.in_ascend"] / iters if iters else 0.0,
            "centers.value_calls_per_iteration":
                c["potentials.value.in_ascend"] / iters if iters else 0.0,
            "balance.circles.calls": c["balance.circles.calls"],
            "balance.radii": c["balance.radii"],
            "balance.brentq.calls": c["balance.brentq.calls"],
            "cli.main.calls": c["cli.main.calls"],
        }
        for route in ("angular", "fan", "polygon_2d", "disk_exterior"):
            out[f"quadrature.route.{route}.calls"] = c[f"quadrature.route.{route}.calls"]
        return out

    def layer_times(self) -> dict:
        st = self.self_time

        def layer(prefix):
            return sum((v for k, v in st.items() if k.startswith(prefix)), 0.0)

        out = {
            "quadrature.adaptive_gk.self_s": st["quadrature.adaptive_gk"],
            "potentials.value.self_s": st["potentials.value"],
            "potentials.gradient.self_s": st["potentials.gradient"],
            "geometry.radial_function_many.self_s": st["geometry.radial_function_many"],
            "geometry.transformed.self_s": st["geometry.transformed"],
            "geometry.circle_clip.self_s": st["geometry.circle_clip"],
            "centers.self_s": layer("centers."),
            "balance.self_s": layer("balance."),
            "cli.self_s": st["cli.main"],
            "svg.self_s": st["svg.render"],
            "concavity.self_s": st["concavity.check"],
        }
        for route in ("angular", "fan", "polygon_2d", "disk_exterior"):
            out[f"quadrature.route.{route}.self_s"] = st[f"quadrature.route.{route}"]
        return out


def _post_ascend(tracer, out, exc):
    if out is not None:
        tracer.counts["centers.iterations"] += int(out[3])
    elif getattr(exc, "iterations", None) is not None:
        tracer.counts["centers.iterations"] += int(exc.iterations)


def _post_report(tracer, out, exc):
    if out is not None:
        tracer.counts["balance.radii"] += len(out.radii)


_POST_HOOKS = {"centers.ascend": _post_ascend, "balance.report": _post_report}
