"""Minimal SVG emission: body outlines with locus or residual-spectrum overlays.

Plain string assembly, no drawing dependencies; world coordinates are mapped
into a padded viewport with the y axis pointing up.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .geometry import boundary_polyline

__all__ = ["SvgCanvas", "render_body", "render_locus", "render_balance_spectrum"]


class SvgCanvas:
    def __init__(self, stroke_width: float = 0.004):
        self._elements: list[str] = []
        self._min = np.array([math.inf, math.inf])
        self._max = np.array([-math.inf, -math.inf])
        self.stroke_width = stroke_width

    def _track(self, pts: np.ndarray):
        self._min = np.minimum(self._min, pts.min(axis=0))
        self._max = np.maximum(self._max, pts.max(axis=0))

    @staticmethod
    def _fmt(x: float) -> str:
        return f"{x:.6f}"

    def _path(self, pts: np.ndarray, closed: bool) -> str:
        cmds = [f"M {self._fmt(pts[0, 0])} {self._fmt(-pts[0, 1])}"]
        cmds += [f"L {self._fmt(p[0])} {self._fmt(-p[1])}" for p in pts[1:]]
        if closed:
            cmds.append("Z")
        return " ".join(cmds)

    def polygon(self, pts, stroke="black", fill="none"):
        pts = np.asarray(pts, dtype=float)
        self._track(pts)
        self._elements.append(
            f'<path d="{self._path(pts, True)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{self.stroke_width:.6f}"/>')

    def polyline(self, pts, stroke="crimson"):
        pts = np.asarray(pts, dtype=float)
        self._track(pts)
        self._elements.append(
            f'<path d="{self._path(pts, False)}" fill="none" stroke="{stroke}" '
            f'stroke-width="{self.stroke_width:.6f}"/>')

    def circle(self, center, r, stroke="black", fill="none"):
        center = np.asarray(center, dtype=float)
        self._track(center[None, :] + np.array([[r, r], [-r, -r]]))
        self._elements.append(
            f'<circle cx="{self._fmt(center[0])}" cy="{self._fmt(-center[1])}" '
            f'r="{self._fmt(r)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{self.stroke_width:.6f}"/>')

    def dot(self, center, r, fill="crimson"):
        center = np.asarray(center, dtype=float)
        self._track(center[None, :])
        self._elements.append(
            f'<circle cx="{self._fmt(center[0])}" cy="{self._fmt(-center[1])}" '
            f'r="{self._fmt(r)}" fill="{fill}" stroke="none"/>')

    def bar(self, x, width, height, base=0.0, fill="steelblue"):
        self._track(np.array([[x, base], [x + width, base + height]]))
        y_top = -(base + max(height, 0.0))
        self._elements.append(
            f'<rect x="{self._fmt(x)}" y="{self._fmt(y_top)}" width="{self._fmt(width)}" '
            f'height="{self._fmt(abs(height))}" fill="{fill}"/>')

    def to_string(self, pad_frac: float = 0.08) -> str:
        if not np.all(np.isfinite(self._min)):
            self._min = np.zeros(2)
            self._max = np.ones(2)
        span = np.maximum(self._max - self._min, 1e-9)
        pad = float(span.max()) * pad_frac
        x0, y0 = self._min - pad
        x1, y1 = self._max + pad
        w, h = x1 - x0, y1 - y0
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
            f'height="{640 * h / w:.0f}" viewBox="{self._fmt(x0)} {self._fmt(-y1)} '
            f'{self._fmt(w)} {self._fmt(h)}">\n')
        return header + "\n".join(self._elements) + "\n</svg>\n"


def render_body(body, extra_points: Iterable = ()) -> str:
    canvas = SvgCanvas(stroke_width=_stroke_for(body))
    canvas.polygon(_outline(body))
    for p in extra_points:
        canvas.dot(p, 2 * canvas.stroke_width)
    return canvas.to_string()


def render_locus(body, points: np.ndarray) -> str:
    canvas = SvgCanvas(stroke_width=_stroke_for(body))
    canvas.polygon(_outline(body))
    pts = np.asarray(points, dtype=float)
    if len(pts) > 1:
        canvas.polyline(pts)
    canvas.dot(pts[0], 2.5 * canvas.stroke_width, fill="forestgreen")
    canvas.dot(pts[-1], 2.5 * canvas.stroke_width, fill="crimson")
    return canvas.to_string()


def render_balance_spectrum(radii: np.ndarray, normalized_residuals: np.ndarray,
                            threshold: Optional[float] = None) -> str:
    canvas = SvgCanvas(stroke_width=0.002)
    radii = np.asarray(radii, dtype=float)
    vals = np.asarray(normalized_residuals, dtype=float)
    top = float(vals.max()) if vals.size and vals.max() > 0 else 1.0
    width = 1.0 / max(len(radii), 1)
    for i, v in enumerate(vals):
        canvas.bar(i * width, 0.9 * width, v / top)
    if threshold is not None and top > 0:
        y = threshold / top
        canvas.polyline(np.array([[0.0, y], [1.0, y]]), stroke="crimson")
    return canvas.to_string()


def _outline(body) -> np.ndarray:
    """720 boundary samples less each one that lies, to rounding, on the
    straight segment between its two neighbours: a polygon's outline is its
    vertices, a curve keeps every sample."""
    pts = boundary_polyline(body, 720)
    prev = np.roll(pts, 1, axis=0)
    chord, off = np.roll(pts, -1, axis=0) - prev, pts - prev
    c2 = np.sum(chord * chord, axis=1)
    along = np.sum(chord * off, axis=1)
    cross = chord[:, 0] * off[:, 1] - chord[:, 1] * off[:, 0]
    straight = (np.abs(cross) <= 1e-9 * c2) & (along > 0) & (along < c2)
    return pts[~straight]


def _stroke_for(body) -> float:
    from .geometry import diameter
    return 0.004 * diameter(body)
