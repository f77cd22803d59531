"""SVG drawings: outlines drawn from the fewest points that give them."""

import re

import numpy as np
import pytest

from radialcenters import svg
from radialcenters.balance import generate_asymmetric_balanced
from radialcenters.geometry import Disk, Polygon

from conftest import make_square, make_tri345

LSHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
LOCUS = np.array([[0.1, 0.2], [0.15, 0.1], [0.0, 0.05]])


def _outline_points(text: str) -> np.ndarray:
    """The points of the first path of a drawing, in world coordinates."""
    d = re.search(r'<path d="([^"]*)"', text).group(1)
    xy = [float(v) for v in re.findall(r"-?\d+\.\d+", d)]
    return np.array(xy).reshape(-1, 2) * [1.0, -1.0]


def _drawn_from_all_samples(body, render) -> str:
    """What ``render`` drew when every one of 720 boundary samples was a path point."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svg, "_outline", lambda b: b.boundary_polyline(720))
        return render(body)


@pytest.mark.parametrize("make", [make_square, make_tri345, lambda: Polygon(LSHAPE),
                                  lambda: Polygon(np.array(LSHAPE) * 1e3 + [5e4, -2e4])],
                         ids=["square", "tri345", "lshape", "lshape_far"])
def test_polygon_outline_is_its_vertices(make):
    body = make()
    for text in (svg.render_body(body, extra_points=[body.centroid()]),
                 svg.render_locus(body, LOCUS)):
        assert np.array_equal(_outline_points(text), np.round(body.vertices, 6))


@pytest.mark.parametrize("make", [lambda: Disk([0.3, -0.2], 1.7), generate_asymmetric_balanced],
                         ids=["disk", "asym"])
def test_curved_outline_keeps_every_sample(make):
    body = make()
    for render in (lambda b: svg.render_body(b, extra_points=[np.array([0.1, 0.2])]),
                   lambda b: svg.render_locus(b, LOCUS)):
        text = render(body)
        assert len(_outline_points(text)) == 720
        assert text == _drawn_from_all_samples(body, render)
