import math

import numpy as np
import pytest

from hypsurf.errors import QuadratureNotConverged
from hypsurf.geometry import _dist_array
from hypsurf.quadrature import (ball_rule, composite_gl, gauss_legendre, refined,
                                sqrt_edge_split)


class TestCompositeGL:
    def test_equals_the_panels_one_by_one(self):
        a, b, n_panels, n = -2.0, 7.3, 13, 5
        edges = np.linspace(a, b, n_panels + 1)
        panels = [gauss_legendre(lo, hi, n) for lo, hi in zip(edges[:-1], edges[1:])]
        x, w = composite_gl(a, b, n_panels, n)
        assert x.tobytes() == np.concatenate([p[0] for p in panels]).tobytes()
        assert w.tobytes() == np.concatenate([p[1] for p in panels]).tobytes()

    def test_integrates_a_polynomial_exactly(self):
        x, w = composite_gl(0.0, 3.0, 4, 3)
        assert float(np.sum(x ** 5 * w)) == pytest.approx(3.0 ** 6 / 6.0, rel=1e-14)


class TestSqrtEdgeSplit:
    @pytest.mark.parametrize("c, want", [(0.5, 0.25), (2.0, 1.0), (7.5, 6.5)])
    def test_hands_over_at_half_or_one_before_the_edge(self, c, want):
        assert sqrt_edge_split(c) == want

    def test_scalar_and_array_agree(self):
        cs = np.array([0.1, 1.9, 2.0, 40.0])
        assert sqrt_edge_split(cs).tolist() == [float(sqrt_edge_split(c)) for c in cs]


class TestRefined:
    def test_returns_the_finer_rule(self):
        calls = []

        def rule(m):
            calls.append(m)
            return np.array([1.0, 2.0]) + 1e-12 / m

        assert refined(rule, 1e-9, "x").tolist() == [1.0 + 5e-13, 2.0 + 5e-13]
        assert calls == [1, 2]

    def test_raises_with_its_message(self):
        with pytest.raises(QuadratureNotConverged, match="toy rule did not stabilize"):
            refined(lambda m: np.array([1.0 / m]), 1e-3, "toy rule did not stabilize")


class TestBallRule:
    @pytest.mark.parametrize("z", [0j, 0.4 - 0.3j])
    def test_area_and_distances(self, z):
        R = 1.7
        pts, t, w = ball_rule(z, R, 24, 32)
        assert pts.shape == t.shape == w.shape == (24 * 32,)
        assert float(np.sum(w)) == pytest.approx(2.0 * math.pi * (math.cosh(R) - 1.0),
                                                 rel=1e-13)
        assert np.max(np.abs(_dist_array(z, pts) - t)) < 1e-12

    def test_array_of_centres(self):
        zs = np.array([[0.0, 0.2j], [-0.5, 0.1 + 0.1j]])
        pts, _, _ = ball_rule(zs, 0.8, 6, 8)
        assert pts.shape == (2, 2, 48)
        assert pts[1, 0].tobytes() == ball_rule(-0.5, 0.8, 6, 8)[0].tobytes()
