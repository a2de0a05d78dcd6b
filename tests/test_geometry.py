import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypsurf.geometry import (
    AnkCoords,
    BoundaryPoint,
    DiscPoint,
    GroupElement,
    HalfPlanePoint,
    ank_compose,
    ank_decompose,
    boundary_angle_derivative,
    busemann,
    cayley,
    cayley_inverse,
    flow,
    group_to_tangent,
    halfplane_distance,
    hyp_distance,
    mobius_apply,
    point_at_distance,
    poisson_weight,
    tangent_to_group,
)

RNG = np.random.default_rng(20260810)


def random_element(rng=RNG):
    s, u = rng.uniform(-2, 2, size=2)
    th = rng.uniform(0, 2 * np.pi)
    return ank_compose(AnkCoords(s, u, th))


def random_point(rng=RNG, rmax=0.9):
    r = math.sqrt(rng.uniform(0, rmax**2))
    phi = rng.uniform(0, 2 * np.pi)
    return DiscPoint(r * math.cos(phi), r * math.sin(phi))


disc_points = st.builds(
    lambda r, phi: DiscPoint(math.sqrt(r) * math.cos(phi), math.sqrt(r) * math.sin(phi)),
    st.floats(0, 0.81), st.floats(0, 2 * math.pi),
)
elements = st.builds(
    lambda s, u, th: ank_compose(AnkCoords(s, u, th)),
    st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 2 * math.pi),
)


class TestDomainTypes:
    def test_disc_point_rejects_boundary(self):
        with pytest.raises(ValueError):
            DiscPoint(1.0 - 1e-13, 0.0)
        DiscPoint(0.999, 0.0)  # fine

    def test_boundary_angle_normalized(self):
        assert 0 <= BoundaryPoint(-0.5).angle < 2 * math.pi
        assert BoundaryPoint(2 * math.pi + 0.25).angle == pytest.approx(0.25)

    def test_projective_sign(self):
        g = GroupElement(-math.cosh(0.3), -math.sinh(0.3))
        h = GroupElement(math.cosh(0.3), math.sinh(0.3))
        assert g.almost_equal(h, 1e-14)

    def test_determinant_renormalized(self):
        g = GroupElement(2.0 * math.cosh(0.7), 2.0 * math.sinh(0.7))
        assert abs(abs(g.alpha) ** 2 - abs(g.beta) ** 2 - 1.0) < 1e-12


class TestMobius:
    def test_identity(self):
        z = DiscPoint(0.3, -0.2)
        assert mobius_apply(GroupElement.identity(), z).z == pytest.approx(z.z)

    def test_rotation_half_turn(self):
        g = GroupElement.rotation(math.pi)
        assert mobius_apply(g, DiscPoint(0.5, 0.0)).z == pytest.approx(-0.5)

    def test_isometry_random(self):
        for _ in range(200):
            g = random_element()
            z, w = random_point(), random_point()
            d0 = hyp_distance(z, w)
            d1 = hyp_distance(mobius_apply(g, z), mobius_apply(g, w))
            assert abs(d0 - d1) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(elements, disc_points, disc_points)
    def test_isometry_property(self, g, z, w):
        assert hyp_distance(mobius_apply(g, z), mobius_apply(g, w)) == pytest.approx(
            hyp_distance(z, w), abs=1e-10)

    def test_boundary_to_boundary(self):
        g = random_element()
        b = BoundaryPoint(1.2345)
        gb = mobius_apply(g, b)
        assert isinstance(gb, BoundaryPoint)


class TestDistance:
    def test_zero(self):
        assert hyp_distance(DiscPoint(0, 0), DiscPoint(0, 0)) == 0.0

    def test_radial_arclength(self):
        # d(0, tanh(1/2) e^{i phi}) = 1 = integral of 2 dr/(1-r^2) to tanh(1/2)
        r = math.tanh(0.5)
        for phi in [0.0, 1.0, 2.5]:
            z = DiscPoint(r * math.cos(phi), r * math.sin(phi))
            assert hyp_distance(DiscPoint(0, 0), z) == pytest.approx(1.0, abs=1e-14)

    def test_tiny_distances_no_cancellation(self):
        z = DiscPoint(0.9, 0.0)
        w = DiscPoint(0.9 + 1e-9, 0.0)
        d = hyp_distance(z, w)
        assert d == pytest.approx(2e-9 / (1 - 0.81), rel=1e-5)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a, b, c = (random_point(rng) for _ in range(3))
            assert hyp_distance(a, c) <= hyp_distance(a, b) + hyp_distance(b, c) + 1e-12


class TestBusemann:
    def test_origin(self):
        for ang in [0.0, 1.0, 3.0]:
            assert busemann(DiscPoint(0, 0), BoundaryPoint(ang)) == 0.0

    def test_cocycle(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            g = random_element(rng)
            z = random_point(rng)
            b = BoundaryPoint(rng.uniform(0, 2 * np.pi))
            lhs = busemann(mobius_apply(g, z), mobius_apply(g, b))
            rhs = (busemann(z, b)
                   + busemann(mobius_apply(g, DiscPoint(0, 0)), mobius_apply(g, b)))
            assert abs(lhs - rhs) < 1e-10

    def test_geodesic_flow_value(self):
        # <a_s * 0, +1> = s
        for s in [0.5, 1.0, 2.0, -1.5]:
            z = mobius_apply(GroupElement.geodesic(s), DiscPoint(0, 0))
            assert busemann(z, BoundaryPoint(0.0)) == pytest.approx(s, abs=1e-12)


class TestPoisson:
    def test_origin_weight(self):
        assert poisson_weight(DiscPoint(0, 0), BoundaryPoint(2.0)) == pytest.approx(1.0)

    def test_one_form_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            g = random_element(rng)
            z = random_point(rng)
            b = BoundaryPoint(rng.uniform(0, 2 * np.pi))
            lhs = (poisson_weight(mobius_apply(g, z), mobius_apply(g, b))
                   * boundary_angle_derivative(g, b))
            assert abs(lhs - poisson_weight(z, b)) < 1e-12

    def test_boundary_angle_derivative_matches_difference(self):
        # the closed form |g'(b)| against a central difference of the image angle
        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(100):
            g = random_element(rng)
            b = BoundaryPoint(rng.uniform(0, 2 * np.pi))
            lo = mobius_apply(g, BoundaryPoint(b.angle - step)).angle
            hi = mobius_apply(g, BoundaryPoint(b.angle + step)).angle
            diff = (hi - lo - 2 * np.pi * round((hi - lo) / (2 * np.pi))) / (2 * step)
            assert boundary_angle_derivative(g, b) == pytest.approx(diff, rel=1e-6)

    def test_total_mass(self):
        # integral of P(z, b) db over the circle is 2 pi
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = random_point(rng)
            n = 4096
            theta = 2 * np.pi * np.arange(n) / n
            vals = (1 - abs(z.z) ** 2) / np.abs(z.z - np.exp(1j * theta)) ** 2
            assert np.sum(vals) * 2 * np.pi / n == pytest.approx(2 * np.pi, abs=1e-8)


class TestAnk:
    def test_identity(self):
        c = ank_decompose(GroupElement.identity())
        assert (c.s, c.u, c.theta) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            g = random_element(rng)
            h = ank_compose(ank_decompose(g))
            assert g.almost_equal(h, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(elements)
    def test_round_trip_property(self, g):
        assert g.almost_equal(ank_compose(ank_decompose(g)), 1e-9)

    def test_geodesic_moves_at_unit_speed(self):
        for s in [0.3, 1.7, 2.9]:
            g = ank_compose(AnkCoords(s, 0.0, 0.0))
            z = mobius_apply(g, DiscPoint(0, 0))
            assert hyp_distance(DiscPoint(0, 0), z) == pytest.approx(s, abs=1e-12)

    def test_cosh_distance_formula(self):
        for s in np.linspace(-3, 3, 13):
            for u in np.linspace(-3, 3, 13):
                g = GroupElement.geodesic(s) @ GroupElement.horocycle(u)
                z = mobius_apply(g, DiscPoint(0, 0))
                lhs = math.cosh(hyp_distance(DiscPoint(0, 0), z))
                rhs = (u * u * math.exp(s) + 2 * math.cosh(s)) / 2.0
                assert abs(lhs - rhs) < 1e-10


class TestFlow:
    def test_flow_and_back(self):
        g = random_element()
        h = flow(flow(g, "geodesic", 1.3), "geodesic", -1.3)
        assert g.almost_equal(h, 1e-12)

    def test_one_parameter(self):
        g = random_element()
        lhs = flow(flow(g, "horocycle", 0.7), "horocycle", -1.9)
        rhs = flow(g, "horocycle", -1.2)
        assert lhs.almost_equal(rhs, 1e-10)

    def test_full_rotation_projective(self):
        g = random_element()
        assert flow(g, "rotation", 2 * math.pi).almost_equal(g, 1e-12)


class TestCayley:
    def test_base_point(self):
        assert cayley(HalfPlanePoint(0, 1)).z == pytest.approx(0.0)

    def test_rejects_lower_half(self):
        with pytest.raises(ValueError):
            cayley(HalfPlanePoint(0.2, -0.1))

    def test_distance_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = HalfPlanePoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            q = HalfPlanePoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            assert abs(halfplane_distance(p, q)
                       - hyp_distance(cayley(p), cayley(q))) < 1e-10

    def test_round_trip(self):
        p = HalfPlanePoint(0.37, 2.11)
        q = cayley_inverse(cayley(p))
        assert (q.x, q.y) == pytest.approx((p.x, p.y), abs=1e-12)


class TestUnitTangent:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            g = random_element(rng)
            h = tangent_to_group(group_to_tangent(g))
            assert g.almost_equal(h, 1e-9)

    def test_base_vector(self):
        v = group_to_tangent(GroupElement.identity())
        assert v.base.z == pytest.approx(0.0)
        assert v.dir.angle == pytest.approx(0.0)


def test_point_at_distance():
    z = point_at_distance(2.0, 0.5)
    assert hyp_distance(DiscPoint(0, 0), z) == pytest.approx(2.0, abs=1e-12)
