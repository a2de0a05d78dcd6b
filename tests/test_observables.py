import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import hypsurf.observables as O
from hypsurf.errors import StencilOutOfDomain
from hypsurf.fuchsian import bolza_group
from hypsurf.geometry import _dist_array
from hypsurf.transforms import PlancherelWeight, SpectralMultiplier, bump_multiplier


@pytest.fixture(scope="module")
def bolza():
    return bolza_group()


def radial_bump(S):
    def psi(t):
        t = np.asarray(t, dtype=float)
        x = t / S
        out = np.zeros_like(t)
        inside = x < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out
    return psi


class TestArrayContract:
    @pytest.mark.parametrize("A", [
        O.multiplication_observable(lambda z: np.cos(3 * np.real(z)), 1.0),
        O.laplacian_observable(),
        O.radial_kernel_observable(radial_bump(0.5), 0.5),
    ], ids=["multiplication", "laplacian", "radial_kernel"])
    def test_array_apply_matches_pointwise(self, A):
        # u carries a trailing axis of two values per point
        def u(w):
            return np.cos(np.multiply.outer(np.real(w) + 2.0 * np.abs(w) ** 2,
                                            [1.0, 2.5]))
        zs = np.array([[0.1 + 0.2j, -0.3j, 0.0j], [0.45 - 0.1j, -0.2 + 0.05j, 0.6j]])
        got = A.apply(u, zs)
        assert got.shape == zs.shape + (2,)
        each = np.array([A.apply(u, z) for z in zs.ravel()]).reshape(got.shape)
        np.testing.assert_allclose(got, each, rtol=1e-12)

    def test_finite_range_apply_in_blocks(self, monkeypatch):
        # points go to the ball rule in blocks; one point a block changes no bit
        A = O.radial_kernel_observable(radial_bump(0.5), 0.5)

        def u(w):
            return np.cos(np.multiply.outer(np.real(w) - np.imag(w) ** 2, [1.0, 3.0, 0.5]))
        zs = np.array([[0.1 + 0.2j, -0.3j, 0.0j], [0.45 - 0.1j, -0.2 + 0.05j, 0.6j]])
        whole = A.apply(u, zs)
        monkeypatch.setattr(O, "_BALL_NODES", 1)
        assert np.array_equal(A.apply(u, zs), whole)


class TestCompleteSymbol:
    def test_multiplication_factors_out(self):
        a = lambda z: np.sin(np.real(z)) + 2.0
        A = O.multiplication_observable(a, sup_bound=3.0)
        for z in [0.1 + 0.2j, -0.4j]:
            for lam in [0.5, 2.0]:
                s = O.complete_symbol(A, z, lam, cmath.exp(0.7j))
                assert s == pytest.approx(a(z), abs=1e-12)

    def test_laplacian_symbol(self):
        A = O.laplacian_observable()
        for z in [0.0 + 0j, 0.3 + 0.2j, -0.5 + 0.1j, 0.6j]:
            for lam in [0.5, 1.5, 3.0]:
                s = O.complete_symbol(A, z, lam, cmath.exp(1.1j))
                assert abs(s - (0.25 + lam * lam)) < 1e-5

    def test_radial_kernel_symbol_vs_direct_quadrature(self):
        S = 0.8
        psi = radial_bump(S)
        A = O.radial_kernel_observable(psi, S)
        z, lam, b = 0.2 + 0.1j, 1.3, cmath.exp(0.4j)
        got = O.complete_symbol(A, z, lam, b)
        # independent oracle: geodesic polar quadrature at doubled resolution
        from hypsurf.geometry import DiscPoint, GroupElement, mobius_apply_complex
        from hypsurf.quadrature import gauss_legendre
        trans = GroupElement.translation_to(DiscPoint(z.real, z.imag))
        t, wt = gauss_legendre(0.0, S, 160)
        bus_z = math.log1p(-abs(z) ** 2) - 2.0 * math.log(abs(z - b))
        acc = 0.0 + 0.0j
        n_ang = 512
        for i, tt in enumerate(t):
            for ang in 2 * np.pi * np.arange(n_ang) / n_ang:
                w = mobius_apply_complex(trans, math.tanh(tt / 2.0) * cmath.exp(1j * ang))
                bus_w = math.log1p(-abs(w) ** 2) - 2.0 * math.log(abs(w - b))
                acc += (wt[i] * math.sinh(tt) * (2 * np.pi / n_ang)
                        * float(psi(np.array([tt]))[0])
                        * cmath.exp((0.5 + 1j * lam) * (bus_w - bus_z)))
        assert abs(got - acc) < 1e-6

    @pytest.mark.parametrize("A", [
        O.multiplication_observable(lambda z: np.cos(3 * np.real(z)) + 1j * np.imag(z), 1.0),
        O.laplacian_observable(),
        O.radial_kernel_observable(radial_bump(0.5), 0.5),
        # isometry-invariant operators have symbols free of b; these two do not
        O.differential_observable({(1, 0): lambda z: 0.5 * (1.0 - np.abs(z) ** 2),
                                   (0, 0): lambda z: np.real(z)}, C=1.0),
        O.finite_range_observable(
            lambda z, w: radial_bump(0.5)(_dist_array(z, w)) * (1.0 + np.real(w)), 0.5, 1.0),
    ], ids=["multiplication", "laplacian", "radial_kernel", "first_order", "finite_range"])
    def test_array_matches_pointwise(self, A, monkeypatch):
        # a b for each point, and z (n, 1) against b (m,)
        zs = np.array([[0.1 + 0.2j, -0.3j, 0.0j], [0.45 - 0.1j, -0.2 + 0.05j, 0.6j]])
        bs = np.exp(1j * np.array([[0.3, 2.0, -1.1], [4.0, 0.0, 2.5]]))
        for lam in [0.5, 1.7]:
            got = O.complete_symbol(A, zs, lam, bs)
            assert got.shape == zs.shape
            each = np.array([O.complete_symbol(A, z, lam, b)
                             for z, b in zip(zs.ravel(), bs.ravel())]).reshape(zs.shape)
            np.testing.assert_allclose(got, each, rtol=1e-13, atol=0)
            grid = O.complete_symbol(A, zs.reshape(-1, 1), lam, bs[0])
            assert grid.shape == (6, 3)
            each = np.array([[O.complete_symbol(A, z, lam, b) for b in bs[0]]
                             for z in zs.ravel()])
            np.testing.assert_allclose(grid, each, rtol=1e-13, atol=0)
        # a finite-range A takes its points in the blocks of apply
        monkeypatch.setattr(O, "_BALL_NODES", 1)
        assert np.array_equal(O.complete_symbol(A, zs, lam, bs), got)

    def test_stencil_guard(self):
        A = O.laplacian_observable()
        with pytest.raises((StencilOutOfDomain, ValueError)):
            O.complete_symbol(A, 0.9999995 + 0j, 1.0, 1j)


def _rotation_angle(z, b):
    """The rotation angle of the boundary points b at the points z."""
    return np.angle((b - z) / (1.0 - np.conj(z) * b))


class TestAngularDecomposition:
    def test_rotation_invariant_symbol(self):
        rho = bump_multiplier(1.0, 2.0)
        sym = lambda z, lam, b: complex(rho(lam))
        parts = O.angular_decompose(sym, 0.3 + 0.1j, 1.5)
        assert parts.residual_mean < 1e-9
        for th in [0.0, 1.0, 2.0]:
            assert abs(parts.zero_mean_part(th)) < 1e-12

    def test_pure_first_mode(self):
        # a = f(z) cos(theta(b; z)): zero rotational mean at every z
        def sym(z, lam, b):
            return (1.0 + np.abs(z) ** 2) * np.cos(_rotation_angle(z, b)) + 0j

        parts = O.angular_decompose(sym, 0.25 - 0.35j, 1.0)
        assert abs(parts.mean) < 1e-10
        assert O.condition_a1_holds(sym, 0.25 - 0.35j, 1.0)

    def test_one_call_for_the_mean(self):
        calls = []

        def sym(z, lam, b):
            calls.append(np.shape(b))
            return np.cos(_rotation_angle(z, b)) + 0j

        O.angular_decompose(sym, 0.1 - 0.2j, 1.0, n=64)
        assert calls == [(64,)]

    def test_multiplication_flagged_nonzero(self):
        A = O.multiplication_observable(lambda z: 1.0 + z.real ** 2, 2.0)
        sym = O.symbol_of(A)
        assert not O.condition_a1_holds(sym, 0.2 + 0.1j, 1.0)

    def test_rotation_boundary_point_on_arrays(self):
        zs = np.array([0.0j, 0.3 - 0.2j, -0.6 + 0.1j])[:, None]
        th = np.array([0.0, 1.0, 4.0])
        got = O.rotation_boundary_point(zs, th)
        assert got.shape == (3, 3)
        np.testing.assert_allclose(np.abs(got), 1.0, rtol=0, atol=1e-15)
        want = np.broadcast_to(np.angle(np.exp(1j * th)), got.shape)
        np.testing.assert_allclose(_rotation_angle(zs, got), want, rtol=0, atol=1e-13)
        with pytest.raises(ValueError):
            O.rotation_boundary_point(np.array([0.1, 1.0 + 0j]), 0.0)


def _cos_mode(amp):
    def sym(z, lam, b):
        return amp * np.cos(_rotation_angle(z, b)) + 0j
    return sym


class TestThetaNorm:
    def test_rotation_invariant_gives_zero(self, bolza):
        sym = lambda z, lam, b: 1.0 + 0j
        val = O.theta_second_derivative_norm(sym, (0.9, 1.9), bolza, n_mc=20,
                                             seed=1, n_lam=3)
        assert val < 1e-8

    def test_cos_mode_half(self, bolza):
        val = O.theta_second_derivative_norm(_cos_mode(1.0), (1.0, 1.5), bolza, n_mc=300,
                                             seed=2, n_lam=2)
        assert val == pytest.approx(0.5, abs=0.06)

    def test_homogeneity(self, bolza):
        v1 = O.theta_second_derivative_norm(_cos_mode(1.0), (1.0, 1.2), bolza, 60, 3, n_lam=2)
        v2 = O.theta_second_derivative_norm(_cos_mode(2.0), (1.0, 1.2), bolza, 60, 3, n_lam=2)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-6)

    def test_matches_pointwise_loop(self, bolza):
        # a symbol whose angular derivative depends on z and lambda
        def sym(z, lam, b):
            return (np.exp(1j * lam * np.real(b * np.conj(z)))
                    * (1.0 + np.cos(2.0 * _rotation_angle(z, b))))

        calls = []

        def counted(z, lam, b):
            calls.append(lam)
            return sym(z, lam, b)

        n_mc, seed, h, window, n_lam = 40, 5, 1e-4, (1.0, 1.6), 3
        got = O.theta_second_derivative_norm(counted, window, bolza, n_mc, seed, n_lam=n_lam)
        assert len(calls) == n_lam
        rng = np.random.default_rng(seed)
        from hypsurf.fuchsian import DomainSampler
        zs = DomainSampler(bolza).sample(rng, n_mc)
        ths = rng.uniform(0.0, 2.0 * math.pi, n_mc)
        steps = h * np.array([2.0, 1.0, 0.0, -1.0, -2.0])
        ref = 0.0
        for lam in np.linspace(window[0], window[1], n_lam):
            acc = 0.0
            for z, th in zip(zs, ths):
                f = sym(z, float(lam), O.rotation_boundary_point(z, th + steps))
                d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
                acc += abs(d2) ** 2
            ref = max(ref, acc / n_mc)
        assert ref > 1e-3
        assert got == pytest.approx(ref, rel=1e-12)


class TestSandwich:
    def test_exact_zero_beyond_propagation(self):
        A = O.multiplication_observable(lambda z: 1.0, 1.0)
        t = 0.7
        z, w = -0.55 + 0j, 0.55 + 0j   # distance ~ 2.5 > 2 t
        assert O.smooth_sandwich_kernel(A, t, 0.1, z, w) == 0.0

    @pytest.mark.parametrize("A, n_rad, n_ang", [
        (O.multiplication_observable(lambda z: 1.0, 1.0), 160, 320),
        (O.radial_kernel_observable(radial_bump(0.4), 0.4), 24, 48),
    ], ids=["unit_multiplication", "radial_kernel"])
    def test_radial_symmetry(self, A, n_rad, n_ang):
        # an isometry-invariant operator has an isometry-invariant sandwich
        from hypsurf.geometry import GroupElement, mobius_apply_complex
        t, sigma = 0.8, 0.15
        z1, w1 = 0.0 + 0j, 0.15 + 0j
        g = GroupElement.translation(0.8, 0.5) @ GroupElement.rotation(2.1)
        z2 = mobius_apply_complex(g, z1)
        w2 = mobius_apply_complex(g, w1)
        k1 = O.smooth_sandwich_kernel(A, t, sigma, z1, w1, n_rad=n_rad, n_ang=n_ang)
        k2 = O.smooth_sandwich_kernel(A, t, sigma, z2, w2, n_rad=n_rad, n_ang=n_ang)
        assert abs(k1 - k2) < 1e-6 * max(1.0, abs(k1))

    def test_sup_bound_frozen_on_the_pipeline_grid(self):
        # the eight t nodes of variance_pipeline_bounds at T = 4, sigma = 0.1
        sign = O.multiplication_observable(lambda z: np.where(np.real(z) > 0, 1.0, -1.0), 1.0)
        frozen = {
            "sign": [0.07098271998439737, 1.2192279683827154, 2.7955296837218593,
                     4.026144914136771, 4.8207744852546215, 5.30044850111847,
                     5.583183565779931, 5.748384207655694],
            "laplacian": [172.98291746153717, 3561.6702613286966, 14443.4977424926,
                          34255.991165049665, 90491.72545743031, 289827.66841180465,
                          616166.709644664, 2704524.853260789]}
        for name, A in [("sign", sign), ("laplacian", O.laplacian_observable())]:
            got = [O.sandwich_sup_bound(A, float(t), 0.1) for t in np.linspace(0.2, 4.0, 8)]
            np.testing.assert_allclose(got, frozen[name], rtol=1e-12, atol=0.0)

    def test_sup_bound_dominates_measured(self):
        t, sigma = 0.9, 0.2
        for A in [O.multiplication_observable(lambda z: np.cos(3 * np.real(z)), 1.0),
                  O.laplacian_observable()]:
            bound = O.sandwich_sup_bound(A, t, sigma)
            measured = 0.0
            for d in [0.0, 0.3, 0.8, 1.4]:
                z, w = 0.0 + 0j, math.tanh(d / 2.0) + 0j
                measured = max(measured, abs(O.smooth_sandwich_kernel(
                    A, t, sigma, z, w, n_rad=24, n_ang=48)))
            assert measured <= bound * (1.0 + 1e-9)


class TestLocality:
    def test_panel_ratios_below_declared(self):
        panel = []
        for i in range(1, 5):
            panel.append(lambda z, i=i: np.sin(i * np.real(z)) * np.cos(i * np.imag(z)))
            panel.append(lambda z, i=i: (np.real(z) ** i + np.imag(z) ** i))
            panel.append(lambda z, i=i: np.exp(-i * np.abs(z) ** 2))
            panel.append(lambda z, i=i: np.cos(i * (np.real(z) + 0.5 * np.imag(z))))
            panel.append(lambda z, i=i: 1.0 / (1.0 + i * np.abs(z) ** 2))
        assert len(panel) == 20
        mult = O.multiplication_observable(lambda z: 0.5 * np.sin(np.real(z)), 0.5)
        lap = O.laplacian_observable()
        for u in panel:
            for z in [0.1 + 0.1j, -0.3 + 0.2j]:
                assert O.locality_ratio(mult, u, z) <= 0.5 * (1 + 1e-9)
                assert O.locality_ratio(lap, u, z) <= 1.0 * (1 + 1e-6)


class TestLimitTerm:
    def test_constant_multiplication(self, bolza):
        A = O.multiplication_observable(lambda z: 1.0, 1.0)
        lt = O.limit_term(A, 1.0, bolza, n_mc=200, seed=1)
        assert lt.value == pytest.approx(1.0, abs=1e-12)
        assert lt.stderr == 0.0

    def test_mean_of_density(self, bolza):
        A = O.multiplication_observable(lambda z: z.real, 1.0)
        lt = O.limit_term(A, 1.0, bolza, n_mc=4000, seed=2)
        # odd density on a symmetric domain: mean ~ 0
        assert abs(lt.value) < 4.0 * max(lt.stderr, 1e-6)

    def test_radial_kernel_selberg_pairing(self, bolza):
        S = 0.9
        psi = radial_bump(S)
        A = O.radial_kernel_observable(psi, S)
        lam = 1.2
        lt = O.limit_term(A, lam, bolza)
        from hypsurf.transforms import _phi_md_grid
        val, _ = quad(lambda t: float(psi(np.array([t]))[0])
                      * float(_phi_md_grid(np.array([lam]), t)[0]) * math.sinh(t),
                      0.0, S, limit=200)
        assert lt.value == pytest.approx(2.0 * math.pi * val, abs=1e-6)

    def test_radial_vs_general_mc_route(self, bolza):
        S = 0.7
        psi = radial_bump(S)
        A_rad = O.radial_kernel_observable(psi, S)
        A_gen = O.finite_range_observable(
            lambda z, w: psi(_dist_array(z, w)), S,
            A_rad.locality.C)
        lam = 1.0
        lt_r = O.limit_term(A_rad, lam, bolza)
        lt_g = O.limit_term(A_gen, lam, bolza, n_mc=40, seed=3)
        assert lt_g.value == pytest.approx(lt_r.value, abs=3e-3 + 4 * lt_g.stderr)

    def test_differential_rejected(self, bolza):
        with pytest.raises(ValueError):
            O.limit_term(O.laplacian_observable(), 1.0, bolza)


class TestMultiplierTail:
    def test_zero_multiplier(self):
        rho = SpectralMultiplier(np.zeros_like, support=(1.0, 2.0))
        e = O.multiplier_tail_bound(rho, PlancherelWeight.paper(), 3.0, [1.2, 1.5])
        assert e == 0.0

    def test_tail_decay_rate(self):
        rho = bump_multiplier(1.0, 2.0)
        w = PlancherelWeight.paper()
        lam_grid = [1.2, 1.5]
        e1 = O.multiplier_tail_bound(rho, w, 4.0, lam_grid)
        e2 = O.multiplier_tail_bound(rho, w, 8.0, lam_grid)
        ratio = e1 / e2
        predicted = ((1.0 + 8.0) / (1.0 + 4.0)) ** 2
        assert ratio > predicted / 4.0   # at least quadratic-ish decay
