import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hypsurf import transforms
from hypsurf.errors import ParameterOutOfRange, QuadratureNotConverged
from hypsurf.quadrature import cosh_diff, gauss_legendre, sqrt_edge_rule
from hypsurf.transforms import (
    PlancherelWeight,
    RadialKernel,
    abel_sharp,
    abel_smooth,
    abel_transform,
    bump_multiplier,
    c_inverse_square,
    fourier_of_abel,
    harish_chandra_c,
    helgason_forward,
    hs_norm_disc,
    inverse_selberg,
    k_rho_scaled,
    kernel_from_symbol,
    matched_norm,
    phi_decay_constant,
    phi_eval,
    plateau_multiplier,
    selberg_transform,
    spherical_phi,
    weight_from_name,
)
from hypsurf.transforms import _phi_md_grid

TWO_PI = 2.0 * math.pi


def smoothstep_eta(x):
    """C^1 decreasing cutoff: 1 on (-inf,-1], 0 on [0,inf)."""
    x = np.clip(np.asarray(x, dtype=float) + 1.0, 0.0, 1.0)
    return 1.0 - (3.0 * x * x - 2.0 * x ** 3)


class TestSphericalPhi:
    def test_at_zero(self):
        for lam in [0.3, 1.0, 4.0]:
            assert spherical_phi(lam, 0.0) == 1.0

    def test_against_legendre_oracle(self):
        # phi_lambda(t) is the conical function P_{-1/2 + i lam}(cosh t)
        for lam in [0.5, 1.0, 2.0]:
            for t in [0.4, 1.0, 3.0]:
                oracle = float(mp.re(mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(t))))
                assert spherical_phi(lam, t) == pytest.approx(oracle, abs=1e-9)
                assert phi_eval(lam, t) == pytest.approx(oracle, abs=1e-9)

    def test_phi_eval_grid(self):
        # one (t, lambda) grid across both routes and the c-function pole
        ts = np.array([0.0, 1e-3, 0.4, 0.999, 1.0, 1.7, 3.0, 9.0])
        lams = np.array([0.0, 1e-9, 1e-8, 0.5, 1.3, 2.0, 4.0])
        grid = phi_eval(lams, ts)
        assert grid.shape == (ts.size, lams.size)
        for i, t in enumerate(ts):
            oracle = [float(mp.re(mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(t))))
                      for lam in lams]
            assert np.max(np.abs(grid[i] - oracle)) <= 1e-9
            # a row call gives the row bit for bit; scalar calls agree up to
            # the summation order of the matrix products (|phi| <= 1)
            assert np.array_equal(phi_eval(lams, t), grid[i])
            for j, lam in enumerate(lams):
                assert phi_eval(float(lam), float(t)) == pytest.approx(grid[i, j],
                                                                       abs=2e-15)
        assert phi_eval(lams.reshape(7, 1), ts[:2]).shape == (2, 7, 1)

    def test_row_independent_of_other_rows(self):
        # matrix products of one shape per lambda grid: BLAS rounds a row the
        # same way whatever other rows share the call
        rng = np.random.default_rng(0)
        ts = np.concatenate([rng.uniform(0.0, 1.0, 200), rng.uniform(1.0, 40.0, 800)])
        lams = np.linspace(0.05, 3.0, 55)
        grid = phi_eval(lams, ts)
        for i in range(ts.size):
            assert np.array_equal(grid[i], phi_eval(lams, ts[i:i + 1])[0])

    def test_md_grid_keeps_digits_at_small_t(self):
        # cosh t - cosh u cancels at small t unless it is formed stably
        lams = np.array([0.5, 1.3, 1.9])
        for t in [1e-4, 0.002, 0.01, 0.05]:
            oracle = [float(mp.re(mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(t), type=3)))
                      for lam in lams]
            assert np.max(np.abs(_phi_md_grid(lams, t) - oracle)) <= 1e-13

    def test_md_grid_at_large_lambda_t(self):
        # cos(lam u) has lam t / (2 pi) periods on [0, t]: the rule must grow with them
        for t, lam in [(0.99, 64.0), (3.0, 32.0), (10.0, 32.0), (20.0, 32.0)]:
            oracle = float(mp.re(mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(t), type=3)))
            assert abs(float(_phi_md_grid(np.array([lam]), t)[0]) - oracle) <= 1e-13

    def test_small_lambda_on_far_rows(self):
        # the series' conjugate terms, of size 1 / (pi lambda), cancel as lambda -> 0
        for lam in [1e-7, 1e-5, 1e-3]:
            for t in [1.0, 3.0, 9.0]:
                oracle = float(mp.re(mp.legenp(mp.mpc(-0.5, lam), 0, mp.cosh(t), type=3)))
                assert abs(phi_eval(lam, t) - oracle) <= 1e-13

    @pytest.mark.parametrize("t", [0.9, 2.5])
    def test_cells_do_not_depend_on_the_grid(self, t):
        # the three lambdas take different Mehler-Dirichlet orders at t = 0.9
        lams = np.array([0.5, 4.0, 40.0])
        row = phi_eval(lams, t)
        for lam, val in zip(lams, row):
            assert abs(phi_eval(float(lam), t) - val) <= 2e-15

    @pytest.mark.parametrize("t", [-0.5, -2.0, math.nan, math.inf])
    def test_rejects_negative_and_non_finite_t(self, t):
        # phi is even in t, but a negative t used to return a wrong value
        with pytest.raises(ParameterOutOfRange):
            phi_eval(1.5, t)
        with pytest.raises(ParameterOutOfRange):
            phi_eval([0.5, 1.5], np.array([0.3, t]))

    def test_series_matches_integral(self):
        # rows t >= 1 of phi_eval are the large-t series
        lams, ts = [0.5, 1.0, 2.0, 3.0], [1.0, 2.0, 5.0, 10.0]
        grid = phi_eval(np.array(lams), np.array(ts))
        for i, lam in enumerate(lams):
            for j, t in enumerate(ts):
                assert abs(spherical_phi(lam, t) - grid[j, i]) < 1e-6

    def test_decay_constant_stable(self):
        lams = [0.5, 1.0, 2.0]
        c1 = phi_decay_constant(lams, np.linspace(0.5, 20, 40))
        c2 = phi_decay_constant(lams, np.linspace(0.5, 20, 80))
        assert c1 > 0
        assert abs(c1 - c2) < 0.05 * c1


class TestCFunction:
    def test_modulus_identity(self):
        for lam in [0.5, 1.0, 2.0]:
            assert c_inverse_square(lam) == pytest.approx(
                math.pi * lam * math.tanh(math.pi * lam), abs=1e-10)

    def test_high_lambda_power_law(self):
        # |c| ~ lam^{-1/2}: the compensated ratio flattens
        r1 = abs(harish_chandra_c(50.0)) * math.sqrt(50.0)
        r2 = abs(harish_chandra_c(200.0)) * math.sqrt(200.0)
        assert r1 == pytest.approx(r2, rel=1e-3)

    def test_positive_square(self):
        c = harish_chandra_c(1.3)
        val = c * c.conjugate()
        assert val.imag == pytest.approx(0.0, abs=1e-16)
        assert val.real > 0

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            harish_chandra_c(0.0)


class TestTriangle:
    def test_abel_sharp_closed_form_vs_general(self):
        t0 = 1.5
        k = RadialKernel(lambda r: np.cosh(t0) ** -0.5 * (r <= t0), support_bound=t0)
        g1 = abel_sharp(t0)
        g2 = abel_transform(k)
        for u in [0.0, 0.4, 1.0, 1.45]:
            assert g1(u) == pytest.approx(g2(u), abs=1e-10)

    def test_abel_sharp_oracle_quadrature(self):
        # independent adaptive quadrature of the defining integral at u=0, t=1
        t0, u0 = 1.0, 0.0
        val, _ = quad(lambda r: np.sinh(r) / np.sqrt(np.cosh(r) - np.cosh(u0)),
                      u0, t0, points=[u0], limit=200)
        oracle = math.sqrt(2.0 / math.cosh(t0)) * val
        assert abel_sharp(t0)(u0) == pytest.approx(oracle, abs=1e-8)

    def test_abel_profile_matches_per_u_loop(self):
        # the per-u loop below is the reference algorithm: the singular stretch
        # [u, min(u + 1, T)] in v, the rest in r, both split at the kernel's knot
        t0, sigma, n = 2.0, 0.3, 200
        k = RadialKernel(lambda r: np.cosh(t0) ** -0.5 * smoothstep_eta((r - t0) / sigma),
                         support_bound=t0, breakpoints=(t0 - sigma,))
        knots = [t0 - sigma]

        def g_loop(u):
            if u >= t0:
                return 0.0
            mid, acc = min(u + 1.0, t0), 0.0
            edges = [u] + [b for b in knots if u < b < mid] + [mid]
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi > lo:
                    r, v, w = sqrt_edge_rule(u, lo, hi, n)
                    acc += float(np.sum(k(r) * np.sinh(r) / v * w))
            edges = [mid] + [b for b in knots if mid < b < t0] + [t0]
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi > lo:
                    r, w = gauss_legendre(lo, hi, max(n, int(16 * (hi - lo))))
                    acc += float(np.sum(k(r) * np.sinh(r) / np.sqrt(cosh_diff(r, u)) * w))
            return math.sqrt(2.0) * acc

        # 64 spread points take the profile through several blocks of u
        us = np.concatenate([[0.0, 0.5, t0 - sigma - 1e-9, t0 - sigma + 1e-9,
                              t0 - 1e-12, t0, t0 + 1.0], np.linspace(0.0, t0, 64)])
        got = abel_transform(k, n=n)(us)
        want = np.array([g_loop(u) for u in us])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        assert got[0] > 0.0 and got[5] == got[6] == 0.0

    def test_vanishes_outside_support(self):
        g = abel_sharp(2.0)
        assert g(2.5) == 0.0
        gs = abel_smooth(2.0, 0.3, smoothstep_eta)
        assert gs(2.1) == 0.0

    def test_smooth_degenerates_to_sharp(self):
        # with eta == 1 on the window the smooth profile equals the sharp one
        g1 = abel_smooth(2.0, 0.3, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        g0 = abel_sharp(2.0)
        for u in [0.0, 0.9, 1.8]:
            assert g1(u) == pytest.approx(g0(u), abs=1e-9)

    @pytest.mark.parametrize("t0", [1.0, 2.0, 4.0])
    def test_sharp_triangle(self, t0):
        k = RadialKernel(lambda r: np.cosh(t0) ** -0.5 * (r <= t0), support_bound=t0)
        h_direct = selberg_transform(k)
        h_abel = fourier_of_abel(abel_sharp(t0))
        for lam in [0.25, 0.5, 1.0, 2.0, 4.0]:
            assert h_direct(lam) == pytest.approx(h_abel(lam), abs=1e-6)

    @pytest.mark.parametrize("t0", [2.0, 4.0])
    def test_smooth_triangle(self, t0):
        sigma = 0.4
        k = RadialKernel(
            lambda r: np.cosh(t0) ** -0.5 * smoothstep_eta((r - t0) / sigma),
            support_bound=t0, breakpoints=(t0 - sigma,))
        h_direct = selberg_transform(k)
        h_abel = fourier_of_abel(abel_smooth(t0, sigma, smoothstep_eta))
        for lam in [0.25, 1.0, 2.0, 4.0]:
            assert h_direct(lam) == pytest.approx(h_abel(lam), abs=1e-6)

    def test_zero_kernel(self):
        k = RadialKernel(lambda r: np.zeros_like(r), support_bound=2.0)
        assert selberg_transform(k)(1.0) == 0.0
        assert fourier_of_abel(abel_transform(k))(1.0) == 0.0

    def test_positivity_at_lambda_zero(self):
        t0 = 1.0
        k = RadialKernel(lambda r: np.cosh(t0) ** -0.5 * (r <= t0), support_bound=t0)
        assert selberg_transform(k)(0.0) > 0

    def test_mass_consistency(self):
        # h(0) = 2 int g = 2pi int k phi_0 sinh
        t0 = 1.5
        k = RadialKernel(lambda r: np.cosh(t0) ** -0.5 * (r <= t0), support_bound=t0)
        g = abel_sharp(t0)
        h0 = fourier_of_abel(g)(0.0)
        assert h0 == pytest.approx(selberg_transform(k)(0.0), abs=1e-6)


class TestInverse:
    def test_zero_multiplier(self):
        rho = bump_multiplier(1.0, 2.0, 0.0)
        k = inverse_selberg(rho, PlancherelWeight.paper())
        assert k(1.3) == 0.0

    @pytest.mark.parametrize("wname", ["harmonic", "paper"])
    def test_round_trip(self, wname):
        weight = weight_from_name(wname)
        # paper convention is only asymptotically self-consistent; test on
        # lambda >= 1.75 where its residual factor is < 1e-4
        lo, hi = (1.0, 2.0) if wname == "harmonic" else (1.75, 3.0)
        rho = bump_multiplier(lo, hi)
        k = inverse_selberg(rho, weight, norm=matched_norm(weight), n_lambda=384)
        # k_rho has unbounded support; truncate where its scaled decay makes
        # the spherical-pairing tail negligible at the 1e-4 level
        trunc = RadialKernel(lambda t: k(t), support_bound=160.0)
        h = selberg_transform(trunc)
        lams = np.linspace(lo + 0.1, hi - 0.1, 5)
        got = h(lams)
        want = rho(lams)
        assert np.max(np.abs(got - want)) < 1e-4

    def test_triangle_for_k_rho(self):
        # Selberg == Fourier o Abel also for the (truncated) inverse kernel
        rho = bump_multiplier(1.0, 2.0)
        k = inverse_selberg(rho, PlancherelWeight.paper())
        trunc = RadialKernel(lambda t: k(t), support_bound=30.0)
        lams = np.array([0.25, 0.5, 1.5, 3.0])
        h1 = selberg_transform(trunc)(lams)
        h2 = fourier_of_abel(abel_transform(trunc, n=300))(lams)
        assert np.max(np.abs(h1 - h2)) < 1e-6

    @pytest.mark.parametrize("support", [(1.0, 2.0), (1.75, 3.0), (0.5, 6.0), (2.0, 10.0)])
    def test_panels_match_exact_phi_grid(self, support):
        # the panel interpolant against the exact phi grid times the weights
        weight = PlancherelWeight.paper()
        rho = bump_multiplier(*support)
        ts = np.linspace(0.0, 40.0, 4000)
        lam, lw = gauss_legendre(*support, 256)
        exact = phi_eval(lam, ts) @ (weight(lam) * rho(lam) * lw)
        got = inverse_selberg(rho, weight)(ts)
        assert np.max(np.abs(got - exact)) <= 1e-13 * abs(exact[0])

    def test_value_independent_of_call(self):
        # a point's value depends on its panel's coefficients alone
        rho, weight = bump_multiplier(1.0, 2.0), PlancherelWeight.paper()
        ts = np.linspace(0.0, 40.0, 2000)
        grid = inverse_selberg(rho, weight)(ts)
        for i in [0, 1, 49, 50, 999, 1999]:
            one = inverse_selberg(rho, weight)(ts[i:i + 1])[0]
            k = inverse_selberg(rho, weight)
            k(np.array([0.5, 3.2, 17.9, 39.1]))
            assert one == grid[i] == k(ts[i])

    def test_unresolved_panel_raises(self, monkeypatch):
        monkeypatch.setattr(transforms, "_K_RHO_DEG0", 0)
        k = inverse_selberg(bump_multiplier(1.0, 2.0), PlancherelWeight.paper())
        with pytest.raises(QuadratureNotConverged):
            k(np.array([0.3]))

    @pytest.mark.parametrize("t", [-0.5, -2.0, math.nan, math.inf])
    def test_kernel_rejects_negative_and_non_finite_t(self, t):
        k = inverse_selberg(bump_multiplier(1.0, 2.0), PlancherelWeight.paper())
        with pytest.raises(ParameterOutOfRange):
            k(t)
        with pytest.raises(ParameterOutOfRange):
            k(np.array([0.3, t]))

    def test_decay_bound(self):
        # |k_rho(t)| e^{t/2} (1+t)^N finite on [1, 40] for N <= 4 and the sup
        # stable under doubling the lambda nodes
        rho = bump_multiplier(1.0, 2.0)
        ts = np.linspace(1.0, 40.0, 400)
        s1 = np.abs(k_rho_scaled(rho, PlancherelWeight.paper(), ts, n_lambda=256))
        s2 = np.abs(k_rho_scaled(rho, PlancherelWeight.paper(), ts, n_lambda=512))
        for N in range(5):
            v1 = (s1 * (1.0 + ts) ** N).max()
            v2 = (s2 * (1.0 + ts) ** N).max()
            assert np.isfinite(v1) and v1 > 0
            assert abs(v1 - v2) < 0.01 * v2


class TestHelgason:
    def test_zero_function(self):
        tr = helgason_forward(lambda z: 0.0, n_rad=24, n_ang=32)
        assert abs(tr(1.0, 0.3)) == 0.0

    def test_radial_is_isotropic(self):
        f = lambda z: np.exp(-3.0 * np.abs(z) ** 2) * (np.abs(z) < 0.9)
        tr = helgason_forward(f, n_rad=100, n_ang=256)
        vals = [tr(1.2, ang) for ang in [0.0, 1.0, 2.5, 4.0]]
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-8

    def test_radial_reduction_to_selberg(self):
        # u radial: |u-hat(lam, b)| = 2 pi |int u phi sinh dt|
        prof = lambda t: np.exp(-2.0 * t * t)
        f = lambda z: prof(2.0 * np.arctanh(np.minimum(np.abs(z), 0.999999)))
        tr = helgason_forward(f, n_rad=140, n_ang=384)
        k = RadialKernel(lambda t: np.exp(-2.0 * t * t), support_bound=2.0 * math.atanh(0.95))
        h = selberg_transform(k)
        for lam in [0.5, 1.0, 2.0]:
            assert abs(tr(lam, 0.7)) == pytest.approx(abs(h(lam)), abs=1e-6)


class TestSymbolKernels:
    def test_zero_symbol(self):
        K = kernel_from_symbol(lambda z, l, b: 0.0, (1.0, 2.0),
                               PlancherelWeight.paper(), n_lam=16, n_ang=32)
        assert K(0.1 + 0.1j, -0.2j) == 0.0

    def test_pure_multiplier_is_radial(self):
        rho = bump_multiplier(1.0, 2.0)
        K = kernel_from_symbol(lambda z, l, b: complex(rho(l)), (1.0, 2.0),
                               PlancherelWeight.paper(), n_lam=48, n_ang=192)
        # move the pair (0, 0.3) by an isometry: distance, hence K, preserved
        from hypsurf.geometry import GroupElement, mobius_apply_complex
        z1, w1 = 0.0 + 0j, 0.3 + 0j
        g = GroupElement.translation(0.9, 0.7) @ GroupElement.rotation(1.3)
        z2 = mobius_apply_complex(g, z1)
        w2 = mobius_apply_complex(g, w1)
        k1, k2 = K(z1, w1), K(z2, w2)
        assert abs(k1 - k2) < 1e-6 * max(1.0, abs(k1))
        assert abs(k1.imag) < 1e-8

    def test_multiplier_kernel_matches_inverse_selberg(self):
        rho = bump_multiplier(1.0, 2.0)
        weight = PlancherelWeight.paper()
        K = kernel_from_symbol(lambda z, l, b: complex(rho(l)), (1.0, 2.0),
                               weight, n_lam=48, n_ang=192)
        k = inverse_selberg(rho, weight)
        for w in [0.1, 0.3 + 0.2j, 0.5j]:
            d = 2.0 * math.atanh(abs(w))
            assert K(0j, w).real == pytest.approx(float(k(d)), abs=1e-6)


def _poisson(z, b):
    return (1.0 - abs(z) ** 2) / abs(z - b) ** 2


def _b_symbol(rho):
    """A symbol that depends on b, written once for scalar and array b."""
    def a(z, l, b):
        return complex(rho(l)) * (1.0 + 0.4 * np.real(b) + 0.3j * np.imag(b * np.conj(z)))
    return a


class TestSymbolContract:
    def test_hs_norm_matches_pointwise_loop(self):
        weight = PlancherelWeight.paper()
        a = _b_symbol(bump_multiplier(1.0, 2.0))
        r0, n_rad, n_zang, n_lam, n_bang = 0.4, 3, 4, 5, 16
        t, wt = gauss_legendre(0.0, 2.0 * math.atanh(r0), n_rad)
        lam, wl = gauss_legendre(1.0, 2.0, n_lam)
        ref = 0.0
        for i, tt in enumerate(t):
            for p in range(n_zang):
                z = math.tanh(tt / 2.0) * cmath.exp(2j * math.pi * p / n_zang)
                for j, l in enumerate(lam):
                    for q in range(n_bang):
                        b = cmath.exp(2j * math.pi * q / n_bang)
                        ref += (wt[i] * math.sinh(tt) * (TWO_PI / n_zang)
                                * wl[j] * float(weight.hs_weight(l))
                                * abs(a(z, float(l), b)) ** 2 * _poisson(z, b)
                                * (TWO_PI / n_bang))
        got = hs_norm_disc(a, r0, (1.0, 2.0), weight, n_rad=n_rad, n_zang=n_zang,
                           n_lam=n_lam, n_bang=n_bang)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_kernel_matches_pointwise_loop(self):
        weight = PlancherelWeight.harmonic()
        a = _b_symbol(bump_multiplier(1.0, 2.0))
        n_lam, n_ang = 6, 24
        K = kernel_from_symbol(a, (1.0, 2.0), weight, n_lam=n_lam, n_ang=n_ang)
        lam, wl = gauss_legendre(1.0, 2.0, n_lam)
        for z, w in [(0.1 + 0.2j, -0.3 + 0.1j), (0.0j, 0.5j)]:
            ref = 0.0
            for j, l in enumerate(lam):
                for q in range(n_ang):
                    b = cmath.exp(2j * math.pi * q / n_ang)
                    ref += (wl[j] * float(weight(l)) * (TWO_PI / n_ang) / TWO_PI
                            * a(z, float(l), b)
                            * _poisson(z, b) ** (0.5 + 1j * l)
                            * _poisson(w, b) ** (0.5 - 1j * l))
            assert abs(K(z, w) - ref) <= 1e-13 * abs(ref)

    def test_hs_norm_calls_symbol_once_per_lambda(self):
        calls = []

        def a(z, l, b):
            calls.append((np.array(z), l, np.shape(b)))
            return 1.0 + 0j

        r0, n_rad, n_zang, n_lam = 0.5, 3, 5, 7
        hs_norm_disc(a, r0, (1.0, 2.0), PlancherelWeight.paper(),
                     n_rad=n_rad, n_zang=n_zang, n_lam=n_lam, n_bang=32)
        lam, _ = gauss_legendre(1.0, 2.0, n_lam)
        assert [l for _, l, _ in calls] == [float(x) for x in lam]
        t, _ = gauss_legendre(0.0, 2.0 * math.atanh(r0), n_rad)
        nodes = [math.tanh(tt / 2.0) * cmath.exp(2j * math.pi * p / n_zang)
                 for tt in t for p in range(n_zang)]
        for z, _, b_shape in calls:
            assert z.shape == (n_rad * n_zang, 1) and b_shape == (32,)
            np.testing.assert_allclose(z[:, 0], nodes, rtol=0, atol=1e-15)

    def test_kernel_calls_symbol_once_per_lambda(self):
        calls = []

        def a(z, l, b):
            calls.append(np.shape(b))
            return np.ones(np.broadcast_shapes(np.shape(z), np.shape(b)))

        K = kernel_from_symbol(a, (1.0, 2.0), PlancherelWeight.paper(), n_lam=6, n_ang=24)
        K(0.1 + 0.2j, -0.3j)
        assert calls == [(24,)] * 6


class TestHsNorm:
    def test_zero(self):
        w = PlancherelWeight.paper()
        assert hs_norm_disc(lambda z, l, b: 0.0, 0.5, (1.0, 2.0), w,
                            n_rad=8, n_zang=8, n_lam=8, n_bang=16) == 0.0

    def test_separable_factorization(self):
        # a = rho(lam) * 1_{|z| <= r0}: the triple integral factorizes into
        # (hyperbolic area) * 2pi * int |rho|^2 W dlam  (Poisson mass = 2pi)
        w = PlancherelWeight.paper()
        rho = bump_multiplier(1.0, 2.0)
        r0 = 0.5
        # indicator edge aligned with the integration boundary keeps GL spectral
        val = hs_norm_disc(lambda z, l, b: complex(rho(l)) * (abs(z) <= r0),
                           r0, (1.0, 2.0), w, n_rad=64, n_zang=16, n_lam=48,
                           n_bang=64)
        t0 = 2.0 * math.atanh(r0)
        area = TWO_PI * (math.cosh(t0) - 1.0)
        lam_int, _ = quad(lambda l: float(rho(l)) ** 2 * float(w.hs_weight(l)), 1.0, 2.0)
        assert val == pytest.approx(area * TWO_PI * lam_int, rel=2e-3)

    @pytest.mark.parametrize("wname", ["paper", "harmonic"])
    def test_plancherel_cross_check(self, wname):
        # double integral of |K_a|^2 vs the symbol-side triple integral, for
        # a separable symbol a = rho(lam) g(z): then K_a(z,w) = g(z) k_rho(d),
        # so the kernel side is ||g||^2_mu * 2pi int k_rho^2 sinh
        weight = weight_from_name(wname)
        rho = bump_multiplier(1.0, 2.5)
        r0 = 0.35
        gfun = lambda z: np.exp(-4.0 * np.abs(z) ** 2)

        def a(z, l, b):
            return complex(rho(l)) * gfun(z) * (abs(z) <= r0)

        sym_side = hs_norm_disc(a, r0, (1.0, 2.5), weight,
                                n_rad=40, n_zang=16, n_lam=40, n_bang=96)
        k = inverse_selberg(rho, weight)
        K = kernel_from_symbol(a, (1.0, 2.5), weight, n_lam=48, n_ang=192)
        # the factorization itself, spot-checked
        for z, w in [(0.1 + 0.1j, 0.4 - 0.2j), (0.2j, -0.5 + 0.1j)]:
            d = 2.0 * math.asinh(math.sqrt(abs(z - w) ** 2 /
                                           ((1 - abs(z) ** 2) * (1 - abs(w) ** 2))))
            assert K(z, w).real == pytest.approx(gfun(z) * float(k(d)), abs=1e-6)
        from hypsurf.quadrature import gauss_legendre
        t_z, w_z = gauss_legendre(0.0, 2.0 * math.atanh(r0), 64)
        g2 = np.array([gfun(math.tanh(t / 2.0)) ** 2 for t in t_z])
        g_mass = TWO_PI * float(np.sum(g2 * np.sinh(t_z) * w_z))
        t_k, w_k = gauss_legendre(0.0, 40.0, 800)
        k_mass = TWO_PI * float(np.sum(k(t_k) ** 2 * np.sinh(t_k) * w_k))
        assert g_mass * k_mass == pytest.approx(sym_side, rel=0.02)


class TestWeights:
    def test_positivity_and_zero(self):
        for w in [PlancherelWeight.paper(), PlancherelWeight.harmonic()]:
            assert float(w(0.0)) == 0.0
            assert float(w(1.0)) > 0

    def test_plateau_multiplier(self):
        rho = plateau_multiplier(1.0, 2.0, 0.2)
        assert float(rho(1.5)) == pytest.approx(1.0)
        assert float(rho(0.75)) == 0.0
        assert 0 < float(rho(0.95)) < 1
