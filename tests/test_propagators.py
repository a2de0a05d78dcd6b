import math

import numpy as np
import pytest

from hypsurf.propagators import (
    CutoffSpec,
    avg_multiplier_H,
    avg_multiplier_H_sharp,
    beta_norm_check,
    default_eta,
    delta_h,
    h_sharp,
    h_sharp_reference,
    h_smooth,
    h_smooth_on_grid,
    h_smooth_reference,
    lemma_a1_check,
    lemma_a1_constant,
    prop33_certificate,
    smooth_propagator,
)
from hypsurf.propagators import _delta_h_formula, _time_nodes
from hypsurf.quadrature import gauss_legendre
from hypsurf.transforms import _phi_md_grid


class TestCutoff:
    def test_plateau_contract(self):
        spec = CutoffSpec(3.0, 0.5)
        assert float(spec.chi(3.0 - 0.5 - 1e-6)) == pytest.approx(1.0, abs=1e-10)
        assert float(spec.chi(3.0 + 1e-6)) == 0.0
        assert float(spec.chi(0.1)) == 1.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            CutoffSpec(1.0, 1.5)

    def test_kernel_support_and_plateau(self):
        k = smooth_propagator(4.0, 0.3)
        c = math.cosh(4.0) ** -0.5
        assert float(k(4.5)) == 0.0
        assert float(k(3.6)) == pytest.approx(c, abs=1e-12)
        assert float(k(0.7)) == pytest.approx(c, abs=1e-12)


class TestMultipliers:
    @pytest.mark.parametrize("t,lam", [(1.0, 0.5), (3.0, 1.0), (6.0, 2.0)])
    def test_sharp_vs_reference(self, t, lam):
        assert h_sharp(t, lam) == pytest.approx(h_sharp_reference(t, lam), abs=1e-6)

    @pytest.mark.parametrize("t,lam", [(1.0, 0.5), (3.0, 1.0), (6.0, 2.0)])
    def test_smooth_vs_reference(self, t, lam):
        assert h_smooth(t, 0.1, lam) == pytest.approx(
            h_smooth_reference(t, 0.1, lam), abs=1e-6)

    @pytest.mark.parametrize("t,lam", [(1.0, 0.5), (3.0, 1.0), (6.0, 2.0),
                                       (1.0, 2.0), (6.0, 0.5)])
    def test_sharp_vs_selberg_route(self, t, lam):
        # 2 pi (cosh t)^{-1/2} int_0^t phi_lam sinh dr, independent quadrature
        r, w = gauss_legendre(0.0, t, 600)
        phis = np.array([float(_phi_md_grid(np.array([lam]), float(rr))[0]) for rr in r])
        oracle = 2.0 * math.pi / math.sqrt(math.cosh(t)) * float(
            np.sum(phis * np.sinh(r) * w))
        assert h_sharp(t, lam) == pytest.approx(oracle, abs=1e-6)

    def test_smooth_tends_to_sharp(self):
        # |delta h| <= 4 C_I (1 - e^{-sigma/2}): shrinks along sigma -> 0
        t, lam = 4.0, 1.0
        c_hat = lemma_a1_constant([lam], np.linspace(t - 0.5, t, 8))
        prev = None
        for sigma in [0.4, 0.2, 0.1, 0.05]:
            d = abs(delta_h(t, sigma, lam))
            envelope = 4.0 * c_hat * (1.0 - math.exp(-sigma / 2.0))
            assert d <= envelope * (1.0 + 1e-6)
            if prev is not None:
                assert d <= prev + 1e-9
            prev = d

    def test_small_t_mass_vanishes(self):
        assert abs(h_sharp(0.05, 1.0)) < 0.02
        assert abs(h_smooth(0.05, 0.02, 1.0)) < 0.02


class TestSelbergRoute:
    def test_far_row_against_mpmath(self):
        # 2 pi (cosh t)^{-1/2} int_0^t chi(r) phi_lam(r) sinh r dr at 30 digits:
        # phi_lam(r) = mp.legenp(-1/2 + i lam, 0, cosh r), the integral by
        # mp.quad with breakpoints at the integers and at t - sigma, mp.dps = 30
        assert h_smooth(39.9, 0.1, 1.9) == pytest.approx(-0.494127526458754527588,
                                                         abs=1e-12)

    def test_row_independent_of_other_time_nodes(self):
        # panel edges are the fixed unit panels, never the grid's own t - sigma
        lam = np.linspace(0.87, 1.94, 9)
        ts = np.array([0.35, 2.5, 7.25, 39.9])
        grid = h_smooth_on_grid(ts, 0.1, lam)
        wider = h_smooth_on_grid(np.concatenate([ts, [1.05, 12.3, 44.0]]), 0.1, lam)
        for i, t in enumerate(ts):
            assert np.array_equal(grid[i], h_smooth(float(t), 0.1, lam))
            assert np.array_equal(grid[i], wider[i])

    def test_rows_of_prop33_grid_equal_one_row_calls(self):
        # the 320 time nodes of a default prop33 go to phi_eval in blocks
        lo, hi = 0.8660254037844386, 1.9364916731037085
        lam = np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.02)) + 1)
        ts = np.unique(np.concatenate([_time_nodes(T, 8)[0] for T in (10.0, 20.0, 40.0)]))
        assert ts.size == 320
        grid = h_smooth_on_grid(ts, 0.1, lam)
        assert not grid[ts <= 0.1].any()
        for i in np.flatnonzero(ts > 0.1):
            assert np.array_equal(grid[i], h_smooth(float(ts[i]), 0.1, lam))

    def test_rows_frozen(self):
        # values of the rows when the cutoff was an argument defaulting to eta
        lam = np.array([0.87, 1.3, 1.94])
        frozen = [[0.2748148834088416, 0.27184954795729904, 0.26533756197536496],
                  [-2.219771268072901, 1.6918874757511762, 1.2604345524363638],
                  [1.5790958274850866, 2.6272741785352554, 1.6928088304862121]]
        grid = h_smooth_on_grid(np.array([0.35, 7.25, 39.9]), 0.1, lam)
        np.testing.assert_allclose(grid, frozen, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t", [0.15, 0.95, 1.05])
    def test_rows_across_r_equals_one(self, t):
        # the partial panel and the ramp straddle the switch of phi_eval at r = 1
        lam = np.array([0.5, 1.0, 1.9, 3.0])
        ref = [h_smooth_reference(t, 0.1, float(x)) for x in lam]
        assert np.allclose(h_smooth_on_grid(np.array([t]), 0.1, lam)[0], ref,
                           rtol=0.0, atol=1e-9)


class TestDeltaH:
    def test_routes_agree(self):
        for t, sigma, lam in [(3.0, 0.2, 0.5), (6.0, 0.1, 2.0), (4.0, 0.4, 1.0)]:
            a = h_smooth(t, sigma, lam) - h_sharp(t, lam)
            b = float(_delta_h_formula(t, sigma, np.array([lam]))[0])
            assert a == pytest.approx(b, abs=1e-7)

    def test_requires_t_range(self):
        with pytest.raises(ValueError):
            delta_h(1.0, 0.2, 1.0)


class TestLemmaA1:
    def test_positive_at_lambda_zero_limit(self):
        val = lemma_a1_check(1e-6, 5.0)
        assert val > 0

    def test_bounded_no_growth(self):
        # compare amplitude near r=2 and near r=20 (windows dodge cosine zeros)
        for lam in [0.5, 1.0, 2.0, 3.0]:
            early = max(lemma_a1_check(lam, r) for r in (2.0, 2.5, 3.0))
            late = max(lemma_a1_check(lam, r) for r in (19.0, 19.5, 20.0))
            assert 0.1 < late / early < 10.0

    def test_grid_stable_constant(self):
        lams = [0.5, 1.0, 2.0, 3.0]
        c1 = lemma_a1_constant(lams, np.arange(2.0, 21.0, 1.0))
        c2 = lemma_a1_constant(lams, np.arange(2.0, 20.6, 0.5))
        assert c2 >= c1 - 1e-12
        assert c2 <= c1 * 1.2

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            lemma_a1_check(1.0, 0.5)


class TestAveragedMultiplier:
    def test_nonnegative(self):
        lam = np.linspace(0.5, 2.0, 7)
        H = avg_multiplier_H(5.0, 0.1, lam)
        assert np.all(H >= 0)

    def test_positive_floor_on_window(self):
        lam = np.linspace(0.87, 1.94, 12)
        H = avg_multiplier_H(20.0, 0.1, lam)
        assert H.min() > 0.5

    def test_upper_cap_from_h_bound(self):
        # |h_t| <= 2 pi t e^{t/2} (1+1/t...) / sqrt(cosh t) style cap; measure
        # the t-sup numerically and verify H_T below its square
        lam = 1.0
        ts = np.linspace(0.05, 20.0, 80)
        hvals = np.array([h_smooth(float(t), 0.1, lam) if t > 0.1 else 0.0
                          for t in ts])
        cap = float(np.max(hvals ** 2))
        assert avg_multiplier_H(20.0, 0.1, lam) <= cap * (1.0 + 1e-9)

    def test_sharp_variant_same_scale(self):
        lam = np.linspace(0.9, 1.9, 6)
        Hs = avg_multiplier_H_sharp(20.0, lam)
        Hm = avg_multiplier_H(20.0, 0.1, lam)
        assert np.all(Hs > 0)
        assert np.max(np.abs(Hs - Hm)) < 0.5 * np.max(Hs)


class TestCertificate:
    def test_default_window(self):
        cert = prop33_certificate((0.87, 1.94), 0.1, (10.0, 20.0, 40.0),
                                  lam_spacing=0.05)
        assert cert.passed
        assert all(c > 1.0 for c in cert.c_min)
        assert cert.upper_half_variation < 0.20
        assert cert.lemma_a1_const > 0

    def test_shared_time_nodes_keep_each_floor(self):
        # h is computed once per distinct time node across T_list; each floor
        # must still be the min of its own avg_multiplier_H, bit for bit
        lo, hi, sigma, T_list = 1.0, 1.5, 0.1, (3.0, 6.0, 4.5)
        cert = prop33_certificate((lo, hi), sigma, T_list, lam_spacing=0.125)
        lam_grid = np.linspace(lo, hi, 5)
        for T, c in zip(T_list, cert.c_min):
            assert c == float(np.min(avg_multiplier_H(T, sigma, lam_grid)))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            prop33_certificate((1.5, 1.5), 0.1, (10.0,))


class TestBetaNorm:
    def test_bounded_band(self):
        vals = [beta_norm_check(t) for t in (2.0, 5.0, 10.0, 15.0)]
        assert max(vals) / min(vals) < 4.0
        assert max(vals) < 6.0

    def test_vanishes_at_zero(self):
        assert beta_norm_check(1e-9) == pytest.approx(0.0, abs=1e-6)
        assert beta_norm_check(0.0) == 0.0

    def test_default_p(self):
        # p = 3/2 is the reference choice; others in (1,2) allowed
        assert beta_norm_check(5.0) == beta_norm_check(5.0, p=1.5)
        with pytest.raises(ValueError):
            beta_norm_check(5.0, p=2.5)


def test_eta_shape():
    assert float(default_eta(np.array([-1.5]))[0]) == 1.0
    assert float(default_eta(np.array([0.5]))[0]) == 0.0
    x = np.linspace(-1, 0, 33)
    vals = default_eta(x)
    assert np.all(np.diff(vals) <= 1e-15)
