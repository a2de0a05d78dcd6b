import math
from dataclasses import replace

import numpy as np
import pytest

from hypsurf.eigensolve import disc_surface_mesh, fem_eigensolve
from hypsurf.errors import EmptyWindow, WindowNotResolved
from hypsurf.fuchsian import bolza_group, bs_statistic, random_cover, systole_ball
from hypsurf.observables import multiplication_observable
from hypsurf.quadrature import gauss_legendre
from hypsurf.transforms import PlancherelWeight
from hypsurf.variance import (SpectralWindow, _bs_or_one, mean_zero_density,
                              quantum_variance, variance_pipeline_bounds,
                              weyl_predicted_density, weyl_ratio)

# frozen regression: (1/4pi) int 1_{[1,4]}(1/4+s^2) s tanh(pi s) ds over R,
# first computed by the quadrature below and pinned thereafter
WEYL_DENSITY_J14 = 0.23850835338707335


@pytest.fixture(scope="module")
def bolza():
    return bolza_group()


@pytest.fixture(scope="module")
def bolza_data(bolza):
    return fem_eigensolve(disc_surface_mesh(bolza, 0.05), 30)


class TestWindow:
    def test_lambda_interval(self):
        w = SpectralWindow(1.0, 4.0)
        assert w.lam_lo == pytest.approx(math.sqrt(0.75))
        assert w.lam_hi == pytest.approx(math.sqrt(3.75))

    def test_rejects_below_quarter(self):
        with pytest.raises(ValueError):
            SpectralWindow(0.2, 1.0)

    def test_margin_widens(self):
        w = SpectralWindow(1.0, 4.0)
        lo, hi = w.lam_interval_wide
        assert lo < w.lam_lo and hi > w.lam_hi

    def test_nested_windows_monotone_prediction(self):
        inner = weyl_predicted_density(SpectralWindow(1.5, 3.0))
        outer = weyl_predicted_density(SpectralWindow(1.0, 4.0))
        assert inner < outer


class TestQuantumVariance:
    def test_constant_observable(self, bolza_data):
        w = SpectralWindow(1.0, 4.0)
        rep = quantum_variance(np.ones_like(bolza_data.weights), bolza_data, w)
        assert rep.variance == pytest.approx(0.0, abs=1e-24)

    def test_mean_zero_reduction(self, bolza_data):
        # for exactly mean-zero density the limit term is 0 and the variance
        # is the mean of |<psi, a psi>|^2
        w = SpectralWindow(1.0, 4.0)
        vals = mean_zero_density(lambda z: np.where(np.real(z) > 0, 1.0, -1.0), bolza_data)
        rep = quantum_variance(vals, bolza_data, w)
        assert float(rep.limit_terms[0]) == pytest.approx(0.0, abs=1e-14)
        direct = np.mean(rep.matrix_elements ** 2)
        assert rep.variance == pytest.approx(float(direct), rel=1e-12)

    def test_mean_zero_density_is_one_call_on_every_point(self, bolza_data):
        calls = []

        def f(zs):
            calls.append(np.array(zs))
            return np.real(zs)

        vals = mean_zero_density(f, bolza_data)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], bolza_data.points)
        assert abs(float(np.sum(vals * bolza_data.weights))) < 1e-12

    def test_nonnegative(self, bolza_data):
        w = SpectralWindow(1.0, 8.0)
        vals = mean_zero_density(lambda z: np.sin(2 * np.real(z)), bolza_data)
        rep = quantum_variance(vals, bolza_data, w)
        assert rep.variance >= 0.0
        assert rep.count == int(np.sum(w.contains_nu(bolza_data.eigenvalues)))

    def test_window_holds_the_lambda1_triple(self, bolza_data):
        # [1, 4] holds lambda_1 = 3.8389 (multiplicity 3) and nothing else
        vals = mean_zero_density(lambda z: np.where(np.real(z) > 0, 1.0, -1.0), bolza_data)
        assert quantum_variance(vals, bolza_data, SpectralWindow(1.0, 4.0)).count == 3

    def test_empty_window(self, bolza_data):
        with pytest.raises(EmptyWindow):
            quantum_variance(np.ones_like(bolza_data.weights), bolza_data,
                             SpectralWindow(0.26, 0.27))


@pytest.fixture(scope="module")
def cover_solves(bolza):
    """Mesh and eigendata of the degree-4 and degree-8 covers, as tower solves them."""
    out = {}
    for degree, modes in ((4, 64), (8, 104)):
        mesh = disc_surface_mesh(random_cover(bolza, degree, seed=0), 0.05)
        out[degree] = (mesh, fem_eigensolve(mesh, modes))
    return out


@pytest.fixture(scope="module")
def cover_data(cover_solves):
    return cover_solves[4][1]


def _from_modes(data, vecs):
    """The eigendata with these cover modes as its one (d = 1) block."""
    return replace(data, blocks=vecs, walk=np.arange(len(vecs))[None, :],
                   imaginary=np.zeros(data.n_modes, dtype=bool))


def _sign(data):
    return mean_zero_density(lambda z: np.where(np.real(z) > 0, 1.0, -1.0), data)


def _pair_in(data, window):
    """Indices of an exactly degenerate pair inside the window."""
    nu = data.eigenvalues
    j = next(j for j in range(len(nu) - 1) if nu[j] == nu[j + 1]
             and window.contains_nu(nu[j]))
    return j, j + 1


class TestDegenerateClusters:
    WINDOW = SpectralWindow(1.0, 4.0)

    def test_basis_rotation_leaves_variance(self, cover_data):
        # a degenerate pair's basis is arbitrary; the variance must not see it
        j, k = _pair_in(cover_data, self.WINDOW)
        theta = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        vecs = cover_data.eigenvectors.copy()
        vecs[:, [j, k]] = vecs[:, [j, k]] @ np.array([[c, s], [-s, c]])
        rotated = _from_modes(cover_data, vecs)
        a = _sign(cover_data)
        want = quantum_variance(a, cover_data, self.WINDOW).variance
        got = quantum_variance(a, rotated, self.WINDOW).variance
        assert got == pytest.approx(want, rel=1e-12)

    def test_cluster_sum_is_the_frobenius_norm(self, cover_data):
        j, k = _pair_in(cover_data, self.WINDOW)
        a = _sign(cover_data)
        rep = quantum_variance(a, cover_data, self.WINDOW)
        psi = cover_data.eigenvectors[:, [j, k]]
        block = psi.T @ ((a * cover_data.weights)[:, None] * psi)
        frob = float(np.sum((block - rep.limit_terms[0] * np.eye(2)) ** 2))
        pos = int(np.flatnonzero(self.WINDOW.contains_nu(cover_data.eigenvalues))
                  .searchsorted(j))
        assert rep.terms[pos] + rep.terms[pos + 1] == pytest.approx(frob, rel=1e-12)

    def test_window_edge_splitting_a_cluster(self, cover_data):
        j, k = _pair_in(cover_data, self.WINDOW)
        nu = cover_data.eigenvalues.copy()
        nu[k] = nu[j] * (1.0 + 1e-10)           # still one cluster
        split = replace(cover_data, eigenvalues=nu)
        with pytest.raises(WindowNotResolved):
            quantum_variance(_sign(split), split,
                             SpectralWindow(1.0, nu[j] * (1.0 + 5e-11)))


def _own_deck(mesh):
    """deck[u] is the unknown one sheet up from u, read off the mesh's classes."""
    deck = np.empty(mesh.classes.max() + 1, dtype=int)
    deck[mesh.classes] = np.roll(mesh.classes, -1, axis=0)
    return deck


def _own_walk(deck):
    """walk[t, a] = deck^t(r_a), r_a the least node of each deck orbit."""
    walk = [np.arange(len(deck))]
    while not np.array_equal(deck[walk[-1]], walk[0]):
        walk.append(deck[walk[-1]])
    walk = np.array(walk)
    return walk[:, walk.min(axis=0) == walk[0]]


def _own_lift(deck, data):
    """Mode j on the cover: sqrt(mult / d) Re or Im of chi_k(t) psi_j(a) at
    node deck^t(r_a)."""
    walk = _own_walk(deck)
    d = len(walk)
    modes = np.zeros((walk.size, data.n_modes))
    for j, (k, imag) in enumerate(zip(data.characters, data.imaginary)):
        f = (np.exp(2j * math.pi * k * np.arange(d) / d)[:, None]
             * data.blocks[:, j] * math.sqrt((2 if 2 * k % d else 1) / d))
        modes[walk, j] = f.imag if imag else f.real
    return modes


def _dense_variance(values, modes, data, window):
    """Matrix elements and variance from the dense compressed observable
    Psi^T diag(a w) Psi of each cluster of the cover modes."""
    nu, w = data.eigenvalues, data.weights
    cluster = np.concatenate([[0], np.cumsum(np.diff(nu) > 1e-8 * np.maximum(1.0, nu[:-1]))])
    limit = np.sum(values * w) / np.sum(w)
    elements = []
    for c in np.unique(cluster[window.contains_nu(nu)]):
        psi = modes[:, cluster == c]
        elements.extend(np.linalg.eigvalsh(psi.T @ ((values * w)[:, None] * psi)))
    elements = np.array(elements)
    return elements, float(np.mean((elements - limit) ** 2))


class TestCharacterBlocks:
    WINDOW = SpectralWindow(1.0, 4.0)

    @pytest.mark.parametrize("degree", [4, 8])
    @pytest.mark.parametrize("pullback", [False, True], ids=["chart", "deck_invariant"])
    def test_variance_equals_the_lifted_dense_one(self, cover_solves, degree, pullback):
        mesh, data = cover_solves[degree]
        deck = _own_deck(mesh)
        modes = _own_lift(deck, data)
        K, w = mesh.stiffness, mesh.weights
        residual = K @ modes - w[:, None] * modes * data.eigenvalues
        assert np.linalg.norm(residual, axis=0).max() <= 1e-9
        assert np.abs(modes.T @ (w[:, None] * modes) - np.eye(data.n_modes)).max() <= 1e-8
        values = _sign(data)
        # the chart sign flips between the copies of a paired side, so it is not
        # deck-invariant; its pullback from each orbit's least node is
        assert not np.array_equal(values[deck], values)
        if pullback:
            walk = _own_walk(deck)
            values = np.empty_like(values)
            values[walk] = _sign(data)[walk[0]]
            values -= np.sum(values * w) / np.sum(w)
            assert np.array_equal(values[deck], values)
        rep = quantum_variance(values, data, self.WINDOW)
        elements, variance = _dense_variance(values, modes, data, self.WINDOW)
        assert rep.variance == pytest.approx(variance, rel=1e-12)
        assert np.abs(rep.matrix_elements - elements).max() <= 1e-12 * variance ** 0.5

    def test_no_mode_is_lifted(self, cover_solves):
        mesh, _ = cover_solves[8]
        data = fem_eigensolve(mesh, 104)
        quantum_variance(_sign(data), data, self.WINDOW)
        weyl_ratio(data, self.WINDOW)
        assert "eigenvectors" not in vars(data)
        assert data.eigenvectors.shape == (len(mesh.points), 104)
        assert "eigenvectors" in vars(data)         # the check sees a lift

    def test_mode_count_splitting_a_complex_pair(self, cover_solves):
        # 11 modes of the degree-4 cover end with the real part of a k = 1 pair
        # at nu = 3.277, inside the window: its plane is not resolved
        mesh, _ = cover_solves[4]
        data = fem_eigensolve(mesh, 11)
        assert (data.characters[-1], data.imaginary[-1]) == (1, False)
        assert self.WINDOW.contains_nu(data.eigenvalues[-1])
        with pytest.raises(WindowNotResolved):
            quantum_variance(_sign(data), data, self.WINDOW)


class TestWeyl:
    def test_frozen_prediction(self):
        assert weyl_predicted_density(SpectralWindow(1.0, 4.0)) == pytest.approx(
            WEYL_DENSITY_J14, abs=1e-12)

    def test_prediction_by_independent_quadrature(self):
        # fresh quadrature at different node count, symmetry factor 2
        w = SpectralWindow(1.0, 4.0)
        s, q = gauss_legendre(w.lam_lo, w.lam_hi, 1000)
        val = 2.0 * float(np.sum(s * np.tanh(math.pi * s) * q)) / (4 * math.pi)
        assert val == pytest.approx(WEYL_DENSITY_J14, abs=1e-12)

    def test_unresolved_window(self, bolza_data):
        top = float(np.max(bolza_data.eigenvalues))
        with pytest.raises(WindowNotResolved):
            weyl_ratio(bolza_data, SpectralWindow(1.0, top * 0.95))

    def test_ratio_on_base(self, bolza_data):
        rep = weyl_ratio(bolza_data, SpectralWindow(1.0, 4.0))
        assert 0.3 <= rep.ratio <= 3.0   # base surface is tiny; coarse check
        assert rep.volume == pytest.approx(4 * math.pi)


@pytest.fixture(scope="module")
def budget_args(bolza):
    A = multiplication_observable(lambda z: np.where(np.real(z) > 0, 1.0, -1.0), 1.0)
    w = SpectralWindow(1.0, 4.0)
    return A, bolza, w


class TestPipelineBudget:

    def test_T_doubling_halves_averaging_term(self, budget_args):
        A, g, w = budget_args
        # use an observable with nonzero theta norm: a finite-range one is
        # costly, so scale-check the formula directly through nevo factor
        b1 = variance_pipeline_bounds(A, g, T=4.0, r=3.0, s=3.0, window=w,
                                      n_mc=40, seed=1)
        b2 = variance_pipeline_bounds(A, g, T=8.0, r=3.0, s=3.0, window=w,
                                      n_mc=40, seed=1)
        if b1.theta_norm_sq == 0.0:
            assert b1.terms["averaging"] == b2.terms["averaging"] == 0.0
        else:
            assert b2.terms["averaging"] == pytest.approx(b1.terms["averaging"] / 2,
                                                          rel=0.3)

    def test_r_doubling_quarters_truncation(self, budget_args):
        A, g, w = budget_args
        b1 = variance_pipeline_bounds(A, g, T=4.0, r=3.0, s=3.0, window=w,
                                      n_mc=40, seed=1)
        b2 = variance_pipeline_bounds(A, g, T=4.0, r=6.0, s=3.0, window=w,
                                      n_mc=40, seed=1)
        assert b2.terms["truncation"] == pytest.approx(b1.terms["truncation"] / 4.0,
                                                       rel=1e-9)

    def test_budget_finite_and_reported(self, budget_args):
        A, g, w = budget_args
        b = variance_pipeline_bounds(A, g, T=4.0, r=3.0, s=3.0, window=w,
                                     n_mc=40, seed=1)
        assert math.isfinite(b.total)
        assert b.dominant in ("averaging", "wraparound", "cutoff_tail",
                              "mean_kernel", "hs_times_E", "truncation")
        assert b.nevo_n_provenance == "assumed"
        assert b.systole > 0

    def test_search_counters_sum_the_systole_ball_and_both_bs_searches(self, budget_args):
        A, g, w = budget_args
        T, r, s = 4.0, 3.0, 3.0
        b = variance_pipeline_bounds(A, g, T=T, r=r, s=s, window=w, n_mc=40, seed=1)
        wrap = bs_statistic(g, r + b.S_T, 40, 1)
        mean_kernel = bs_statistic(g, s + 2.0 * T, 20, 2)
        assert wrap.value == b.bs_fraction_wrap
        assert b.orbit_elements_explored == (systole_ball(g).elements_explored
                                             + wrap.orbit_elements_explored
                                             + mean_kernel.orbit_elements_explored)
        assert b.sampler_proposals == wrap.sampler_proposals + mean_kernel.sampler_proposals
        # a radius past the guard is the flagged bound 1 and searches nothing
        assert _bs_or_one(g, 25.5, 40, 1) == (1.0, True, 0, 0)

    def test_terms_match_hand_recomputation(self, budget_args):
        # frozen configuration: rebuild the explicit-formula terms from the
        # report's measured ingredients
        from hypsurf.transforms import plateau_multiplier
        A, g, w = budget_args
        T, r = 4.0, 3.0
        chi_p = 1.5         # sup |chi'| of the smoothstep cutoff, at x = 1/2
        b = variance_pipeline_bounds(A, g, T=T, r=r, s=3.0, window=w,
                                     n_mc=40, seed=1)
        rho = plateau_multiplier(w.lam_lo, w.lam_hi,
                                 margin=0.1 * (w.lam_hi - w.lam_lo))
        lam, q = gauss_legendre(rho.support[0], rho.support[1], 256)
        pw = PlancherelWeight.paper()
        rho_l2 = float(np.sum(rho(lam) ** 2 * pw(lam) * q))
        k_mass = float(np.sum(rho(lam) ** 2 * pw.hs_weight(lam) * q))
        S_T = 2.0 * T + A.locality.S
        assert b.S_T == S_T
        hand_trunc = ((S_T / r) ** 2 * chi_p ** 2 * math.exp(2.0 * S_T)
                      * rho_l2 * b.sup_sandwich_sq)
        assert b.terms["truncation"] == pytest.approx(hand_trunc, rel=1e-12)
        hand_wrap = ((1.0 + (S_T / r) ** 2) * (k_mass + rho_l2)
                     * b.sup_sandwich_sq * math.exp(2.0 * (r + S_T))
                     / b.systole * b.bs_fraction_wrap)
        assert b.terms["wraparound"] == pytest.approx(hand_wrap, rel=1e-12)
        assert b.terms["averaging"] == b.theta_norm_sq / (1 - 1 / b.nevo_n) / T
