import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.spatial
from scipy.linalg import eigh

import hypsurf.eigensolve as E
from hypsurf.cli import main
from hypsurf.eigensolve import (_smallest_pairs, disc_surface_mesh, export_eigendata,
                                fem_eigensolve, ingest_eigendata, torus_mesh)
from hypsurf.errors import (FormatError, MeshPairingFailure,
                            OrthonormalityViolation, ParameterOutOfRange,
                            ResidualViolation)
from hypsurf.fuchsian import (BOLZA_SIDE_LENGTH, CoverSurface, FuchsianGroup,
                              bolza_group, random_cover)
from hypsurf.geometry import GroupElement


@pytest.fixture(scope="module")
def bolza():
    return bolza_group()


@pytest.fixture(scope="module")
def bolza_data(bolza):
    return fem_eigensolve(disc_surface_mesh(bolza, 0.05), 16)


class TestTorusSelfTest:
    def test_first_ten_modes(self):
        data = fem_eigensolve(torus_mesh(0.02), 10)
        exact = sorted(4 * math.pi ** 2 * (m * m + n * n)
                       for m in range(-3, 4) for n in range(-3, 4))[:10]
        for got, want in zip(data.eigenvalues, exact):
            assert got == pytest.approx(want, rel=0.02, abs=1e-8)

    def test_ground_state_constant(self):
        data = fem_eigensolve(torus_mesh(0.05), 4)
        assert abs(data.eigenvalues[0]) < 1e-10
        psi0 = data.eigenvectors[:, 0]
        assert np.std(psi0) < 1e-8 * np.abs(psi0).max()


class TestTorusAssembly:
    H = 0.05

    def test_stiffness_is_the_five_point_laplacian(self):
        n = round(1 / self.H)
        idx = np.arange(n * n).reshape(n, n)
        rows = np.repeat(idx.ravel(), 4)
        cols = np.stack([np.roll(idx, s, axis=ax).ravel() for s, ax in
                         ((1, 0), (-1, 0), (1, 1), (-1, 1))], axis=1).ravel()
        five = (4.0 * sp.eye(n * n)
                - sp.coo_matrix((np.ones(4 * n * n), (rows, cols)))).tocsr()
        mesh = torus_mesh(self.H)
        assert (mesh.stiffness != five).nnz == 0
        assert np.allclose(mesh.weights, self.H ** 2, rtol=1e-15, atol=0.0)

    def test_discrete_spectrum(self):
        # 13 = 1 + 4 + 4 + 4 modes: the levels below the 8-fold one
        n = round(1 / self.H)
        s = np.sin(math.pi * np.arange(n) / n) ** 2
        exact = np.sort(4 * n * n * (s[:, None] + s[None, :]).ravel())[:13]
        data = fem_eigensolve(torus_mesh(self.H), 13)
        assert np.all(np.abs(data.eigenvalues - exact) <= 1e-10 * np.maximum(exact, 1.0))


class TestBolzaSolve:
    def test_ground_state(self, bolza_data):
        assert abs(bolza_data.eigenvalues[0]) < 1e-3
        psi0 = bolza_data.eigenvectors[:, 0]
        assert np.std(psi0) < 1e-6 * np.abs(psi0).max()

    def test_orthonormal(self, bolza_data):
        assert bolza_data.gram_deviation < bolza_data.ortho_tol

    def test_volume_close(self, bolza_data):
        assert np.sum(bolza_data.weights) == pytest.approx(4 * math.pi, rel=0.05)

    def test_weyl_tendency(self, bolza_data):
        # N(nu) ~ Vol * nu / (4 pi) at coarse tolerance
        nu = 8.0
        count = int(np.sum((bolza_data.eigenvalues > 1e-6)
                           & (bolza_data.eigenvalues <= nu)))
        predicted = 4 * math.pi * nu / (4 * math.pi)
        assert count == pytest.approx(predicted, rel=0.5)

    def test_cover_volume_and_ground_state(self, bolza):
        cov = random_cover(bolza, 2, seed=23)
        data = fem_eigensolve(disc_surface_mesh(cov, 0.05), 8)
        assert np.sum(data.weights) == pytest.approx(8 * math.pi, rel=0.05)
        assert abs(data.eigenvalues[0]) < 1e-3

    def test_h_guard(self, bolza):
        with pytest.raises(ValueError):
            disc_surface_mesh(bolza, 0.5)


# Strohmaier & Uski, Commun. Math. Phys. 317 (2013): the first two nonzero
# eigenvalues of the Bolza surface and their multiplicities
BOLZA_LAMBDA1, BOLZA_MULT1 = 3.83888726, 3
BOLZA_LAMBDA2, BOLZA_MULT2 = 5.35360134, 4


@pytest.fixture(scope="module")
def bolza_spectra(bolza):
    return {h: fem_eigensolve(disc_surface_mesh(bolza, h), 12).eigenvalues
            for h in (0.02, 0.01)}


def _clusters(ev):
    """The lambda_1 triple, the lambda_2 quadruple and the next eigenvalue."""
    return ev[1:1 + BOLZA_MULT1], ev[4:4 + BOLZA_MULT2], ev[8]


class TestBolzaSpectrum:
    def test_clusters_near_literature(self, bolza_spectra):
        l1, l2, _ = _clusters(bolza_spectra[0.02])
        assert np.all(np.abs(l1 - BOLZA_LAMBDA1) <= 0.01 * BOLZA_LAMBDA1)
        assert np.all(np.abs(l2 - BOLZA_LAMBDA2) <= 0.005 * BOLZA_LAMBDA2)

    def test_clusters_tight(self, bolza_spectra):
        l1, l2, nxt = _clusters(bolza_spectra[0.02])
        assert l1[-1] - l1[0] < 0.01 * (l2[0] - l1[-1])
        assert l2[-1] - l2[0] < 0.01 * (nxt - l2[-1])

    def test_richardson_limit(self, bolza_spectra):
        # eigenvalue error O(h^2): m(h) + (m(h) - m(2h)) / 3 removes it
        coarse, fine = _clusters(bolza_spectra[0.02]), _clusters(bolza_spectra[0.01])
        for k, want in ((0, BOLZA_LAMBDA1), (1, BOLZA_LAMBDA2)):
            m2, m1 = coarse[k].mean(), fine[k].mean()
            assert m1 + (m1 - m2) / 3.0 == pytest.approx(want, rel=1e-3)


class TestAssembly:
    @pytest.mark.parametrize("degree", [1, 4])
    def test_stiffness_and_volume(self, bolza, degree):
        surface = bolza if degree == 1 else random_cover(bolza, degree, seed=0)
        mesh = disc_surface_mesh(surface, 0.02)
        K = mesh.stiffness
        assert (K != K.T).nnz == 0
        assert np.abs(K @ np.ones(K.shape[0])).max() <= 1e-12
        assert np.sum(mesh.weights) == pytest.approx(4 * math.pi * degree, rel=0.01)

    def test_base_modes_lift_to_cover(self, bolza, bolza_data):
        # a base eigenfunction pulled back to the sheets is an eigenfunction
        # of the cover's mesh, which is the base mesh on every sheet
        cover = fem_eigensolve(disc_surface_mesh(random_cover(bolza, 4, seed=0), 0.05), 64)
        base = bolza_data.eigenvalues[:12]
        assert base[-1] < cover.eigenvalues[-1]
        assert cover.eigenvalues[1] > 1e-6          # one zero mode: the sheets connect
        for nu in base:
            tol = 1e-8 * max(nu, 1.0)
            assert (np.sum(np.abs(cover.eigenvalues - nu) <= tol)
                    >= np.sum(np.abs(base - nu) <= tol))

    def test_unpaired_sides_rejected(self, bolza):
        # a longer first translation g still maps the line of one of its
        # sides onto the other's, but no longer the ends of the sides
        g = GroupElement.translation(0.0, 1.05 * BOLZA_SIDE_LENGTH)
        gens = (g,) + bolza.generators[1:]
        group = FuchsianGroup(gens, "bent", bolza.covolume_hint,
                              dirichlet_radius=bolza.dirichlet_radius)
        with pytest.raises(MeshPairingFailure):
            disc_surface_mesh(group, 0.1)


def _oracle_eigenvalues(mesh, n_modes):
    """The plain shift-invert solve of the whole cover, a few modes to spare."""
    v0 = np.random.default_rng(1).standard_normal(mesh.stiffness.shape[0])
    vals = spla.eigsh(mesh.stiffness, k=n_modes + 8, M=sp.diags(mesh.weights),
                      sigma=-0.1, which="LM", v0=v0, return_eigenvectors=False)
    return np.sort(vals)[:n_modes]


@pytest.fixture(scope="module")
def solves(bolza):
    """Mesh and mode-count solve of the covers of degree 2, 4 and 8 at h = 0.05."""
    out = {}
    for degree in (2, 4, 8):
        mesh = disc_surface_mesh(random_cover(bolza, degree, seed=0), 0.05)
        out[degree] = (mesh, fem_eigensolve(mesh, 24 + 10 * degree))
    return out


class TestCharacterSolve:
    H = 0.05

    @pytest.mark.parametrize("degree", [2, 4, 8])
    def test_deck_map_is_a_symmetry(self, solves, degree):
        mesh, _ = solves[degree]
        deck, K = mesh.deck, mesh.stiffness
        assert not np.array_equal(deck, np.arange(len(deck)))
        assert np.allclose(mesh.weights[deck], mesh.weights, rtol=1e-14, atol=0.0)
        assert abs(K[deck][:, deck] - K).max() <= 1e-12 * abs(K).max()
        power = deck
        for _ in range(degree - 1):
            assert np.all(power != np.arange(len(deck)))     # acts freely
            power = deck[power]
        assert np.array_equal(power, np.arange(len(deck)))   # order = degree

    @pytest.mark.parametrize("degree", [2, 4, 8])
    def test_matches_the_whole_cover_solve(self, solves, degree):
        mesh, data = solves[degree]
        want = _oracle_eigenvalues(mesh, data.n_modes)
        assert np.all(np.abs(data.eigenvalues - want) <= 1e-10 * np.maximum(want, 1.0))

    @pytest.mark.parametrize("degree", [2, 4, 8])
    def test_modes_solve_the_cover(self, solves, degree):
        mesh, data = solves[degree]
        K, w = mesh.stiffness, mesh.weights
        for nu, psi in zip(data.eigenvalues, data.eigenvectors.T):
            assert np.linalg.norm(K @ psi - nu * w * psi) <= 1e-9 * np.linalg.norm(w * psi)
        assert data.gram_deviation <= 1e-8

    @pytest.mark.parametrize("degree", [2, 4, 8])
    def test_characters(self, solves, degree):
        _, data = solves[degree]
        assert data.characters[0] == 0                   # the constant mode
        assert set(data.characters) <= set(range(degree // 2 + 1))
        assert np.any(data.characters != 0)
        # a complex character (2k != 0 mod degree) gives exactly paired modes
        for k in set(data.characters):
            nu = data.eigenvalues[data.characters == k]
            if 2 * k % degree:
                counts = np.unique(nu, return_counts=True)[1]
                assert np.all(counts[:-1] % 2 == 0)

    def test_validate_checks_a_lifted_sample(self, solves):
        # conjugating the vectors of the complex block k = 1 keeps their Gram
        # and their stored residuals; only the lift on the cover can tell
        _, data = solves[4]
        assert data.validated_lifts == 3            # the lowest mode of k = 0, 1, 2
        blocks = data.blocks.copy()
        sel = data.characters == 1
        blocks[:, sel] = blocks[:, sel].conj()
        bad = replace(data, blocks=blocks)
        assert bad.gram_deviation <= 1e-8
        with pytest.raises(ResidualViolation):
            bad.validate()
        replace(data, blocks=data.blocks.copy()).validate()

    def test_non_cyclic_cover_takes_one_block(self, bolza):
        cover = CoverSurface(bolza, 3, ((0, 1, 2), (0, 2, 1), (0, 2, 1), (1, 0, 2)))
        mesh = disc_surface_mesh(cover, self.H)
        assert np.array_equal(mesh.deck, np.arange(len(mesh.deck)))
        data = fem_eigensolve(mesh, 40)
        assert not np.any(data.characters)
        want = _oracle_eigenvalues(mesh, 40)
        assert np.all(np.abs(data.eigenvalues - want) <= 1e-10 * np.maximum(want, 1.0))

    def test_base_surface_and_torus_have_no_deck(self, bolza):
        for mesh in (disc_surface_mesh(bolza, 0.1), torus_mesh(0.1)):
            assert np.array_equal(mesh.deck, np.arange(len(mesh.deck)))


class TestReachSolve:
    """fem_eigensolve(mesh, reach=nu_max): every eigenvalue up to the lowest
    block top, which must lie past nu_max."""
    NU_MAX = 4.8      # 1.2 x the top of the default window 1:4

    @pytest.fixture(scope="class")
    def cases(self, bolza, bolza_data, solves):
        """degree -> (mesh, mode-count solve, reach solve, (count, top) of
        each block solve of the reach solve)."""
        meshes = {1: (disc_surface_mesh(bolza, 0.05), bolza_data)}
        meshes.update({d: solves[d] for d in (4, 8)})
        out = {}
        for degree, (mesh, data) in meshes.items():
            blocks = []
            reach = _record_blocks(blocks, lambda: fem_eigensolve(mesh, reach=self.NU_MAX))
            out[degree] = (mesh, data, reach, blocks)
        return out

    @staticmethod
    def _agree_to_reach(got, want, nu_max):
        """got and want hold the same eigenvalues and characters up to nu_max."""
        a, b = got.eigenvalues <= nu_max, want.eigenvalues <= nu_max
        assert a.sum() == b.sum() > 0
        assert np.all(np.abs(got.eigenvalues[a] - want.eigenvalues[b])
                      <= 1e-12 * np.maximum(np.abs(want.eigenvalues[b]), 1.0))
        assert np.array_equal(got.characters[a], want.characters[b])

    @pytest.mark.parametrize("degree", [1, 4, 8])
    def test_matches_the_mode_count_solve(self, cases, degree):
        _, data, reach, _ = cases[degree]
        assert data.eigenvalues[-1] > self.NU_MAX       # the oracle reaches far enough
        self._agree_to_reach(reach, data, self.NU_MAX)

    @pytest.mark.parametrize("degree", [1, 4, 8])
    def test_every_block_top_lies_past_the_reach(self, cases, degree):
        _, _, reach, blocks = cases[degree]
        counts, tops = zip(*blocks)
        assert len(blocks) == reach.character_blocks == degree // 2 + 1    # no re-solve
        # each block asks for Weyl's count on its volume 4 pi, plus the pad
        assert set(counts) == {math.ceil(self.NU_MAX) + E._PAD}
        assert min(tops) > self.NU_MAX
        assert reach.eigenvalues[-1] == min(tops)        # cut at the lowest block top

    @pytest.mark.parametrize("degree", [4, 8])
    def test_short_block_is_solved_again(self, cases, monkeypatch, degree):
        # with no pad, a block holding more than Weyl's share below 4.8 (the
        # character k = 2 of the degree-4 cover tops out at 4.72) is short
        mesh, _, padded, _ = cases[degree]
        monkeypatch.setattr(E, "_PAD", 0)
        blocks = []
        data = _record_blocks(blocks, lambda: fem_eigensolve(mesh, reach=self.NU_MAX))
        assert data.character_blocks == len(blocks) > degree // 2 + 1
        assert min(top for _, top in blocks) <= self.NU_MAX < data.eigenvalues[-1]
        self._agree_to_reach(data, padded, self.NU_MAX)

    def test_exactly_one_target(self, cases):
        mesh = cases[1][0]
        for target in ({}, {"n_modes": 8, "reach": self.NU_MAX}):
            with pytest.raises(ValueError):
                fem_eigensolve(mesh, **target)


def _record_blocks(blocks, solve):
    """solve(), with the pair count and top eigenvalue of every block it
    holds appended to blocks: each block it factorizes, and each base-problem
    block the memo serves."""
    inner, memo = E._smallest_pairs, E._base_pairs

    def recorded(K, weights, count):
        vals, vecs, fill = inner(K, weights, count)
        blocks.append((count, float(vals[-1])))
        return vals, vecs, fill

    def served(chart, count):
        E._smallest_pairs = inner           # a memo miss is recorded once, here
        try:
            vals, vecs, fill = memo(chart, count)
        finally:
            E._smallest_pairs = recorded
        blocks.append((count, float(vals[-1])))
        return vals, vecs, fill

    E._smallest_pairs, E._base_pairs = recorded, served
    try:
        return solve()
    finally:
        E._smallest_pairs, E._base_pairs = inner, memo


class TestChartAndBaseProblem:
    """A tower triangulates each (group, h) once, and character 0 of a
    cyclic cover is the base problem, solved once per pair count."""
    NU_MAX = 4.8

    @staticmethod
    def _clear():
        E._chart.cache_clear()
        E._base_pairs.cache_clear()

    def test_tower_triangulates_once(self, tmp_path, monkeypatch):
        calls, delaunay = [], scipy.spatial.Delaunay

        def counted(points):
            calls.append(len(points))
            return delaunay(points)

        self._clear()
        monkeypatch.setattr(scipy.spatial, "Delaunay", counted)
        assert main(["tower", "--out", str(tmp_path), "--degrees", "1,2,4"]) == 0
        assert len(calls) == 1

    def test_tower_factorizes_the_base_once(self, tmp_path, monkeypatch):
        # degree 1 fills the memo; degrees 2 and 4 factorize k = 1 and k = 1, 2
        calls, inner = [], E._smallest_pairs

        def counted(K, weights, count):
            calls.append(K.shape[0])
            return inner(K, weights, count)

        self._clear()
        monkeypatch.setattr(E, "_smallest_pairs", counted)
        assert main(["tower", "--out", str(tmp_path), "--degrees", "1,2,4",
                     "--h", "0.05"]) == 0
        assert len(calls) == 4

    def test_fill_is_what_the_factors_store(self, bolza, monkeypatch):
        # factor_nnz sums SuperLU's stored entries; no CSC copy of L or U is made
        stored, splu = [], spla.splu

        class Factor:
            def __init__(self, lu):
                self._lu = lu
                stored.append(lu.nnz)

            def __getattr__(self, name):
                if name in ("L", "U"):
                    raise AssertionError(f"the solve copied the factor's {name}")
                return getattr(self._lu, name)

        self._clear()
        monkeypatch.setattr(spla, "splu", lambda *a, **kw: Factor(splu(*a, **kw)))
        data = fem_eigensolve(disc_surface_mesh(random_cover(bolza, 4, seed=0), 0.05), 20)
        assert np.iscomplexobj(data.blocks)           # k = 1 is a complex block
        assert len(stored) == data.character_blocks == 3
        assert data.factor_nnz == sum(stored)

    def test_character_zero_is_the_base_spectrum(self, bolza):
        base = fem_eigensolve(disc_surface_mesh(bolza, 0.05), reach=self.NU_MAX)
        for degree in (2, 4):
            mesh = disc_surface_mesh(random_cover(bolza, degree, seed=0), 0.05)
            data = fem_eigensolve(mesh, reach=self.NU_MAX)
            nu = data.eigenvalues[data.characters == 0]
            assert len(nu) > 0
            assert np.array_equal(nu, base.eigenvalues[:len(nu)])

    @pytest.mark.parametrize("degree", [1, 4])
    def test_cold_and_warm_calls_agree(self, bolza, degree):
        surface = bolza if degree == 1 else random_cover(bolza, degree, seed=0)
        runs = []
        for clear in (True, False):
            if clear:
                self._clear()
            mesh = disc_surface_mesh(surface, 0.05)
            runs.append((mesh, fem_eigensolve(mesh, reach=self.NU_MAX)))
        (cold_mesh, cold), (warm_mesh, warm) = runs
        assert (cold_mesh.stiffness != warm_mesh.stiffness).nnz == 0
        assert np.array_equal(cold_mesh.weights, warm_mesh.weights)
        for key in ("eigenvalues", "blocks", "characters", "imaginary", "residuals"):
            assert np.array_equal(getattr(cold, key), getattr(warm, key))
        assert (cold.factor_nnz, cold.character_blocks) == (warm.factor_nnz,
                                                            warm.character_blocks)

    def test_cached_arrays_are_read_only(self, bolza):
        chart = E._chart(bolza, 0.05)
        base = chart.base
        arrays = [chart.points, chart.triangles, chart.density,
                  *(a for pair in chart.sides for a in pair), base.points, base.sheets,
                  base.weights, base.deck, base.classes, base.stiffness.data,
                  base.stiffness.indices, base.stiffness.indptr]
        arrays += list(E._base_pairs(chart, 4)[:2])
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            disc_surface_mesh(bolza, 0.05).weights[0] = 1.0

    def test_served_modes_must_solve_the_mesh(self, bolza):
        # a mesh whose K is not its chart's: the base modes miss its own K_0
        for surface in (bolza, random_cover(bolza, 4, seed=0)):
            mesh = disc_surface_mesh(surface, 0.05)
            with pytest.raises(ResidualViolation):
                fem_eigensolve(replace(mesh, stiffness=2.0 * mesh.stiffness), 20)

    def test_mode_count_below_one_rejected(self, bolza):
        mesh = disc_surface_mesh(bolza, 0.1)
        for n_modes in (0, -1):
            with pytest.raises(ParameterOutOfRange):
                fem_eigensolve(mesh, n_modes)


class TestDenseOracle:
    """Dense LAPACK eigenproblems: no ARPACK and no sparse LU."""

    def test_plain_solve(self, bolza, bolza_data):
        mesh = disc_surface_mesh(bolza, 0.05)
        assert mesh.stiffness.shape[0] == 630
        want = eigh(mesh.stiffness.toarray(), np.diag(mesh.weights),
                    eigvals_only=True)[:16]
        got = bolza_data.eigenvalues
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))

    @staticmethod
    def _k1_block(bolza):
        """Character k = 1 of the degree-4 cover: K_1 = P^H K P, M_1 = P^H W P with
        P[deck^t(r_a), a] = exp(2 pi i t / 4) / 2 for orbit representatives r_a."""
        d, k = 4, 1
        mesh = disc_surface_mesh(random_cover(bolza, d, seed=0), 0.05)
        walk = [np.arange(len(mesh.deck))]
        for _ in range(d - 1):
            walk.append(mesh.deck[walk[-1]])
        walk = np.array(walk)
        reps = np.flatnonzero(walk.min(axis=0) == walk[0])
        P = np.zeros((len(mesh.deck), len(reps)), dtype=complex)
        P[walk[:, reps], np.arange(len(reps))] = (
            np.exp(2j * np.pi * k * np.arange(d) / d)[:, None] / math.sqrt(d))
        Kk = P.conj().T @ (mesh.stiffness @ P)
        Kk = 0.5 * (Kk + Kk.conj().T)
        w = np.real(np.diag(P.conj().T @ (mesh.weights[:, None] * P)))
        assert np.allclose(w, mesh.weights[reps], rtol=1e-14, atol=0.0)
        return Kk, w, reps

    def test_complex_character_block(self, bolza):
        Kk, w, reps = self._k1_block(bolza)
        want = eigh(Kk, np.diag(w), eigvals_only=True)[:12]
        vals, vecs, fill = _smallest_pairs(sp.csr_matrix(Kk), w, 12)
        assert np.all(np.abs(vals - want) <= 1e-10 * np.maximum(want, 1.0))
        gram = vecs.conj().T @ (w[:, None] * vecs)
        assert np.abs(gram - np.eye(12)).max() <= 1e-8
        assert fill >= np.count_nonzero(Kk) + len(reps)

    def test_complex_block_with_exact_double_eigenvalues(self, bolza):
        # K_1 (+) K_1 with weights w (+) w: every eigenvalue is exactly double,
        # the degenerate clusters an M-orthonormal basis must resolve
        Kk, w, _ = self._k1_block(bolza)
        K2 = sp.block_diag([sp.csr_matrix(Kk)] * 2, format="csr")
        w2 = np.concatenate([w, w])
        want = eigh(K2.toarray(), np.diag(w2), eigvals_only=True)[:12]
        vals, vecs, _ = _smallest_pairs(K2, w2, 12)
        assert np.abs(vals - want).max() <= 1e-10
        gram = vecs.conj().T @ (w2[:, None] * vecs)
        assert np.abs(gram - np.eye(12)).max() <= 1e-10


class TestEigenDataIO:
    def test_round_trip_bitwise(self, bolza_data, tmp_path):
        base = str(tmp_path / "bolza")
        export_eigendata(bolza_data, base)
        back = ingest_eigendata(base)
        assert np.array_equal(back.eigenvalues, bolza_data.eigenvalues)
        assert np.array_equal(back.eigenvectors, bolza_data.eigenvectors)
        assert np.array_equal(back.weights, bolza_data.weights)
        assert np.array_equal(back.points, bolza_data.points)

    def test_characters_round_trip(self, bolza, tmp_path):
        data = fem_eigensolve(disc_surface_mesh(random_cover(bolza, 4, seed=0), 0.1), 12)
        base = str(tmp_path / "cover")
        export_eigendata(data, base)
        assert np.array_equal(ingest_eigendata(base).characters, data.characters)

    def test_file_without_characters(self, bolza_data, tmp_path):
        base = str(tmp_path / "old")
        export_eigendata(bolza_data, base)
        with open(base + ".json") as f:
            header = json.load(f)
        del header["characters"]
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        assert np.array_equal(ingest_eigendata(base).characters,
                              np.zeros(bolza_data.n_modes, dtype=int))

    def test_torus_file_accepted(self, tmp_path):
        data = fem_eigensolve(torus_mesh(0.05), 10)
        base = str(tmp_path / "torus")
        export_eigendata(data, base)
        back = ingest_eigendata(base)
        assert back.n_modes == 10

    def test_corrupted_gram_rejected(self, bolza_data, tmp_path):
        base = str(tmp_path / "bad")
        export_eigendata(bolza_data, base)
        modes = np.loadtxt(base + "_modes.csv", delimiter=",", ndmin=2)
        modes[1] = modes[0]   # duplicate row breaks orthonormality
        with open(base + "_modes.csv", "w") as f:
            for row in modes:
                f.write(",".join("%.17g" % v for v in row) + "\n")
        with pytest.raises(OrthonormalityViolation):
            ingest_eigendata(base)

    def test_missing_header_field(self, bolza_data, tmp_path):
        base = str(tmp_path / "hdr")
        export_eigendata(bolza_data, base)
        with open(base + ".json") as f:
            header = json.load(f)
        del header["residuals"]
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        with pytest.raises(FormatError):
            ingest_eigendata(base)

    def test_shape_mismatch(self, bolza_data, tmp_path):
        base = str(tmp_path / "shape")
        export_eigendata(bolza_data, base)
        with open(base + "_eigs.csv", "a") as f:
            f.write("99.0\n")
        with pytest.raises(FormatError):
            ingest_eigendata(base)

    def test_residual_violation(self, bolza_data, tmp_path):
        base = str(tmp_path / "res")
        export_eigendata(bolza_data, base)
        with open(base + ".json") as f:
            header = json.load(f)
        header["residuals"][0] = 10.0 * header["residual_tol"]
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        with pytest.raises(ResidualViolation):
            ingest_eigendata(base)
