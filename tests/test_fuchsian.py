import cmath
import copy
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypsurf.fuchsian as F
from hypsurf.errors import (BudgetExceeded, NonTransitive, ParameterOutOfRange,
                            RelationViolation)
from hypsurf.geometry import (DiscPoint, GroupElement, _dist_array, _mobius_array,
                              mobius_apply_complex)
from hypsurf.transforms import RadialKernel


def exhaustive_word_ball(group, R, max_len):
    """Oracle: distinct elements with displacement <= R among ALL reduced
    words up to max_len, vectorized, with the rigorous remaining-budget prune
    (a word is dropped only if no continuation can re-enter the ball)."""
    gens = group.symmetrized()
    n = group.n_generators
    ell = group.max_generator_displacement(0j)
    ga = np.array([g.alpha for g in gens])
    gb = np.array([g.beta for g in gens])

    def canon(a, b):
        sign = np.ones(len(a))
        for comp in (a.real, a.imag, b.real, b.imag):
            undecided = sign == 0
            sign = np.where((sign == 1) & (comp < -1e-14), -1.0, sign)
            break
        # choose sign from the first component exceeding tolerance
        s = np.zeros(len(a))
        for comp in (a.real, a.imag, b.real, b.imag):
            pick = (s == 0) & (np.abs(comp) > 1e-14)
            s[pick] = np.sign(comp[pick])
        s[s == 0] = 1.0
        return a * s, b * s

    def keys(a, b):
        return set(zip(np.round(a.real, 7), np.round(a.imag, 7),
                       np.round(b.real, 7), np.round(b.imag, 7)))

    seen = {(1.0, 0.0, 0.0, 0.0)}
    count_in_ball = 1  # identity
    A = np.array([1.0 + 0j])
    B = np.array([0.0 + 0j])
    last = np.array([-1])
    for depth in range(1, max_len + 1):
        newA, newB, newlast = [], [], []
        for gi in range(2 * n):
            ok = last != (gi + n) % (2 * n)
            a2 = A[ok] * ga[gi] + B[ok] * np.conj(gb[gi])
            b2 = A[ok] * gb[gi] + B[ok] * np.conj(ga[gi])
            newA.append(a2)
            newB.append(b2)
            newlast.append(np.full(ok.sum(), gi))
        A2 = np.concatenate(newA)
        B2 = np.concatenate(newB)
        L2 = np.concatenate(newlast)
        A2, B2 = canon(A2, B2)
        # displacement of 0: d = 2 atanh |beta / conj(alpha)|
        disp = 2.0 * np.arctanh(np.abs(B2) / np.abs(A2))
        budget = R + (max_len - depth) * ell
        keep = disp <= budget + 1e-9
        A2, B2, L2, disp = A2[keep], B2[keep], L2[keep], disp[keep]
        fresh = np.array([(ra, ia, rb, ib) not in seen
                          for ra, ia, rb, ib in zip(np.round(A2.real, 7),
                                                    np.round(A2.imag, 7),
                                                    np.round(B2.real, 7),
                                                    np.round(B2.imag, 7))])
        if fresh.size == 0:
            break
        A2, B2, L2, disp = A2[fresh], B2[fresh], L2[fresh], disp[fresh]
        # dedup within the level
        _, idx = np.unique(np.column_stack([np.round(A2.real, 7), np.round(A2.imag, 7),
                                            np.round(B2.real, 7), np.round(B2.imag, 7)]),
                           axis=0, return_index=True)
        A2, B2, L2, disp = A2[idx], B2[idx], L2[idx], disp[idx]
        seen |= keys(A2, B2)
        count_in_ball += int(np.sum(disp <= R + 1e-12))
        A, B, last = A2, B2, L2
        if len(A) == 0:
            break
    return count_in_ball


def brute_below(surface, group, z, R):
    """Oracle: InjRad < R at z on each sheet, from the whole ball of radius 2R
    at z and the composed sheet permutation of each witness's word."""
    degree = surface.degree if isinstance(surface, F.CoverSurface) else 1
    below = np.zeros(degree, dtype=bool)
    ball = F.orbit_enumerate(group, DiscPoint(z.real, z.imag), 2.0 * R)
    for disp, word in zip(ball.displacement, ball.words):
        if 1e-12 < disp < 2.0 * R:
            perm = F._compose_perms(surface, word) if degree > 1 else np.zeros(1)
            below |= perm == np.arange(degree)
    return below


def zeta_mul(x, y):
    """Product in Z[zeta], zeta = e^{i pi / 4}, on coefficients of 1, zeta,
    zeta^2, zeta^3: polynomial product reduced by zeta^4 = -1."""
    out = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4):
            out[(i + j) % 4] += (1 if i + j < 4 else -1) * x[i] * y[j]
    return out


def zeta_conj(x):
    # conj(zeta^j) = zeta^(8 - j) = -zeta^(4 - j)
    return [x[0], -x[3], -x[2], -x[1]]


LAMBDA2 = [2, 2, 0, -2]   # lambda^2 = 2 + 2 sqrt 2 = 2 + 2 zeta - 2 zeta^3


def exact_mul(g, h):
    """(a, lambda b)(a', lambda b') = (a a' + lambda^2 b conj(b'),
    lambda (a b' + b conj(a'))) on 8-integer rows (a, b)."""
    a, b, a2, b2 = list(g[:4]), list(g[4:]), list(h[:4]), list(h[4:])
    alpha = [u + v for u, v in zip(zeta_mul(a, a2), zeta_mul(LAMBDA2, zeta_mul(b, zeta_conj(b2))))]
    beta = [u + v for u, v in zip(zeta_mul(a, b2), zeta_mul(b, zeta_conj(a2)))]
    return alpha + beta


def exact_det(g):
    """a conj(a) - lambda^2 b conj(b): [1, 0, 0, 0] for an element of SU(1,1)."""
    a, b = list(g[:4]), list(g[4:])
    return [u - v for u, v in zip(zeta_mul(a, zeta_conj(a)),
                                  zeta_mul(LAMBDA2, zeta_mul(b, zeta_conj(b))))]


def exact_symmetrized(group):
    gens = [list(c) for c in group.exact_coords]
    return gens + [zeta_conj(c[:4]) + [-v for v in c[4:]] for c in gens]


def element_keys(alpha, beta):
    return set(zip(np.round(alpha.real, 7), np.round(alpha.imag, 7),
                   np.round(beta.real, 7), np.round(beta.imag, 7)))


def dist(z, w):
    return 2 * math.asinh(abs(z - w) / math.sqrt((1 - abs(z) ** 2) * (1 - abs(w) ** 2)))


@pytest.fixture(scope="module")
def bolza():
    return F.bolza_group()


class TestPresets:
    def test_bolza_relation_and_area(self, bolza):
        rel = bolza.relation_element()
        assert rel.almost_equal(GroupElement.identity(), 1e-8)
        assert F.octagon_area() == pytest.approx(4 * math.pi, abs=1e-6)

    def test_generators_valid(self, bolza):
        for g in bolza.generators:
            assert abs(abs(g.alpha) ** 2 - abs(g.beta) ** 2 - 1) < 1e-10

    def test_relation_is_the_exact_identity(self, bolza):
        sym = exact_symmetrized(bolza)
        assert all(exact_det(c) == [1, 0, 0, 0] for c in sym)
        rel = [1, 0, 0, 0, 0, 0, 0, 0]
        for gi in bolza.relation_word():
            rel = exact_mul(rel, sym[gi])
        assert rel in ([1, 0, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0, 0])

    def test_relation_needs_exact_coordinates(self, bolza):
        with pytest.raises(ValueError):
            F.FuchsianGroup(bolza.generators, "bolza", relation=bolza.relation,
                            dirichlet_radius=bolza.dirichlet_radius)
        swapped = (bolza.exact_coords[1],) + bolza.exact_coords[1:]
        with pytest.raises(RelationViolation):
            F.FuchsianGroup(bolza.generators, "bolza", relation=bolza.relation,
                            exact_coords=swapped)
        with pytest.raises(RelationViolation):   # g0 g1 g0^-1 g1^-1 is not the identity
            F.FuchsianGroup(bolza.generators, "bolza", relation=(1, 2, -1, -2),
                            exact_coords=bolza.exact_coords)


class TestExactEngine:
    def test_exact_words_match_float_chain(self, bolza):
        # 200 random reduced words of length <= 10: the engine's integer
        # product equals the test's own Z[zeta] product up to sign and has
        # determinant 1, and its floats equal the GroupElement chain up to
        # sign.  GroupElement renormalizes each product by its computed
        # determinant, which loses about |alpha|^2 eps of the scale, so the
        # floats are compared as (alpha, beta) / |alpha|.
        rng = np.random.default_rng(8)
        sym, gens = exact_symmetrized(bolza), bolza.symmetrized()
        step = F._right_multiplication(bolza)
        for _ in range(200):
            word = []
            for _ in range(int(rng.integers(1, 11))):
                choices = [g for g in range(8) if not word or g != (word[-1] + 4) % 8]
                word.append(int(rng.choice(choices)))
            row, own, chain = F._IDENTITY, [1, 0, 0, 0, 0, 0, 0, 0], GroupElement.identity()
            for gi in word:
                row = row @ step[:, 8 * gi:8 * gi + 8]
                own = exact_mul(own, sym[gi])
                chain = chain @ gens[gi]
            assert row.tolist() in (own, [-v for v in own])
            assert exact_det(own) == [1, 0, 0, 0]
            alpha, beta = F._exact_floats(row[None, :])
            exact = np.array([alpha[0], beta[0]]) / abs(alpha[0])
            floats = np.array([chain.alpha, chain.beta]) / abs(chain.alpha)
            assert min(np.abs(exact - floats).max(), np.abs(exact + floats).max()) <= 1e-9

    def test_hash_collisions_are_resolved_on_the_integers(self, bolza, monkeypatch):
        ball = F.orbit_enumerate(bolza, DiscPoint(0, 0), 5.0)
        monkeypatch.setattr(F, "_HASH_MULT", np.zeros(8, dtype=np.uint64))
        colliding = F.orbit_enumerate(bolza, DiscPoint(0, 0), 5.0)
        assert colliding.words == ball.words
        for name in ("alpha", "beta", "displacement"):
            assert np.array_equal(getattr(colliding, name), getattr(ball, name))
        assert (colliding.elements_explored, colliding.levels) == (ball.elements_explored,
                                                                    ball.levels)

    def test_overflow_guard(self, bolza, monkeypatch):
        monkeypatch.setattr(F, "_COEFF_LIMIT", 8)
        with pytest.raises(BudgetExceeded):
            F.orbit_enumerate(bolza, DiscPoint(0, 0), 5.0)


class TestOrbit:
    def test_trivial_group(self):
        ball = F.orbit_enumerate(F.trivial_group(), DiscPoint(0, 0), 5.0)
        assert len(ball) == 1
        assert (ball.alpha[0], ball.beta[0], ball.words) == (1, 0, ((),))

    def test_cyclic_count(self):
        # center on axis, R = 2.5 L: exactly a^k for |k| <= 2
        ball = F.orbit_enumerate(F.cyclic_group(1.0), DiscPoint(0, 0), 2.5)
        assert len(ball) == 5
        assert np.round(ball.displacement, 9).tolist() == [0.0, 1.0, 1.0, 2.0, 2.0]

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.4, 2.0), st.floats(0.5, 6.0))
    def test_cyclic_count_property(self, L, R):
        # stay away from the displacement == R boundary
        if abs(R / L - round(R / L)) < 0.05:
            return
        ball = F.orbit_enumerate(F.cyclic_group(L), DiscPoint(0, 0), R)
        assert len(ball) == 2 * int(R / L) + 1

    def test_bolza_vs_exhaustive_oracle(self, bolza):
        ball = F.orbit_enumerate(bolza, DiscPoint(0, 0), 3.1)
        oracle = exhaustive_word_ball(bolza, 3.1, 8)
        assert len(ball) == oracle == 9

    def test_bolza_ball_r8_frozen(self, bolza):
        ball = F.orbit_enumerate(bolza, DiscPoint(0, 0), 8.0)
        assert len(ball) == 793
        lengths = Counter(len(w) for w in ball.words)
        assert lengths == {0: 1, 1: 8, 2: 56, 3: 224, 4: 264, 5: 176, 6: 48, 7: 16}

    # inside the octagon, inside near a vertex, outside beyond a vertex
    @pytest.mark.parametrize("c", [0.3 + 0.2j, 0.8 * np.exp(1j * math.pi / 8),
                                   0.9 * np.exp(1j * math.pi / 8)])
    def test_off_center_ball_is_filtered_origin_ball(self, bolza, c):
        # d(0, g 0) <= d(0, c) + d(c, g c) + d(g c, g 0) bounds the ball at 0
        R = 4.0
        big = F.orbit_enumerate(bolza, DiscPoint(0, 0), R + 2.0 * 2.0 * math.atanh(abs(c)))
        near = F._displacements(big.alpha, big.beta, complex(c)) <= R
        expect = element_keys(big.alpha[near], big.beta[near])
        ball = F.orbit_enumerate(bolza, DiscPoint.from_complex(complex(c)), R)
        assert len(ball) == len(expect)
        assert element_keys(ball.alpha, ball.beta) == expect

    def test_budget_guard(self, bolza):
        with pytest.raises(F.BudgetExceeded):
            F.orbit_enumerate(bolza, DiscPoint(0, 0), 12.0, element_cap=50)

    def test_radius_guard(self, bolza):
        with pytest.raises(ValueError):
            F.orbit_enumerate(bolza, DiscPoint(0, 0), 26.0)
        with pytest.raises(ParameterOutOfRange):
            F.bs_statistic(bolza, 1.0, 0, seed=0)


class TestDirichletDomain:
    @pytest.mark.parametrize("group, radius", [(F.bolza_group(), F.BOLZA_VERTEX_RADIUS),
                                               (F.cyclic_group(1.0), 2.5)])
    def test_face_test_matches_orbit_test(self, group, radius):
        # membership against the face points only == against every orbit point
        # of 0 that can be closer than 0 to a point of the disc of this radius
        ball = F.orbit_enumerate(group, DiscPoint(0, 0), 2.0 * radius + 0.2)
        assert ball.words[0] == ()
        orbit0 = _mobius_array(ball.alpha[1:], ball.beta[1:], 0j)
        faces = F._face_points(group)
        assert len(orbit0) > len(faces)
        rng = np.random.default_rng(17)
        r_e = math.tanh(radius / 2.0)
        zs = r_e * np.sqrt(rng.random(5000)) * np.exp(2j * math.pi * rng.random(5000))
        for z in zs:
            own, others = F._sinh2_half_dists(z, orbit0)
            assert F._in_dirichlet_domain(z, faces) == (own <= float(np.min(others)) + 1e-12)


class TestInjectivityRadius:
    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_cyclic_on_axis(self, L):
        inj = F.orbit_enumerate(F.cyclic_group(L), DiscPoint(0, 0), 2.5 * L).injectivity_radius()
        assert not inj.is_lower_bound
        assert inj.value == pytest.approx(L / 2.0, abs=1e-9)

    def test_cyclic_off_axis_monotone_and_formula(self):
        L = 1.0
        group = F.cyclic_group(L)
        prev = 0.0
        for rho in [0.0, 0.3, 0.6, 1.0, 1.5]:
            z = DiscPoint(0.0, math.tanh(rho / 2.0))  # distance rho from the axis
            inj = F.orbit_enumerate(group, z, 8.0).injectivity_radius()
            expect = math.acosh(math.cosh(L) * math.cosh(rho) ** 2
                                - math.sinh(rho) ** 2) / 2.0
            assert inj.value == pytest.approx(expect, abs=1e-9)
            assert inj.value >= prev - 1e-12
            prev = inj.value

    def test_lower_bound_flag(self):
        inj = F.orbit_enumerate(F.cyclic_group(2.0), DiscPoint(0, 0), 1.0).injectivity_radius()
        assert inj.is_lower_bound
        assert inj.value == 0.5

    def test_bolza_origin_is_half_systole(self, bolza):
        inj = F.orbit_enumerate(bolza, DiscPoint(0, 0), 4.0).injectivity_radius()
        systole = F.systole_upper_bound(bolza)
        assert inj.value == pytest.approx(systole / 2.0, abs=1e-9)
        assert systole == pytest.approx(2 * math.acosh(1 + math.sqrt(2)), abs=1e-9)

    def test_bolza_systole_is_exact(self, bolza):
        systole = F.systole_upper_bound(bolza)
        exact = 2 * mp.acosh(1 + mp.sqrt(2))
        assert abs(systole - exact) / exact <= 1e-15
        # exact traces: the closed form to the last bit
        assert systole == 2 * math.acosh(1 + math.sqrt(2))
        # the least translation length over a larger complete ball than the
        # one of sinh(rho / 2) = cosh(R_D) sinh(l0 / 2)
        rho = 2 * math.asinh(math.cosh(bolza.dirichlet_radius)
                             * math.sinh(F.BOLZA_SIDE_LENGTH / 2))
        half_trace = np.abs(F.orbit_enumerate(bolza, DiscPoint(0, 0), rho + 1.5).alpha.real)
        least = 2 * math.acosh(float(np.min(half_trace[half_trace > 1 + 1e-12])))
        assert systole == pytest.approx(least, rel=1e-12)

    @pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
    def test_cyclic_systole(self, L):
        assert F.systole_upper_bound(F.cyclic_group(L)) == pytest.approx(L, rel=1e-12)


class TestBsStatistic:
    def test_zero_below_half_systole(self, bolza):
        res = F.bs_statistic(bolza, 1.0, 100, seed=3)
        assert res.value == 0.0

    def test_one_at_large_radius(self, bolza):
        res = F.bs_statistic(bolza, 25.0, 40, seed=3)
        assert res.value == 1.0

    @pytest.mark.parametrize("degree, R, n, seed, hits", [
        (4, 1.7, 300, 0, 728), (4, 2.2, 200, 5, 800), (8, 2.0, 200, 1, 1032),
        (1, 1.2, 200, 2, 0)])
    def test_frozen_hit_counts(self, bolza, degree, R, n, seed, hits):
        # (point, sheet) pairs below R (cover seed 0), re-derived from the same
        # drawn points by one full ball per point, then pinned
        surface = bolza if degree == 1 else F.random_cover(bolza, degree, seed=0)
        res = F.bs_statistic(surface, R, n, seed=seed)
        zs = F.DomainSampler(bolza).sample(np.random.default_rng(seed), n)
        expect = sum(int(brute_below(surface, bolza, z, R).sum()) for z in zs)
        assert res.n_hits == expect == hits
        assert res.orbit_levels >= 1 and res.orbit_elements_explored >= 8
        assert res.sampler_proposals > n

    def test_cover_trend(self, bolza):
        # fixed R: larger covers have no larger small-injectivity mass
        R = 1.7
        vals = []
        for deg in [2, 8, 32]:
            surf = F.random_cover(bolza, deg, seed=11)
            res = F.bs_statistic(surf, R, 120, seed=5)
            vals.append((res.value, res.stderr))
        for (v1, e1), (v2, e2) in zip(vals, vals[1:]):
            assert v2 <= v1 + 2.0 * math.hypot(e1, e2) + 1e-12


class TestPeriodization:
    def test_trivial_group(self):
        kern = RadialKernel(lambda t: np.ones_like(t))
        per = F.periodize_truncated(kern, F.trivial_group(), 2.0)
        # chi(d/r) at distance d
        z, w = 0.2 + 0j, 0.5 + 0j
        d = 2 * math.atanh(0.3 / (1 - 0.1))
        assert per([z], [w])[0] == pytest.approx(float(F.smoothstep_cutoff(d / 2.0)))

    def test_single_term_regime(self, bolza):
        # r below half the systole: at most the identity contributes
        kern = RadialKernel(lambda t: np.exp(-t * t))
        r = 1.2
        per = F.periodize_truncated(kern, bolza, r)
        z, w = 0.1 + 0.05j, 0.2 - 0.1j
        d = dist(z, w)
        assert per([z], [w])[0] == pytest.approx(math.exp(-d * d)
                                                 * float(F.smoothstep_cutoff(d / r)))

    def test_bolza_matches_scalar_sum_over_ball(self, bolza):
        # a scalar sum over a ball larger than periodize_truncated's own: its
        # ball drops no contributing element, and the blocked pass no term.
        # The distances come from the same array formula: chi(d / r) near
        # d = r turns a last-bit change of d into about 1e-13 of the sum.
        kern = RadialKernel(lambda t: np.exp(-t * t))
        r = 2.0
        ball = F.orbit_enumerate(bolza, DiscPoint(0, 0), r + 2 * bolza.dirichlet_radius + 1.0)
        per = F.periodize_truncated(kern, bolza, r)
        rng = np.random.default_rng(4)
        sampler = F.DomainSampler(bolza)
        pts = sampler.sample(rng, 40)
        values = per(pts[:20], pts[20:])
        for z, w, value in zip(pts[:20], pts[20:], values):
            direct = 0.0
            for d in _dist_array(z, _mobius_array(ball.alpha, ball.beta, w)).tolist():
                if d <= r:
                    direct += math.exp(-d * d) * float(F.smoothstep_cutoff(d / r))
            assert value == pytest.approx(direct, rel=1e-14, abs=1e-300)

    def test_cyclic_matches_direct_sum(self):
        L = 1.0
        group = F.cyclic_group(L)
        gen = group.generators[0]
        kern = RadialKernel(lambda t: np.exp(-3.0 * t * t))
        r = 3.5
        per = F.periodize_truncated(kern, group, r)
        z, w = 0.15 + 0.1j, -0.2 + 0.05j
        direct = 0.0
        for k in range(-10, 11):
            gk = GroupElement.identity()
            for _ in range(abs(k)):
                gk = gk @ (gen if k > 0 else gen.inverse())
            d = dist(z, mobius_apply_complex(gk, w))
            if d <= r:
                direct += math.exp(-3.0 * d * d) * float(F.smoothstep_cutoff(d / r))
        assert per([z], [w])[0] == pytest.approx(direct, abs=1e-12)

    def test_long_cyclic_group_keeps_the_neighbouring_tile(self):
        # L = 4: z and w = -z lie 3.8 apart, beyond r, but the generator moves
        # w to 0.2 from z, so the orbit ball must reach the displacement L
        group = F.cyclic_group(4.0)
        gen = group.generators[0]
        kern = RadialKernel(lambda t: np.exp(-t * t))
        r = 1.0
        z = math.tanh(0.95) + 0j
        w = -z
        direct = 0.0
        for g in (GroupElement.identity(), gen, gen.inverse()):
            d = dist(z, mobius_apply_complex(g, w))
            if d <= r:
                direct += math.exp(-d * d) * float(F.smoothstep_cutoff(d / r))
        assert direct == pytest.approx(math.exp(-0.04) * float(F.smoothstep_cutoff(0.2)))
        per = F.periodize_truncated(kern, group, r)
        assert per([z], [w])[0] == pytest.approx(direct, abs=1e-12)


class TestHsBound:
    def test_no_wraparound_case(self, bolza):
        # kernel support and r below half the systole: second term vanishes
        kern = RadialKernel(lambda t: np.exp(-2.0 * t * t) * (t <= 1.2),
                            support_bound=1.2)
        rep = F.hs_bound_check(kern, bolza, r=1.3, n_mc=400, seed=2)
        assert rep.rhs_second_term == 0.0
        assert rep.injrad_fraction == 0.0
        assert rep.passed
        assert rep.lhs_estimate <= rep.rhs_first_term * 1.05

    def test_bolza_gaussian_r2(self, bolza):
        kern = RadialKernel(lambda t: np.exp(-t * t), support_bound=8.0)
        rep = F.hs_bound_check(kern, bolza, r=2.0, n_mc=400, seed=4)
        assert rep.passed

    def test_cyclic_windowed(self):
        group = F.cyclic_group(1.0)
        kern = RadialKernel(lambda t: np.exp(-t * t), support_bound=6.0)
        rep = F.hs_bound_check(kern, group, r=2.0, n_mc=300, seed=5, window_radius=2.5)
        assert rep.passed
        assert rep.window_radius == 2.5
        assert rep.systole_bound == pytest.approx(1.0, rel=1e-12)


class TestDomainSampler:
    def test_window_radius_and_budget(self):
        group = F.cyclic_group(1.0)
        with pytest.raises(ValueError):
            F.DomainSampler(group)
        sampler = F.DomainSampler(group, 2.5)
        rng = np.random.default_rng(0)
        zs = sampler.sample(rng, 50)
        assert len(zs) == 50
        assert all(sampler.contains(z) and 2.0 * math.atanh(abs(z)) <= 2.5 for z in zs)
        assert sampler.proposals > 50
        # the budget counts the proposals of every call
        with pytest.raises(BudgetExceeded):
            sampler.sample(rng, 1, max_proposals=sampler.proposals)
        with pytest.raises(BudgetExceeded):
            F.DomainSampler(group, 2.5).sample(rng, 50, max_proposals=50)

    @pytest.mark.parametrize("group, radius", [(F.bolza_group(), None),
                                               (F.cyclic_group(1.0), 6.0)])
    @pytest.mark.parametrize("n", [1, 37, 500])
    def test_proposals_replay(self, group, radius, n):
        # proposal k is the k-th pair of doubles (radius, angle): one at a
        # time from a copy of the generator, the n-th accepted is proposal
        # number `proposals`, and the accepted points are the sample (the
        # cyclic window accepts too few for one batch at n = 500)
        rng = np.random.default_rng(3)
        replay = copy.deepcopy(rng)
        sampler = F.DomainSampler(group, radius)
        zs = sampler.sample(rng, n)
        faces = F._face_points(group)
        cosh_R = math.cosh(sampler.radius)
        accepted, count = [], 0
        while len(accepted) < n:
            u, v = replay.random(2)
            z = (math.tanh(math.acosh(1.0 + u * (cosh_R - 1.0)) / 2.0)
                 * cmath.exp(2j * math.pi * v))
            count += 1
            if F._in_dirichlet_domain(z, faces):
                accepted.append(z)
        assert sampler.proposals == count
        assert np.max(np.abs(zs - np.array(accepted))) < 1e-14

    def test_area_estimate(self, bolza):
        # 2 pi (cosh R_D - 1) n / proposals estimates the area 4 pi of D
        sampler = F.DomainSampler(bolza)
        n = 4000
        sampler.sample(np.random.default_rng(11), n)
        disc = 2.0 * math.pi * (math.cosh(bolza.dirichlet_radius) - 1.0)
        p = n / sampler.proposals
        stderr = disc * math.sqrt(p * (1.0 - p) / sampler.proposals)
        assert abs(disc * p - 4.0 * math.pi) <= 4.0 * stderr


class TestCovers:
    def test_degree_one_is_base(self, bolza):
        cov = F.random_cover(bolza, 1, seed=0)
        assert cov.volume() == pytest.approx(bolza.volume())

    def test_volume_scaling(self, bolza):
        for deg in [2, 3, 8]:
            cov = F.random_cover(bolza, deg, seed=1)
            assert cov.volume() == pytest.approx(deg * bolza.volume())

    def test_deterministic_under_seed(self, bolza):
        c1 = F.random_cover(bolza, 6, seed=42)
        c2 = F.random_cover(bolza, 6, seed=42)
        assert c1.permutations == c2.permutations

    def test_relation_violation_rejected(self, bolza):
        # two non-commuting transpositions make the relator image a 3-cycle
        ident = tuple(range(3))
        s, t = (1, 0, 2), (0, 2, 1)
        with pytest.raises(RelationViolation):
            F.CoverSurface(bolza, 3, (s, t, ident, ident))

    def test_disconnected_rejected(self, bolza):
        ident = tuple(range(2))
        with pytest.raises(NonTransitive):
            F.CoverSurface(bolza, 2, (ident, ident, ident, ident))

    def test_lift_injrad_dominates_base(self, bolza):
        cov = F.random_cover(bolza, 4, seed=9)
        rng = np.random.default_rng(8)
        sampler = F.DomainSampler(bolza)
        for z in sampler.sample(rng, 12):
            zp = DiscPoint(z.real, z.imag)
            for R in [1.6, 1.8, 2.2]:
                below_base = F.injrad_below(bolza, zp, R)
                below_lift = F.injrad_below(cov, zp, R, sheet=0)
                # the fixing condition only removes candidates
                assert (not below_base) <= (not below_lift) or below_base >= below_lift
                if below_lift:
                    assert below_base

    def test_injrad_below_matches_full_ball(self, bolza):
        # the shared search of a whole sample (every sheet at once) and the
        # one-point call against the whole ball of radius 2R, filtered sheet
        # by sheet by the composed permutation of each word; the covers are
        # the degree-4 cyclic one and a degree-3 one that is not cyclic; the
        # last points lie far outside D (tile prune with its d(0, c) margin)
        # or off the axis of the cyclic group (displacement prune)
        rng = np.random.default_rng(21)
        sampler = F.DomainSampler(bolza)
        s, t = (1, 0, 2), (0, 2, 1)
        cyclic4 = F.random_cover(bolza, 4, seed=0)
        mixed3 = F.CoverSurface(bolza, 3, (s, s, t, t))
        cyclic = F.cyclic_group(1.0)
        rho = F.BOLZA_VERTEX_RADIUS * rng.uniform(1.3, 1.5, 24)
        in_bolza = list(sampler.sample(rng, 30)) + list(
            np.tanh(rho / 2.0) * np.exp(2j * math.pi * rng.random(24)))
        in_cyclic = list(0.6 * np.sqrt(rng.random(30)) * np.exp(2j * math.pi * rng.random(30))) \
            + list(0.8 * np.exp(2j * math.pi * rng.random(8)))
        shares = {}
        for case, surface, group, zs, R in [("cyclic4", cyclic4, bolza, in_bolza, 1.7),
                                            ("mixed3", mixed3, bolza, in_bolza, 1.7),
                                            ("cyclic", cyclic, cyclic, in_cyclic, 0.9)]:
            expect = np.array([brute_below(surface, group, z, R) for z in zs])
            below = F.injrad_below_points(surface, zs, R).below
            assert below.shape == expect.shape
            assert np.array_equal(below, expect)
            # the one-point call, each sheet in turn
            sheets = np.arange(len(zs)) % expect.shape[1]
            one = [F.injrad_below(surface, DiscPoint(z.real, z.imag), R, sheet=int(k))
                   for z, k in zip(zs, sheets)]
            assert one == expect[np.arange(len(zs)), sheets].tolist()
            assert 0 < expect.sum() < expect.size
            shares[case] = expect.mean(axis=1)
        # a cyclic cover's sheet maps are shifts: one fixed sheet fixes all
        assert set(shares["cyclic4"]) <= {0.0, 1.0}
        assert np.any((shares["mixed3"] > 0.0) & (shares["mixed3"] < 1.0))

    def test_injrad_below_returns_bool(self, bolza):
        z = DiscPoint(0.1, 0.2)
        assert type(F.injrad_below(bolza, z, 1.7)) is bool
        assert type(F.injrad_below(F.random_cover(bolza, 4, seed=0), z, 1.0, sheet=2)) is bool

    @pytest.mark.parametrize("group", [F.bolza_group(), F.cyclic_group(4.0)],
                             ids=["bolza", "cyclic4"])
    def test_prune_bounds_match_per_centre_formula(self, group):
        # points inside and outside the Dirichlet domain of the Bolza group
        zs = np.array([0.0, 0.3 + 0.1j, -0.5j, 0.8 + 0.1j, -0.9 + 0.2j])
        got = F._prune_bounds(group, zs, 3.4)
        for c, b in zip(zs, got):
            if group.dirichlet_radius is None:
                ref = 3.4 + group.max_generator_displacement(c) + 1.0
            else:
                margin = group.dirichlet_radius
                if not F._in_dirichlet_domain(c, F._face_points(group)):
                    margin += 2.0 * math.atanh(abs(c))
                ref = math.sinh((3.4 + margin + 1e-9) / 2.0) ** 2 * (1.0 - abs(c) ** 2)
            assert b == pytest.approx(ref, rel=1e-14)

    def test_shared_search_budget_guard(self, bolza):
        # below half the systole no point closes, so the search runs on
        zs = 0.3 * np.exp(2j * math.pi * np.arange(10) / 10)
        with pytest.raises(BudgetExceeded):
            F.injrad_below_points(bolza, zs, 1.2, element_cap=50)
