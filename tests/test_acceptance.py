"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single `ACCEPTANCE <n>: PASS - <summary>` line (visible
under `pytest -s`); failures raise with the measured numbers.  Runtime
budgets are asserted with generous headroom.
"""

import math
import time

import numpy as np

import hypsurf.fuchsian as F
from hypsurf.eigensolve import disc_surface_mesh, fem_eigensolve, torus_mesh
from hypsurf.geometry import (AnkCoords, BoundaryPoint, DiscPoint, GroupElement,
                              ank_compose, ank_decompose,
                              boundary_angle_derivative, busemann, hyp_distance,
                              mobius_apply, poisson_weight)
from hypsurf.propagators import (delta_h, lemma_a1_check, prop33_certificate)
from hypsurf.toy1d import alternating_step, toy1d_variance
from hypsurf.transforms import (PlancherelWeight, RadialKernel, abel_sharp,
                                abel_smooth, bump_multiplier, c_inverse_square,
                                fourier_of_abel, helgason_forward, k_rho_scaled,
                                phi_eval, selberg_transform, spherical_phi)
from hypsurf.variance import (SpectralWindow, mean_zero_density,
                              quantum_variance, weyl_ratio)

from tests.test_fuchsian import exhaustive_word_ball

# frozen regression constants (first validated run on the acceptance grids)
PROP33_CMIN = (1.463719921143, 1.482752476655, 1.513884800674)
WEYL_DENSITY_J14 = 0.23850835338707335


def report(n, ok, summary):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {n}: {summary}"


def smoothstep_eta(x):
    x = np.clip(np.asarray(x, dtype=float) + 1.0, 0.0, 1.0)
    return 1.0 - (3.0 * x * x - 2.0 * x ** 3)


def test_criterion_1_toy_model():
    start = time.time()
    observables = [
        alternating_step(7),
        alternating_step(9),
        lambda x: math.cos(2.0 * math.pi * x / math.sqrt(17.0)),
    ]
    ok = True
    first_last = []
    for a in observables:
        variances = {}
        for L in (100.0, 400.0, 1600.0):
            rep = (toy1d_variance(L, (1.0, 2.0), a) if not callable(a)
                   else toy1d_variance(L, (1.0, 2.0), a, M=1.0))
            ok &= rep.variance <= rep.parseval_bound + 1e-10
            variances[L] = rep.variance
        ok &= variances[1600.0] < variances[100.0]
        first_last.append((variances[100.0], variances[1600.0]))
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(1, ok, f"variance <= M^2/N for 3 observables x 3 lengths, "
                  f"decreasing 100->1600 {first_last}; {elapsed:.1f}s")


def test_criterion_2_geometry_identities():
    start = time.time()
    rng = np.random.default_rng(20260810)
    n = 10_000
    worst = dict(cocycle=0.0, poisson=0.0, ank=0.0, cosh=0.0)
    for _ in range(n):
        s, u = rng.uniform(-2, 2, 2)
        th = rng.uniform(0, 2 * math.pi)
        g = ank_compose(AnkCoords(s, u, th))
        r = math.sqrt(rng.uniform(0, 0.81))
        phi = rng.uniform(0, 2 * math.pi)
        z = DiscPoint(r * math.cos(phi), r * math.sin(phi))
        b = BoundaryPoint(rng.uniform(0, 2 * math.pi))
        lhs = busemann(mobius_apply(g, z), mobius_apply(g, b))
        rhs = busemann(z, b) + busemann(mobius_apply(g, DiscPoint(0, 0)),
                                        mobius_apply(g, b))
        worst["cocycle"] = max(worst["cocycle"], abs(lhs - rhs))
        pv = (poisson_weight(mobius_apply(g, z), mobius_apply(g, b))
              * boundary_angle_derivative(g, b))
        worst["poisson"] = max(worst["poisson"], abs(pv - poisson_weight(z, b)))
        h2 = ank_compose(ank_decompose(g))
        worst["ank"] = max(worst["ank"],
                           abs(h2.alpha - g.alpha) + abs(h2.beta - g.beta))
        zz = mobius_apply(GroupElement.geodesic(s) @ GroupElement.horocycle(u),
                          DiscPoint(0, 0))
        worst["cosh"] = max(worst["cosh"], abs(
            math.cosh(hyp_distance(DiscPoint(0, 0), zz))
            - (u * u * math.exp(s) + 2 * math.cosh(s)) / 2.0))
    elapsed = time.time() - start
    ok = all(v < 1e-8 for v in worst.values()) and elapsed < 5.0
    report(2, ok, f"10^4-sample identity battery, worst deviations "
                  f"{ {k: float(f'{v:.2e}') for k, v in worst.items()} }; {elapsed:.1f}s")


def test_criterion_3_transform_triangle():
    start = time.time()
    ok = True
    worst_sharp = worst_smooth = 0.0
    lam_grid = np.array([0.5, 1.5, 3.0])
    for t0 in (1.0, 2.0, 4.0):
        k_sharp = RadialKernel(lambda r, t0=t0: np.cosh(t0) ** -0.5 * (r <= t0),
                               support_bound=t0)
        h1 = selberg_transform(k_sharp)(lam_grid)
        h2 = fourier_of_abel(abel_sharp(t0))(lam_grid)
        worst_sharp = max(worst_sharp, float(np.max(np.abs(h1 - h2))))
        sigma = 0.3
        k_smooth = RadialKernel(
            lambda r, t0=t0: np.cosh(t0) ** -0.5 * smoothstep_eta((r - t0) / sigma),
            support_bound=t0, breakpoints=(t0 - sigma,))
        h3 = selberg_transform(k_smooth)(lam_grid)
        h4 = fourier_of_abel(abel_smooth(t0, sigma, smoothstep_eta))(lam_grid)
        worst_smooth = max(worst_smooth, float(np.max(np.abs(h3 - h4))))
    ok &= worst_sharp < 1e-6 and worst_smooth < 1e-6
    # Helgason radial reduction
    prof = lambda t: np.exp(-2.0 * t * t)
    f = lambda z: prof(2.0 * np.arctanh(np.minimum(np.abs(z), 0.999999)))
    tr = helgason_forward(f, n_rad=140, n_ang=384)
    k_rad = RadialKernel(lambda t: np.exp(-2.0 * t * t),
                         support_bound=2.0 * math.atanh(0.95))
    hsel = selberg_transform(k_rad)
    worst_helg = max(abs(abs(tr(lam, 0.7)) - abs(float(hsel(lam))))
                     for lam in (0.5, 1.0, 2.0))
    ok &= worst_helg < 1e-6
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    report(3, ok, f"triangle gaps sharp {worst_sharp:.2e} smooth {worst_smooth:.2e}, "
                  f"Helgason radial {worst_helg:.2e}; {elapsed:.1f}s")


def test_criterion_4_spherical_dual():
    start = time.time()
    lams, ts = (0.5, 1.0, 2.0, 3.0), (1.0, 2.0, 5.0, 10.0)
    grid = phi_eval(np.array(lams), np.array(ts))      # rows t >= 1: the series
    worst = max(abs(spherical_phi(lam, t) - grid[j, i])
                for i, lam in enumerate(lams) for j, t in enumerate(ts))
    worst_c = max(abs(c_inverse_square(lam)
                      - math.pi * lam * math.tanh(math.pi * lam))
                  for lam in (0.5, 1.0, 2.0, 3.0))
    elapsed = time.time() - start
    ok = worst < 1e-6 and worst_c < 1e-10 and elapsed < 10.0
    report(4, ok, f"integral-vs-series gap {worst:.2e}, c-identity gap "
                  f"{worst_c:.2e}; {elapsed:.1f}s")


def test_criterion_5_kernel_decay():
    start = time.time()
    ok = True
    sups = {}
    ts = np.linspace(1.0, 40.0, 400)
    for lo, hi in ((1.0, 2.0), (0.5, 1.0), (2.0, 3.0)):
        rho = bump_multiplier(lo, hi)
        s1 = np.abs(k_rho_scaled(rho, PlancherelWeight.paper(), ts, n_lambda=256))
        s2 = np.abs(k_rho_scaled(rho, PlancherelWeight.paper(), ts, n_lambda=512))
        for N in range(5):
            v1 = float((s1 * (1.0 + ts) ** N).max())
            v2 = float((s2 * (1.0 + ts) ** N).max())
            ok &= math.isfinite(v2) and v2 > 0
            ok &= abs(v1 - v2) < 0.01 * v2
            sups[(lo, hi, N)] = v2
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    worst_sup = max(sups.values())
    report(5, ok, f"|k_rho| e^(t/2) (1+t)^N finite and node-stable for 3 bumps, "
                  f"N<=4 (largest sup {worst_sup:.3g}); {elapsed:.1f}s")


def test_criterion_6_appendix_a():
    start = time.time()
    lams = (0.5, 1.0, 2.0, 3.0)
    rs = np.arange(2.0, 21.0, 1.0)
    per_lam_max = {lam: max(float(lemma_a1_check(lam, float(r))) for r in rs)
                   for lam in lams}
    ratio = max(per_lam_max.values()) / min(per_lam_max.values())
    ok = ratio < 10.0
    c_hat = max(per_lam_max.values())
    worst_margin = 0.0
    for t in (3.0, 6.0):
        for sigma in (0.4, 0.2, 0.1, 0.05):
            envelope = 4.0 * c_hat * (1.0 - math.exp(-sigma / 2.0))
            for lam in lams:
                d = abs(delta_h(t, sigma, lam))
                ok &= d <= envelope * (1.0 + 1e-9)
                worst_margin = max(worst_margin, d / envelope)
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report(6, ok, f"lemma bound ratio {ratio:.2f} < 10; delta-h within the "
                  f"4C(1-e^(-sigma/2)) envelope (worst fill {worst_margin:.2f}); "
                  f"{elapsed:.1f}s")


def test_criterion_7_prop33_certificate():
    start = time.time()
    cert = prop33_certificate((math.sqrt(0.75), math.sqrt(3.75)), 0.1,
                              (10.0, 20.0, 40.0), lam_spacing=0.02)
    ok = cert.passed and all(c > 0 for c in cert.c_min)
    ok &= abs(cert.c_min[1] - cert.c_min[2]) < 0.2 * max(cert.c_min[1:])
    for got, frozen in zip(cert.c_min, PROP33_CMIN):
        ok &= abs(got - frozen) < 1e-6 * frozen
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    report(7, ok, f"floor c_min {tuple(round(c, 6) for c in cert.c_min)} "
                  f"positive, stable ({100 * cert.upper_half_variation:.1f}% var), "
                  f"matches frozen regression; {elapsed:.1f}s")


def test_criterion_8_fuchsian_oracles():
    start = time.time()
    ok = True
    # cyclic injectivity radius, exact
    for L in (0.5, 1.0, 2.0):
        inj = F.orbit_enumerate(F.cyclic_group(L), DiscPoint(0, 0), 2.5 * L).injectivity_radius()
        ok &= abs(inj.value - L / 2.0) < 1e-9
    # Bolza orbit ball vs exhaustive word oracle
    bolza = F.bolza_group()
    ball = F.orbit_enumerate(bolza, DiscPoint(0, 0), 3.1)
    oracle = exhaustive_word_ball(bolza, 3.1, 8)
    ok &= len(ball) == oracle
    # truncated-periodization inequality on the 12-case matrix
    kernels = {
        "gauss": RadialKernel(lambda t: np.exp(-t * t), support_bound=8.0),
        "bump": RadialKernel(
            lambda t: np.where(t < 1.5, np.exp(1.0 - 1.0 / np.maximum(
                1.0 - (t / 1.5) ** 2, 1e-300)), 0.0), support_bound=1.5),
    }
    cases = 0
    for gname, group, window, length in (
            ("bolza", bolza, None, F.BOLZA_SIDE_LENGTH),
            ("cyclic1", F.cyclic_group(1.0), 2.5, 1.0),
            ("cyclic2", F.cyclic_group(2.0), 2.5, 2.0)):
        for kname, kern in kernels.items():
            for r in (1.3, 2.0):
                cases += 1
                rep = F.hs_bound_check(kern, group, r=r, n_mc=250,
                                       seed=1000 + cases, window_radius=window)
                ok &= rep.passed
                ok &= abs(rep.systole_bound - length) <= 1e-12 * length
    elapsed = time.time() - start
    ok &= cases == 12 and elapsed < 300.0
    report(8, ok, f"cyclic inj exact, Bolza ball({len(ball)}) == word oracle"
                  f"({oracle}), HS inequality holds on 12 cases; {elapsed:.1f}s")


def test_criterion_9_eigensolver_validation():
    start = time.time()
    data = fem_eigensolve(torus_mesh(0.02), 10)
    exact = sorted(4 * math.pi ** 2 * (m * m + n * n)
                   for m in range(-3, 4) for n in range(-3, 4))[:10]
    worst_rel = max(abs(g - e) / max(e, 1.0) for g, e in
                    zip(data.eigenvalues, exact))
    ok = worst_rel < 0.02
    bolza_data = fem_eigensolve(disc_surface_mesh(F.bolza_group(), 0.05), 6)
    nu0 = float(bolza_data.eigenvalues[0])
    psi0 = bolza_data.eigenvectors[:, 0]
    ok &= abs(nu0) < 1e-3
    ok &= float(np.std(psi0)) < 1e-4 * float(np.abs(psi0).max())
    elapsed = time.time() - start
    ok &= elapsed < 600.0
    report(9, ok, f"torus modes within {100 * worst_rel:.2f}% (< 2%), Bolza "
                  f"nu0 = {nu0:.1e} with near-constant ground state; {elapsed:.1f}s")


def test_criterion_10_qe_trend():
    start = time.time()
    base = F.bolza_group()
    window = SpectralWindow(1.0, 4.0)
    seed = 23
    rows = []
    for deg in (1, 2, 4):
        surface = base if deg == 1 else F.random_cover(base, deg, seed=seed)
        data = fem_eigensolve(disc_surface_mesh(surface, 0.05), reach=window.reach)
        vals = mean_zero_density(lambda z: np.where(np.real(z) > 0, 1.0, -1.0), data)
        rep = quantum_variance(vals, data, window)
        spread = float(np.std(rep.terms) / math.sqrt(rep.count))
        rows.append((deg, rep.count, rep.variance, spread + rep.uncertainty))
        if deg == 4:
            wr = weyl_ratio(data, window)
    ok = True
    for (d1, n1, v1, e1), (d2, n2, v2, e2) in zip(rows, rows[1:]):
        ok &= v2 <= v1 + 2.0 * (e1 + e2)
    ok &= rows[-1][2] <= rows[0][2] + 2.0 * (rows[0][3] + rows[-1][3])
    weyl_ok = 0.5 <= wr.ratio <= 2.0
    ok &= weyl_ok
    elapsed = time.time() - start
    ok &= elapsed < 3600.0
    trend = [(d, round(v, 6)) for d, _, v, _ in rows]
    report(10, ok, f"tower variance {trend} nonincreasing within bars, "
                   f"Weyl ratio {wr.ratio:.3f} in [0.5, 2] at degree 4 "
                   f"(FEM component); {elapsed:.1f}s")
