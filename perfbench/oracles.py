"""Independent oracles for the benchmark's output checks.

Nothing here imports hypsurf: every value is recomputed from closed forms,
from numpy/scipy/mpmath, or from an orbit enumeration written from scratch
on plain 2x2 SU(1,1) matrices, so a defect in the package cannot also
corrupt the value it is checked against.
"""

from __future__ import annotations

import math

import numpy as np

# Regular-octagon (Bolza) surface: four translations of length
# 2 arccosh(1 + sqrt 2) along the rays at angles k pi / 4; the Dirichlet
# domain at 0 is the octagon with circumradius arccosh(3 + 2 sqrt 2).
BOLZA_SIDE = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
BOLZA_CIRCUMRADIUS = math.acosh(3.0 + 2.0 * math.sqrt(2.0))
BOLZA_AREA = 4.0 * math.pi

# Strohmaier & Uski (2013): first two nonzero Laplace eigenvalues of the
# Bolza surface and their multiplicities.
BOLZA_LAMBDA1, BOLZA_MULT1 = 3.83888726, 3
BOLZA_LAMBDA2, BOLZA_MULT2 = 5.35360134, 4


def bolza_generators() -> np.ndarray:
    """The 8 symmetrized generators as SU(1,1) matrices, shape (8, 2, 2)."""
    c, s = math.cosh(BOLZA_SIDE / 2.0), math.sinh(BOLZA_SIDE / 2.0)
    gens = []
    for k in range(4):
        e = np.exp(1j * k * math.pi / 4.0)
        gens.append(np.array([[c, e * s], [np.conj(e) * s, c]]))
    gens += [np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) for g in gens[:4]]
    return np.array(gens)


def bolza_orbit(radius: float, weights=(0, 0, 0, 0), degree: int = 1):
    """All group elements g with d(0, g 0) <= radius, shape (m, 2, 2), and
    their images under the homomorphism to Z_degree that sends generator k to
    weights[k], shape (m,).  The identity comes first.

    Breadth-first over tiles: the tiles that meet the ball B(0, radius) are
    connected through shared sides and their centres lie within
    radius + circumradius, so pruning there loses nothing.  Elements are
    identified by their orbit point g(0) = b / conj(a) (0 has trivial
    stabilizer in a surface group).
    """
    gens = bolza_generators()
    gen_w = np.concatenate([weights, np.negative(weights)]).astype(np.int64)
    prune = radius + BOLZA_CIRCUMRADIUS + 1e-6
    frontier = np.eye(2, dtype=complex)[None]
    labels = np.zeros(1, dtype=np.int64)
    seen = {(0, 0)}
    kept, kept_labels = [frontier], [labels]
    while len(frontier):
        cand = np.einsum("nij,gjk->ngik", frontier, gens).reshape(-1, 2, 2)
        cand_labels = ((labels[:, None] + gen_w[None, :]) % degree).ravel()
        inside = 2.0 * np.abs(cand[:, 0, 0]) ** 2 - 1.0 <= math.cosh(prune)
        cand, cand_labels = cand[inside], cand_labels[inside]
        w = cand[:, 0, 1] / np.conj(cand[:, 0, 0])
        keys = np.round(np.column_stack([w.real, w.imag]) * 1e9).astype(np.int64)
        fresh = []
        for i, key in enumerate(map(tuple, keys)):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        frontier, labels = cand[fresh], cand_labels[fresh]
        kept.append(frontier)
        kept_labels.append(labels)
    allg, all_labels = np.concatenate(kept), np.concatenate(kept_labels)
    inside = 2.0 * np.abs(allg[:, 0, 0]) ** 2 - 1.0 <= math.cosh(radius)
    return allg[inside], all_labels[inside]


def bolza_orbit_count(radius: float) -> int:
    """Number of orbit points of 0 within hyperbolic distance radius."""
    return len(bolza_orbit(radius)[0])


def cyclic_cover_weights(permutations) -> tuple:
    """The weights w_k of a cover whose generator k shifts sheet i to i + w_k.

    Raises ValueError for a permutation that is not such a cyclic shift.
    """
    degree = len(permutations[0])
    weights = tuple(int(p[0]) for p in permutations)
    for p, w in zip(permutations, weights):
        if list(p) != [(i + w) % degree for i in range(degree)]:
            raise ValueError(f"not a cyclic shift: {p}")
    return weights


def lattice_point_estimate(radius: float) -> float:
    """Ball area over covolume: 2 pi (cosh R - 1) / (4 pi)."""
    return 2.0 * math.pi * (math.cosh(radius) - 1.0) / BOLZA_AREA


def _mobius(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Apply each of the m matrices g to each of the n points z: shape (n, m)."""
    a, b = g[:, 0, 0], g[:, 0, 1]
    z = z[:, None]
    return (a * z + b) / (np.conj(b) * z + np.conj(a))


def bolza_bs_fraction(R: float, n_samples: int, seed: int, permutations=None,
                      chunk: int = 2000):
    """Monte Carlo Vol{InjRad < R} / Vol on the Bolza surface or a cyclic cover.

    Samples are uniform in hyperbolic area on the octagon (rejection from
    the circumscribed disc; a point is in the Dirichlet domain when no orbit
    point of 0 is closer to it than 0).  InjRad(z) < R when some nontrivial
    deck transformation moves z by less than 2R; such g satisfy
    d(0, g 0) <= 2R + 2 R_D.  On the cover given by a table of cyclic-shift
    `permutations` (one per generator) the deck group is the kernel of the
    weight homomorphism to Z_degree.  That kernel is normal, so every sheet
    has the same deck group and the sheet need not be sampled.
    Returns (fraction, standard error).
    """
    near = bolza_orbit(2.0 * BOLZA_CIRCUMRADIUS + 0.1)[0][1:]
    near0 = near[:, 0, 1] / np.conj(near[:, 0, 0])
    weights, degree = (0, 0, 0, 0), 1
    if permutations is not None:
        weights, degree = cyclic_cover_weights(permutations), len(permutations[0])
    moving, labels = bolza_orbit(2.0 * R + 2.0 * BOLZA_CIRCUMRADIUS + 0.1, weights, degree)
    moving = moving[1:][labels[1:] == 0]
    cosh_2R = math.cosh(2.0 * R)
    cosh_rv = math.cosh(BOLZA_CIRCUMRADIUS)
    rng = np.random.Generator(np.random.PCG64(seed))
    hits = done = 0
    while done < n_samples:
        r_h = np.arccosh(1.0 + rng.random(chunk) * (cosh_rv - 1.0))
        z = np.tanh(r_h / 2.0) * np.exp(2j * math.pi * rng.random(chunk))
        own = np.abs(z) ** 2 / (1.0 - np.abs(z) ** 2)
        other = (np.abs(z[:, None] - near0) ** 2
                 / ((1.0 - np.abs(z[:, None]) ** 2) * (1.0 - np.abs(near0) ** 2)))
        z = z[own <= other.min(axis=1)][: n_samples - done]
        gz = _mobius(moving, z)
        cosh_d = 1.0 + 2.0 * (np.abs(z[:, None] - gz) ** 2
                              / ((1.0 - np.abs(z[:, None]) ** 2) * (1.0 - np.abs(gz) ** 2)))
        hits += int(np.sum(cosh_d.min(axis=1) < cosh_2R))
        done += len(z)
    p = hits / n_samples
    return p, math.sqrt(p * (1.0 - p) / n_samples)


def torus_eigenvalues(h: float, n_modes: int) -> np.ndarray:
    """Lowest eigenvalues of the 5-point Laplacian on the periodic unit grid.

    (4 / h^2) (sin^2 pi m h + sin^2 pi n h) over m, n = 0..N-1, h = 1/N.
    """
    n = int(round(1.0 / h))
    h = 1.0 / n
    s = np.sin(math.pi * np.arange(n) * h) ** 2
    return np.sort((4.0 / h ** 2) * (s[:, None] + s[None, :]).ravel())[:n_modes]


def bump(lam, lo: float = 1.0, hi: float = 2.0) -> np.ndarray:
    """exp(1 - 1/(1 - x^2)) with x = (2 lam - lo - hi)/(hi - lo), 0 outside."""
    x = (2.0 * np.asarray(lam, dtype=float) - (lo + hi)) / (hi - lo)
    inside = np.abs(x) < 1.0
    out = np.zeros(x.shape)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def paper_weight(lam):
    """Plancherel weight lam tanh(2 pi lam)."""
    return lam * np.tanh(2.0 * math.pi * lam)


def paper_hs_weight(lam):
    """Exact Hilbert-Schmidt weight w(lam)^2 / (lam tanh(pi lam))."""
    return paper_weight(lam) ** 2 / (lam * np.tanh(math.pi * lam))


def hs_norm_separable(r0: float, lo: float = 1.0, hi: float = 2.0) -> float:
    """||Op(a)||_HS^2 for a = bump(lam) 1{|z| <= r0} by scipy quad.

    The triple integral factorizes: hyperbolic area of the disc
    4 pi r0^2 / (1 - r0^2), times the Poisson mass 2 pi, times
    int bump^2 W dlam.
    """
    from scipy.integrate import quad

    lam_part, _ = quad(lambda l: float(bump(l, lo, hi) ** 2 * paper_hs_weight(l)),
                       lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
    area = 4.0 * math.pi * r0 * r0 / (1.0 - r0 * r0)
    return area * 2.0 * math.pi * lam_part


def _tanh_sinh(lo: float, hi: float, h: float = 1.0 / 32.0, n: int = 128):
    k = np.arange(-n, n + 1) * h
    u = 0.5 * math.pi * np.sinh(k)
    x = np.tanh(u)
    w = 0.5 * math.pi * h * np.cosh(k) / np.cosh(u) ** 2
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def spherical_phi_series(lams: np.ndarray, ts: np.ndarray, n_terms: int = 80) -> np.ndarray:
    """phi_lam(t) = 2F1(1/2 - i lam, 1/2 + i lam; 1; -sinh^2(t/2)), shape (t, lam).

    The Pochhammer product (1/2 - i lam)_n (1/2 + i lam)_n is real:
    prod_{k<n} ((k + 1/2)^2 + lam^2).  Converges for t < 2 arcsinh(1).
    """
    s = -np.sinh(np.asarray(ts, dtype=float) / 2.0) ** 2
    lam2 = np.asarray(lams, dtype=float) ** 2
    term = np.ones((len(s), len(lam2)))
    total = term.copy()
    for n in range(n_terms):
        term = term * (((n + 0.5) ** 2 + lam2)[None, :] / (n + 1.0) ** 2) * s[:, None]
        total += term
    return total


def k_rho_bump(ts) -> np.ndarray:
    """k_rho(t) = int rho(lam) phi_lam(t) lam tanh(2 pi lam) dlam, rho = bump(1, 2).

    Hypergeometric series for phi and a tanh-sinh rule in lam: neither the
    Mehler-Dirichlet integral nor the Gauss-Legendre rule of the package.
    Valid for 0 <= t < 1.7.
    """
    lam, w = _tanh_sinh(1.0, 2.0)
    return spherical_phi_series(lam, ts) @ (bump(lam) * paper_weight(lam) * w)


def k_rho_bump_mpmath(t: float, dps: int = 30) -> float:
    """k_rho(t) from mpmath.legenp (conical function) under mpmath.quad."""
    import mpmath as mp

    with mp.workdps(dps):
        ct = mp.cosh(t)

        def f(lam):
            x = 2 * lam - 3
            if abs(x) >= 1:
                return mp.mpf(0)
            phi = mp.re(mp.legenp(mp.mpc(-0.5, lam), 0, ct)) if t > 0 else 1
            return mp.e * mp.exp(-1 / (1 - x * x)) * lam * mp.tanh(2 * mp.pi * lam) * phi

        return float(mp.quad(f, [1, 1.5, 2]))
