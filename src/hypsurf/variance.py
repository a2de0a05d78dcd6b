"""Quantum-variance harness: windows, matrix elements, Weyl ratio, budgets.

The variance of an observable A over a spectral window J is the mean of
|<psi_j, A psi_j> - limit_term(lambda_j)|^2 over eigenvalues nu_j in J.
Inside a degenerate cluster (eigenvalues equal to _DEGENERATE_REL relative,
as the conjugate characters of a cyclic cover give) the eigenbasis is
arbitrary, so the cluster's matrix elements are the eigenvalues of the
compressed observable Psi^H diag(a w) Psi: their squared deviations sum to
the basis-free |Psi^H diag(a w) Psi - limit|_F^2.  A window edge that splits
a cluster, or a mode count that splits a complex pair in the window, raises
WindowNotResolved.
The observable is a multiplication density given by its values at the mesh
nodes; matrix elements are mesh quadratures against the character blocks of
EigenData (EigenData.compress), and the limit term is the weighted mesh
mean of the density (the spherical function at distance zero is 1).  Limit
terms of other observables come from observables.limit_term, which the
pipeline budget uses.

The pipeline-budget report evaluates, term by term, the right-hand side of
the windowed variance inequality (averaging gain 1/T, wraparound terms
driven by injectivity-radius statistics, truncation and spectral-cutoff
tails).  It is a computable budget with measured constants, not a proof:
suppressed absolute constants are set to 1 and the Kunze-Stein/ergodic
exponent n is a configuration input, flagged as assumed in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, ParameterOutOfRange, WindowNotResolved
from .eigensolve import EigenData
from .fuchsian import bs_statistic, systole_upper_bound
from .observables import (Observable, limit_term, multiplier_tail_bound,
                          sandwich_sup_bound, symbol_of,
                          theta_second_derivative_norm)
from .propagators import avg_multiplier_H
from .quadrature import gauss_legendre
from .transforms import (PlancherelWeight, SpectralMultiplier,
                         plateau_multiplier)

TWO_PI = 2.0 * math.pi
_DEGENERATE_REL = 1e-8   # eigenvalues this close (relative, floor 1) are one cluster


# ---------------------------------------------------------------------------
# Spectral windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralWindow:
    """Window J in the eigenvalue nu, with the lambda interval I it induces.

    nu = 1/4 + lambda^2; lam_interval_wide is the enlarged interval for
    spectral cutoffs (10% relative margin on each side).
    """

    nu_lo: float
    nu_hi: float

    def __post_init__(self):
        if not self.nu_lo < self.nu_hi < math.inf:
            raise ParameterOutOfRange("window must have nu_lo < nu_hi < inf")
        if not self.nu_lo > 0.25 + 1e-9:
            raise ParameterOutOfRange("window must sit strictly above 1/4")

    @property
    def lam_lo(self) -> float:
        return math.sqrt(self.nu_lo - 0.25)

    @property
    def lam_hi(self) -> float:
        return math.sqrt(self.nu_hi - 0.25)

    @property
    def lam_interval_wide(self):
        width = self.lam_hi - self.lam_lo
        lo = max(self.lam_lo - 0.1 * width, 0.05)
        return (lo, self.lam_hi + 0.1 * width)

    @property
    def reach(self) -> float:
        """How far past the window eigendata must reach: 1.2 nu_hi, which
        weyl_ratio checks and the windowed subcommands solve to."""
        return 1.2 * self.nu_hi

    def contains_nu(self, nu) -> np.ndarray:
        nu = np.asarray(nu, dtype=float)
        return (nu >= self.nu_lo) & (nu <= self.nu_hi)


# ---------------------------------------------------------------------------
# Quantum variance over eigendata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceReport:
    count: int
    eigenvalues: np.ndarray
    matrix_elements: np.ndarray
    limit_terms: np.ndarray
    terms: np.ndarray               # squared deviations per mode
    variance: float
    uncertainty: float              # propagated from the eigenpair residuals


def mesh_mean(values: np.ndarray, data: EigenData) -> float:
    return float(np.sum(values * data.weights) / np.sum(data.weights))


def mean_zero_density(f, data: EigenData) -> np.ndarray:
    """Mesh values of f with the weighted mean subtracted exactly.

    f maps the array of mesh points to the array of its values there, and is
    called once, on every point.
    """
    vals = np.asarray(f(data.points), dtype=float)
    return vals - mesh_mean(vals, data)


def quantum_variance(values: np.ndarray, data: EigenData,
                     window: SpectralWindow) -> VarianceReport:
    """Windowed variance of a multiplication observable over eigendata.

    values: the density at the mesh nodes, an array of the shape of
    data.points (Gamma-invariance is the caller's contract; bounded
    measurable densities are fine).  mean_zero_density builds it from a
    callable on chart points.  Each cluster's compressed observable comes
    from EigenData.compress, which lifts no mode.
    """
    nu = data.eigenvalues
    inside = window.contains_nu(nu)
    idx = np.nonzero(inside)[0]
    if len(idx) == 0:
        raise EmptyWindow(f"no eigenvalue in [{window.nu_lo}, {window.nu_hi}]")
    cluster = np.concatenate([[0], np.cumsum(
        np.diff(nu) > _DEGENERATE_REL * np.maximum(1.0, nu[:-1]))])
    if np.isin(cluster[~inside], cluster[inside]).any():
        raise WindowNotResolved("a window edge splits a degenerate eigenvalue cluster")
    a_vals = np.asarray(values, dtype=float)
    if a_vals.shape != data.points.shape:
        raise ValueError("density array must match the mesh")
    sup_a = float(np.max(np.abs(a_vals)))
    limit = mesh_mean(a_vals, data)
    me, terms, unc = [], [], []
    clusters = [np.flatnonzero(cluster == c) for c in np.unique(cluster[idx])]
    for members, block in zip(clusters, data.compress(a_vals, clusters)):
        vals = np.linalg.eigvalsh(block)
        eps = float(np.max(data.residuals[members])) * sup_a
        dev = vals - limit
        me.extend(vals)
        terms.extend(dev * dev)
        unc.extend((2.0 * np.abs(dev) + eps) * eps)
    terms = np.array(terms)
    return VarianceReport(len(idx), data.eigenvalues[idx], np.array(me),
                          np.full(len(idx), limit), terms, float(np.mean(terms)),
                          float(np.mean(unc)))


# ---------------------------------------------------------------------------
# Weyl-ratio check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylReport:
    measured: float        # N(X, J) / Vol(X)
    predicted: float       # (1/2 pi) int_I s tanh(pi s) ds
    ratio: float
    count: int
    volume: float


def weyl_predicted_density(window: SpectralWindow) -> float:
    """(1/4 pi) int_R 1_J(1/4 + s^2) s tanh(pi s) ds (even integrand)."""
    s, w = gauss_legendre(window.lam_lo, window.lam_hi, 400)
    return float(2.0 * np.sum(s * np.tanh(math.pi * s) * w) / (4.0 * math.pi))


def weyl_ratio(data: EigenData, window: SpectralWindow) -> WeylReport:
    top = float(np.max(data.eigenvalues))
    if top < window.reach:
        raise WindowNotResolved(
            f"eigendata stop at nu = {top:.6g}, short of the window's reach"
            f" {window.reach:.6g} (1.2 nu_hi); solve to that reach")
    count = int(np.sum(window.contains_nu(data.eigenvalues)))
    measured = count / data.volume
    predicted = weyl_predicted_density(window)
    return WeylReport(measured, predicted,
                      measured / predicted if predicted > 0 else math.inf,
                      count, data.volume)


# ---------------------------------------------------------------------------
# The term-by-term variance budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineBudget:
    S_T: float
    nevo_n: float
    nevo_n_provenance: str
    theta_norm_sq: float
    sup_sandwich_sq: float
    terms: dict                  # the six terms by name:
    #   averaging     C / rho(n) / T
    #   wraparound    e^{2r + 2 S_T}/l * BS(r) * sup^2 * C'_rho
    #   cutoff_tail   multiplier tail at s (m vs m_s)
    #   mean_kernel   m_s kernel mass * E_bound factor
    #   hs_times_E    ||A_T||_HS^2/Vol * E_bound
    #   truncation    (S_T/r)^2 remainder budget
    total: float
    dominant: str
    bs_fraction_wrap: float      # Vol{InjRad < r + S_T}/Vol estimate
    bs_saturated: bool
    systole: float
    note: str = "suppressed absolute constants set to 1"


# sup |chi'| of the truncation cutoff smoothstep_cutoff: its slope 6x(1 - x)
# peaks at x = 1/2 with the value 3/2
_CHI_PRIME_SUP = 1.5


def _bs_or_one(surface, R: float, n_mc: int, seed: int):
    if R > 25.0:
        return 1.0, True
    return bs_statistic(surface, R, n_mc, seed).value, False


def variance_pipeline_bounds(A: Observable, surface, T: float, r: float,
                             s: float, window: SpectralWindow,
                             weight: PlancherelWeight | None = None,
                             sigma: float = 0.1, nevo_n: float = 2.0,
                             n_mc: int = 200, seed: int = 0) -> PipelineBudget:
    """Numeric evaluation of every term of the windowed variance inequality.

    Measured inputs: the theta-derivative norm of the symbol, sandwich-kernel
    sup bounds, injectivity-radius statistics, the systole from a complete
    orbit ball, and spectral tails of the cutoff multiplier.  Radii beyond
    the enumeration guard use the trivial volume-fraction bound 1 (flagged).
    """
    if not 0 < T < math.inf:
        raise ParameterOutOfRange("T must be positive and finite")
    if not 0 < sigma < T:   # then every node of the t-window exceeds sigma
        raise ParameterOutOfRange(f"sigma must satisfy 0 < sigma < T = {T:g}")
    if not 0 < r < math.inf:
        raise ParameterOutOfRange("r must be positive and finite")
    if not 0 <= s < math.inf:
        raise ParameterOutOfRange("s must be non-negative and finite")
    if not nevo_n > 1:
        raise ParameterOutOfRange("nevo_n must be > 1: rho(n) = 1 - 1/n divides")
    if n_mc < 1:
        raise ParameterOutOfRange("n_mc must be >= 1")
    weight = weight or PlancherelWeight.paper()
    S = A.locality.S
    S_T = 2.0 * T + S
    rho = plateau_multiplier(window.lam_lo, window.lam_hi,
                             margin=0.1 * (window.lam_hi - window.lam_lo))
    lam_grid = np.linspace(*window.lam_interval_wide, 9)
    systole = systole_upper_bound(surface.base)

    # (i) averaging gain
    theta_sq = theta_second_derivative_norm(symbol_of(A), window.lam_interval_wide,
                                            surface, n_mc=min(n_mc, 60), seed=seed)
    rho_n = 1.0 - 1.0 / nevo_n
    term_avg = theta_sq / rho_n / T

    # pointwise sandwich bound, averaged over the t-window
    tgrid = np.linspace(max(sigma * 1.5, 0.2), T, 8)
    sup_k = float(np.mean([sandwich_sup_bound(A, float(t), sigma) for t in tgrid]))
    sup_sq = sup_k * sup_k

    # multiplier L2 masses under both the plain and HS-exact weights
    lam_q, w_q = gauss_legendre(rho.support[0], rho.support[1], 256)
    rho_l2 = float(np.sum(rho(lam_q) ** 2 * weight(lam_q) * w_q))
    k_rho_mass = float(np.sum(rho(lam_q) ** 2 * weight.hs_weight(lam_q) * w_q))
    c_rho_prime = k_rho_mass + rho_l2

    # (ii) wraparound: the merged small-injectivity-radius term, with the
    # volume fraction taken at the widest relevant radius r + S_T
    bs_wrap, sat_r = _bs_or_one(surface, r + S_T, n_mc, seed)
    term_wrap = ((1.0 + (S_T / r) ** 2) * c_rho_prime * sup_sq
                 * math.exp(2.0 * (r + S_T)) / systole * bs_wrap)

    # H_T on the wide window and the mean multiplier m = beta * M
    H = np.interp(lam_q, lam_grid, avg_multiplier_H(T, sigma, lam_grid))   # at lam_q
    n_limit = min(4 * n_mc, 2000) if A.variant == "multiplication" else min(n_mc, 200)
    m_amp = abs(limit_term(A, float(np.mean(lam_grid)), surface, n_mc=n_limit,
                           seed=seed).value)
    m_mult = SpectralMultiplier(lambda lam: m_amp * rho(lam), rho.support)

    # (iii) spectral-cutoff tail: m vs its s-truncation
    eps_s = multiplier_tail_bound(m_mult, weight, s, lam_grid) if m_amp > 0 else 0.0
    H_rho_sq = float(np.sum(H ** 2 * rho(lam_q) ** 2 * weight(lam_q) * w_q))
    term_cutoff = eps_s ** 2 * H_rho_sq if m_amp > 0 else 0.0

    # E-tail of the cutoff multiplier at radius r
    e_bound = multiplier_tail_bound(rho, weight, r, lam_grid)

    # (iv) mean-kernel mass times the E factor
    msT_mass = float(np.sum(H ** 2 * (m_amp * rho(lam_q)) ** 2
                            * weight.hs_weight(lam_q) * w_q))
    bs_s2T, sat_s = _bs_or_one(surface, s + 2.0 * T, max(n_mc // 4, 20), seed + 1)
    sup_msT = m_amp * float(np.sum(np.abs(H) * rho(lam_q) * weight(lam_q) * w_q))
    term_mean_kernel = (msT_mass + math.exp(2.0 * (s + 2.0 * T)) / systole
                        * bs_s2T * sup_msT ** 2) * e_bound

    # (v) HS norm of the averaged operator times E
    term_hs_E = math.exp(S_T) * sup_sq * e_bound

    # (vi) truncation remainder: the explicit (S_T / r)^2 commutator budget
    # (its small-injectivity companion is merged into the wraparound term)
    term_trunc = ((S_T / r) ** 2 * _CHI_PRIME_SUP ** 2 * math.exp(2.0 * S_T)
                  * rho_l2 * sup_sq)

    terms = {"averaging": term_avg, "wraparound": term_wrap, "cutoff_tail": term_cutoff,
             "mean_kernel": term_mean_kernel, "hs_times_E": term_hs_E,
             "truncation": term_trunc}
    return PipelineBudget(S_T, nevo_n, "assumed", theta_sq, sup_sq, terms,
                          sum(terms.values()), max(terms, key=terms.get), bs_wrap,
                          sat_r or sat_s, systole)
