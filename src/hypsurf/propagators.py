"""The smooth radial propagator and the smooth and sharp spectral multipliers.

The sharp propagator at time t has radial kernel (cosh t)^{-1/2} 1_{r <= t};
the smooth one replaces the indicator with chi_{t,sigma}(r) = eta((r-t)/sigma),
where eta = default_eta is the toolkit's one cutoff: smoothstep_cutoff
shifted to fall from 1 at -1 to 0 at 0.

The smooth multiplier h_{t,sigma} comes by the Selberg route

    h_{t,sigma}(lambda) = 2 pi (cosh t)^{-1/2} [S_lambda(t - sigma)
                          + int_{t-sigma}^t chi(r) phi_lambda(r) sinh r dr],
    S_lambda(x) = int_0^x phi_lambda(r) sinh r dr,

with S summed over the fixed unit panels [j, j + 1], so every time node
shares the same running integral.  The panels and the rows go to phi_eval
in batches; phi_eval gives a row the same bits in any call, so a row does
not depend on the other time nodes.  The sharp multiplier h_t^sharp comes
by the Abel route, from its closed-form profile

    g(u) = 2 sqrt(2 (cosh t - cosh u) / cosh t),
    h(lambda) = 2 int_0^t cos(lambda u) g(u) du.

The time-averaged multiplier

    H_T(lambda) = (1/T) int_0^T h_{t,sigma}(lambda)^2 dt

is the quantity whose positive floor over a spectral window certifies that
eigenfunction mass survives the averaging; the certificate run measures that
floor rather than assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange, QuadratureNotConverged
from .fuchsian import smoothstep_cutoff
from .quadrature import (composite_gl, cosh_diff, gauss_legendre, sqrt_edge_rule,
                         sqrt_edge_split)
from .transforms import (_BLOCK, TWO_PI, RadialKernel, _md_integral, abel_sharp,
                         abel_smooth, fourier_of_abel, phi_eval)

# Gauss-Legendre nodes on each unit panel of the time average over [0, T].
_N_T = 8


def default_eta(x):
    """C^1 decreasing cutoff: 1 on (-inf, -1], cubic smoothstep down to 0 at 0.

    The one eta of the toolkit: smoothstep_cutoff moved left by 1."""
    return smoothstep_cutoff(np.asarray(x, dtype=float) + 1.0)


@dataclass(frozen=True)
class CutoffSpec:
    """chi_{t,sigma}(r) = default_eta((r - t)/sigma); 1 up to t - sigma, 0 past t."""

    t: float
    sigma: float

    def __post_init__(self):
        if not (0.0 < self.sigma < self.t):
            raise ParameterOutOfRange("need 0 < sigma < t")

    def chi(self, r):
        return default_eta((np.asarray(r, dtype=float) - self.t) / self.sigma)


def smooth_propagator(t: float, sigma: float) -> RadialKernel:
    """Radial kernel (cosh t)^{-1/2} chi_{t,sigma}(r) of the smooth propagator."""
    spec = CutoffSpec(t, sigma)
    c = math.cosh(t) ** -0.5
    return RadialKernel(lambda r: c * spec.chi(r), support_bound=t,
                        smoothness_class="smooth", breakpoints=(t - sigma,))


# ---------------------------------------------------------------------------
# Multipliers h_t^sharp and h_{t,sigma}
# ---------------------------------------------------------------------------

def _h_from_profile(t: float, lams: np.ndarray, g_fn) -> np.ndarray:
    """h(lam) = 2 int_0^t cos(lam u) g(u) du for a profile g smooth on [0, t).

    The last stretch, from sqrt_edge_split(t) on, is integrated in
    v = sqrt(cosh t - cosh u), which turns the square-root vanishing of
    ball-type profiles at u = t into a smooth integrand.  The order is
    rounded up to a multiple of 32, so that nearby t share their
    Gauss-Legendre rules.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    split = sqrt_edge_split(t)
    n_scale = max(96, int(10 * t) + 8 * int(np.max(lams) if lams.size else 1))
    n_scale = -(-n_scale // 32) * 32
    u0, w0 = gauss_legendre(0.0, split, n_scale)
    u1, _, w1 = sqrt_edge_rule(t, split, t, n_scale)
    u, w = np.concatenate([u0, u1]), np.concatenate([w0, w1])
    return np.cos(np.multiply.outer(lams, u)) @ (2.0 * g_fn(u) * w)


def h_sharp(t: float, lam) -> float | np.ndarray:
    """Multiplier of the sharp propagator, via the closed-form Abel profile."""
    if t <= 0:
        raise ParameterOutOfRange("t must be positive")
    vals = _h_from_profile(t, lam, abel_sharp(t))
    return vals if np.ndim(lam) else float(vals[0])


def h_smooth(t: float, sigma: float, lam) -> float | np.ndarray:
    """Multiplier of the smooth propagator (Selberg route): one row of h_smooth_on_grid."""
    CutoffSpec(t, sigma)
    vals = h_smooth_on_grid(np.array([t]), sigma, np.atleast_1d(lam))[0]
    return vals if np.ndim(lam) else float(vals[0])


def h_sharp_reference(t: float, lam: float) -> float:
    """Slow reference for h_sharp through the generic transform legs."""
    return float(fourier_of_abel(abel_sharp(t))(lam))


def h_smooth_reference(t: float, sigma: float, lam: float) -> float:
    return float(fourier_of_abel(abel_smooth(t, sigma, default_eta))(lam))


# ---------------------------------------------------------------------------
# Lemma-A.1-type oscillatory integral and the smooth-sharp difference
# ---------------------------------------------------------------------------

def lemma_a1_check(lam, r) -> float | np.ndarray:
    """e^{r/2} |int_0^r cos(lam u)/sqrt(cosh r - cosh u) du|; bounded in r.

    On the (r, lambda) grid: shape(r) + shape(lam); scalars give a float.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 1.0):
        raise ValueError("r must exceed 1")
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ParameterOutOfRange("lambda must be finite")
    vals = (np.exp(r / 2.0)[(...,) + (None,) * lam.ndim]
            * np.abs(_md_integral(lam, r)))
    return vals if vals.ndim else float(vals)


def lemma_a1_constant(lam_grid, r_grid) -> float:
    """Empirical sup of lemma_a1_check over the given grids."""
    return float(np.max(lemma_a1_check(lam_grid, r_grid)))


def _delta_h_formula(t: float, sigma: float, lams: np.ndarray) -> np.ndarray:
    """2 sqrt(2/cosh t) int_{t-sigma}^t (chi(r) - 1) sinh r I(r, lam) dr on an
    array of lambda, I the Mehler-Dirichlet integral."""
    rr, w = gauss_legendre(t - sigma, t, 64)
    coef = (np.asarray(CutoffSpec(t, sigma).chi(rr)) - 1.0) * np.sinh(rr) * w
    return 2.0 * math.sqrt(2.0 / math.cosh(t)) * (_md_integral(lams, rr).T @ coef)


def delta_h(t: float, sigma: float, lam):
    """delta h = h_{t,sigma} - h_t^sharp, the mean of two routes.

    The plain difference of the two multipliers (h_{t,sigma} by the Selberg
    route minus h_t^sharp by the Abel route) and the double-integral form of
    _delta_h_formula must agree to 1e-7, or QuadratureNotConverged is raised.
    """
    if t <= 1.0 + sigma:
        raise ValueError("need t > 1 + sigma")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    out_sub = np.asarray(h_smooth(t, sigma, lams)) - np.asarray(h_sharp(t, lams))
    out_form = _delta_h_formula(t, sigma, lams)
    gap = np.max(np.abs(out_sub - out_form))
    if gap > 1e-7:
        raise QuadratureNotConverged(f"delta_h routes disagree by {gap:.2e}")
    out = 0.5 * (out_sub + out_form)
    return out if np.ndim(lam) else float(out[0])


# ---------------------------------------------------------------------------
# Averaged multiplier H_T and the positivity certificate
# ---------------------------------------------------------------------------

def h_smooth_on_grid(ts: np.ndarray, sigma: float, lam_grid: np.ndarray) -> np.ndarray:
    """Matrix h_{t,sigma}(lam) for all (t in ts) x (lam in lam_grid), by the Selberg route.

    The running integral S_lam(x) = int_0^x phi_lam(r) sinh r dr is the
    prefix sum of the integrals over the fixed unit panels [j, j + 1], all
    from one phi_eval call on n = 32 ceil((24 + max |lam|) / 32)
    Gauss-Legendre nodes a panel.  A row adds the partial panel
    [floor(t - sigma), t - sigma] (n nodes) and the ramp [t - sigma, t]
    (48 nodes, weighted by chi); the rows go to phi_eval in blocks of at
    most 4 _BLOCK (t, lambda) cells.  phi_eval gives a row the same bits in
    any call, and each row is contracted with its own weights, so a row
    depends only on t, sigma and the lambda grid, never on the other
    rows.  Rows t <= sigma are 0.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    ts = np.asarray(ts, dtype=float)
    out = np.zeros(ts.shape + lam_grid.shape)
    live = np.flatnonzero(ts > sigma)
    if not live.size:
        return out
    n = 32 * math.ceil((24.0 + float(np.max(np.abs(lam_grid)))) / 32.0)
    x = ts - sigma
    whole = np.floor(x).astype(int)
    # S[j] = S_lam(j): prefix sums over the unit panels, independent of ts
    j = np.arange(whole[live].max(), dtype=float)[:, None]
    r, w = gauss_legendre(j, j + 1.0, n)
    S = np.zeros((j.size + 1,) + lam_grid.shape)
    S[1:] = np.matmul((np.sinh(r) * w)[:, None, :], phi_eval(lam_grid, r))[:, 0]
    np.cumsum(S, axis=0, out=S)
    step = max(1, 4 * _BLOCK // ((n + 48) * lam_grid.size))
    for s in range(0, live.size, step):
        i = live[s:s + step]
        t, xi = ts[i, None], x[i, None]
        r0, w0 = gauss_legendre(whole[i, None], xi, n)
        r1, w1 = gauss_legendre(xi, t, 48)
        r = np.concatenate([r0, r1], axis=1)
        w = np.concatenate([w0, default_eta((r1 - t) / sigma) * w1], axis=1) * np.sinh(r)
        out[i] = (TWO_PI / np.sqrt(np.cosh(t))
                  * (S[whole[i]]
                     + np.matmul(w[:, None, :], phi_eval(lam_grid, r))[:, 0]))
    return out


def _time_average_sq(T: float, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(1/T) int_0^T h_t(lam)^2 dt from the rows h[p, i] = h_{t_pi}(lam) at the
    nodes of _time_nodes(T, n_t) and their weights w[p, i]."""
    acc = np.zeros(h.shape[2:])
    for hp, wp in zip(h, w):
        acc = acc + (hp ** 2 * wp[:, None]).sum(axis=0)
    return acc / T


def _time_nodes(T: float, n_t: int):
    """Nodes and weights of n_t-point Gauss-Legendre rules on the ceil(T) equal
    panels of [0, T], one row per panel."""
    if not 0 < T < math.inf:
        raise ParameterOutOfRange("T must be positive and finite")
    t, w = composite_gl(0.0, T, math.ceil(T), n_t)
    return t.reshape(-1, n_t), w.reshape(-1, n_t)


def avg_multiplier_H(T: float, sigma: float, lam):
    """H_T(lambda) = (1/T) int_0^T h_{t,sigma}(lambda)^2 dt."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    t, w = _time_nodes(T, _N_T)
    h = h_smooth_on_grid(t.ravel(), sigma, lams).reshape(t.shape + lams.shape)
    out = _time_average_sq(T, w, h)
    return out if np.ndim(lam) else float(out[0])


def avg_multiplier_H_sharp(T: float, lam):
    """Sharp-kernel analogue (1/T) int h_t^sharp(lam)^2 dt."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    t, w = _time_nodes(T, _N_T)
    h = np.array([[h_sharp(float(tt), lams) for tt in tp] for tp in t])
    out = _time_average_sq(T, w, h)
    return out if np.ndim(lam) else float(out[0])


@dataclass(frozen=True)
class Prop33Certificate:
    lam_lo: float
    lam_hi: float
    sigma: float
    T_list: tuple
    c_min: tuple            # min over the lambda grid of H_T, per T
    argmin_lambda: tuple
    lemma_a1_const: float
    upper_half_variation: float
    passed: bool


def prop33_certificate(interval, sigma: float, T_list,
                       lam_spacing: float = 0.02) -> Prop33Certificate:
    """Measured positive floor of H_T over a lambda window.

    pass = every floor positive and the floor stable (variation < 20%)
    across the upper half of T_list.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (0 < lo < hi < math.inf):
        raise ParameterOutOfRange("need 0 < lam_lo < lam_hi < inf")
    if not 0 < lam_spacing <= hi - lo:
        raise ParameterOutOfRange("need 0 < lam_spacing <= lam_hi - lam_lo")
    if not 0 < sigma < math.inf:
        raise ParameterOutOfRange("sigma must be positive and finite")
    lam_grid = np.linspace(lo, hi, int(math.ceil((hi - lo) / lam_spacing)) + 1)
    T_list = tuple(float(T) for T in T_list)
    # h_{t,sigma} once per distinct time node: the unit panels of the T's overlap
    ts = np.unique(np.concatenate([_time_nodes(T, _N_T)[0] for T in T_list]))
    h_all = h_smooth_on_grid(ts, sigma, lam_grid)
    c_min, argmin = [], []
    for T in T_list:
        t, w = _time_nodes(T, _N_T)
        H = _time_average_sq(T, w, h_all[np.searchsorted(ts, t)])
        i = int(np.argmin(H))
        c_min.append(float(H[i]))
        argmin.append(float(lam_grid[i]))
    const = lemma_a1_constant(lam_grid, np.linspace(2.0, 20.0, 19))
    upper = [c for T, c in zip(T_list, c_min) if T >= T_list[len(T_list) // 2]]
    variation = (max(upper) - min(upper)) / max(upper) if upper else 1.0
    passed = all(c > 0 for c in c_min) and variation < 0.20
    return Prop33Certificate(lo, hi, sigma, T_list, tuple(c_min), tuple(argmin),
                             const, variation, passed)


# ---------------------------------------------------------------------------
# Convolution-density norm majorant
# ---------------------------------------------------------------------------

def beta_norm_check(t: float, p: float = 1.5) -> float:
    """e^{-pt/2} * int_0^t e^{ps/2} e^{-s/2} sqrt(cosh t - cosh s) * 2 ds.

    The computable majorant of the averaging-density p-norm, normalized by
    its claimed growth e^{pt/2}; bounded in t and -> 0 as t -> 0.
    """
    if not (1.0 < p < 2.0):
        raise ParameterOutOfRange("p must lie in (1, 2)")
    if not math.isfinite(t):
        raise ParameterOutOfRange("t must be finite")
    if t <= 0:
        return 0.0
    # integrate in v = sqrt(cosh t - cosh s) near s = t, plain elsewhere
    split = sqrt_edge_split(t)
    s, w = gauss_legendre(0.0, split, 200)
    total = float(np.sum(np.exp((p - 1.0) * s / 2.0) * np.sqrt(cosh_diff(t, s)) * 2.0 * w))
    s, v, w = sqrt_edge_rule(t, split, t, 200)
    total += float(np.sum(np.exp((p - 1.0) * s / 2.0) * v * 2.0 * w))
    return math.exp(-p * t / 2.0) * total
