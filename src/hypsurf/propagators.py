"""Smooth and sharp radial propagators and their spectral multipliers.

The sharp propagator at time t has radial kernel (cosh t)^{-1/2} 1_{r <= t};
the smooth one replaces the indicator with chi_{t,sigma}(r) = eta((r-t)/sigma)
for a decreasing eta equal to 1 on (-inf, -1] and 0 on [0, inf).  Their
multipliers h_t^sharp, h_{t,sigma} are computed through the Abel profile

    g(u) = sqrt(2/cosh t) * int_{|u|}^t chi(r) sinh r / sqrt(cosh r - cosh u) dr,
    h(lambda) = 2 int_0^t cos(lambda u) g(u) du,

with the inner integral evaluated in the variable v = sqrt(cosh r - cosh u)
(which removes the square-root singularity exactly) and the chi == 1 stretch
integrated in closed form.  The time-averaged multiplier

    H_T(lambda) = (1/T) int_0^T h_{t,sigma}(lambda)^2 dt

is the quantity whose positive floor over a spectral window certifies that
eigenfunction mass survives the averaging; the certificate run measures that
floor rather than assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterOutOfRange, QuadratureNotConverged
from .quadrature import cosh_diff, gauss_legendre, sqrt_edge_rule
from .transforms import (RadialKernel, _md_integral, abel_sharp, abel_smooth,
                         fourier_of_abel)

SQRT2 = math.sqrt(2.0)


def default_eta(x):
    """C^1 decreasing cutoff: 1 on (-inf, -1], cubic smoothstep down to 0 at 0."""
    x = np.clip(np.asarray(x, dtype=float) + 1.0, 0.0, 1.0)
    return 1.0 - (3.0 * x * x - 2.0 * x ** 3)


@dataclass(frozen=True)
class CutoffSpec:
    """chi_{t,sigma}(r) = eta((r - t)/sigma); 1 up to t - sigma, 0 past t."""

    t: float
    sigma: float
    eta: Callable = default_eta

    def __post_init__(self):
        if not (0.0 < self.sigma < self.t):
            raise ParameterOutOfRange("need 0 < sigma < t")
        eps = 1e-9 * max(1.0, self.t)
        if abs(float(self.eta(np.array([-1.0 - 1e-9]))[0]) - 1.0) > 1e-12:
            raise ValueError("eta must equal 1 on (-inf, -1]")
        if abs(float(self.eta(np.array([1e-9]))[0])) > 1e-12:
            raise ValueError("eta must vanish on [0, inf)")
        lo = self.chi(self.t - self.sigma - eps)
        hi = self.chi(self.t + eps)
        if abs(lo - 1.0) > 1e-10 or abs(hi) > 1e-10:
            raise ValueError("cutoff does not match its plateau contract")

    def chi(self, r):
        return self.eta((np.asarray(r, dtype=float) - self.t) / self.sigma)


@dataclass(frozen=True)
class Propagator:
    """Radial propagation operator; kind 'smooth' or 'sharp'."""

    kind: str
    t: float
    sigma: float | None
    kernel: RadialKernel


def sharp_propagator(t: float) -> Propagator:
    if t <= 0:
        raise ParameterOutOfRange("t must be positive")
    c = math.cosh(t) ** -0.5
    kern = RadialKernel(lambda r: c * (np.asarray(r, dtype=float) <= t),
                        support_bound=t, smoothness_class="indicator")
    return Propagator("sharp", t, None, kern)


def smooth_propagator(t: float, sigma: float, eta: Callable = default_eta) -> Propagator:
    spec = CutoffSpec(t, sigma, eta)
    c = math.cosh(t) ** -0.5
    kern = RadialKernel(lambda r: c * spec.chi(r), support_bound=t,
                        smoothness_class="smooth", breakpoints=(t - sigma,))
    return Propagator("smooth", t, sigma, kern)


# ---------------------------------------------------------------------------
# Multipliers h_t^sharp and h_{t,sigma}
# ---------------------------------------------------------------------------

def _g_smooth_grid(t: float, sigma: float, eta: Callable, us: np.ndarray,
                   n_v: int = 48) -> np.ndarray:
    """Abel profile of the smooth kernel on an array of u >= 0.

    In v = sqrt(cosh r - cosh u) the integrand is 2 chi(r) dv: the chi == 1
    plateau up to t - sigma gives 2 v exactly, the ramp after it is a
    sqrt_edge_rule panel per u.
    """
    us = np.asarray(us, dtype=float)
    plateau = np.sqrt(np.maximum(cosh_diff(t - sigma, us), 0.0))
    r, v, w = sqrt_edge_rule(us, np.clip(us, t - sigma, t), t, n_v)
    ramp = (eta((r - t) / sigma) * np.sinh(r) / v * w).sum(axis=-1)
    out = SQRT2 / math.sqrt(math.cosh(t)) * (2.0 * plateau + ramp)
    return np.where(us >= t, 0.0, out)


def _h_from_profile(t: float, lams: np.ndarray, g_fn, knots: Sequence[float],
                    n_u: int = 96) -> np.ndarray:
    """h(lam) = 2 int_0^t cos(lam u) g(u) du, panels split at profile knots.

    The last stretch is integrated in v = sqrt(cosh t - cosh u), which turns
    the square-root vanishing of ball-type profiles at u = t into a smooth
    integrand.  The order is rounded up to a multiple of 32, so that nearby t
    share their Gauss-Legendre rules.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    split = t - min(1.0, t / 2.0)
    edges = [0.0] + sorted(k for k in knots if 0.0 < k < split) + [split]
    n_scale = max(n_u, int(10 * t) + 8 * int(np.max(lams) if lams.size else 1))
    n_scale = -(-n_scale // 32) * 32
    rules = [gauss_legendre(lo, hi, n_scale) for lo, hi in zip(edges[:-1], edges[1:])
             if hi > lo]
    tail_edges = [split] + sorted(k for k in knots if split < k < t) + [t]
    for lo, hi in zip(tail_edges[:-1], tail_edges[1:]):
        u, _, w = sqrt_edge_rule(t, lo, hi, n_scale)
        rules.append((u, w))
    u = np.concatenate([x for x, _ in rules])
    w = np.concatenate([w for _, w in rules])
    return np.cos(np.multiply.outer(lams, u)) @ (2.0 * g_fn(u) * w)


def h_sharp(t: float, lam) -> float | np.ndarray:
    """Multiplier of the sharp propagator, via the closed-form Abel profile."""
    if t <= 0:
        raise ParameterOutOfRange("t must be positive")
    vals = _h_from_profile(t, lam, abel_sharp(t), ())
    return vals if np.ndim(lam) else float(vals[0])


def h_smooth(t: float, sigma: float, lam, eta: Callable = default_eta) -> float | np.ndarray:
    """Multiplier of the smooth propagator (Abel route)."""
    CutoffSpec(t, sigma, eta)
    vals = _h_from_profile(t, lam, lambda u: _g_smooth_grid(t, sigma, eta, u),
                           (t - sigma,))
    return vals if np.ndim(lam) else float(vals[0])


def h_sharp_reference(t: float, lam: float) -> float:
    """Slow reference for h_sharp through the generic transform legs."""
    return float(fourier_of_abel(abel_sharp(t))(lam))


def h_smooth_reference(t: float, sigma: float, lam: float,
                       eta: Callable = default_eta) -> float:
    return float(fourier_of_abel(abel_smooth(t, sigma, eta))(lam))


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
    vals = (np.exp(r / 2.0)[(...,) + (None,) * lam.ndim]
            * np.abs(_md_integral(lam, r)))
    return vals if vals.ndim else float(vals)


def lemma_a1_constant(lam_grid, r_grid) -> float:
    """Empirical sup of lemma_a1_check over the given grids."""
    return float(np.max(lemma_a1_check(lam_grid, r_grid)))


def delta_h(t: float, sigma: float, lam, eta: Callable = default_eta,
            route: str = "both", cross_tol: float = 1e-7):
    """delta h = h_{t,sigma} - h_t^sharp.

    route 'subtraction': plain difference of the two multipliers.
    route 'formula': the double-integral form
        2 sqrt(2/cosh t) int_{t-sigma}^t (chi(r) - 1) sinh r I(r, lam) dr.
    route 'both' (default) computes the two and checks they agree.
    """
    if t <= 1.0 + sigma:
        raise ValueError("need t > 1 + sigma")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    out_sub = out_form = None
    if route in ("subtraction", "both"):
        out_sub = np.asarray(h_smooth(t, sigma, lams, eta)) - np.asarray(h_sharp(t, lams))
    if route in ("formula", "both"):
        spec = CutoffSpec(t, sigma, eta)
        rr, w = gauss_legendre(t - sigma, t, 64)
        inner = _md_integral(lams, rr).T
        coef = (np.asarray(spec.chi(rr)) - 1.0) * np.sinh(rr) * w
        out_form = 2.0 * math.sqrt(2.0 / math.cosh(t)) * (inner @ coef)
    if route == "both":
        if np.max(np.abs(out_sub - out_form)) > cross_tol:
            raise QuadratureNotConverged(
                f"delta_h routes disagree by {np.max(np.abs(out_sub - out_form)):.2e}")
        out = 0.5 * (out_sub + out_form)
    else:
        out = out_sub if out_sub is not None else out_form
    return out if np.ndim(lam) else float(out[0])


# ---------------------------------------------------------------------------
# Averaged multiplier H_T and the positivity certificate
# ---------------------------------------------------------------------------

def h_smooth_on_grid(ts: np.ndarray, sigma: float, lam_grid: np.ndarray,
                     eta: Callable = default_eta) -> np.ndarray:
    """Matrix h_{t,sigma}(lam) for all (t in ts) x (lam in lam_grid)."""
    lam_grid = np.asarray(lam_grid, dtype=float)
    rows = []
    for t in np.asarray(ts, dtype=float):
        if t <= sigma:
            rows.append(np.zeros(lam_grid.shape))
        else:
            rows.append(_h_from_profile(float(t), lam_grid,
                                        lambda u, tt=float(t): _g_smooth_grid(
                                            tt, sigma, eta, u),
                                        (float(t) - sigma,)))
    return np.vstack(rows)


def _time_average_sq(T: float, lam, n_t: int, h_rows: Callable):
    """(1/T) int_0^T h_t(lam)^2 dt, composite Gauss-Legendre in t with n_t
    points per unit length; h_rows(ts, lams) is the matrix of h_t(lams)."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    t, w = _time_nodes(T, n_t)
    acc = np.zeros(lams.shape)
    for tp, wp in zip(t, w):
        acc = acc + (h_rows(tp, lams) ** 2 * wp[:, None]).sum(axis=0)
    out = acc / T
    return out if np.ndim(lam) else float(out[0])


def _time_nodes(T: float, n_t: int):
    """Nodes and weights of n_t-point Gauss-Legendre rules on the ceil(T) equal
    panels of [0, T], one row per panel."""
    if T <= 0:
        raise ParameterOutOfRange("T must be positive")
    edges = np.linspace(0.0, T, max(1, int(math.ceil(T))) + 1)
    rules = [gauss_legendre(lo, hi, n_t) for lo, hi in zip(edges[:-1], edges[1:])]
    return np.array([t for t, _ in rules]), np.array([w for _, w in rules])


def avg_multiplier_H(T: float, sigma: float, lam, n_t: int = 8,
                     eta: Callable = default_eta):
    """H_T(lambda) = (1/T) int_0^T h_{t,sigma}(lambda)^2 dt."""
    return _time_average_sq(T, lam, n_t,
                            lambda ts, lams: h_smooth_on_grid(ts, sigma, lams, eta))


def avg_multiplier_H_sharp(T: float, lam, n_t: int = 8):
    """Sharp-kernel analogue (1/T) int h_t^sharp(lam)^2 dt."""
    return _time_average_sq(T, lam, n_t, lambda ts, lams: np.vstack(
        [h_sharp(float(t), lams) for t in ts]))


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


def prop33_certificate(interval, sigma: float, T_list, lam_spacing: float = 0.02,
                       eta: Callable = default_eta, n_t: int = 8) -> Prop33Certificate:
    """Measured positive floor of H_T over a lambda window.

    pass = every floor positive and the floor stable (variation < 20%)
    across the upper half of T_list.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (0 < lo < hi):
        raise ParameterOutOfRange("need 0 < lam_lo < lam_hi")
    n_lam = max(2, int(math.ceil((hi - lo) / lam_spacing)) + 1)
    lam_grid = np.linspace(lo, hi, n_lam)
    T_list = tuple(float(T) for T in T_list)
    # h_{t,sigma} once per distinct time node: the unit panels of the T's overlap
    ts = np.unique(np.concatenate([_time_nodes(T, n_t)[0] for T in T_list]))
    h_all = h_smooth_on_grid(ts, sigma, lam_grid, eta)
    c_min, argmin = [], []
    for T in T_list:
        H = _time_average_sq(T, lam_grid, n_t,
                             lambda t, lams: h_all[np.searchsorted(ts, t)])
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
    if t <= 0:
        return 0.0
    # integrate in v = sqrt(cosh t - cosh s) near s = t, plain elsewhere
    split = t - min(1.0, t / 2.0)
    s, w = gauss_legendre(0.0, split, 200)
    total = float(np.sum(np.exp((p - 1.0) * s / 2.0) * np.sqrt(cosh_diff(t, s)) * 2.0 * w))
    s, v, w = sqrt_edge_rule(t, split, t, 200)
    total += float(np.sum(np.exp((p - 1.0) * s / 2.0) * v * 2.0 * w))
    return math.exp(-p * t / 2.0) * total
