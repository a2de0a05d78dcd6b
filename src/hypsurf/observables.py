"""Observables (multiplication, finite-range, differential) and their symbols.

The complete symbol of an operator A is read off its action on the plane
waves e_{lam,b}(z) = exp((1/2 + i lam) <z, b>):

    a(z, lam, b) = exp(-(1/2 + i lam)<z, b>) * (A e_{lam,b})(z).

Differential operators act through centered finite differences on the chart,
with the conformal metric factor supplied by the operator's coefficients and
the step scaled as 1e-5 * (1 - |z|^2) (the factor the metric contributes to
second derivatives cancels the step's boundary shrinkage exactly).

Every observable carries declared locality constants (C, S, k): the operator
is supported within distance S of the diagonal and |A u(x)| is dominated by
C times the C^k norm of u on B(x, S).  The declared constants are checkable
against measured ratios on a panel of test functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StencilOutOfDomain
from .fuchsian import CoverSurface, DomainSampler
from .geometry import (DiscPoint, GroupElement, _dist_complex,
                       _mobius_array, mobius_apply_complex)
from .quadrature import gauss_legendre
from .transforms import (PlancherelWeight, SpectralMultiplier, inverse_selberg,
                         phi_eval)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalityConstants:
    """Constants of the finite-propagation assumption: |Au| <= C ||u||_{C^k(B(x,S))}."""

    C: float
    S: float
    k: int


@dataclass(frozen=True)
class Observable:
    variant: str                    # 'multiplication' | 'finite_range' | 'differential'
    locality: LocalityConstants
    a: Callable = None              # multiplication density a(z)
    kernel: Callable = None         # finite-range K(z, w)
    radial_profile: Callable = None # optional psi(t) when the kernel is radial
    coefficients: dict = None       # differential: (i, j) -> coeff(z), i + j <= 2

    def apply(self, u: Callable[[complex], complex], z: complex) -> complex:
        if self.variant == "multiplication":
            return self.a(z) * u(z)
        if self.variant == "differential":
            return _apply_differential(self.coefficients, u, z)
        if self.variant == "finite_range":
            return _apply_finite_range(self.kernel, self.locality.S, u, z)
        raise ValueError(self.variant)


def multiplication_observable(a: Callable[[complex], float],
                              sup_bound: float) -> Observable:
    return Observable("multiplication", LocalityConstants(sup_bound, 0.0, 0),
                      a=a)


def finite_range_observable(K: Callable[[complex, complex], complex], S: float,
                            C: float, radial_profile: Callable = None) -> Observable:
    return Observable("finite_range", LocalityConstants(C, S, 0), kernel=K,
                      radial_profile=radial_profile)


def radial_kernel_observable(psi: Callable, S: float, C: float | None = None) -> Observable:
    """Finite-range observable with K(z, w) = psi(d(z, w)), psi supported [0, S]."""
    if C is None:
        # |Au(x)| <= ||u||_C0 * int |psi| dmu over the ball
        t, w = gauss_legendre(0.0, S, 256)
        C = TWO_PI * float(np.sum(np.abs(psi(t)) * np.sinh(t) * w))

    def K(z, w):
        return psi(_dist_complex(z, w))

    return Observable("finite_range", LocalityConstants(C, S, 0), kernel=K,
                      radial_profile=psi)


def differential_observable(coefficients: dict, C: float, S: float = 0.0) -> Observable:
    k = max(i + j for (i, j) in coefficients)
    if k > 2:
        raise ValueError("differential order must be <= 2")
    return Observable("differential", LocalityConstants(C, S, k),
                      coefficients=dict(coefficients))


def laplacian_observable() -> Observable:
    """Minus the hyperbolic Laplacian: -((1-|z|^2)^2/4) (d_xx + d_yy)."""
    conf = lambda z: -(1.0 - abs(z) ** 2) ** 2 / 4.0
    return differential_observable({(2, 0): conf, (0, 2): conf}, C=1.0)


def _fd_step(z: complex) -> float:
    h = 1e-5 * (1.0 - abs(z) ** 2)
    if abs(z) > 1.0 - 1e-6:
        raise StencilOutOfDomain(f"|z| = {abs(z)} too close to the boundary")
    return h


# Centred differences on the chart: (i, j) -> (terms, denominator); the
# derivative d_x^i d_y^j u(z) is sum(weight * u(z + step * h)) / denominator(h),
# summed in the order listed.
_CENTRED = {
    (0, 0): (((1, 0),), lambda h: 1),
    (1, 0): (((1, 1), (-1, -1)), lambda h: 2 * h),
    (0, 1): (((1, 1j), (-1, -1j)), lambda h: 2 * h),
    (2, 0): (((1, 1), (-2.0, 0), (1, -1)), lambda h: h * h),
    (0, 2): (((1, 1j), (-2.0, 0), (1, -1j)), lambda h: h * h),
    (1, 1): (((1, 1 + 1j), (-1, 1 - 1j), (-1, -1 + 1j), (1, -1 - 1j)),
             lambda h: 4 * h * h),
}


def _centred_diff(u: Callable, z: complex, h: float, order: tuple):
    if order not in _CENTRED:
        raise ValueError(f"unsupported derivative {order}")
    terms, denominator = _CENTRED[order]
    acc = 0
    for weight, step in terms:
        acc += weight * u(z + step * h)
    return acc / denominator(h)


def _ck_sum(u: Callable, z: complex, h: float, k: int) -> float:
    """Sum of |chart derivatives| of u at z of every order up to k."""
    return sum(abs(_centred_diff(u, z, h, order)) for order in _CENTRED
               if sum(order) <= k)


def _apply_differential(coeffs: dict, u: Callable, z: complex) -> complex:
    h = _fd_step(z)
    out = 0.0 + 0.0j
    for order, c in coeffs.items():
        cv = c(z) if callable(c) else c
        if cv == 0:
            continue
        out += cv * _centred_diff(u, z, h, order)
    return out


def _apply_finite_range(K: Callable, S: float, u: Callable, z: complex,
                        n_rad: int = 48, n_ang: int = 96) -> complex:
    t, wt = gauss_legendre(0.0, S, n_rad)
    trans = GroupElement.translation_to(DiscPoint(z.real, z.imag))
    total = 0.0 + 0.0j
    for i, tt in enumerate(t):
        r_e = math.tanh(tt / 2.0)
        for ang in TWO_PI * np.arange(n_ang) / n_ang:
            w = mobius_apply_complex(trans, r_e * cmath.exp(1j * ang))
            total += wt[i] * math.sinh(tt) * (TWO_PI / n_ang) * K(z, w) * u(w)
    return total


# ---------------------------------------------------------------------------
# Complete symbol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    """Complete symbol a(z, lambda, b) under the symbol contract of transforms
    (b an array of boundary points, the result broadcasting to b)."""

    eval: Callable[[complex, float, np.ndarray], np.ndarray]
    lambda_support: tuple = (0.0, math.inf)
    derived_from: Observable | None = None

    def __call__(self, z: complex, lam: float, b) -> np.ndarray:
        return self.eval(z, lam, b)


def _busemann_difference(z: complex, b):
    """w -> <w, b> - <z, b> on an array b, without cancellation for w near z.

    The difference is log1p((1-|w|^2)/(1-|z|^2) - 1) - log1p(|w-b|^2/|z-b|^2 - 1),
    with each small ratio formed from |p|^2 - |q|^2 = Re((p - q) conj(p + q)).
    """
    b = np.asarray(b)
    inside = 1.0 - abs(z) ** 2
    to_b = np.abs(z - b) ** 2

    def diff(w: complex) -> np.ndarray:
        d, s = w - z, w + z
        return (np.log1p(-(d * s.conjugate()).real / inside)
                - np.log1p((d * (s - 2.0 * b).conjugate()).real / to_b))
    return diff


def complete_symbol(A: Observable, z: complex, lam: float, b):
    """a(z,lam,b) = e^{-(1/2+i lam)<z,b>} (A e_{lam,b})(z), on an array b.

    A acts on the relative wave w -> exp((1/2 + i lam)(<w, b> - <z, b>)),
    which equals 1 at z, so the factor e^{-(1/2+i lam)<z,b>} is never formed.
    A differential A acts on the wave minus 1 (expm1), whose differences keep
    their digits, and its order-0 coefficient adds the 1 back.
    """
    if A.variant == "multiplication":
        return complex(A.a(z))
    c, diff = 0.5 + 1j * lam, _busemann_difference(z, b)
    if A.variant != "differential":
        return A.apply(lambda w: np.exp(c * diff(w)), z)
    c0 = A.coefficients.get((0, 0), 0.0)
    return (A.apply(lambda w: np.expm1(c * diff(w)), z)
            + (c0(z) if callable(c0) else c0))


def symbol_of(A: Observable, lambda_support=(0.0, math.inf)) -> Symbol:
    return Symbol(lambda z, lam, b: complete_symbol(A, z, lam, b),
                  lambda_support, A)


# ---------------------------------------------------------------------------
# Angular decomposition at a point
# ---------------------------------------------------------------------------

def rotation_boundary_point(z: complex, theta):
    """The boundary points at rotation angles theta of the direction circle at z."""
    trans = GroupElement.translation_to(DiscPoint(z.real, z.imag))
    return _mobius_array(trans.alpha, trans.beta, np.exp(1j * np.asarray(theta)))


@dataclass(frozen=True)
class AngularParts:
    mean: complex
    zero_mean_part: Callable[[float], complex]
    residual_mean: float


def angular_decompose(a: Symbol, z: complex, lam: float, n: int = 512) -> AngularParts:
    """Split a(z, lam, .) into its rotation-invariant mean and the rest.

    The mean is over the rotation angle at z (the Liouville fiber measure),
    which differs from the plain boundary measure unless z = 0.
    """
    thetas = TWO_PI * np.arange(n) / n
    vals = np.broadcast_to(a(z, lam, rotation_boundary_point(z, thetas)), thetas.shape)
    mean = complex(np.mean(vals))

    def zero_mean(theta):
        return a(z, lam, rotation_boundary_point(z, theta)) - mean

    residual = abs(np.mean(vals - mean))
    return AngularParts(mean, zero_mean, residual)


def condition_a1_holds(a: Symbol, z: complex, lam: float, tol: float = 1e-9) -> bool:
    """Zero angular mean at (z, lam): the cancellation the averaging step needs."""
    return abs(angular_decompose(a, z, lam).mean) <= tol


def theta_second_derivative_norm(a: Symbol, lam_window, surface, n_mc: int,
                                 seed: int, fd_step: float = 1e-4,
                                 n_lam: int = 7) -> float:
    """sup over lam in the window of the volume-normalized L^2 norm (squared)
    of the second rotation-angle derivative of the symbol over the sphere
    bundle; Monte Carlo over (fundamental domain) x (angle)."""
    group = surface.base if isinstance(surface, CoverSurface) else surface
    rng = np.random.default_rng(seed)
    zs = DomainSampler(group).sample(rng, n_mc)
    pts = list(zip(zs, rng.uniform(0.0, TWO_PI, n_mc)))
    lams = np.linspace(lam_window[0], lam_window[1], n_lam)
    worst = 0.0
    h = fd_step
    steps = h * np.array([2.0, 1.0, 0.0, -1.0, -2.0])
    for lam in lams:
        acc = 0.0
        for z, th in pts:
            f = np.broadcast_to(a(z, float(lam), rotation_boundary_point(z, th + steps)),
                                steps.shape)
            d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
            acc += abs(d2) ** 2
        worst = max(worst, acc / n_mc)
    return worst


# ---------------------------------------------------------------------------
# Propagator sandwich P_t A P_t
# ---------------------------------------------------------------------------

def _smooth_chi(t: float, sigma: float, r, eta):
    return eta((np.asarray(r, dtype=float) - t) / sigma)


def smooth_sandwich_kernel(A: Observable, t: float, sigma: float, z: complex,
                           w: complex, eta=None, n_rad: int = 48,
                           n_ang: int = 96) -> complex:
    """Kernel of P_t A P_t at (z, w); exactly 0 beyond distance 2t + S."""
    from .propagators import default_eta
    eta = eta or default_eta
    S = A.locality.S
    if _dist_complex(z, w) > 2.0 * t + S:
        return 0.0 + 0.0j
    c_t = math.cosh(t) ** -0.5

    def k_t(r):
        return c_t * _smooth_chi(t, sigma, r, eta)

    trans = GroupElement.translation_to(DiscPoint(z.real, z.imag))
    tq, wq = gauss_legendre(0.0, t, n_rad)
    total = 0.0 + 0.0j
    if A.variant == "multiplication":
        for i, tt in enumerate(tq):
            r_e = math.tanh(tt / 2.0)
            for ang in TWO_PI * np.arange(n_ang) / n_ang:
                u = mobius_apply_complex(trans, r_e * cmath.exp(1j * ang))
                duw = _dist_complex(u, w)
                if duw >= t:
                    continue
                total += (wq[i] * math.sinh(tt) * (TWO_PI / n_ang)
                          * float(k_t(tt)) * A.a(u) * float(k_t(duw)))
        return total
    if A.variant == "differential":
        cutoff = lambda v: complex(k_t(_dist_complex(v, w)))
        for i, tt in enumerate(tq):
            r_e = math.tanh(tt / 2.0)
            for ang in TWO_PI * np.arange(n_ang) / n_ang:
                u = mobius_apply_complex(trans, r_e * cmath.exp(1j * ang))
                if _dist_complex(u, w) > t + 2e-2:
                    continue
                total += (wq[i] * math.sinh(tt) * (TWO_PI / n_ang)
                          * float(k_t(tt)) * A.apply(cutoff, u))
        return total
    if A.variant == "finite_range":
        # double ball integral; coarse nodes, desk-scale use only
        n2r, n2a = max(12, n_rad // 3), max(24, n_ang // 3)
        t2, w2 = gauss_legendre(0.0, t, n2r)
        for i, tt in enumerate(tq):
            r_e = math.tanh(tt / 2.0)
            for ang in TWO_PI * np.arange(n_ang) / n_ang:
                u = mobius_apply_complex(trans, r_e * cmath.exp(1j * ang))
                if _dist_complex(u, w) > t + S:
                    continue
                trans_u = GroupElement.translation_to(DiscPoint(u.real, u.imag))
                inner = 0.0 + 0.0j
                for i2, ss in enumerate(t2):
                    if ss > S:
                        break
                    r2 = math.tanh(ss / 2.0)
                    for ang2 in TWO_PI * np.arange(n2a) / n2a:
                        v = mobius_apply_complex(trans_u, r2 * cmath.exp(1j * ang2))
                        dvw = _dist_complex(v, w)
                        if dvw >= t:
                            continue
                        inner += (w2[i2] * math.sinh(ss) * (TWO_PI / n2a)
                                  * A.kernel(u, v) * float(k_t(dvw)))
                total += wq[i] * math.sinh(tt) * (TWO_PI / n_ang) * float(k_t(tt)) * inner
        return total
    raise ValueError(A.variant)


def sandwich_sup_bound(A: Observable, t: float, sigma: float, eta=None,
                       n_grid: int = 160) -> float:
    """Computable version of the pointwise sandwich-kernel bound:

        sup |K_{P_t A P_t}| <= C * sup_w ||k_t(d(., w))||_{C^k} * ||K_t||_L1,

    with the C^k factor measured on a finite-difference grid (same stencils
    as the operator) and the L1 norm integrated exactly.
    """
    from .propagators import default_eta
    eta = eta or default_eta
    c_t = math.cosh(t) ** -0.5
    k = A.locality.k

    def f(v: complex) -> float:
        return c_t * float(_smooth_chi(t, sigma, _dist_complex(v, 0j), eta))

    # radial symmetry: put w at the origin, scan v along a ray and measure
    # chart derivatives up to order k by centered differences
    worst = 0.0
    for tt in np.linspace(0.0, t + 0.05, n_grid):
        v = math.tanh(tt / 2.0) + 0.0j
        worst = max(worst, _ck_sum(f, v, 1e-5 * (1.0 - abs(v) ** 2), k))
    r, wq = gauss_legendre(0.0, t, 256)
    l1 = TWO_PI * c_t * float(np.sum(np.asarray(_smooth_chi(t, sigma, r, eta))
                                     * np.sinh(r) * wq))
    return A.locality.C * worst * l1


def locality_ratio(A: Observable, u: Callable, z: complex, n_ball: int = 7) -> float:
    """Measured |Au(z)| / ||u||_{C^k(B(z, S))} on a finite-difference grid."""
    val = abs(A.apply(u, z))
    S_eff = max(A.locality.S, 0.05)
    k = A.locality.k
    trans = GroupElement.translation_to(DiscPoint(z.real, z.imag))
    norm = 0.0
    for tt in np.linspace(0.0, S_eff, n_ball):
        for ang in TWO_PI * np.arange(8) / 8:
            v = mobius_apply_complex(trans, math.tanh(tt / 2.0) * cmath.exp(1j * ang))
            norm = max(norm, _ck_sum(u, v, 1e-4 * (1.0 - abs(v) ** 2), k))
    return val / norm if norm > 0 else 0.0


# ---------------------------------------------------------------------------
# The limit term of the variance functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitTerm:
    value: float
    stderr: float


def limit_term(A: Observable, lam: float, surface, n_mc: int = 2000,
               seed: int = 0) -> LimitTerm:
    """(1/Vol) iint K_A(x, y) phi_lambda(d(x, y)) dmu dmu.

    Multiplication: the Dirac kernel collapses the double integral to the
    mean of the density (phi(0) = 1).  Radial finite-range kernels reduce to
    the spherical pairing 2 pi int psi phi sinh; general finite-range kernels
    are integrated by Monte Carlo over the fundamental domain.
    """
    group = surface.base if isinstance(surface, CoverSurface) else surface
    if A.variant == "multiplication":
        zs = DomainSampler(group).sample(np.random.default_rng(seed), n_mc)
        vals = np.array([A.a(z) for z in zs])
        return LimitTerm(float(np.mean(vals)),
                         float(np.std(vals) / math.sqrt(n_mc)))
    if A.variant == "finite_range":
        S = A.locality.S
        if A.radial_profile is not None:
            t, w = gauss_legendre(0.0, S, 400)
            vals = phi_eval(lam, t)
            total = TWO_PI * float(np.sum(A.radial_profile(t) * vals * np.sinh(t) * w))
            return LimitTerm(total, 0.0)
        zs = DomainSampler(group).sample(np.random.default_rng(seed), n_mc)
        vals = []
        t, wq = gauss_legendre(0.0, S, 32)
        # polar rings of 48 points at the 32 radii, weighted by the measure and phi
        ring = np.multiply.outer(np.tanh(t / 2.0), np.exp(1j * TWO_PI * np.arange(48) / 48))
        ring_w = (wq * np.sinh(t) * (TWO_PI / 48) * phi_eval(lam, t))[:, None]
        for z in zs:
            trans = GroupElement.translation_to(DiscPoint(z.real, z.imag))
            pts = _mobius_array(trans.alpha, trans.beta, ring)
            kv = np.array([complex(A.kernel(z, wpt)).real for wpt in pts.ravel()])
            vals.append(float(np.sum(ring_w * kv.reshape(pts.shape))))
        vals = np.array(vals)
        return LimitTerm(float(np.mean(vals)), float(np.std(vals) / math.sqrt(n_mc)))
    raise ValueError("limit term needs an integrable kernel (multiplication or finite range)")


# ---------------------------------------------------------------------------
# Spectral-cutoff tail
# ---------------------------------------------------------------------------

def multiplier_tail_bound(rho: SpectralMultiplier, weight: PlancherelWeight,
                          r: float, lam_grid, t_max_extra: float = 60.0) -> float:
    """max over the lambda grid of int_r^inf |k_rho(t) phi_lam(t) sinh t| dt."""
    t, w = gauss_legendre(r, r + t_max_extra, 600)
    k = np.abs(inverse_selberg(rho, weight)(t))
    phis = np.abs(phi_eval(np.atleast_1d(lam_grid), t))
    return float(np.max((k * np.sinh(t) * w) @ phis))
