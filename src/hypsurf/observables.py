"""Observables (multiplication, finite-range, differential) and their symbols.

Observables act on arrays of points.  The density a(zs), the kernel
K(z, ws) and the differential coefficients take arrays of chart points and
broadcast.  A.apply(u, z) takes a u that maps an array of points to values,
with the point axes leading and any trailing axes riding along (the
boundary points of a plane wave, say), and a point or an array of points z.
Finite-range operators integrate over B(z, S) on one polar Gauss rule,
_ball_rule, which the propagator sandwich and the limit term read too.

The complete symbol of an operator A is read off its action on the plane
waves e_{lam,b}(z) = exp((1/2 + i lam) <z, b>), on arrays of points z and
boundary points b that broadcast elementwise (the symbol contract of
transforms):

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

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import StencilOutOfDomain
from .fuchsian import DomainSampler
from .geometry import _DISC_EDGE, _dist_array, _mobius_array
from .propagators import CutoffSpec, smooth_propagator
from .quadrature import gauss_legendre
from .transforms import (PlancherelWeight, SpectralMultiplier, inverse_selberg,
                         phi_eval)

TWO_PI = 2.0 * math.pi

# Ball-rule nodes a finite-range apply holds at once: its points go in blocks
# of _BALL_NODES / (48 * 96), at least one, so memory stays near a few tens
# of MB however many points one call asks for.
_BALL_NODES = 1 << 18


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
    a: Callable = None              # multiplication density a(zs)
    kernel: Callable = None         # finite-range K(z, ws)
    radial_profile: Callable = None # psi(t) when the kernel is radial
    coefficients: dict = None       # differential: (i, j) -> coeff(zs), i + j <= 2

    def apply(self, u: Callable[[np.ndarray], np.ndarray], z):
        """(A u)(z) at a point or an array of points z, of the shape of u(z)."""
        z = np.asarray(z, dtype=complex)
        if self.variant == "multiplication":
            vals = u(z)
            return _lead(self.a(z), vals) * vals
        if self.variant == "differential":
            return _apply_differential(self.coefficients, u, z)
        if self.variant == "finite_range":
            return _ball_sum(self, z, lambda block, pts: u(pts))
        raise ValueError(self.variant)


def _lead(x, like):
    """x, given over the point axes, with unit axes appended to broadcast
    against `like`, whose trailing axes ride along."""
    x = np.asarray(x)
    return x.reshape(x.shape + (1,) * (np.ndim(like) - x.ndim))


def _ball_sum(A: Observable, z: np.ndarray, u: Callable):
    """int_{B(z, S)} K(z, w) u(w) dw at every point of z, on A's 48 x 96 ball rule.

    The points of z go in blocks of _BALL_NODES / (48 * 96), at least one;
    u(block, pts) takes the slice of the block's points in z.ravel() and the
    rule nodes of those points, and returns values with the point axes first.
    """
    flat = z.reshape(-1)
    step = max(1, _BALL_NODES // (48 * 96))
    parts = []
    for s in range(0, flat.size, step):
        zb = flat[s:s + step]
        pts, _, w = _ball_rule(zb, A.locality.S, 48, 96)
        vals = u(slice(s, s + step), pts)
        kw = A.kernel(zb[:, None], pts) * w
        parts.append(np.sum(_lead(kw, vals) * vals, axis=1))
    out = np.concatenate(parts)
    return out.reshape(z.shape + out.shape[1:])[()]


def _ball_rule(z, radius: float, n_rad: int, n_ang: int):
    """Polar Gauss rule on B(z, radius) for a point or an array of points z.

    Returns the nodes, of shape shape(z) + (n_rad * n_ang,), their distances t
    to z and their weights w_t * sinh t * 2 pi / n_ang.  The Mobius map
    (alpha, beta) = (1, z) carries 0 to z.
    """
    t, wt = gauss_legendre(0.0, radius, n_rad)
    ring = np.exp(1j * TWO_PI * np.arange(n_ang) / n_ang)
    nodes = np.multiply.outer(np.tanh(t / 2.0), ring).ravel()
    pts = _mobius_array(1.0, np.asarray(z, dtype=complex)[..., None], nodes)
    return pts, np.repeat(t, n_ang), np.repeat(wt * np.sinh(t) * (TWO_PI / n_ang), n_ang)


def multiplication_observable(a: Callable[[np.ndarray], np.ndarray],
                              sup_bound: float) -> Observable:
    return Observable("multiplication", LocalityConstants(sup_bound, 0.0, 0),
                      a=a)


def finite_range_observable(K: Callable[[np.ndarray, np.ndarray], np.ndarray],
                            S: float, C: float) -> Observable:
    return Observable("finite_range", LocalityConstants(C, S, 0), kernel=K)


def radial_kernel_observable(psi: Callable, S: float) -> Observable:
    """Finite-range observable with K(z, w) = psi(d(z, w)), psi supported [0, S]."""
    # |Au(x)| <= ||u||_C0 * int |psi| dmu over the ball
    t, w = gauss_legendre(0.0, S, 256)
    C = TWO_PI * float(np.sum(np.abs(psi(t)) * np.sinh(t) * w))
    return Observable("finite_range", LocalityConstants(C, S, 0),
                      kernel=lambda z, w: psi(_dist_array(z, w)), radial_profile=psi)


def differential_observable(coefficients: dict, C: float) -> Observable:
    k = max(i + j for (i, j) in coefficients)
    if k > 2:
        raise ValueError("differential order must be <= 2")
    return Observable("differential", LocalityConstants(C, 0.0, k),
                      coefficients=dict(coefficients))


def laplacian_observable() -> Observable:
    """Minus the hyperbolic Laplacian: -((1-|z|^2)^2/4) (d_xx + d_yy)."""
    conf = lambda z: -(1.0 - np.abs(z) ** 2) ** 2 / 4.0
    return differential_observable({(2, 0): conf, (0, 2): conf}, C=1.0)


def _fd_step(z: np.ndarray) -> np.ndarray:
    r = np.abs(z)
    if np.any(r > 1.0 - 1e-6):
        raise StencilOutOfDomain(f"|z| = {np.max(r)} too close to the boundary")
    return 1e-5 * (1.0 - r ** 2)


# Centred differences on the chart: (i, j) -> (weights, steps, denominator);
# the derivative d_x^i d_y^j u(z) is sum(weight * u(z + step * h)) / denominator(h),
# summed in the order listed.
_CENTRED = {
    (0, 0): ((1,), (0,), lambda h: 1),
    (1, 0): ((1, -1), (1, -1), lambda h: 2 * h),
    (0, 1): ((1, -1), (1j, -1j), lambda h: 2 * h),
    (2, 0): ((1, -2.0, 1), (1, 0, -1), lambda h: h * h),
    (0, 2): ((1, -2.0, 1), (1j, 0, -1j), lambda h: h * h),
    (1, 1): ((1, -1, -1, 1), (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j),
             lambda h: 4 * h * h),
}


def _centred_diff(u: Callable, z: np.ndarray, h, order: tuple):
    """d_x^i d_y^j u at the points z, from one call of u on every offset."""
    if order not in _CENTRED:
        raise ValueError(f"unsupported derivative {order}")
    weights, steps, denominator = _CENTRED[order]
    vals = u(z[..., None] + np.multiply.outer(h, steps))
    acc = sum(weight * v for weight, v in zip(weights, np.moveaxis(vals, z.ndim, 0)))
    return acc / _lead(denominator(h), acc)


def _ck_sum(u: Callable, z: np.ndarray, h, k: int):
    """Sum of |chart derivatives| of u at the points z of every order up to k."""
    return sum(abs(_centred_diff(u, z, h, order)) for order in _CENTRED
               if sum(order) <= k)


def _apply_differential(coeffs: dict, u: Callable, z: np.ndarray):
    h = _fd_step(z)
    out = 0j
    for order, c in coeffs.items():
        d = _centred_diff(u, z, h, order)
        out = out + _lead(c(z) if callable(c) else c, d) * d
    return out


# ---------------------------------------------------------------------------
# Complete symbol
# ---------------------------------------------------------------------------

def _busemann_difference(z, b, w):
    """<w, b> - <z, b> for arrays z, b and w that broadcast, without
    cancellation for w near z.

    The difference is log1p((1-|w|^2)/(1-|z|^2) - 1) - log1p(|w-b|^2/|z-b|^2 - 1),
    with each small ratio formed from |p|^2 - |q|^2 = Re((p - q) conj(p + q)).
    """
    d, s = w - z, w + z
    return (np.log1p(-(d * s.conjugate()).real / (1.0 - np.abs(z) ** 2))
            - np.log1p((d * (s - 2.0 * b).conjugate()).real / np.abs(z - b) ** 2))


def complete_symbol(A: Observable, z, lam: float, b):
    """a(z,lam,b) = e^{-(1/2+i lam)<z,b>} (A e_{lam,b})(z), on arrays z and b
    that broadcast elementwise; the result has their common shape.

    A acts on the relative wave w -> exp((1/2 + i lam)(<w, b> - <z, b>)),
    which equals 1 at z, so the factor e^{-(1/2+i lam)<z,b>} is never formed.
    A differential A acts on the wave minus 1 (expm1), whose differences keep
    their digits, and its order-0 coefficient adds the 1 back.  A finite-range
    A integrates the wave of each (point, b) pair over that point's ball, in
    the blocks of apply.
    """
    z, b = np.asarray(z, dtype=complex), np.asarray(b, dtype=complex)
    shape = np.broadcast_shapes(z.shape, b.shape)
    if A.variant == "multiplication":
        return (np.broadcast_to(A.a(z), shape) + 0j)[()]
    z, b = np.broadcast_to(z, shape), np.broadcast_to(b, shape)
    c = 0.5 + 1j * lam
    if A.variant == "finite_range":
        zf, bf = z.ravel(), b.ravel()
        return _ball_sum(A, z, lambda block, pts: np.exp(
            c * _busemann_difference(zf[block, None], bf[block, None], pts)))
    c0 = A.coefficients.get((0, 0), 0.0)
    zs, bs = z[..., None], b[..., None]
    return (A.apply(lambda w: np.expm1(c * _busemann_difference(zs, bs, w)), z)
            + (c0(z) if callable(c0) else c0))


def symbol_of(A: Observable) -> Callable:
    """The complete symbol of A as a callable a(z, lam, b)."""
    return partial(complete_symbol, A)


# ---------------------------------------------------------------------------
# Angular decomposition at a point
# ---------------------------------------------------------------------------

def rotation_boundary_point(z, theta):
    """The boundary points at rotation angles theta of the direction circle at z.

    z and theta broadcast.  The Mobius map (alpha, beta) = (1, z) carries 0
    to z and the direction theta at 0 to the one at z.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real ** 2 + z.imag ** 2 >= _DISC_EDGE ** 2):
        raise ValueError("point too close to the boundary")
    return _mobius_array(1.0, z, np.exp(1j * np.asarray(theta)))


@dataclass(frozen=True)
class AngularParts:
    mean: complex
    zero_mean_part: Callable[[float], complex]
    residual_mean: float


def angular_decompose(a: Callable, z: complex, lam: float, n: int = 512) -> AngularParts:
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


def condition_a1_holds(a: Callable, z: complex, lam: float) -> bool:
    """Zero angular mean at (z, lam), to 1e-9: the cancellation the averaging
    step needs."""
    return abs(angular_decompose(a, z, lam).mean) <= 1e-9


def theta_second_derivative_norm(a: Callable, lam_window, surface, n_mc: int,
                                 seed: int, n_lam: int = 7) -> float:
    """sup over lam in the window of the volume-normalized L^2 norm (squared)
    of the second rotation-angle derivative of the symbol over the sphere
    bundle; Monte Carlo over (fundamental domain) x (angle).

    The symbol is called once per lambda, on the (n_mc, 1) sampled points and
    the (n_mc, 5) boundary points of the 5-point stencil in the angle, of
    step 1e-4.
    """
    rng = np.random.default_rng(seed)
    zs = DomainSampler(surface.base).sample(rng, n_mc)[:, None]
    ths = rng.uniform(0.0, TWO_PI, n_mc)[:, None]
    h = 1e-4
    bs = rotation_boundary_point(zs, ths + h * np.array([2.0, 1.0, 0.0, -1.0, -2.0]))
    worst = 0.0
    for lam in np.linspace(lam_window[0], lam_window[1], n_lam):
        f = np.broadcast_to(a(zs, float(lam), bs), bs.shape).T
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        worst = max(worst, float(np.sum(np.abs(d2) ** 2)) / n_mc)
    return worst


# ---------------------------------------------------------------------------
# Propagator sandwich P_t A P_t
# ---------------------------------------------------------------------------

def smooth_sandwich_kernel(A: Observable, t: float, sigma: float, z: complex,
                           w: complex, n_rad: int = 48, n_ang: int = 96) -> complex:
    """Kernel of P_t A P_t at (z, w); exactly 0 beyond distance 2t + S.

    One formula for every variant: int_{B(z,t)} k_t(d(z,u)) (A k_t(d(., w)))(u) du,
    with k_t the kernel of smooth_propagator(t, sigma), on the polar
    rule of B(z, t).  A finite-range A applies its own 48 x 96 rule at every
    node, in blocks of _BALL_NODES rule points.
    """
    if _dist_array(z, w) > 2.0 * t + A.locality.S:
        return 0.0 + 0.0j
    k_t = smooth_propagator(t, sigma)
    us, d, wq = _ball_rule(z, t, n_rad, n_ang)
    inner = A.apply(lambda v: k_t(_dist_array(v, w)), us)
    return complex(np.sum(wq * k_t(d) * inner))


def sandwich_sup_bound(A: Observable, t: float, sigma: float) -> float:
    """Computable version of the pointwise sandwich-kernel bound:

        sup |K_{P_t A P_t}| <= C * sup_w ||k_t(d(., w))||_{C^k} * ||K_t||_L1,

    with the C^k factor measured on a finite-difference grid of 160 radii
    (same stencils as the operator) and the L1 norm integrated exactly.
    """
    c_t = math.cosh(t) ** -0.5
    chi = CutoffSpec(t, sigma).chi
    # radial symmetry: put w at the origin, scan v along a ray and measure
    # chart derivatives up to order k by centered differences
    v = np.tanh(np.linspace(0.0, t + 0.05, 160) / 2.0) + 0.0j
    worst = float(np.max(_ck_sum(lambda p: c_t * chi(_dist_array(p, 0j)), v,
                                 1e-5 * (1.0 - np.abs(v) ** 2), A.locality.k)))
    r, wq = gauss_legendre(0.0, t, 256)
    l1 = TWO_PI * c_t * float(np.sum(chi(r) * np.sinh(r) * wq))
    return A.locality.C * worst * l1


def locality_ratio(A: Observable, u: Callable, z: complex) -> float:
    """Measured |Au(z)| / ||u||_{C^k(B(z, S))} on a finite-difference grid
    of 7 radii from 0 to S and 8 angles."""
    val = abs(A.apply(u, z))
    S_eff = max(A.locality.S, 0.05)
    rays = np.multiply.outer(np.tanh(np.linspace(0.0, S_eff, 7) / 2.0),
                             np.exp(1j * TWO_PI * np.arange(8) / 8))
    v = _mobius_array(1.0, z, rays)
    norm = float(np.max(_ck_sum(u, v, 1e-4 * (1.0 - np.abs(v) ** 2), A.locality.k)))
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
    if A.variant == "finite_range" and A.radial_profile is not None:
        t, w = gauss_legendre(0.0, A.locality.S, 400)
        vals = phi_eval(lam, t)
        total = TWO_PI * float(np.sum(A.radial_profile(t) * vals * np.sinh(t) * w))
        return LimitTerm(total, 0.0)
    if A.variant not in ("multiplication", "finite_range"):
        raise ValueError("limit term needs an integrable kernel (multiplication or finite range)")
    zs = DomainSampler(surface.base).sample(np.random.default_rng(seed), n_mc)
    if A.variant == "multiplication":
        vals = A.a(zs)
    else:
        pts, t, w = _ball_rule(zs, A.locality.S, 32, 48)
        vals = np.real(A.kernel(zs[:, None], pts)) @ (w * phi_eval(lam, t))
    return LimitTerm(float(np.mean(vals)), float(np.std(vals) / math.sqrt(n_mc)))


# ---------------------------------------------------------------------------
# Spectral-cutoff tail
# ---------------------------------------------------------------------------

def multiplier_tail_bound(rho: SpectralMultiplier, weight: PlancherelWeight,
                          r: float, lam_grid) -> float:
    """max over the lambda grid of int_r^inf |k_rho(t) phi_lam(t) sinh t| dt,
    taken over [r, r + 60]."""
    t, w = gauss_legendre(r, r + 60.0, 600)
    k = np.abs(inverse_selberg(rho, weight)(t))
    phis = np.abs(phi_eval(np.atleast_1d(lam_grid), t))
    return float(np.max((k * np.sinh(t) * w) @ phis))
