"""The radial-transform triangle on the hyperbolic disc.

A radial kernel k(t) (function of hyperbolic distance), its Abel profile
g(u) (horocyclic integral), and its spectral multiplier h(lambda) are linked
by

    g(u) = sqrt(2) * int_{|u|}^inf k(r) sinh(r) / sqrt(cosh r - cosh u) dr,
    h(lambda) = int_R exp(i lambda u) g(u) du = 2 int_0^inf cos(lambda u) g(u) du,
    h(lambda) = 2 pi * int_0^inf k(t) phi_lambda(t) sinh(t) dt,

where phi_lambda is the spherical function of the disc (the Legendre/conical
function P_{-1/2 + i lambda}(cosh t)).  The three legs agree exactly; the
factor 2 pi on the spherical-pairing leg is pinned by the Fourier-of-Abel
route and is exposed as a configurable normalization.

The inverse transform uses a Plancherel weight in lambda.  Two conventions
are provided: `lambda * tanh(2 pi lambda)` and `pi * lambda * tanh(pi lambda)`;
the latter equals |c(lambda)|^{-2} for the Harish-Chandra c-function
c(lambda) = Gamma(i lambda) / (sqrt(pi) Gamma(1/2 + i lambda)) and makes the
forward/inverse pair exact.  Reports always state which convention was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import loggamma

from .errors import ParameterOutOfRange, QuadratureNotConverged, SeriesDiverged
from .geometry import _busemann_array
from .quadrature import cosh_diff, gauss_legendre, sqrt_edge_rule, trapezoid_periodic

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialKernel:
    """Kernel k(t) of a radial operator; eval is vectorized in t >= 0.

    breakpoints: interior t-values where k loses smoothness (cutoff knots);
    quadratures split panels there so Gauss-Legendre stays spectral.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    support_bound: float = math.inf
    smoothness_class: str = "unknown"
    breakpoints: tuple = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        vals = np.asarray(self.eval(t), dtype=float)
        if math.isfinite(self.support_bound):
            vals = np.where(t > self.support_bound, 0.0, vals)
        return vals


@dataclass(frozen=True)
class SpectralMultiplier:
    """Multiplier rho(lambda), treated as even in lambda; eval vectorized."""

    eval: Callable[[np.ndarray], np.ndarray]
    support: tuple = (0.0, math.inf)

    def __call__(self, lam):
        lam = np.abs(np.asarray(lam, dtype=float))
        vals = np.asarray(self.eval(lam), dtype=float)
        lo, hi = self.support
        if math.isfinite(hi):
            vals = np.where((lam < lo) | (lam > hi), 0.0, vals)
        return vals


@dataclass(frozen=True)
class AbelProfile:
    """Even profile g(u) with compact support; eval vectorized in u."""

    eval: Callable[[np.ndarray], np.ndarray]
    support_bound: float = math.inf
    breakpoints: tuple = ()

    def __call__(self, u):
        u = np.abs(np.asarray(u, dtype=float))
        vals = np.asarray(self.eval(u), dtype=float)
        if math.isfinite(self.support_bound):
            vals = np.where(u > self.support_bound, 0.0, vals)
        return vals


@dataclass(frozen=True)
class PlancherelWeight:
    """Inverse-transform weight; variant 'paper_tanh_2pi' or 'harmonic_tanh_pi'."""

    variant: str = "paper_tanh_2pi"

    def __post_init__(self):
        if self.variant not in ("paper_tanh_2pi", "harmonic_tanh_pi"):
            raise ValueError(f"unknown Plancherel weight variant {self.variant!r}")

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.variant == "paper_tanh_2pi":
            return lam * np.tanh(TWO_PI * lam)
        return math.pi * lam * np.tanh(math.pi * lam)

    def hs_weight(self, lam):
        """Weight of the exact Hilbert-Schmidt identity: w(lam)^2/(lam tanh(pi lam)).

        For the tanh(2 pi lam) convention this is w itself up to a factor
        tanh(2 pi lam)/tanh(pi lam) = 1 + O(exp(-2 pi lam)).
        """
        lam = np.asarray(lam, dtype=float)
        w = self(lam)
        return w * w / (lam * np.tanh(math.pi * lam))

    @staticmethod
    def paper() -> "PlancherelWeight":
        return PlancherelWeight("paper_tanh_2pi")

    @staticmethod
    def harmonic() -> "PlancherelWeight":
        return PlancherelWeight("harmonic_tanh_pi")


def weight_from_name(name: str) -> PlancherelWeight:
    return {"paper": PlancherelWeight.paper(),
            "harmonic": PlancherelWeight.harmonic(),
            "paper_tanh_2pi": PlancherelWeight.paper(),
            "harmonic_tanh_pi": PlancherelWeight.harmonic()}[name]


# ---------------------------------------------------------------------------
# Spherical function: boundary-circle integral
# ---------------------------------------------------------------------------

def spherical_phi(lam: float, t: float, tol: float = 1e-9) -> float:
    """phi_lambda(t) = (1/2pi) int_B exp((1/2 + i lam) <z_t, b>) db.

    Periodic trapezoid in the boundary angle with node doubling; the Poisson
    kernel concentrates at angular scale exp(-t), so the node budget limits
    this route to moderate t (raises QuadratureNotConverged beyond it).
    """
    if t < 0:
        raise ParameterOutOfRange("t must be >= 0")
    if t > 50:
        raise ParameterOutOfRange("t > 50 not supported")
    if t == 0.0:
        return 1.0
    z = math.tanh(t / 2.0)

    def f(theta):
        return np.exp((0.5 + 1j * lam) * _busemann_array(z, np.exp(1j * theta)))

    n0 = 64
    while n0 < 8 * math.exp(t) and n0 < (1 << 21):  # resolve the Poisson peak
        n0 *= 2
    val = trapezoid_periodic(f, n0=n0, tol=tol) / TWO_PI
    if abs(val.imag) > 1e-10:
        raise QuadratureNotConverged(f"imaginary residue {val.imag:.2e} in phi")
    return float(val.real)


# ---------------------------------------------------------------------------
# Spherical function: Mehler-Dirichlet integral (fast, any t > 0)
# ---------------------------------------------------------------------------

def _md_integral(lams: np.ndarray, t: float, n: int = 160) -> np.ndarray:
    """int_0^t cos(lam u) / sqrt(cosh t - cosh u) du on an array of lambdas, t > 0.

    Plain panel up to t - min(1, t/2); the rest in v = sqrt(cosh t - cosh u),
    which removes the integrable 1/sqrt singularity at u = t.
    """
    lams = np.asarray(lams, dtype=float)
    split = t - min(1.0, t / 2.0)
    u, w = gauss_legendre(0.0, split, max(n, int(6 * t)))
    total = np.cos(np.multiply.outer(lams, u)) @ (w / np.sqrt(cosh_diff(t, u)))
    u, v, w = sqrt_edge_rule(t, split, t, n)
    return total + np.cos(np.multiply.outer(lams, u)) @ (w / v)


def _phi_md_grid(lams: np.ndarray, t: float, n: int = 160) -> np.ndarray:
    """phi on an array of lambdas: (sqrt 2 / pi) times the Mehler-Dirichlet integral."""
    lams = np.asarray(lams, dtype=float)
    if t == 0.0:
        return np.ones_like(lams)
    return math.sqrt(2.0) / math.pi * _md_integral(lams, t, n)


# ---------------------------------------------------------------------------
# Harish-Chandra c-function and the large-t series
# ---------------------------------------------------------------------------

def harish_chandra_c(lam: float) -> complex:
    """c(lambda) = Gamma(i lam) / (sqrt(pi) Gamma(1/2 + i lam)), lam > 0."""
    if lam <= 1e-8:
        raise ValueError("lambda too close to the Gamma(i lambda) pole")
    return complex(np.exp(loggamma(1j * lam) - loggamma(0.5 + 1j * lam))
                   / math.sqrt(math.pi))


def c_inverse_square(lam: float) -> float:
    """|c(lambda)|^{-2}; equals pi * lambda * tanh(pi * lambda) identically."""
    return 1.0 / abs(harish_chandra_c(lam)) ** 2


@lru_cache(maxsize=65536)
def _gamma_coeff_tuple(lam: float, lmax: int):
    g = [1.0 + 0j]
    for n in range(1, lmax + 1):
        s = sum(g[l] * (1j * lam - 0.5 - 2 * l) for l in range(n))
        g.append(-s / (2 * n * (n - 1j * lam)))
    return tuple(g)


def series_coefficients(lam: float, lmax: int) -> np.ndarray:
    """Coefficients Gamma_l(lambda) of the large-t expansion of phi_lambda.

    Recursion, read off the radial eigenequation term by term:
        Gamma_0 = 1,
        2 n (n - i lam) Gamma_n = - sum_{l<n} Gamma_l (i lam - 1/2 - 2 l).
    """
    return np.array(_gamma_coeff_tuple(float(lam), int(lmax)))


def gamma_growth_bound(lam: float, lmax: int = 60):
    """Empirical (d1, d2) with |Gamma_l| <= d1 (1 + l^d2); 10x safety margin on d1."""
    g = np.abs(series_coefficients(lam, lmax))[1:]
    ls = np.arange(1, lmax + 1, dtype=float)
    d2 = 1.0
    if lmax > 2:
        grow = np.diff(np.log(np.maximum(g, 1e-300))) / np.diff(np.log(1.0 + ls))
        d2 = max(1.0, float(np.max(grow)))
    d1 = 10.0 * float(np.max(g / (1.0 + ls ** d2)))
    return max(d1, 1e-12), d2


def spherical_phi_series(lam: float, t: float, l_max: int = 40,
                         tail_tol: float = 1e-8) -> float:
    """phi_lambda(t) = 2 Re[c(lam) e^{(-1/2 + i lam) t} sum_l Gamma_l(lam) e^{-2 l t}]."""
    if t < 0.5:
        raise ValueError("series route needs t >= 0.5")
    g = series_coefficients(lam, l_max)
    decay = np.exp(-2.0 * t * np.arange(l_max + 1))
    c = harish_chandra_c(lam)
    val = 2.0 * (c * np.exp((-0.5 + 1j * lam) * t) * np.sum(g * decay)).real
    d1, d2 = gamma_growth_bound(lam, min(l_max, 60))
    tail = (2.0 * abs(c) * math.exp(-t / 2.0) * d1 * (1 + (l_max + 1) ** d2)
            * math.exp(-2.0 * (l_max + 1) * t) / (1.0 - math.exp(-2.0 * t)))
    if tail > tail_tol:
        raise SeriesDiverged(f"tail estimate {tail:.2e} exceeds {tail_tol} at l_max={l_max}")
    return val


def phi_eval(lam, t: float):
    """Fast spherical-function evaluation, vectorized in lambda.

    Dispatches to the large-t series (t >= 1) or the Mehler-Dirichlet
    integral (t < 1); both agree with the boundary-circle definition.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if t < 1.0:
        out = _phi_md_grid(lams, t)
    else:
        lmax = max(6, int(40.0 / t) + 4)
        cs = np.array([harish_chandra_c(float(x)) if x > 1e-8 else 0.0 for x in lams])
        acc = np.zeros(lams.shape, dtype=complex)
        for l in range(lmax + 1):
            coeff = np.array([_gamma_coeff_tuple(float(x), lmax)[l] for x in lams])
            acc += coeff * math.exp(-2.0 * l * t)
        out = 2.0 * (cs * np.exp((-0.5 + 1j * lams) * t) * acc).real
        if np.any(lams <= 1e-8):
            out = np.where(lams <= 1e-8, _phi_md_grid(lams, t), out)
    return out if np.ndim(lam) else float(out[0])


def phi_decay_constant(lam_grid, t_grid) -> float:
    """Fitted C with |phi_lambda(t)| <= C e^{-t/2} (1 + t) over the grids."""
    best = 0.0
    for t in t_grid:
        ph = np.abs(phi_eval(np.asarray(lam_grid, dtype=float), float(t)))
        best = max(best, float(np.max(ph * math.exp(t / 2.0) / (1.0 + t))))
    return best


# ---------------------------------------------------------------------------
# Selberg transform and its inverse
# ---------------------------------------------------------------------------

def selberg_transform(k: RadialKernel, norm: float = TWO_PI,
                      t_max: float | None = None) -> SpectralMultiplier:
    """S(k)(lambda) = norm * int_0^inf k(t) phi_lambda(t) sinh(t) dt.

    norm = 2*pi makes the triangle S = Fourier o Abel exact; norm = 1 gives
    the bare spherical pairing.
    """
    upper = k.support_bound if math.isfinite(k.support_bound) else (t_max or 40.0)
    edges = [0.0] + sorted(b for b in k.breakpoints if 0.0 < b < upper) + [upper]

    def h(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        vals = None
        for mult in (1, 2):
            cur = np.zeros(lams.shape)
            for lo, hi in zip(edges[:-1], edges[1:]):
                n = mult * max(64, int(16 * (hi - lo)))
                t, w = gauss_legendre(lo, hi, n)
                phis = np.vstack([_phi_md_grid(lams, float(tt)) for tt in t]).T
                cur = cur + norm * (phis * (k(t) * np.sinh(t))) @ w
            if vals is not None and np.max(np.abs(cur - vals)) > 1e-7 * max(
                    1.0, float(np.max(np.abs(cur)))):
                raise QuadratureNotConverged("Selberg transform did not stabilize")
            vals = cur
        return vals

    return SpectralMultiplier(lambda lam: h(lam) if np.ndim(lam) else float(h(lam)[0]))


def _lambda_rule(support, n: int = 192):
    lo, hi = support
    if not math.isfinite(hi):
        raise ValueError("inverse transform needs a compactly supported multiplier")
    return gauss_legendre(lo, hi, n)


class _InverseKernel(RadialKernel):
    """Radial kernel with an extra exactly-scaled evaluator k(t) e^{t/2}."""

    def __init__(self, eval_fn, scaled_fn):
        object.__setattr__(self, "eval", eval_fn)
        object.__setattr__(self, "support_bound", math.inf)
        object.__setattr__(self, "smoothness_class", "schwartz-like")
        object.__setattr__(self, "scaled_eval", scaled_fn)


def inverse_selberg(rho: SpectralMultiplier, weight: PlancherelWeight,
                    norm: float = 1.0, series_lmax: int = 24,
                    n_lambda: int = 256) -> RadialKernel:
    """k_rho(t) = norm * int rho(lambda) phi_lambda(t) w(lambda) d lambda.

    With norm = 1 this is the radial kernel of the operator with multiplier
    rho under the chosen weight convention.  For t >= 1 the spherical
    function is replaced by its large-t series, which factors out e^{-t/2}
    and keeps the oscillatory lambda-integral well conditioned out to t ~ 40+.
    The returned kernel exposes `scaled_eval(t) = k(t) * e^{t/2}` for decay
    diagnostics free of underflow.
    """
    lam, lw = _lambda_rule(rho.support, n_lambda)
    wvals = weight(lam) * rho(lam) * lw * norm
    cs = np.array([harish_chandra_c(float(x)) for x in lam])
    coeffs = [np.array([_gamma_coeff_tuple(float(x), series_lmax)[l] for x in lam])
              for l in range(series_lmax + 1)]

    def scaled(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        osc = np.exp(1j * np.multiply.outer(ts, lam))
        acc = np.zeros(ts.shape, dtype=complex)
        for l in range(series_lmax + 1):
            acc += np.exp(-2.0 * l * ts) * (osc @ (cs * coeffs[l] * wvals))
        return 2.0 * acc.real

    def k(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty(ts.shape)
        small = ts < 1.0
        for i in np.nonzero(small)[0]:
            ph = _phi_md_grid(lam, float(ts[i]))
            out[i] = float(np.sum(ph * wvals))
        if np.any(~small):
            big = ~small
            out[big] = scaled(ts[big]) * np.exp(-ts[big] / 2.0)
        return out

    return _InverseKernel(lambda t: k(t) if np.ndim(t) else float(k(np.array([t]))[0]),
                          scaled)


def k_rho_scaled(rho: SpectralMultiplier, weight: PlancherelWeight, ts,
                 norm: float = 1.0, series_lmax: int = 24,
                 n_lambda: int = 256) -> np.ndarray:
    """k_rho(t) * e^{t/2} on t >= 1 without underflow (decay diagnostics)."""
    kern = inverse_selberg(rho, weight, norm=norm, series_lmax=series_lmax,
                           n_lambda=n_lambda)
    return kern.scaled_eval(np.asarray(ts, dtype=float))


def matched_norm(weight: PlancherelWeight, selberg_norm: float = TWO_PI) -> float:
    """Inverse prefactor making selberg_transform(inverse_selberg(rho)) == rho.

    The spherical pairing S~(k) = int k phi sinh dt inverts exactly against
    the lam tanh(pi lam) measure, so the harmonic convention (pi lam tanh pi lam)
    needs 1/(norm * pi).  Under the tanh(2 pi lam) convention the round trip
    carries a residual factor tanh(2 pi lam)/tanh(pi lam), below 1e-4 for
    lam >= 1.6.
    """
    if weight.variant == "harmonic_tanh_pi":
        return 1.0 / (selberg_norm * math.pi)
    return 1.0 / selberg_norm


# ---------------------------------------------------------------------------
# Abel transform leg
# ---------------------------------------------------------------------------

def abel_transform(k: RadialKernel, n: int = 200) -> AbelProfile:
    """g(u) = sqrt2 int_{|u|}^T k(r) sinh r / sqrt(cosh r - cosh u) dr.

    The inverse square root is singular at r = |u|; on [|u|, |u|+1] the
    variable v = sqrt(cosh r - cosh u) removes it (sqrt_edge_rule), and the
    remainder is integrated in r directly.
    """
    if not math.isfinite(k.support_bound):
        raise ValueError("Abel transform implemented for compactly supported kernels")
    T = k.support_bound

    knots = sorted(b for b in k.breakpoints if 0.0 < b < T)

    def g(us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        out = np.zeros(us.shape)
        for i, u in enumerate(np.abs(us)):
            if u >= T:
                continue
            mid = min(u + 1.0, T)
            acc = 0.0
            # singular stretch in v, split at kernel knots so each panel is smooth
            edges = [u] + [b for b in knots if u < b < mid] + [mid]
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi <= lo:
                    continue
                r, v, w = sqrt_edge_rule(u, lo, hi, n)
                acc += float(np.sum(k(r) * np.sinh(r) / v * w))
            if mid < T:
                r_edges = [mid] + [b for b in knots if mid < b < T] + [T]
                for lo, hi in zip(r_edges[:-1], r_edges[1:]):
                    n_tail = max(n, int(16 * (hi - lo)))
                    r2, w2 = gauss_legendre(lo, hi, n_tail)
                    acc += float(np.sum(k(r2) * np.sinh(r2)
                                        / np.sqrt(cosh_diff(r2, u)) * w2))
            out[i] = math.sqrt(2.0) * acc
        return out

    return AbelProfile(lambda u: g(u) if np.ndim(u) else float(g(np.array([u]))[0]),
                       support_bound=T, breakpoints=k.breakpoints)


def abel_sharp(t: float) -> AbelProfile:
    """Closed-form Abel profile of the sharp ball kernel (cosh t)^{-1/2} 1_{r<=t}."""
    if t <= 0:
        raise ParameterOutOfRange("t must be positive")

    def g(us):
        us = np.abs(np.atleast_1d(np.asarray(us, dtype=float)))
        return 2.0 * np.sqrt(2.0 * np.maximum(cosh_diff(t, us), 0.0) / np.cosh(t))

    return AbelProfile(lambda u: g(u) if np.ndim(u) else float(g(np.array([u]))[0]),
                       support_bound=t)


def abel_smooth(t: float, sigma: float, eta: Callable[[np.ndarray], np.ndarray],
                n: int = 200) -> AbelProfile:
    """Abel profile of the smooth ball kernel with cutoff chi(r) = eta((r - t)/sigma)."""
    if not (0 < sigma < t):
        raise ParameterOutOfRange("need 0 < sigma < t")

    def kv(r):
        return np.cosh(t) ** -0.5 * eta((np.asarray(r, dtype=float) - t) / sigma)

    return abel_transform(RadialKernel(kv, support_bound=t, smoothness_class="smooth",
                                       breakpoints=(t - sigma,)), n=n)


def fourier_of_abel(g: AbelProfile) -> SpectralMultiplier:
    """h(lambda) = 2 int_0^S cos(lambda u) g(u) du.

    Abel profiles of ball-type kernels vanish like sqrt(cosh S - cosh u) at the
    support edge, so the tail piece is integrated in the variable
    v = sqrt(cosh S - cosh u), where the integrand is smooth.
    """
    if not math.isfinite(g.support_bound):
        raise ValueError("profile must have compact support")
    S = g.support_bound
    split = S - min(1.0, S / 2.0)
    plain_edges = [0.0] + sorted(b for b in g.breakpoints if 0.0 < b < split) + [split]
    tail_edges = [split] + sorted(b for b in g.breakpoints if split < b < S) + [S]

    def h(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        n = max(192, int(16 * S * (1.0 + float(np.max(lams)) / 4.0)))
        vals = None
        for trial in (n, 2 * n):
            cur = np.zeros(lams.shape)
            for lo, hi in zip(plain_edges[:-1], plain_edges[1:]):
                if hi <= lo:
                    continue
                u, w = gauss_legendre(lo, hi, trial)
                cur = cur + 2.0 * np.cos(np.multiply.outer(lams, u)) @ (g(u) * w)
            for lo, hi in zip(tail_edges[:-1], tail_edges[1:]):
                u, _, w = sqrt_edge_rule(S, lo, hi, trial)
                cur = cur + 2.0 * np.cos(np.multiply.outer(lams, u)) @ (g(u) * w)
            if vals is not None and np.max(np.abs(cur - vals)) > 3e-8 * max(
                    1.0, float(np.max(np.abs(cur)))):
                raise QuadratureNotConverged("Fourier of Abel profile did not stabilize")
            vals = cur
        return vals

    return SpectralMultiplier(lambda lam: h(lam) if np.ndim(lam) else float(h(lam)[0]))


# ---------------------------------------------------------------------------
# Helgason transform, symbol kernels, HS norm
# ---------------------------------------------------------------------------

def helgason_forward(u: Callable[[complex], complex], support_radius: float = 0.95,
                     n_rad: int = 120, n_ang: int = 256):
    """u-hat(lambda, b) = int_D exp((1/2 - i lambda)<z, b>) u(z) dmu(z).

    u takes a complex chart point with support inside |z| <= support_radius.
    Returns a callable of (lambda, boundary angle).  Geodesic polar grid:
    tensor Gauss-Legendre in t times periodic trapezoid in the angle.
    """
    if support_radius >= 0.96:
        raise ValueError("support must stay inside |z| <= 0.95")
    t_max = 2.0 * math.atanh(support_radius)
    t, wt = gauss_legendre(0.0, t_max, n_rad)
    theta = TWO_PI * np.arange(n_ang) / n_ang
    Z = np.multiply.outer(np.tanh(t / 2.0), np.exp(1j * theta))
    U = np.array([[u(z) for z in row] for row in Z])
    area_w = np.multiply.outer(np.sinh(t) * wt, np.full(n_ang, TWO_PI / n_ang))

    def transform(lam: float, b_angle: float) -> complex:
        bus = _busemann_array(Z, np.exp(1j * b_angle))
        return complex(np.sum(np.exp((0.5 - 1j * lam) * bus) * U * area_w))

    return transform


def kernel_from_symbol(a: Callable[[complex, float, complex], complex],
                       lambda_support: tuple, weight: PlancherelWeight,
                       n_lam: int = 96, n_ang: int = 256):
    """Kernel of Op(a):

    K(z, w) = (1/2pi) iint a(z, lam, b) e^{(1/2+i lam)<z,b>} e^{(1/2-i lam)<w,b>}
              w(lam) db dlam.
    """
    lam, wl = gauss_legendre(lambda_support[0], lambda_support[1], n_lam)
    theta = TWO_PI * np.arange(n_ang) / n_ang
    b = np.exp(1j * theta)
    wb = TWO_PI / n_ang

    def K(z: complex, w: complex) -> complex:
        bus_z = _busemann_array(z, b)
        bus_w = _busemann_array(w, b)
        acc = 0.0 + 0.0j
        for i, l in enumerate(lam):
            av = np.array([a(z, float(l), bb) for bb in b])
            integrand = av * np.exp((0.5 + 1j * l) * bus_z + (0.5 - 1j * l) * bus_w)
            acc += wl[i] * float(weight(float(l))) * np.sum(integrand) * wb
        return complex(acc / TWO_PI)

    return K


def hs_norm_disc(a: Callable[[complex, float, complex], complex],
                 z_support_radius: float, lambda_support: tuple,
                 weight: PlancherelWeight,
                 n_rad: int = 48, n_zang: int = 64, n_lam: int = 48,
                 n_bang: int = 128) -> float:
    """Squared HS norm of Op(a) on the disc via the Plancherel identity.

    ||Op(a)||_HS^2 = iiint |a(z, lam, b)|^2 e^{<z,b>} W(lam) dmu(z) dlam db,
    with W = weight.hs_weight, the weight that makes the identity exact for
    kernels built by kernel_from_symbol under the same convention.
    """
    t_max = 2.0 * math.atanh(z_support_radius)
    t, wt = gauss_legendre(0.0, t_max, n_rad)
    phis = TWO_PI * np.arange(n_zang) / n_zang
    lam, wl = gauss_legendre(lambda_support[0], lambda_support[1], n_lam)
    theta = TWO_PI * np.arange(n_bang) / n_bang
    b = np.exp(1j * theta)
    hsw = np.asarray(weight.hs_weight(lam), dtype=float)
    total = 0.0
    for i, tt in enumerate(t):
        r_e = math.tanh(tt / 2.0)
        for ph in phis:
            z = r_e * np.exp(1j * ph)
            pz = np.exp(_busemann_array(z, b))
            lam_acc = 0.0
            for j, l in enumerate(lam):
                av2 = np.abs(np.array([a(z, float(l), bb) for bb in b])) ** 2
                lam_acc += wl[j] * hsw[j] * float(np.sum(av2 * pz)) * (TWO_PI / n_bang)
            total += wt[i] * math.sinh(tt) * (TWO_PI / n_zang) * lam_acc
    return total


# ---------------------------------------------------------------------------
# Convenience multipliers
# ---------------------------------------------------------------------------

def bump_multiplier(lo: float, hi: float, amplitude: float = 1.0) -> SpectralMultiplier:
    """Smooth compactly supported bump on [lo, hi], sup value = amplitude."""
    if not (0 <= lo < hi):
        raise ParameterOutOfRange("need 0 <= lo < hi")

    def f(lam):
        lam = np.asarray(lam, dtype=float)
        x = (2.0 * lam - (lo + hi)) / (hi - lo)
        out = np.zeros_like(lam)
        inside = np.abs(x) < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out

    return SpectralMultiplier(f, support=(lo, hi))


def plateau_multiplier(lo: float, hi: float, margin: float) -> SpectralMultiplier:
    """Smooth multiplier equal to 1 on [lo, hi], supported on [lo - margin, hi + margin]."""
    if margin <= 0:
        raise ValueError("margin must be positive")

    def ramp(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            e0 = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
            e1 = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
        return np.where(x <= 0, 0.0, np.where(x >= 1, 1.0, e0 / (e0 + e1)))

    def f(lam):
        lam = np.asarray(lam, dtype=float)
        up = ramp((lam - (lo - margin)) / margin)
        down = ramp(((hi + margin) - lam) / margin)
        return up * down

    return SpectralMultiplier(f, support=(max(lo - margin, 0.0), hi + margin))
