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
route, and selberg_transform carries it.

The inverse transform uses a Plancherel weight in lambda.  Two conventions
are provided: `lambda * tanh(2 pi lambda)` and `pi * lambda * tanh(pi lambda)`;
the latter equals |c(lambda)|^{-2} for the Harish-Chandra c-function
c(lambda) = Gamma(i lambda) / (sqrt(pi) Gamma(1/2 + i lambda)) and makes the
forward/inverse pair exact.  Reports always state which convention was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import loggamma

from .errors import ParameterOutOfRange, QuadratureNotConverged
from .geometry import _busemann_array
from .quadrature import (ball_rule, cosh_diff, gauss_legendre, refined, sqrt_edge_rule,
                         sqrt_edge_split, trapezoid_periodic)

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
            "harmonic": PlancherelWeight.harmonic()}[name]


# ---------------------------------------------------------------------------
# Spherical function: boundary-circle integral
# ---------------------------------------------------------------------------

def spherical_phi(lam: float, t: float) -> float:
    """phi_lambda(t) = (1/2pi) int_B exp((1/2 + i lam) <z_t, b>) db.

    Periodic trapezoid in the boundary angle with node doubling (to 1e-9
    relative, trapezoid_periodic); the Poisson
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
    val = trapezoid_periodic(f, n0=n0) / TWO_PI
    if abs(val.imag) > 1e-10:
        raise QuadratureNotConverged(f"imaginary residue {val.imag:.2e} in phi")
    return float(val.real)


# ---------------------------------------------------------------------------
# Spherical function: Mehler-Dirichlet integral (fast, any t > 0)
# ---------------------------------------------------------------------------

# Size of one batched block, in array elements: (t, lambda) cells of a phi
# grid, (cell, node) values of the Mehler-Dirichlet integral, kernel nodes
# of one abel_transform call, or (points x elements) cells of an orbit or
# periodization pass in fuchsian.  It keeps the temporaries of a call near a MB
# whatever the grid size.
_BLOCK = 1 << 14


def _md_rows(lams, ts) -> np.ndarray:
    """The Mehler-Dirichlet integral on the (t, lambda) grid of 1-d ts > 0 and lams.

    Cells of one Gauss-Legendre order share their rows' nodes and are summed
    in blocks of at most _BLOCK node values.
    """
    out = np.zeros((ts.size, lams.size))
    split = sqrt_edge_split(ts)
    edge = 32 * np.ceil((24.0 + np.multiply.outer(ts, np.abs(lams))) / 32.0).astype(int)
    plain = np.maximum(edge, (6.0 * ts).astype(int)[:, None])
    for orders, is_edge in ((plain, False), (edge, True)):
        for n in np.unique(orders):
            rows, cols = np.nonzero(orders == n)
            rs, at = np.unique(rows, return_inverse=True)
            if is_edge:
                u, v, w = sqrt_edge_rule(ts[rs], split[rs], ts[rs], n)
                wu = w / v
            else:
                u, w = gauss_legendre(0.0, split[rs, None], n)
                wu = w / np.sqrt(cosh_diff(ts[rs, None], u))
            step = max(1, _BLOCK // n)
            for s in range(0, rows.size, step):
                c = slice(s, s + step)
                x = lams[cols[c], None] * u[at[c]]
                np.cos(x, out=x)
                out[rows[c], cols[c]] += np.einsum("ij,ij->i", x, wu[at[c]])
    return out


def _md_integral(lams, t) -> np.ndarray:
    """int_0^t cos(lam u) / sqrt(cosh t - cosh u) du on the (t, lambda) grid, t >= 0.

    Plain panel up to sqrt_edge_split(t) = t - min(1, t/2); the rest in
    v = sqrt(cosh t - cosh u), which removes the integrable 1/sqrt
    singularity at u = t.  Each cell has its own Gauss-Legendre order
    n = 32 ceil((24 + |lam| t) / 32), enough for the |lam| t / (2 pi) periods
    of cos(lam u); the plain panel takes at least 6 t nodes, for the growth
    of the integrand towards u = t.  As the order depends on the cell alone,
    a cell's value does not depend on the grid around it.  Every row t > 0
    goes to _md_rows in one call, which sums _BLOCK node values at a time.
    Rows t = 0 are 0, the integral over [0, 0].  Returns shape(t) + shape(lams).
    """
    lams = np.asarray(lams, dtype=float)
    ts = np.asarray(t, dtype=float)
    lam1, t1 = lams.ravel(), ts.ravel()
    out = np.zeros((t1.size, lam1.size))
    pos = np.flatnonzero(t1)
    out[pos] = _md_rows(lam1, t1[pos])
    return out.reshape(ts.shape + lams.shape)


def _phi_md_grid(lams, t) -> np.ndarray:
    """phi on the (t, lambda) grid: (sqrt 2 / pi) times the Mehler-Dirichlet integral."""
    ts = np.asarray(t, dtype=float)
    out = _md_integral(lams, ts)
    out *= math.sqrt(2.0) / math.pi
    out[ts == 0.0] = 1.0
    return out


# ---------------------------------------------------------------------------
# Harish-Chandra c-function and the large-t series
# ---------------------------------------------------------------------------

def harish_chandra_c(lam):
    """c(lambda) = Gamma(i lam) / (sqrt(pi) Gamma(1/2 + i lam)), lam > 0; lam may be an array."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 1e-8):
        raise ParameterOutOfRange("lambda too close to the Gamma(i lambda) pole")
    c = np.exp(loggamma(1j * lam) - loggamma(0.5 + 1j * lam)) / math.sqrt(math.pi)
    return c if c.ndim else complex(c)


def c_inverse_square(lam: float) -> float:
    """|c(lambda)|^{-2}; equals pi * lambda * tanh(pi * lambda) identically."""
    return 1.0 / abs(harish_chandra_c(lam)) ** 2


def series_coefficients(lam, lmax: int) -> np.ndarray:
    """Coefficients Gamma_l(lambda), l = 0..lmax, of the large-t expansion of phi_lambda.

    Recursion, read off the radial eigenequation term by term:
        Gamma_0 = 1,
        2 n (n - i lam) Gamma_n = - sum_{l<n} Gamma_l (i lam - 1/2 - 2 l).
    lam may be an array; the result has shape (lmax + 1,) + shape(lam).
    """
    lam = np.asarray(lam, dtype=float)
    g = np.empty((lmax + 1,) + lam.shape, dtype=complex)
    g[0] = 1.0
    s = np.zeros(lam.shape, dtype=complex)
    for n in range(1, lmax + 1):
        s = s + g[n - 1] * (1j * lam - 0.5 - 2 * (n - 1))
        g[n] = -s / (2 * n * (n - 1j * lam))
    return g


def _phi_series(lams, ts, l_max) -> np.ndarray:
    """2 Re[c(lam) e^{(-1/2 + i lam) t} sum_{l <= l_max} Gamma_l(lam) e^{-2 l t}].

    lams and ts are 1-d (lam > 1e-8); l_max is one int or one per t.  Each
    row is summed to its own l_max: rows of one l_max go together, in
    blocks of min(64, _BLOCK / len(lams)) rows.  The last block of a group
    is padded with zero rows, so every matrix product of a call has the same
    shape: BLAS rounds a row the same way whatever other rows the call
    holds, and a row is bit-identical in every call on the same lambdas.
    Returns the (t, lambda) grid.
    """
    l_max = np.broadcast_to(l_max, ts.shape)
    cg = harish_chandra_c(lams) * series_coefficients(lams, int(l_max.max(initial=0)))
    out = np.empty((ts.size, lams.size))
    step = max(1, min(64, _BLOCK // max(1, lams.size)))
    for L in np.unique(l_max):
        group = np.flatnonzero(l_max == L)
        for s in range(0, group.size, step):
            rows = group[s:s + step]
            t = ts[rows]
            decay = np.zeros((step, L + 1))
            decay[:rows.size] = np.exp(-2.0 * np.multiply.outer(t, np.arange(L + 1)))
            # 2 Re[cs e^{(-1/2 + i lam) t}] with cs = sum_l c Gamma_l e^{-2 l t}
            lt = np.multiply.outer(t, lams)
            val = np.cos(lt) * (decay @ cg.real[:L + 1])[:rows.size]
            val -= np.sin(lt) * (decay @ cg.imag[:L + 1])[:rows.size]
            out[rows] = val * (2.0 * np.exp(-0.5 * t))[:, None]
    return out


def phi_eval(lam, t):
    """phi_lambda(t) on the grid of t and lambda, of shape shape(t) + shape(lam).

    Rows t < 1 come from the Mehler-Dirichlet integral, each (t, lambda) cell
    with its own Gauss-Legendre order 32 ceil((24 + |lambda| t) / 32), so a
    cell has the same value in a scalar call as in any grid.  Rows t >= 1
    come from the large-t series truncated at l = max(6, int(40 / t) + 4);
    its two conjugate terms, of size |c(lambda)| ~ 1 / (pi lambda), cancel as
    lambda -> 0, so lambda < 1e-2 goes to the integral on every row.  Its
    matrix products all have one shape per lambda grid, so every row of a
    grid is bit-identical to a one-row call on the same lambdas.  Both
    routes agree with the boundary-circle definition.  lambda must be finite
    and t finite and >= 0 (ParameterOutOfRange otherwise).  Scalars in give a
    float.
    """
    lams = np.asarray(lam, dtype=float)
    ts = np.asarray(t, dtype=float)
    lam1, t1 = lams.ravel(), ts.ravel()
    if not (np.all(np.isfinite(lam1)) and np.all(np.isfinite(t1)) and np.all(t1 >= 0.0)):
        raise ParameterOutOfRange("phi_eval needs finite lambda and finite t >= 0")
    far, series = t1 >= 1.0, lam1 >= 1e-2
    tf = t1[far]
    # rows t >= 1 enter the integral as t = 0, which it skips; they are filled below
    out = _phi_md_grid(lam1, np.where(far, 0.0, t1))
    if not series.all():
        out[np.ix_(far, ~series)] = _phi_md_grid(lam1[~series], tf)
    out[np.ix_(far, series)] = _phi_series(lam1[series], tf,
                                           np.maximum(6, (40.0 / tf).astype(int) + 4))
    out = out.reshape(ts.shape + lams.shape)
    return out if out.ndim else float(out)


def phi_decay_constant(lam_grid, t_grid) -> float:
    """Fitted C with |phi_lambda(t)| <= C e^{-t/2} (1 + t) over the grids."""
    t = np.asarray(t_grid, dtype=float)
    ph = np.abs(phi_eval(lam_grid, t))
    return float(np.max(ph * (np.exp(t / 2.0) / (1.0 + t))[:, None]))


# ---------------------------------------------------------------------------
# Selberg transform and its inverse
# ---------------------------------------------------------------------------

def _panels(lo: float, hi: float, breakpoints) -> list:
    """The (lo, hi) pairs of [lo, hi] cut at the breakpoints strictly inside."""
    edges = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]
    return list(zip(edges[:-1], edges[1:]))


def selberg_transform(k: RadialKernel) -> SpectralMultiplier:
    """S(k)(lambda) = 2 pi int_0^inf k(t) phi_lambda(t) sinh(t) dt.

    The factor 2 pi makes the triangle S = Fourier o Abel exact.  A kernel
    without finite support is integrated up to t = 40, max(64, 16 length)
    nodes a panel between its knots, refined once.  Evaluates on a whole
    lambda array at once.
    """
    upper = k.support_bound if math.isfinite(k.support_bound) else 40.0
    panels = _panels(0.0, upper, k.breakpoints)

    def h(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))

        def rule(mult):
            cur = np.zeros(lams.shape)
            for lo, hi in panels:
                t, w = gauss_legendre(lo, hi, mult * max(64, int(16 * (hi - lo))))
                cur = cur + TWO_PI * (k(t) * np.sinh(t) * w) @ phi_eval(lams, t)
            return cur

        return refined(rule, 1e-7, "Selberg transform did not stabilize")

    return SpectralMultiplier(lambda lam: h(lam) if np.ndim(lam) else float(h(lam)[0]))


# k_rho is a Chebyshev interpolant on each unit panel [j, j + 1) of degree
# _K_RHO_DEG0 + ceil(1.5 hi), hi the top of rho's support.
_K_RHO_DEG0 = 16


def _clenshaw(c, x) -> np.ndarray:
    """sum_k c[:, k] T_k(x), each point x[i] with its own coefficient row c[i]."""
    b1, b2 = np.zeros(x.shape), np.zeros(x.shape)
    x2 = 2.0 * x
    for k in range(c.shape[1] - 1, 0, -1):
        b1, b2 = c[:, k] + x2 * b1 - b2, b1
    return c[:, 0] + x * b1 - b2


def inverse_selberg(rho: SpectralMultiplier, weight: PlancherelWeight,
                    n_lambda: int = 256) -> RadialKernel:
    """k_rho(t) = int rho(lambda) phi_lambda(t) w(lambda) d lambda.

    This is the radial kernel of the operator with multiplier rho under the
    chosen weight convention.  The exact values are the
    phi_eval grid at the n_lambda Gauss-Legendre nodes of rho's support
    times the vector wvals of rho w and the node weights.  They are taken
    only at the deg + 1 first-kind Chebyshev points of each unit panel
    [j, j + 1), deg = _K_RHO_DEG0 + ceil(1.5 hi), and k_rho is the panel's
    interpolant there (Clenshaw, _BLOCK points at a time).  No point lies
    on a panel edge, so a panel reads either the Mehler-Dirichlet rows
    (t < 1) or the series rows (t >= 1).  The kernel caches each panel's
    coefficients; a call gathers the panels it lacks into one phi_eval
    grid, taken 16 _BLOCK cells at a time.  A panel whose last 3
    coefficients exceed 1e-14 (max |panel values| + sum |wvals| e^{-j/2})
    raises QuadratureNotConverged; the second term is the rounding floor
    of the tail, where k_rho has cancelled far below its terms.  Every sum
    is taken row by row (einsum), so k_rho(t) depends on t alone, not on
    the other points of a call or on the calls before it.  t must be
    finite and >= 0.
    """
    lo, hi = rho.support
    if not math.isfinite(hi):
        raise ValueError("inverse transform needs a compactly supported multiplier")
    lam, lw = gauss_legendre(lo, hi, n_lambda)
    wvals = weight(lam) * rho(lam) * lw
    floor = float(np.sum(np.abs(wvals)))
    m = _K_RHO_DEG0 + math.ceil(1.5 * hi) + 1
    theta = math.pi * (np.arange(m) + 0.5) / m
    nodes = 0.5 + 0.5 * np.cos(theta)
    dct = (2.0 / m) * np.cos(np.multiply.outer(np.arange(m), theta))
    dct[0] *= 0.5
    step = max(1, 16 * _BLOCK // n_lambda)
    coefs = {}

    def build(panels):
        ts = np.add.outer(panels, nodes).ravel()
        vals = np.empty(ts.size)
        for s in range(0, ts.size, step):
            vals[s:s + step] = np.einsum("ij,j->i", phi_eval(lam, ts[s:s + step]), wvals)
        vals = vals.reshape(panels.size, m)
        c = np.einsum("pi,ki->pk", vals, dct)
        tol = 1e-14 * (np.max(np.abs(vals), axis=1) + floor * np.exp(-panels / 2.0))
        bad = np.flatnonzero(np.max(np.abs(c[:, -3:]), axis=1) > tol)
        if bad.size:
            j = int(panels[bad[0]])
            raise QuadratureNotConverged(
                f"k_rho not resolved on [{j}, {j + 1}) at Chebyshev degree {m - 1}")
        coefs.update(zip(panels.tolist(), c))

    def k(t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        if not (np.all(np.isfinite(flat)) and np.all(flat >= 0.0)):
            raise ParameterOutOfRange("k_rho needs finite t >= 0")
        panel = np.floor(flat)
        have, at = np.unique(panel, return_inverse=True)
        new = [j for j in have if j not in coefs]
        if new:
            build(np.array(new))
        table = np.array([coefs[j] for j in have]).reshape(-1, m)
        vals = np.empty(flat.shape)
        for s in range(0, flat.size, _BLOCK):
            c = slice(s, s + _BLOCK)
            vals[c] = _clenshaw(table[at[c]], 2.0 * (flat[c] - panel[c]) - 1.0)
        return vals.reshape(t.shape)

    return RadialKernel(k, smoothness_class="schwartz-like")


def k_rho_scaled(rho: SpectralMultiplier, weight: PlancherelWeight, ts,
                 n_lambda: int = 256) -> np.ndarray:
    """e^{t/2} k_rho(t) on an array of t (decay diagnostics)."""
    ts = np.asarray(ts, dtype=float)
    return np.exp(ts / 2.0) * inverse_selberg(rho, weight, n_lambda=n_lambda)(ts)


def matched_norm(weight: PlancherelWeight) -> float:
    """Inverse prefactor making selberg_transform(inverse_selberg(rho)) == rho.

    The spherical pairing S~(k) = int k phi sinh dt inverts exactly against
    the lam tanh(pi lam) measure, so the harmonic convention (pi lam tanh pi lam)
    needs 1/(2 pi * pi) against selberg_transform's 2 pi.  Under the
    tanh(2 pi lam) convention the round trip carries a residual factor
    tanh(2 pi lam)/tanh(pi lam), below 1e-4 for lam >= 1.6.
    """
    if weight.variant == "harmonic_tanh_pi":
        return 1.0 / (TWO_PI * math.pi)
    return 1.0 / TWO_PI


# ---------------------------------------------------------------------------
# Abel transform leg
# ---------------------------------------------------------------------------

def abel_transform(k: RadialKernel, n: int = 200) -> AbelProfile:
    """g(u) = sqrt2 int_{|u|}^T k(r) sinh r / sqrt(cosh r - cosh u) dr.

    The inverse square root is singular at r = |u|; on [|u|, mid], with
    mid = min(|u| + 1, T), the variable v = sqrt(cosh r - cosh u) removes it
    (sqrt_edge_rule, n nodes a panel), and [mid, T] is integrated in r
    directly (max(n, 32 ceil(16 length / 32)) nodes a panel, rounded up to a
    multiple of 32 so that the u share a few Gauss-Legendre rules).  Both
    stretches are split at the kernel's knots.  The profile takes all its u
    at once: each knot interval, clipped to every u's two stretches, gives
    one broadcast rule, and the kernel sees the nodes of blocks of u, at most
    _BLOCK nodes a call.  Empty panels are dropped; each u sums its panels
    in the order of r.
    """
    if not math.isfinite(k.support_bound):
        raise ValueError("Abel transform implemented for compactly supported kernels")
    T = k.support_bound
    intervals = _panels(0.0, T, k.breakpoints)
    # a u has at most one panel per stretch and interval: bound its nodes
    most = sum(n + max(n, 32 * math.ceil(16 * (hi - lo) / 32)) for lo, hi in intervals)
    per_block = max(1, _BLOCK // most)

    def panel_sums(u):
        """Per-panel sums of k(r) sinh r / sqrt(cosh r - cosh u) w, and their u."""
        mid = np.minimum(u + 1.0, T)
        panels = []          # (owner, nodes, sqrt(cosh r - cosh u), weights)
        for lo, hi in intervals:
            a, b = np.clip(lo, u, mid), np.clip(hi, u, mid)
            take = np.flatnonzero(b > a)
            if take.size:
                r, v, w = sqrt_edge_rule(u[take], a[take], b[take], n)
                panels.append((take, r, v, w))
            a = np.maximum(lo, mid)
            take = np.flatnonzero(hi > a)
            n_tail = np.maximum(n, 32 * np.ceil(16 * (hi - a[take]) / 32).astype(int))
            for m in np.unique(n_tail):
                sel = take[n_tail == m]
                r, w = gauss_legendre(a[sel, None], hi, m)
                panels.append((sel, r, np.sqrt(cosh_diff(r, u[sel, None])), w))
        kr = k(np.concatenate([p[1].ravel() for p in panels]))
        sums, start = [], 0
        for _, r, d, w in panels:
            kv = kr[start:start + r.size].reshape(r.shape)
            start += r.size
            sums.append(np.sum(kv * np.sinh(r) / d * w, axis=-1))
        return np.concatenate([p[0] for p in panels]), np.concatenate(sums)

    def g(us):
        us = np.abs(np.atleast_1d(np.asarray(us, dtype=float)))
        out = np.zeros(us.shape)
        live = np.flatnonzero(us < T)
        for s in range(0, live.size, per_block):
            idx = live[s:s + per_block]
            owner, sums = panel_sums(us[idx])
            # bincount adds each u's panel sums in the order they were made
            out[idx] = math.sqrt(2.0) * np.bincount(owner, weights=sums, minlength=idx.size)
        return out

    return AbelProfile(lambda u: g(u) if np.ndim(u) else float(g(np.array([u]))[0]),
                       support_bound=T, breakpoints=k.breakpoints)


def abel_sharp(t: float) -> AbelProfile:
    """Closed-form Abel profile of the sharp ball kernel (cosh t)^{-1/2} 1_{r<=t}."""
    if not 0 < t < math.inf:
        raise ParameterOutOfRange("t must be positive and finite")

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
    support edge, so the tail piece from sqrt_edge_split(S) on is integrated
    in the variable v = sqrt(cosh S - cosh u), where the integrand is smooth.
    Every panel takes n = max(192, 16 S (1 + max lambda / 4)) nodes, refined once.
    """
    if not math.isfinite(g.support_bound):
        raise ValueError("profile must have compact support")
    S = g.support_bound
    split = sqrt_edge_split(S)
    plain, tail = _panels(0.0, split, g.breakpoints), _panels(split, S, g.breakpoints)

    def h(lams):
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        n = max(192, int(16 * S * (1.0 + float(np.max(lams)) / 4.0)))

        def rule(mult):
            cur = np.zeros(lams.shape)
            for lo, hi in plain:
                u, w = gauss_legendre(lo, hi, mult * n)
                cur = cur + 2.0 * np.cos(np.multiply.outer(lams, u)) @ (g(u) * w)
            for lo, hi in tail:
                u, _, w = sqrt_edge_rule(S, lo, hi, mult * n)
                cur = cur + 2.0 * np.cos(np.multiply.outer(lams, u)) @ (g(u) * w)
            return cur

        return refined(rule, 3e-8, "Fourier of Abel profile did not stabilize")

    return SpectralMultiplier(lambda lam: h(lam) if np.ndim(lam) else float(h(lam)[0]))


# ---------------------------------------------------------------------------
# Helgason transform, symbol kernels, HS norm
#
# The symbol contract: a(z, lam, b) takes chart points z and unit-modulus
# boundary points b as arrays that broadcast elementwise (z of shape (n, 1)
# against b of shape (m,), say, or both of shape (n, m)) and the frequency
# lam as one float, and returns values that broadcast to their common shape.
# Every consumer calls a once per lambda node, with all its points.
# ---------------------------------------------------------------------------

def helgason_forward(u: Callable[[np.ndarray], np.ndarray], n_rad: int = 120,
                     n_ang: int = 256):
    """u-hat(lambda, b) = int_D exp((1/2 - i lambda)<z, b>) u(z) dmu(z).

    u maps an array of complex chart points to values, with support inside
    |z| <= 0.95; it is called once, on the flat array of the n_rad * n_ang
    nodes of ball_rule on the ball about 0 of that chart radius.  Returns a
    callable of (lambda, boundary angle).
    """
    Z, _, area_w = ball_rule(0.0, 2.0 * math.atanh(0.95), n_rad, n_ang)
    U = u(Z)

    def transform(lam: float, b_angle: float) -> complex:
        bus = _busemann_array(Z, np.exp(1j * b_angle))
        return complex(np.sum(np.exp((0.5 - 1j * lam) * bus) * U * area_w))

    return transform


def kernel_from_symbol(a: Callable[[np.ndarray, float, np.ndarray], np.ndarray],
                       lambda_support: tuple, weight: PlancherelWeight,
                       n_lam: int = 96, n_ang: int = 256):
    """Kernel of Op(a):

    K(z, w) = (1/2pi) iint a(z, lam, b) e^{(1/2+i lam)<z,b>} e^{(1/2-i lam)<w,b>}
              w(lam) db dlam.

    a follows the symbol contract: each K(z, w) calls it once per lambda
    node, with the point z and the n_ang boundary nodes.
    """
    lam, wl = gauss_legendre(lambda_support[0], lambda_support[1], n_lam)
    b = np.exp(1j * TWO_PI * np.arange(n_ang) / n_ang)
    lam_w = wl * weight(lam) / n_ang          # db = 2 pi / n_ang, times 1 / 2 pi

    def K(z: complex, w: complex) -> complex:
        av = np.array([np.broadcast_to(a(z, float(l), b), b.shape) for l in lam])
        waves = np.exp(np.multiply.outer(0.5 + 1j * lam, _busemann_array(z, b))
                       + np.multiply.outer(0.5 - 1j * lam, _busemann_array(w, b)))
        return complex(lam_w @ np.sum(av * waves, axis=1))

    return K


def hs_norm_disc(a: Callable[[np.ndarray, float, np.ndarray], np.ndarray],
                 z_support_radius: float, lambda_support: tuple,
                 weight: PlancherelWeight,
                 n_rad: int = 48, n_zang: int = 64, n_lam: int = 48,
                 n_bang: int = 128) -> float:
    """Squared HS norm of Op(a) on the disc via the Plancherel identity.

    ||Op(a)||_HS^2 = iiint |a(z, lam, b)|^2 e^{<z,b>} W(lam) dmu(z) dlam db,
    with W = weight.hs_weight, the weight that makes the identity exact for
    kernels built by kernel_from_symbol under the same convention.  a follows
    the symbol contract: it is called once per lambda node, n_lam times in
    all, with z the (n_rad * n_zang, 1) nodes of ball_rule about 0 (chart
    radius z_support_radius) and b the (n_bang,) array of boundary nodes.
    """
    z, _, w_z = ball_rule(0.0, 2.0 * math.atanh(z_support_radius), n_rad, n_zang)
    z = z[:, None]
    lam, wl = gauss_legendre(lambda_support[0], lambda_support[1], n_lam)
    b = np.exp(1j * TWO_PI * np.arange(n_bang) / n_bang)
    lam_w = wl * np.asarray(weight.hs_weight(lam), dtype=float)
    pz = np.exp(_busemann_array(z, b)) * (TWO_PI / n_bang)
    total = 0.0
    for l, w_l in zip(lam, lam_w):
        total += w_l * float(w_z @ np.sum(np.abs(a(z, float(l), b)) ** 2 * pz, axis=1))
    return total


# ---------------------------------------------------------------------------
# Convenience multipliers
# ---------------------------------------------------------------------------

def bump_multiplier(lo: float, hi: float) -> SpectralMultiplier:
    """Smooth compactly supported bump on [lo, hi], sup value 1."""
    if not (0 <= lo < hi < math.inf):
        raise ParameterOutOfRange("need 0 <= lo < hi < inf")

    def f(lam):
        lam = np.asarray(lam, dtype=float)
        x = (2.0 * lam - (lo + hi)) / (hi - lo)
        out = np.zeros_like(lam)
        inside = np.abs(x) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
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
