"""Quadrature helpers used throughout the toolkit.

Two workhorses: Gauss-Legendre rules (cached nodes, plain or composite) for
integrals over intervals, and the periodic trapezoid rule with node doubling
for integrals of analytic periodic functions over the circle.  Convergence is
always assessed by comparing successive refinements; failure to stabilize
raises :class:`~hypsurf.errors.QuadratureNotConverged`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureNotConverged


@lru_cache(maxsize=None)
def _gl_rule(n: int):
    x, w = roots_legendre(n)
    return x, w


def gauss_legendre(a: float, b: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = _gl_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def composite_gl(a: float, b: float, n_panels: int, n_per_panel: int = 8):
    """Composite Gauss-Legendre rule: n_panels equal panels on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(lo, hi, n_per_panel)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def cosh_diff(a, b):
    """cosh a - cosh b, formed as 2 sinh((a+b)/2) sinh((a-b)/2) so that close
    arguments keep their digits (cosh a - cosh b cancels for small a, b)."""
    return 2.0 * np.sinh(0.5 * (a + b)) * np.sinh(0.5 * (a - b))


def sqrt_edge_rule(c, a, b, n: int):
    """n-point Gauss-Legendre rule for int_a^b f(x) dx in v = sqrt|cosh c - cosh x|.

    The panel [a, b] lies on one side of the edge c: below it (b <= c, the
    upper edge, cosh x = cosh c - v^2) or above it (a >= c, the lower edge,
    cosh x = cosh c + v^2).  A factor 1/sqrt|cosh c - cosh x| = 1/v, singular
    at x = c, is then smooth in v.  Nodes are mapped as
    x = 2 asinh(sqrt(sinh^2(c/2) -+ v^2/2)), which keeps every digit near 0.

    c, a and b broadcast; the nodes run along a new last axis.  Returns
    (x, v, w): nodes, their v, and weights including dx/dv = 2 v / sinh x.
    """
    c, a, b = (np.asarray(y, dtype=float) for y in (c, a, b))
    va = np.sqrt(np.abs(cosh_diff(c, a)))[..., None]
    vb = np.sqrt(np.abs(cosh_diff(c, b)))[..., None]
    y, wy = _gl_rule(n)
    v = 0.5 * (vb - va) * y + 0.5 * (va + vb)
    half = np.where(a >= c, 0.5, -0.5)[..., None]
    s2 = np.sinh(0.5 * c)[..., None] ** 2 + half * (v * v)
    s = np.sqrt(s2)
    # sinh x = 2 s sqrt(1 + s^2), so dx/dv = v / (s sqrt(1 + s^2))
    w = (0.5 * np.abs(vb - va) * wy) * v / (s * np.sqrt(1.0 + s2))
    return 2.0 * np.arcsinh(s), v, w


def trapezoid_periodic(f, n0: int = 64):
    """Integrate f over [0, 2 pi), doubling nodes until the change is at most
    1e-9 max(1, |integral|).

    f must accept a vector of sample angles.  Spectrally accurate for
    analytic integrands; raises QuadratureNotConverged past 2^21 nodes.
    """
    tol, max_nodes, period = 1e-9, 1 << 21, 2.0 * np.pi
    n = n0
    theta = period * np.arange(n) / n
    prev = np.sum(f(theta)) * (period / n)
    while n < max_nodes:
        # reuse existing nodes: new samples sit halfway between old ones
        theta_new = theta + period / (2 * n)
        add = np.sum(f(theta_new)) * (period / (2 * n))
        cur = prev / 2.0 + add
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        theta = np.sort(np.concatenate([theta, theta_new]))
        n *= 2
        prev = cur
    raise QuadratureNotConverged(
        f"periodic trapezoid did not stabilize below {tol} within {max_nodes} nodes")
