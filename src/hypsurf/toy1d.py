"""Exactly solvable 1-D model: Dirichlet interval of growing length.

Eigenpairs are nu_k = (k pi / L)^2 with psi_k = sqrt(2/L) sin(k pi x / L).
For a bounded observable a the matrix element deviates from the flat mean
by a single Fourier coefficient,

    <psi_k, a psi_k> - (1/L) int a  =  -(1/L) int_0^L a(x) cos(2 k pi x / L) dx,

so Parseval bounds the windowed variance by M^2 / N(L, I) exactly.  Both
sides are computed here: the variance by exact piecewise integration (step
observables) or composite Gauss-Legendre (callables), the bound from the
eigenvalue count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyWindow, ParameterOutOfRange
from .quadrature import composite_gl


@dataclass(frozen=True)
class StepObservable:
    """Piecewise-constant observable: values[i] on [edges[i], edges[i+1])."""

    edges: tuple   # increasing, edges[0] = 0, edges[-1] = 1 (fractions of L)
    values: tuple

    def __post_init__(self):
        if len(self.edges) != len(self.values) + 1:
            raise ValueError("need one more edge than values")
        if self.edges[0] != 0.0 or self.edges[-1] != 1.0:
            raise ValueError("edges must span [0, 1]")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must increase")

    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values)

    def cos_coefficient(self, L: float, k: int) -> float:
        """(1/L) int_0^L a(x) cos(2 k pi x / L) dx, exactly."""
        w = 2.0 * k * math.pi / L
        total = 0.0
        for v, a, b in zip(self.values, self.edges, self.edges[1:]):
            total += v * (math.sin(w * b * L) - math.sin(w * a * L)) / w
        return total / L


def alternating_step(n_blocks: int = 10) -> StepObservable:
    """Sign-alternating step of unit sup norm."""
    if n_blocks < 1:
        raise ParameterOutOfRange("n_blocks must be >= 1")
    edges = tuple(i / n_blocks for i in range(n_blocks + 1))
    values = tuple(1.0 if i % 2 == 0 else -1.0 for i in range(n_blocks))
    return StepObservable(edges, values)


@dataclass(frozen=True)
class Toy1dReport:
    L: float
    n_modes: int
    variance: float
    parseval_bound: float

    @property
    def passed(self) -> bool:
        return self.variance <= self.parseval_bound + 1e-15


def window_mode_range(L: float, window) -> range:
    """Dirichlet modes with (k pi / L)^2 inside the window [lo, hi]."""
    lo, hi = window
    if not all(map(math.isfinite, (L, lo, hi))):
        raise ParameterOutOfRange("L and the window must be finite")
    if not (L > 0 and lo < hi):
        raise ParameterOutOfRange("need L > 0 and a window lo < hi")
    k_lo = int(math.ceil(math.sqrt(max(lo, 0.0)) * L / math.pi - 1e-12))
    k_hi = int(math.floor(math.sqrt(hi) * L / math.pi + 1e-12))
    return range(max(k_lo, 1), k_hi + 1)


def toy1d_variance(L: float, window, a, M: float | None = None) -> Toy1dReport:
    """Quantum variance of the interval model over a spectral window.

    a: StepObservable (integrated exactly) or callable on [0, L] (composite
    Gauss-Legendre, 12 nodes on each of max(8, 2 k_max) panels, resolving
    every cosine oscillation).  M: declared sup
    bound; inferred for step observables.
    """
    ks = window_mode_range(L, window)
    if len(ks) == 0:
        raise EmptyWindow(f"no Dirichlet mode of [0, {L}] in {window}")
    if isinstance(a, StepObservable):
        coeffs = np.array([a.cos_coefficient(L, k) for k in ks])
        M = a.sup_norm() if M is None else M
    else:
        if M is None:
            raise ValueError("callable observables need an explicit sup bound M")
        k_max = ks[-1]
        x, w = composite_gl(0.0, L, n_panels=max(8, 2 * k_max),
                            n_per_panel=12)
        ax = np.asarray([a(float(xx)) for xx in x], dtype=float)
        karr = np.array(list(ks), dtype=float)
        coeffs = (np.cos(np.multiply.outer(karr, x) * (2.0 * math.pi / L)) @ (ax * w)) / L
    variance = float(np.mean(coeffs ** 2))
    bound = M * M / len(ks)
    return Toy1dReport(L, len(ks), variance, bound)


def mode_count_density(L_values: Sequence[float], window) -> list:
    """N(L, I) / L for each L; tends to a constant depending on the window."""
    return [len(window_mode_range(L, window)) / L for L in L_values]
