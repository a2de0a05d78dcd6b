"""Hyperbolic geometry of the Poincare disc and its isometry group.

Conventions
-----------
The disc carries the metric ds^2 = 4|dz|^2 / (1-|z|^2)^2 (curvature -1).
Orientation-preserving isometries are Mobius maps

    g(z) = (alpha*z + beta) / (conj(beta)*z + conj(alpha)),
    |alpha|^2 - |beta|^2 = 1,

i.e. PSU(1,1); the pair (alpha, beta) and (-alpha, -beta) describe the same
isometry and are identified by a canonical sign.  The half-plane model is
reached through the Cayley map z -> (z - i)/(z + i), which sends i to 0 and
the boundary points 0, infinity to -1, +1.  Group elements decompose as
g = a_s n_u k_theta (geodesic flow, horocycle flow, rotation), computed in
the half-plane picture where a_s, n_u, k_theta are the usual upper-triangular
and rotation matrices of PSL(2, R).

The signed horocyclic distance <z, b> ("Busemann radius") satisfies
exp(<z,b>) = (1 - |z|^2)/|z - b|^2, the Poisson kernel of the disc.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_DISC_EDGE = 1.0 - 1e-12


@dataclass(frozen=True)
class DiscPoint:
    """Point z = re + i*im of the open unit disc."""

    re: float
    im: float

    def __post_init__(self):
        if self.re * self.re + self.im * self.im >= _DISC_EDGE * _DISC_EDGE:
            raise ValueError(f"point {self.re}+{self.im}j too close to the boundary")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @staticmethod
    def from_complex(z: complex) -> "DiscPoint":
        return DiscPoint(z.real, z.imag)


@dataclass(frozen=True)
class BoundaryPoint:
    """Point b = exp(i*angle) of the boundary circle, angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle) % (2.0 * math.pi))

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.angle)

    @staticmethod
    def from_complex(b: complex) -> "BoundaryPoint":
        return BoundaryPoint(cmath.phase(b))


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point x + i*y of the upper half-plane, y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if self.y <= 0:
            raise ValueError("half-plane point needs Im z > 0")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _canonical_sign(alpha: complex, beta: complex):
    for v in (alpha.real, alpha.imag, beta.real, beta.imag):
        if abs(v) > 1e-14:
            return (alpha, beta) if v > 0 else (-alpha, -beta)
    return alpha, beta


@dataclass(frozen=True)
class GroupElement:
    """PSU(1,1) isometry stored as a normalized SU(1,1) representative.

    The matrix is [[alpha, beta], [conj(beta), conj(alpha)]].  Construction
    renormalizes the determinant to 1 and fixes the projective sign so that
    equal isometries compare equal componentwise.  A product of normalized
    elements has determinant 1 already (it is multiplicative) and gets only
    the sign fix: the float determinant |alpha|^2 - |beta|^2 cancels
    catastrophically once |alpha| is large.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        det = abs(self.alpha) ** 2 - abs(self.beta) ** 2
        if det <= 0:
            raise ValueError("not an SU(1,1) matrix: |alpha|^2 - |beta|^2 <= 0")
        s = 1.0 / math.sqrt(det)  # always renormalize; cheap and exact enough
        a, b = _canonical_sign(complex(self.alpha) * s, complex(self.beta) * s)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @staticmethod
    def _unit(alpha: complex, beta: complex) -> "GroupElement":
        """The element of a determinant-1 pair: the sign fix only."""
        g = object.__new__(GroupElement)
        a, b = _canonical_sign(alpha, beta)
        object.__setattr__(g, "alpha", a)
        object.__setattr__(g, "beta", b)
        return g

    # -- group structure -------------------------------------------------
    def compose(self, other: "GroupElement") -> "GroupElement":
        a1, b1, a2, b2 = self.alpha, self.beta, other.alpha, other.beta
        return GroupElement._unit(a1 * a2 + b1 * b2.conjugate(),
                                  a1 * b2 + b1 * a2.conjugate())

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return self.compose(other)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.alpha.conjugate(), -self.beta)

    def almost_equal(self, other: "GroupElement", tol: float = 1e-9) -> bool:
        return (abs(self.alpha - other.alpha) <= tol
                and abs(self.beta - other.beta) <= tol)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0 + 0j, 0j)

    @staticmethod
    def rotation(theta: float) -> "GroupElement":
        """Rotation about the origin: z -> exp(-i*theta) z (k_theta)."""
        return GroupElement(cmath.exp(-0.5j * theta), 0j)

    @staticmethod
    def geodesic(s: float) -> "GroupElement":
        """Geodesic-flow element a_s; moves 0 to tanh(s/2) along the real axis."""
        return GroupElement(math.cosh(s / 2.0), math.sinh(s / 2.0))

    @staticmethod
    def horocycle(u: float) -> "GroupElement":
        """Horocycle-flow element n_u."""
        return GroupElement(1.0 + 0.5j * u, -0.5j * u)

    @staticmethod
    def translation(axis_angle: float, length: float) -> "GroupElement":
        """Hyperbolic translation by `length` along the ray at `axis_angle`."""
        ph = cmath.exp(1j * axis_angle)
        return GroupElement(math.cosh(length / 2.0), ph * math.sinh(length / 2.0))

    @staticmethod
    def translation_to(z: DiscPoint) -> "GroupElement":
        """The unique positive translation moving 0 to z."""
        r = abs(z.z)
        d = 1.0 / math.sqrt(1.0 - r * r)
        return GroupElement(d, z.z * d)

    def to_psl2r(self) -> np.ndarray:
        al, be = self.alpha, self.beta
        a = al.real + be.real
        d = al.real - be.real
        b = al.imag - be.imag
        c = -al.imag - be.imag
        return np.array([[a, b], [c, d]])


@dataclass(frozen=True)
class AnkCoords:
    """Iwasawa coordinates g = a_s n_u k_theta."""

    s: float
    u: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))


@dataclass(frozen=True)
class UnitTangent:
    """Unit tangent vector encoded as (base point, forward boundary point)."""

    base: DiscPoint
    dir: BoundaryPoint


# ---------------------------------------------------------------------------
# Mobius action
# ---------------------------------------------------------------------------

def mobius_apply(g: GroupElement, p):
    """Apply the Mobius map of g; DiscPoint -> DiscPoint, BoundaryPoint -> BoundaryPoint."""
    if isinstance(p, DiscPoint):
        z = p.z
        w = (g.alpha * z + g.beta) / (g.beta.conjugate() * z + g.alpha.conjugate())
        return DiscPoint(w.real, w.imag)
    if isinstance(p, BoundaryPoint):
        b = p.z
        w = (g.alpha * b + g.beta) / (g.beta.conjugate() * b + g.alpha.conjugate())
        return BoundaryPoint(cmath.phase(w))
    raise TypeError(f"cannot apply a Mobius map to {type(p).__name__}")


def mobius_apply_complex(g: GroupElement, z: complex) -> complex:
    """Raw Mobius action on a complex number (no domain checks)."""
    return (g.alpha * z + g.beta) / (g.beta.conjugate() * z + g.alpha.conjugate())


def _mobius_array(alpha, beta, z):
    """Mobius action of the elements (alpha, beta) on z; numpy, broadcasting."""
    return (alpha * z + beta) / (np.conj(beta) * z + np.conj(alpha))


# ---------------------------------------------------------------------------
# Distance, Busemann, Poisson
# ---------------------------------------------------------------------------

def hyp_distance(z: DiscPoint, w: DiscPoint) -> float:
    """Hyperbolic distance; evaluated as 2*asinh(...) so tiny distances survive."""
    return _dist_complex(z.z, w.z)


def _dist_complex(z: complex, w: complex) -> float:
    """Distance of two chart points; math on scalars, for Python loops."""
    num = abs(z - w) ** 2
    den = (1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)
    # cosh d = 1 + 2 num/den;  d = 2 asinh(sqrt(num/den)) avoids cancellation
    return 2.0 * math.asinh(math.sqrt(num / den))


def _dist_array(z, w):
    """The distance formula of _dist_complex on numpy arrays (broadcasting)."""
    num = np.abs(z - w) ** 2
    den = (1.0 - np.abs(z) ** 2) * (1.0 - np.abs(w) ** 2)
    return 2.0 * np.arcsinh(np.sqrt(num / den))


def point_at_distance(t: float, angle: float = 0.0) -> DiscPoint:
    """The disc point at hyperbolic distance t from 0 in direction angle."""
    r = math.tanh(t / 2.0)
    return DiscPoint(r * math.cos(angle), r * math.sin(angle))


def busemann(z: DiscPoint, b: BoundaryPoint) -> float:
    """Signed horocyclic distance <z, b> = log((1-|z|^2)/|z-b|^2)."""
    return _busemann_complex(z.z, b.z)


def _busemann_complex(z: complex, b: complex) -> float:
    """<z, b> of a chart point and a unit-modulus b; math on scalars."""
    return math.log1p(-abs(z) ** 2) - 2.0 * math.log(abs(z - b))


def _busemann_array(z, b):
    """The Busemann formula of _busemann_complex on numpy arrays (broadcasting)."""
    return np.log1p(-np.abs(z) ** 2) - 2.0 * np.log(np.abs(z - b))


def poisson_weight(z: DiscPoint, b: BoundaryPoint) -> float:
    """Poisson kernel P(z, b) = exp(<z, b>)."""
    zz = z.z
    return (1.0 - abs(zz) ** 2) / abs(zz - b.z) ** 2


def boundary_angle_derivative(g: GroupElement, b: BoundaryPoint) -> float:
    """d(angle of g*b)/d(angle of b) = |g'(b)| = 1 / |conj(beta) b + conj(alpha)|^2."""
    return 1.0 / abs(g.beta.conjugate() * b.z + g.alpha.conjugate()) ** 2


# ---------------------------------------------------------------------------
# ANK decomposition and flows
# ---------------------------------------------------------------------------

def ank_decompose(g: GroupElement) -> AnkCoords:
    """Factor g = a_s n_u k_theta (computed from the PSL(2,R) picture)."""
    m = g.to_psl2r()
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    s = -math.log(c * c + d * d)
    u = a * c + b * d
    theta = 2.0 * math.atan2(c, d)
    return AnkCoords(s, u, theta)


def ank_compose(coords: AnkCoords) -> GroupElement:
    g = (GroupElement.geodesic(coords.s)
         @ GroupElement.horocycle(coords.u)
         @ GroupElement.rotation(coords.theta))
    return g


def flow(g: GroupElement, which: str, amount: float) -> GroupElement:
    """Right-multiply g by a_s, n_u or k_theta ('geodesic'|'horocycle'|'rotation')."""
    if which == "geodesic":
        return g @ GroupElement.geodesic(amount)
    if which == "horocycle":
        return g @ GroupElement.horocycle(amount)
    if which == "rotation":
        return g @ GroupElement.rotation(amount)
    raise ValueError(f"unknown flow {which!r}")


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def cayley(p: HalfPlanePoint) -> DiscPoint:
    """Half-plane -> disc isometry z -> (z - i)/(z + i)."""
    z = p.z
    w = (z - 1j) / (z + 1j)
    return DiscPoint(w.real, w.imag)


def cayley_inverse(p: DiscPoint) -> HalfPlanePoint:
    w = p.z
    z = 1j * (1.0 + w) / (1.0 - w)
    return HalfPlanePoint(z.real, z.imag)


def halfplane_distance(p: HalfPlanePoint, q: HalfPlanePoint) -> float:
    num = abs(p.z - q.z) ** 2
    return 2.0 * math.asinh(0.5 * math.sqrt(num / (p.y * q.y)))


# ---------------------------------------------------------------------------
# Unit tangent bundle <-> group
# ---------------------------------------------------------------------------

_BASE_DIRECTION = BoundaryPoint(0.0)  # the boundary point +1


def group_to_tangent(g: GroupElement) -> UnitTangent:
    """g -> g * (0, +1)."""
    base = mobius_apply(g, DiscPoint(0.0, 0.0))
    dirn = mobius_apply(g, _BASE_DIRECTION)
    return UnitTangent(base, dirn)


def tangent_to_group(v: UnitTangent) -> GroupElement:
    """Inverse of group_to_tangent."""
    t = GroupElement.translation_to(v.base)
    w = mobius_apply(t.inverse(), v.dir)
    # rotation(theta) maps +1 to exp(-i theta)
    return t @ GroupElement.rotation(-w.angle)
