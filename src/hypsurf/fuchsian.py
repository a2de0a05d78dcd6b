"""Finitely generated Fuchsian groups and their desk-scale statistics.

Orbit balls and injectivity-radius queries share one breadth-first search
over reduced words (no generator next to its own inverse).  The search is
level-synchronous: all children of a level come from one numpy product.
First-found order is parent order, then generator order; each element
carries its rank in it and the first word that reached it.  Each caller
prunes which elements the search expands.  The systole bound and the
periodization read complete orbit balls.

Exact elements.  A group with a relation carries exact coordinates of its
generators (FuchsianGroup.exact_coords), and the search identifies its
elements exactly.  For the octagon group every element is 8 integers:
alpha = a and beta = lambda b with a, b in Z[zeta], zeta = e^{i pi / 4},
zeta^4 = -1, and lambda^2 = 2 + 2 sqrt 2 = 2 + 2 zeta - 2 zeta^3.  A product
(a, lambda b)(a', lambda b') is (a a' + lambda^2 b conj(b'), lambda (a b' +
b conj(a'))), so right multiplication by a generator is an 8 x 8 integer
matrix, and a level's children are one int64 product with the matrices of
all generators side by side.  The projective sign makes the first nonzero
integer positive, and alpha and beta for the geometry are evaluated from the
integers.  The dedup keeps the first element of every set of equal ones: a
64-bit hash of the 8 integers only orders the rows (a stable argsort within
the level, searchsorted against the sorted hashes of the elements seen), and
rows are equal only when their integers are, so rows whose hashes collide
are told apart.  The search raises before a coefficient could overflow an
int64 product.  A free group (the cyclic and trivial presets) composes
floats with no dedup at all: its distinct reduced words are distinct
elements.

Tile prune.  When a group declares a Dirichlet radius R_D, its symmetrized
generators pair the sides of the Dirichlet domain D at 0 (see
FuchsianGroup), so the tile gD shares a side with each tile g s D, s a
symmetrized generator, and lies in the ball B(g 0, R_D).  The tiles that
meet a convex ball B(c, R') are connected through shared sides.  For c in
D take R' = R: every gamma with d(c, gamma c) <= R has gamma c in gamma D,
so its tile meets B(c, R).  For c outside D take R' = R + d(0, c): the ball
holds 0 and every such gamma 0.  A search that expands g while gD can still
meet B(c, R') therefore reaches every such gamma, and it runs until its
frontier is empty, which makes the ball complete.  Two necessary conditions
decide "can still meet", each with a margin of 1e-9 on R':
- Centre test: d(c, g 0) <= R' + R_D, because gD lies in B(g 0, R_D).
- Side test, run only on the elements that pass the centre test: d(c, g
  H_s) <= R' for every symmetrized generator s, where H_s = {z : d(z, 0) <=
  d(z, s 0)}.  Proof: D is the intersection of the H_s, so gD lies in each
  g H_s and d(c, gD) >= max_s d(c, g H_s).  When c is outside g H_s, its
  distance to the bisector of g 0 and g s 0 is given by sinh d(c, g H_s) =
  (cosh d(c, g 0) - cosh d(c, g s 0)) / (2 sinh(d(0, s 0) / 2)).
Both tests are taken in sinh^2(d / 2) = |c conj(alpha) - beta|^2 / (1 -
|c|^2) of the element (alpha, beta), where cosh d = 1 + 2 sinh^2(d / 2), so
nothing cancels at large radii, and sinh(d(0, s 0) / 2) = |beta_s|.  With
the side test the Bolza ball of radius 8 at 0 finds 33,504 elements
instead of 58,208, and the one of radius 12 1,905,640 instead of 3,203,016
(one row per element).  The balls need not come out word for word as with
the centre test alone (a narrower search may first reach an element by
another word), but on every centre and radius checked they did, to the
last bit.

Groups without a Dirichlet radius (the cyclic and trivial presets) expand g
while d(c, g c) <= R + max generator displacement + 1; for a cyclic group
the displacement grows along the powers of the generator, so this loses
nothing.

Rotation.  The rotation r(w) = zeta w fixes 0, and r g r^-1 takes (a,
lambda b) to (a, lambda zeta b): on a coordinate row it leaves a, and with it
the projective sign, alone and turns b into zeta b.  _rotation reads off the
exact generator rows whether it permutes the symmetrized generators; for the
octagon group it takes generator i to i + 1 mod 8, so r normalizes Gamma.
A ball at 0 then runs the level loop on one row per orbit {r^j g r^-j : j <
8}, its least turn (the lexicographically least row, chosen on the
integers), and turns the rows it keeps back at the end.  The quotient is
exact:
- r fixes 0 and permutes the generators with the half-planes H_s, so the
  centre test, the side test and the displacement prune decide every turn
  of g as they decide g, and the children of r^j g r^-j are the turns of the
  children of g: level by level the rows are the plain search modulo r.
- Gamma is torsion-free: r^j g r^-j = g with 0 < j < 8 means zeta^j b = b,
  so b = 0 and g fixes 0, and only the identity does.  Every other orbit
  has 8 elements.  (A row with b = 0 is listed once all the same.)
- A level's first-found order is the shortlex order of the first-found
  words, by induction on the level.  If the least turn of the product of a
  row p and generator h is turn m of the product, then turn j of it is
  reached from turn j + m of p with generator sigma^(j+m)(h).  So the least
  (parent rank, generator) over all the rows that found an element ranks
  each of its turns and names the turn's first finder, along which the
  words are read back.  The ball keeps the order, the words and the bits of
  the plain search: each turn's floats and displacement come from its own
  exact row.
The Bolza ball of radius 8 at 0 finds 4,188 rows instead of 33,504, and the
one of radius 12 238,205 instead of 1,905,640.  Balls off 0, groups the
rotation does not map to themselves and injrad_below_points run the same
loop with one turn per element.

Shared injectivity-radius search.  injrad_below_points decides InjRad < R at
every point of a sample, on every sheet, from one search at radius 2R.
Each level's new elements are tested at every point still open: an element
that moves the point by less than 2R is a witness for the sheets its sheet
map fixes, a point closes once every sheet has a witness, and an element is
expanded when the prune of some open point keeps it.  The answers are those
of one search per point and sheet:
- A level carries each element's whole sheet map, which does not depend on
  the word that reached the element: the sheet action is a homomorphism.
- The prune is a function of the element, and every element an open point's
  own search expands is expanded.  By induction on the level, the point's
  own complete search tree lies in the shared one, each element reached no
  later; an element first reached by another word is the same element,
  because equality is exact.
- A witness is decided by its displacement, not by being reached, so the
  extra elements of the shared tree cannot make false hits: a witness among
  them is one the point's own complete search finds too.

Systole.  A hyperbolic gamma of translation length l whose axis lies at
distance delta from 0 moves 0 by sinh(d(0, gamma 0) / 2) = cosh(delta)
sinh(l / 2) (Buser, Geometry and Spectra of Compact Riemann Surfaces,
1992).  Every closed geodesic has a lift whose axis meets D, where delta <=
R_D.  With l0 the least translation length among the generators, the
complete ball B(0, rho), sinh(rho / 2) = cosh(R_D) sinh(l0 / 2), therefore
holds such a lift of every closed geodesic no longer than l0, and its least
translation length is the systole.  Without a Dirichlet radius, rho is the
largest generator displacement at 0: the ball holds the generators, and the
value is an upper bound.

Injectivity radius at z is half the smallest displacement d(z, gamma z) over
nontrivial gamma.

Surfaces.  Every surface answers one contract: its base group `base`, its
`degree`, `volume()` and `sheets`, the (2n, degree) int table whose row i
is the sheet permutation of symmetrized generator i (s -> sheets[i, s]; the
inverses follow the generators).  A CoverSurface builds the table once from
one permutation per generator and checks it: the relation composes to the
identity and every sheet is reachable from sheet 0.  A FuchsianGroup is its
own degree-1 cover: its base is itself, and every generator fixes its one
sheet.  Every layer reads the contract and none asks which kind of surface
it has.  The built-in random covers use cyclic shifts (a random weight in
Z_n per generator), which automatically respect the surface relation because
every generator has zero net exponent in it.

The built-in cocompact preset is the genus-2 surface of the regular
hyperbolic octagon with vertex angle pi/4 and opposite-side pairings:
four translations of length 2 arccosh(1 + sqrt 2) along the rays at angles
k pi/4.  Its defining relation g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 = id,
checked on the exact coordinates, and the octagon area 4 pi are enforced as
construction invariants.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExceeded, NonTransitive, ParameterOutOfRange,
                     RelationViolation)
from .geometry import (DiscPoint, GroupElement, _dist_array, _dist_complex,
                       _mobius_array, mobius_apply_complex)
from .quadrature import gauss_legendre
from .transforms import _BLOCK, RadialKernel


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuchsianGroup:
    """Discrete isometry group given by generators (inverses implied).

    relation: defining relator as signed 1-based generator indices
    (+k = generator k-1, -k = its inverse); empty for free groups.
    dirichlet_radius: circumradius R_D of the Dirichlet domain D at 0 when
    the group is cocompact.  Setting it is a contract: the symmetrized
    generators are the face pairings of D, i.e. D is bounded exactly by the
    bisectors between 0 and the images of 0 under them.  Domain membership,
    the domain sampler and the tile prune of the orbit search rely on it.
    exact_coords: per generator the 8 integers of (a, b), alpha = a and
    beta = lambda b with a, b in Z[zeta] (coefficients of 1, zeta, zeta^2,
    zeta^3; zeta = e^{i pi / 4}, lambda = sqrt(2 + 2 sqrt 2)); see the
    module docstring.  A group with a relation must carry them, because the
    orbit search identifies its elements on them.  Construction checks that
    they evaluate to the generators within a relative 1e-15 and that the
    relation multiplies out to the exact identity.
    """

    generators: tuple
    label: str = ""
    covolume_hint: float | None = None
    relation: tuple = ()
    dirichlet_radius: float | None = None
    exact_coords: tuple | None = None

    def __post_init__(self):
        for g in self.generators:
            if not isinstance(g, GroupElement):
                raise TypeError("generators must be GroupElements")
        if self.exact_coords is None:
            if self.relation:
                raise ValueError(f"group {self.label!r} has a relation but no exact coordinates")
            return
        exact = np.asarray(self.exact_coords, dtype=np.int64)
        if exact.shape != (self.n_generators, 8):
            raise ValueError("exact_coords needs 8 integers per generator")
        floats = np.array([(g.alpha, g.beta) for g in self.generators]).reshape(-1, 2)
        if np.any(np.abs(np.column_stack(_exact_floats(exact)) - floats) > 1e-15 * np.abs(floats)):
            raise RelationViolation("exact coordinates do not evaluate to the generators")
        step, rel = _right_multiplication(self), _IDENTITY
        for gi in self.relation_word():
            rel = rel @ step[:, 8 * gi:8 * gi + 8]
        if not (np.array_equal(rel, _IDENTITY) or np.array_equal(rel, -_IDENTITY)):
            raise RelationViolation(f"relation of {self.label!r} is not the identity")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def symmetrized(self) -> list:
        """Generators followed by their inverses (index i + n = inverse of i)."""
        return list(self.generators) + [g.inverse() for g in self.generators]

    def relation_word(self) -> list:
        """The relator in symmetrized indices."""
        n = self.n_generators
        return [(abs(s) - 1) + (0 if s > 0 else n) for s in self.relation]

    def max_generator_displacement(self, center: complex = 0j) -> float:
        """max d(c, g c) over the generators g; 0 for the trivial group."""
        return float(np.max(_displacements(*_generator_arrays(self), center), initial=0.0))

    def volume(self) -> float:
        if self.covolume_hint is None:
            raise ValueError(f"group {self.label!r} has no covolume")
        return self.covolume_hint

    # the surface contract: the group is its own cover of degree 1
    @property
    def base(self) -> FuchsianGroup:
        return self

    @property
    def degree(self) -> int:
        return 1

    @property
    def sheets(self) -> np.ndarray:
        """Every symmetrized generator fixes the one sheet."""
        return np.zeros((2 * self.n_generators, 1), dtype=int)


def _generator_arrays(group: FuchsianGroup):
    """alpha and beta of the symmetrized generators, as two arrays."""
    gens = group.symmetrized()
    return (np.array([g.alpha for g in gens], dtype=complex),
            np.array([g.beta for g in gens], dtype=complex))


# Z[zeta], zeta = e^{i pi / 4}: rows of 4 integer coefficients of 1, zeta,
# zeta^2, zeta^3, with zeta^4 = -1 and conj(zeta^j) = -zeta^(4 - j)
_LAMBDA2 = np.array([2, 2, 0, -2], dtype=np.int64)    # lambda^2 = 2 + 2 sqrt 2
_LAMBDA = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
_SQRT_HALF = math.sqrt(0.5)
_IDENTITY = np.eye(1, 8, dtype=np.int64)[0]
_COEFF_LIMIT = 2 ** 40    # far below where an int64 product of the search overflows
_RANK_LIMIT = 2 ** 62     # word ranks are renumbered before they pass it
# odd multipliers of the 64-bit row hash of _SeenRows
_HASH_MULT = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                       0xD6E8FEB86659FD93, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53,
                       0x94D049BB133111EB, 0xBF58476D1CE4E5B9], dtype=np.uint64)
_ZETA_SHIFT = (np.arange(4) - np.arange(4)[:, None]) % 4
_ZETA_SIGN = np.where(np.arange(4) >= np.arange(4)[:, None], 1, -1)
# coefficient k of zeta^j b is _TURN_SIGN[j, k] b[_TURN_AT[j, k]], j < 8
_TURN_AT = np.tile(_ZETA_SHIFT, (2, 1))
_TURN_SIGN = np.concatenate([_ZETA_SIGN, -_ZETA_SIGN])


def _zeta_times(x: np.ndarray) -> np.ndarray:
    """Matrices of y -> y x on coefficient rows, for rows x of shape (..., 4):
    row j of each is zeta^j x."""
    return x[..., _ZETA_SHIFT] * _ZETA_SIGN


def _zeta_conj(x: np.ndarray) -> np.ndarray:
    return x[..., [0, 3, 2, 1]] * [1, -1, -1, -1]


def _right_multiplication(group: FuchsianGroup) -> np.ndarray:
    """(8, 8 * 2n) integer matrix: for the coordinate row e of an element,
    e @ M[:, 8 i:8 i + 8] is the row of e times symmetrized generator i.

    (a, b) times (ga, gb) is (a ga + lambda^2 b conj(gb), a gb + b conj(ga));
    the inverse of (ga, gb) is (conj(ga), -gb).
    """
    c = np.asarray(group.exact_coords, dtype=np.int64)
    ga = np.concatenate([c[:, :4], _zeta_conj(c[:, :4])])
    gb = np.concatenate([c[:, 4:], -c[:, 4:]])
    m = np.empty((len(ga), 8, 8), dtype=np.int64)
    m[:, :4, :4] = _zeta_times(ga)
    m[:, :4, 4:] = _zeta_times(gb)
    m[:, 4:, :4] = _zeta_times(_LAMBDA2 @ _zeta_times(_zeta_conj(gb)))
    m[:, 4:, 4:] = _zeta_times(_zeta_conj(ga))
    return m.transpose(1, 0, 2).reshape(8, -1)


def _exact_floats(coords: np.ndarray):
    """alpha and beta of the elements with coordinate rows coords."""
    c = coords.astype(float)
    alpha = np.empty(len(c), dtype=complex)
    beta = np.empty(len(c), dtype=complex)
    alpha.real = c[:, 0] + (c[:, 1] - c[:, 3]) * _SQRT_HALF
    alpha.imag = c[:, 2] + (c[:, 1] + c[:, 3]) * _SQRT_HALF
    beta.real = _LAMBDA * (c[:, 4] + (c[:, 5] - c[:, 7]) * _SQRT_HALF)
    beta.imag = _LAMBDA * (c[:, 6] + (c[:, 5] + c[:, 7]) * _SQRT_HALF)
    return alpha, beta


def _face_points(group: FuchsianGroup) -> np.ndarray:
    """Images of 0 under the symmetrized generators: for a group with a
    Dirichlet radius, the centres of the tiles across the sides of D."""
    return np.array([mobius_apply_complex(g, 0j) for g in group.symmetrized()])


def _sinh2_half_dists(z: complex, points: np.ndarray):
    """sinh^2(d/2) from z to 0 and to each point (monotone in the distance)."""
    own = abs(z) ** 2 / (1.0 - abs(z) ** 2)
    others = np.abs(z - points) ** 2 / (
        (1.0 - abs(z) ** 2) * (1.0 - np.abs(points) ** 2))
    return own, others


def _in_dirichlet_domain(z, points: np.ndarray):
    """Dirichlet-domain membership at 0: no face point is closer to z than 0,
    up to 1e-12 in sinh^2 of the half distances.

    points are the face points of the group (_face_points); with the face
    pairing contract of FuchsianGroup this is membership in D itself.  For an
    array of points, give z a trailing axis of length 1: the face points run
    along it.
    """
    own, others = _sinh2_half_dists(z, points)
    return (own <= others + 1e-12).all(axis=-1)


BOLZA_SIDE_LENGTH = 2.0 * math.acosh(1.0 + math.sqrt(2.0))
BOLZA_VERTEX_RADIUS = math.acosh(3.0 + 2.0 * math.sqrt(2.0))


def bolza_group() -> FuchsianGroup:
    """Genus-2 octagon group; relation and 4*pi area are checked invariants.

    Generator k is alpha = cosh(l / 2) = 1 + sqrt 2 = 1 + zeta - zeta^3 and
    beta = e^{i k pi / 4} sinh(l / 2) = lambda zeta^k.
    """
    ell = BOLZA_SIDE_LENGTH
    gens = tuple(GroupElement.translation(k * math.pi / 4.0, ell) for k in range(4))
    exact = tuple((1, 1, 0, -1) + tuple(int(j == k) for j in range(4)) for k in range(4))
    group = FuchsianGroup(gens, label="bolza", covolume_hint=4.0 * math.pi,
                          relation=(1, -2, 3, -4, -1, 2, -3, 4),
                          dirichlet_radius=BOLZA_VERTEX_RADIUS, exact_coords=exact)
    area = octagon_area()
    if abs(area - 4.0 * math.pi) > 1e-6:
        raise RelationViolation(f"octagon area {area} != 4 pi")
    return group


def octagon_vertices() -> list:
    """Vertices of the fundamental octagon (complex chart points)."""
    r_e = math.tanh(BOLZA_VERTEX_RADIUS / 2.0)
    return [r_e * cmath.exp(1j * (2 * k + 1) * math.pi / 8.0) for k in range(8)]


def octagon_area() -> float:
    """Hyperbolic area of the regular octagon by angle defect, measured numerically."""
    verts = octagon_vertices()
    angles = []
    for k in range(8):
        v, p, q = verts[k], verts[(k - 1) % 8], verts[(k + 1) % 8]
        bb, cc, aa = _dist_complex(v, p), _dist_complex(v, q), _dist_complex(p, q)
        angles.append(math.acos((math.cosh(bb) * math.cosh(cc) - math.cosh(aa))
                                / (math.sinh(bb) * math.sinh(cc))))
    return 6.0 * math.pi - sum(angles)


def cyclic_group(length: float) -> FuchsianGroup:
    """Infinite cyclic group generated by one translation of given length
    along the real axis; the length must be finite and positive."""
    if not (math.isfinite(length) and length > 0):
        raise ParameterOutOfRange(f"translation length must be finite and > 0, got {length}")
    return FuchsianGroup((GroupElement.translation(0.0, length),),
                         label=f"cyclic:{length:g}")


def trivial_group() -> FuchsianGroup:
    return FuchsianGroup((), label="trivial")


# ---------------------------------------------------------------------------
# The orbit engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InjRadResult:
    value: float
    is_lower_bound: bool


@dataclass(frozen=True)
class OrbitBall:
    """Every gamma with d(center, gamma center) <= radius, identity first.

    Arrays over the elements, sorted by displacement (ties within 1e-9 in
    first-found order, so shorter words first): alpha and beta of each
    element, its displacement d(center, gamma center), and in words the
    first word (symmetrized generator indices) that reached it; coords
    holds the exact coordinate rows (int64, (n, 8); None for a free group).
    elements_explored counts the rows the search found, the identity
    excluded, and levels its levels.
    """

    center: DiscPoint
    radius: float
    alpha: np.ndarray
    beta: np.ndarray
    displacement: np.ndarray
    words: tuple
    coords: np.ndarray | None
    elements_explored: int
    levels: int

    def __len__(self):
        return len(self.alpha)

    def injectivity_radius(self) -> InjRadResult:
        """Half the minimal displacement of the centre within the ball.

        If no nontrivial element moves the centre, radius / 2 is returned
        flagged as a lower bound.
        """
        moving = self.displacement[self.displacement > 1e-12]
        if not len(moving):
            return InjRadResult(self.radius / 2.0, True)
        return InjRadResult(float(moving.min()) / 2.0, False)

    def least_translation_length(self) -> float:
        """Least translation length 2 arccosh |Re alpha| over the hyperbolic
        elements of the ball; inf if it has none.

        A free group's long words carry round-off in their traces (a group
        with exact coordinates has each trace to its last bit), so the value
        comes from the first element in displacement order whose trace is
        within 1e-9 relative of the least one.
        """
        half_trace = np.abs(self.alpha.real)
        half_trace = half_trace[half_trace > 1.0 + 1e-12]   # the hyperbolic elements
        if not len(half_trace):
            return math.inf
        first = half_trace[np.argmax(half_trace <= half_trace.min() * (1.0 + 1e-9))]
        return 2.0 * math.acosh(float(first))


@dataclass
class _Level:
    """The fresh elements of one search level, one row per element.

    coords are the exact coordinate rows (None for a free group).  Turn j of
    element e (the element itself without a rotation) has a first-found
    word, which rank[e, j] orders among the level's words, and which is the
    word of turn t of element p of the previous level's expanded ones
    followed by generator g, where found[e, j] = (p * turns + t) * 2n + g.
    The consumer sets `expand` to the mask of elements whose children the
    search visits next; the others stay among the seen elements all the same.
    """

    alpha: np.ndarray
    beta: np.ndarray
    coords: np.ndarray | None
    rank: np.ndarray            # (count, turns)
    found: np.ndarray           # (count, turns)
    maps: np.ndarray | None     # (count, degree) sheet map of each element (covers)
    expand: np.ndarray | None = None


def _displacements(alpha: np.ndarray, beta: np.ndarray, c: complex) -> np.ndarray:
    """d(c, g c) for the elements g = (alpha, beta)."""
    return _dist_array(c, _mobius_array(alpha, beta, c))


class _SeenRows:
    """The exact coordinate rows a search has seen.

    rows[:count] holds them, in a buffer that doubles when full; hash holds
    their hashes sorted, and at[i] is the row of hash[i].  The hash only
    orders the rows: two rows are equal when their integers are, and every
    row with an equal hash is compared, so collisions are told apart.
    """

    def __init__(self):
        self.rows, self.count = np.empty((64, 8), dtype=np.int64), 0
        self.hash, self.at = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.intp)

    def add(self, coords: np.ndarray):
        """(fresh, cls): fresh indexes the rows of coords that equal no
        earlier row and no seen row, in row order, and those rows are added
        to the seen ones; row i equals row fresh[cls[i]], or a row seen
        before where cls[i] = -1."""
        hashes = coords.view(np.uint64) @ _HASH_MULT      # wraps mod 2^64
        order = np.argsort(hashes, kind="stable")
        h, c = hashes[order], coords[order]
        pos = np.arange(len(h))
        run_start = np.maximum.accumulate(np.where(np.r_[True, h[1:] != h[:-1]], pos, 0))
        first = pos.copy()
        # within a run of equal hashes the rows stay in row order; the
        # largest j, set last, finds the earliest equal row
        for j in range(1, int(np.max(pos - run_start, initial=0)) + 1):
            p = pos[pos - run_start >= j]
            p = p[(c[p] == c[p - j]).all(axis=1)]
            first[p] = p - j
        old = np.zeros(len(h), dtype=bool)
        lo = np.searchsorted(self.hash, h, "left")
        span = np.searchsorted(self.hash, h, "right") - lo
        for j in range(int(np.max(span, initial=0))):
            p = np.flatnonzero(span > j)
            old[p] |= (self.rows[self.at[lo[p] + j]] == c[p]).all(axis=1)
        new = (first == pos) & ~old
        end = self.count + int(new.sum())
        if end > len(self.rows):
            grown = np.empty((max(end, 2 * len(self.rows)), 8), dtype=np.int64)
            grown[:self.count] = self.rows[:self.count]
            self.rows = grown
        self.rows[self.count:end] = c[new]
        self.hash = np.insert(self.hash, lo[new], h[new])
        self.at = np.insert(self.at, lo[new], np.arange(self.count, end))
        self.count = end
        fresh = np.sort(order[new])
        at = np.full(len(h), -1)
        at[fresh] = np.arange(len(fresh))
        cls = np.empty(len(h), dtype=np.intp)
        cls[order] = at[order[first]]
        return fresh, cls


def _turn(coords: np.ndarray, j) -> np.ndarray:
    """Turn j of each element g with a row in coords, r^j g r^-j for the
    rotation r: w -> zeta w: a stays and b becomes zeta^j b (j broadcasts)."""
    out = coords.copy()
    out[:, 4:] = coords[np.arange(len(coords))[:, None], 4 + _TURN_AT[j]] * _TURN_SIGN[j]
    return out


def _least_turn(coords: np.ndarray):
    """The lexicographically least turn of each row, and which turn it is;
    a is the same in every turn, and only rows still tied read on."""
    least = np.ones((len(coords), 8), dtype=bool)
    rows = np.arange(len(coords))
    for col in range(4):
        v = coords[rows[:, None], 4 + _TURN_AT[:, col]] * _TURN_SIGN[:, col]
        v[~least[rows]] = np.iinfo(np.int64).max
        least[rows] &= v == v.min(axis=1, keepdims=True)
        rows = rows[least[rows].sum(axis=1) > 1]
    shift = least.argmax(axis=1)
    return _turn(coords, shift), shift


def _rotation(group: FuchsianGroup) -> np.ndarray | None:
    """(8, 2n) table whose row j is sigma^j, where r g_i r^-1 = g_sigma(i)
    for the symmetrized generators g_i and the rotation r of _turn; None
    when r does not permute them (no exact coordinates, or other ones)."""
    if group.exact_coords is None:
        return None
    gens = (_IDENTITY @ _right_multiplication(group)).reshape(-1, 8)
    turned = _turn(gens, 1)
    match = (turned[:, None] == gens).all(axis=2) | (turned[:, None] == -gens).all(axis=2)
    sigma = match.argmax(axis=1)
    if not match.any(axis=1).all() or len(np.unique(sigma)) < len(sigma):
        return None
    table = [np.arange(len(sigma))]
    for _ in range(7):
        table.append(sigma[table[-1]])
    return np.array(table)


def _word_levels(group: FuchsianGroup, element_cap: int = 1_000_000,
                 perms: np.ndarray | None = None, rotation: np.ndarray | None = None):
    """Level-synchronous breadth-first search over reduced words.

    Yields one _Level per word length, starting at 1; the consumer sets its
    `expand` mask before the search goes on.  The search ends when nothing is
    expanded.  Elements are exact coordinate rows for a group with
    exact_coords, deduplicated by _SeenRows, and (alpha, beta) rows for a
    free group, which has no duplicates (module docstring).  perms, a
    surface's sheet table, makes each level carry the sheet map of its
    elements: the rows of a word that reached each one, composed.  rotation,
    a table of _rotation, makes the rows the least turns of the elements, and
    each level carries the rank and first finder of every turn (module
    docstring); without it an element is its own one turn.
    """
    n_sym = 2 * group.n_generators
    inverse = (np.arange(n_sym) + n_sym // 2) % n_sym
    sigma = np.arange(n_sym)[None, :] if rotation is None else rotation
    turns = len(sigma)
    exact = group.exact_coords is not None
    if exact:
        step = _right_multiplication(group)
        elems = _IDENTITY[None, :]
        seen = _SeenRows()
        seen.add(elems)
    else:
        gen_alpha, gen_beta = _generator_arrays(group)
        elems = np.array([[1.0 + 0j, 0j]])
    rank, last = np.zeros((1, turns), dtype=np.int64), None
    maps = np.arange(perms.shape[1])[None, :] if perms is not None else None
    explored = 1
    while len(elems):
        parent = np.repeat(np.arange(len(elems)), n_sym)
        gen = np.tile(np.arange(n_sym), len(elems))
        if last is not None:  # reduced: no generator right after its inverse
            ok = gen != inverse[last[parent]]
            parent, gen = parent[ok], gen[ok]
        shift = np.zeros(len(parent), dtype=np.intp)
        if exact:
            # a child's coefficients are at most 9 times its parent's largest
            if max(elems.max(), -elems.min()) >= _COEFF_LIMIT:
                raise BudgetExceeded(f"exact coordinates reached {_COEFF_LIMIT}")
            kids = (elems @ step).reshape(len(elems), n_sym, 8)[parent, gen]
            kids *= np.sign(kids[np.arange(len(kids)), np.argmax(kids != 0, axis=1)])[:, None]
            if turns > 1:
                kids, shift = _least_turn(kids)
            fresh, cls = seen.add(kids)
            alpha, beta = _exact_floats(kids[fresh])
        else:
            a, b = elems[parent, 0], elems[parent, 1]
            alpha = a * gen_alpha[gen] + b * np.conj(gen_beta[gen])
            beta = a * gen_beta[gen] + b * np.conj(gen_alpha[gen])
            kids = np.column_stack([alpha, beta])
            fresh = cls = np.arange(len(kids))
        explored += len(fresh)
        if explored > element_cap:
            raise BudgetExceeded(f"orbit search passed {element_cap} elements")
        if perms is not None:
            maps = perms[gen[fresh, None], maps[parent[fresh]]]
        # turn j of a found element comes from turn j + shift of the parent
        # row; its rank is the least (parent rank, generator) over its rows
        live = cls >= 0
        parent, gen, shift, cls = parent[live], gen[live], shift[live], cls[live]
        turn = (np.arange(turns) + shift[:, None]) % turns
        letter = sigma[turn, gen[:, None]]
        key = rank[parent[:, None], turn] * n_sym + letter
        rank = np.full(len(fresh) * turns, np.iinfo(np.int64).max)
        np.minimum.at(rank, (cls[:, None] * turns + np.arange(turns)).ravel(), key.ravel())
        rank = rank.reshape(-1, turns)
        found = np.empty(len(fresh) * turns, dtype=np.int64)
        row, j = np.nonzero(key == rank[cls])
        found[cls[row] * turns + j] = (parent[row] * turns + turn[row, j]) * n_sym + letter[row, j]
        found = found.reshape(-1, turns)
        # an element the rotation fixes (b = 0) is each of its turns
        fixed = np.flatnonzero(~kids[fresh, 4:].any(axis=1) if turns > 1 else 0)
        least = rank[fixed].argmin(axis=1)
        rank[fixed], found[fixed] = rank[fixed, least][:, None], found[fixed, least][:, None]
        if rank.max(initial=0) >= _RANK_LIMIT // n_sym:
            rank = np.unique(rank, return_inverse=True)[1].reshape(rank.shape)
        level = _Level(alpha, beta, kids[fresh] if exact else None, rank, found, maps)
        yield level
        keep = level.expand
        elems, rank, last = kids[fresh][keep], rank[keep], found[keep, 0] % n_sym
        maps = maps[keep] if perms is not None else None


def _outside_margin(group: FuchsianGroup, zs: np.ndarray) -> np.ndarray:
    """d(0, c) for each centre c outside D, 0 inside: B(c, R + this) meets
    the tile of every gamma with d(c, gamma c) <= R (module docstring)."""
    outside = ~_in_dirichlet_domain(zs[:, None], _face_points(group))
    return np.where(outside, 2.0 * np.arctanh(np.abs(zs)), 0.0)


def _prune_bounds(group: FuchsianGroup, centres, radius: float) -> np.ndarray:
    """Per centre c, the bound of the prune of a search for every gamma with
    d(c, gamma c) <= radius: the centre bound of the tile prune, or the
    displacement bound; see _expand_mask, and the module docstring for why
    the prune is sound.
    """
    zs = np.asarray(centres, dtype=complex)
    if group.dirichlet_radius is None:
        disp = _displacements(*_generator_arrays(group), zs[:, None])
        return radius + disp.max(axis=1, initial=0.0) + 1.0
    margin = group.dirichlet_radius + _outside_margin(group, zs)
    return np.sinh((radius + margin + 1e-9) / 2.0) ** 2 * (1.0 - np.abs(zs) ** 2)


def _side_bounds(group: FuchsianGroup, centres, radius: float) -> np.ndarray:
    """Per centre c, the side bound of the tile prune of the same search,
    sinh(R' + 1e-9) (1 - |c|^2) with R' = radius + _outside_margin (inf for
    a group without a Dirichlet radius, which has no side test)."""
    zs = np.asarray(centres, dtype=complex)
    if group.dirichlet_radius is None:
        return np.full(len(zs), np.inf)
    reach = radius + _outside_margin(group, zs)
    return np.sinh(reach + 1e-9) * (1.0 - np.abs(zs) ** 2)


def _expand_mask(group: FuchsianGroup, c, bound, side, alpha, beta, disp) -> np.ndarray:
    """The elements (alpha, beta) with displacements disp at c that the prune
    of _prune_bounds and _side_bounds expands; c, bound and side broadcast
    against the elements.

    Tile prune, two tests on g.  Centre test: d(c, g 0) within the bound,
    as sinh^2(d(c, g 0) / 2) = |u|^2 / (1 - |c|^2), u = c conj(alpha) -
    beta.  Side test, on the elements that pass it: for every symmetrized
    generator s, sinh d(c, g H_s) = (S(g 0) - S(g s 0)) / |beta_s| within
    sinh R', S the sinh^2(d(c, .) / 2) above; the numerator of S(g s 0) is
    |conj(alpha_s) u + beta_s v|^2 with v = c conj(beta) - alpha.
    Displacement prune: d(c, g c) within the bound.
    """
    if group.dirichlet_radius is None:
        return disp <= bound
    u = c * np.conj(alpha) - beta
    su = np.abs(u) ** 2
    expand = su <= bound
    pick = np.nonzero(expand)
    c, alpha, beta, side = (np.broadcast_to(x, expand.shape)[pick]
                            for x in (c, alpha, beta, side))
    u, su, v = u[pick], su[pick], c * np.conj(beta) - alpha
    meets = np.ones(len(u), dtype=bool)
    for gen_alpha, gen_beta in zip(*_generator_arrays(group)):
        meets &= su - np.abs(np.conj(gen_alpha) * u + gen_beta * v) ** 2 <= abs(gen_beta) * side
    expand[pick] = meets
    return expand


def orbit_enumerate(group: FuchsianGroup, center: DiscPoint, R: float,
                    element_cap: int = 1_000_000) -> OrbitBall:
    """All gamma with d(center, gamma center) <= R, as an OrbitBall.

    Breadth-first search over reduced words with the tile prune (groups
    with a Dirichlet radius) or the displacement prune (the others), run
    until the frontier is empty, which makes the ball complete; at centre 0
    it runs on one row per orbit of the rotation when the rotation permutes
    the generators.  See the module docstring.  Each element carries the
    first word that reached it; displacements that tie within 1e-9 keep
    first-found order.
    """
    if R > 25:
        raise ParameterOutOfRange("R > 25 would enumerate exponentially many elements")
    if not R >= 0:
        raise ParameterOutOfRange("R must be >= 0")
    c = center.z
    exact = group.exact_coords is not None
    coords = [_IDENTITY[None, :]] if exact else []
    alpha, beta = [np.ones(1, dtype=complex)], [np.zeros(1, dtype=complex)]
    disp, words, place = [np.zeros(1)], [()], [np.zeros((1, 2), dtype=np.int64)]
    explored = levels = 0
    n_sym, chain = 2 * group.n_generators, []
    if n_sym:
        bound, side = _prune_bounds(group, [c], R)[0], _side_bounds(group, [c], R)[0]
        rotation = _rotation(group) if c == 0 else None
        turns = 1 if rotation is None else len(rotation)
        for level in _word_levels(group, element_cap, rotation=rotation):
            explored += len(level.alpha)
            levels += 1
            d = _displacements(level.alpha, level.beta, c)
            level.expand = _expand_mask(group, c, bound, side, level.alpha, level.beta, d)
            # a turn's displacement differs from its row's by rounding only;
            # an element with b = 0 is each of its turns
            rep = np.repeat(np.flatnonzero(d <= R + 1e-6), turns)
            j = np.tile(np.arange(turns), len(rep) // turns)
            if turns > 1:
                own = (j == 0) | level.coords[rep, 4:].any(axis=1)
                rep, j = rep[own], j[own]
            if exact:
                rows = _turn(level.coords[rep], j)
                a, b = _exact_floats(rows)
            else:
                a, b = level.alpha[rep], level.beta[rep]
            d = _displacements(a, b, c)
            kept = d <= R
            rep, j = rep[kept], j[kept]
            if exact:
                coords.append(rows[kept])
            alpha.append(a[kept])
            beta.append(b[kept])
            disp.append(d[kept])
            place.append(np.column_stack([np.full(len(rep), levels), level.rank[rep, j]]))
            # the words, read back along the first finders of the levels
            step, word = level.found[rep, j], []
            for finders in reversed(chain):
                word.append(step % n_sym)
                step = finders.ravel()[step // n_sym]
            word.append(step % n_sym)
            words.extend(map(tuple, np.column_stack(word[::-1]).tolist()))
            chain.append(level.found[level.expand])
    place = np.concatenate(place)
    first = np.lexsort((place[:, 1], place[:, 0]))     # first-found order
    disp = np.concatenate(disp)
    order = np.argsort(disp[first], kind="stable")
    # displacements within 1e-9 of their neighbour are one tie, kept in
    # first-found order whatever their last bits
    tie = np.cumsum(np.diff(disp[first][order], prepend=0.0) > 1e-9)
    order = first[order[np.lexsort((order, tie))]]
    return OrbitBall(center, R, np.concatenate(alpha)[order], np.concatenate(beta)[order],
                     disp[order], tuple(words[i] for i in order),
                     np.concatenate(coords)[order] if exact else None, explored, levels)


@dataclass(frozen=True)
class InjradQuery:
    below: np.ndarray          # (points, degree) bool: InjRad < R at point i on sheet s
    elements_explored: int     # by the one shared search, identity excluded
    levels: int                # levels that search generated


def injrad_below_points(surface, zs, R: float,
                        element_cap: int = 1_000_000) -> InjradQuery:
    """Decide InjRad < R at every chart point z of zs, on every sheet, at once.

    Entry [i, s] is True where some nontrivial deck motion moves zs[i] by
    less than 2R with a sheet map that fixes sheet s (the base group has one
    sheet, fixed by every element).  One search serves every point: at each
    level the displacements of the new elements are taken at every open
    point, each witness marks the sheets where its sheet map equals
    arange(degree), a point closes once every sheet is marked, and an element
    is expanded if the prune of the search at radius 2R (orbit_enumerate's)
    keeps it for some open point.  The search ends when no point is open or
    nothing is expanded.  Open points go in blocks whose (points x elements)
    arrays hold at most _BLOCK cells (or one point's row).
    """
    group = surface.base
    sheets = np.arange(surface.degree)
    zs = np.asarray(zs, dtype=complex)
    below = np.zeros((len(zs), len(sheets)), dtype=bool)
    if group.n_generators == 0 or not len(zs):
        return InjradQuery(below, 0, 0)
    target = 2.0 * R
    bounds, sides = _prune_bounds(group, zs, target), _side_bounds(group, zs, target)
    open_points = np.arange(len(zs))
    explored = levels = 0
    for level in _word_levels(group, element_cap, surface.sheets):
        explored += len(level.alpha)
        levels += 1
        expand = np.zeros(len(level.alpha), dtype=bool)
        rows = max(1, _BLOCK // max(len(level.alpha), 1))
        for start in range(0, len(open_points), rows):
            idx = open_points[start:start + rows]
            c = zs[idx, None]
            disp = _displacements(level.alpha, level.beta, c)
            witness = (disp > 1e-12) & (disp < target)
            cols = np.flatnonzero(witness.any(axis=0))   # only witnesses meet the sheets
            below[idx] |= witness[:, cols] @ (level.maps[cols] == sheets)
            stay = ~below[idx].all(axis=1)
            expand |= _expand_mask(group, c[stay], bounds[idx[stay], None],
                                   sides[idx[stay], None], level.alpha, level.beta,
                                   disp[stay]).any(axis=0)
        open_points = open_points[~below[open_points].all(axis=1)]
        if not len(open_points):
            break
        level.expand = expand
    return InjradQuery(below, explored, levels)


def systole_ball(group: FuchsianGroup) -> OrbitBall:
    """The complete orbit ball B(0, rho) whose least translation length is
    systole_upper_bound; rho and why it suffices are in the module docstring.
    """
    if group.dirichlet_radius is None:
        rho = group.max_generator_displacement()
    else:
        cosh_half = min(abs(g.alpha.real) for g in group.generators)   # cosh(l0 / 2)
        rho = 2.0 * math.asinh(math.cosh(group.dirichlet_radius)
                               * math.sqrt(cosh_half ** 2 - 1.0))
    return orbit_enumerate(group, DiscPoint(0, 0), rho + 1e-9)


def systole_upper_bound(group: FuchsianGroup) -> float:
    """Least translation length over systole_ball(group).

    Exact for groups with a Dirichlet radius, an upper bound for the others,
    and inf for a group without hyperbolic elements in the ball.
    """
    return systole_ball(group).least_translation_length()


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverSurface:
    """Finite cover of base given by one sheet permutation per generator.

    Permutation p maps sheet s to p[s].  Construction builds the surface
    contract's sheet table (module docstring) from them and checks it: the
    rows along the relation compose to the identity (RelationViolation
    otherwise), and every sheet is reachable from sheet 0 (NonTransitive
    otherwise).  Geometry is inherited from the base: volume = degree * base
    volume.
    """

    base: FuchsianGroup
    degree: int
    permutations: tuple  # tuple of degree-length tuples, one per generator
    sheets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if len(self.permutations) != self.base.n_generators:
            raise ValueError("one permutation per generator required")
        for p in self.permutations:
            if sorted(p) != list(range(self.degree)):
                raise ValueError(f"not a permutation of 0..{self.degree - 1}: {p}")
        perms = np.array(self.permutations, dtype=int).reshape(-1, self.degree)
        inverses = np.empty_like(perms)
        inverses[np.arange(len(perms))[:, None], perms] = np.arange(self.degree)
        sheets = np.concatenate([perms, inverses])
        sheets.flags.writeable = False
        object.__setattr__(self, "sheets", sheets)
        relation = np.arange(self.degree)
        for gi in self.base.relation_word():
            relation = sheets[gi, relation]
        if not np.array_equal(relation, np.arange(self.degree)):
            raise RelationViolation("permutations do not respect the relation")
        reached = np.zeros(self.degree, dtype=bool)
        reached[0] = True
        frontier = np.zeros(1, dtype=int)
        while len(frontier):
            frontier = np.unique(sheets[:, frontier])
            frontier = frontier[~reached[frontier]]
            reached[frontier] = True
        if not reached.all():
            raise NonTransitive(f"cover is disconnected ({reached.sum()} of {self.degree} sheets)")

    def volume(self) -> float:
        return self.degree * self.base.volume()


_MAX_DRAWS = 32   # weight draws random_cover tries before it gives up


def random_cover(base: FuchsianGroup, degree: int, seed: int) -> CoverSurface:
    """Random transitive cyclic-shift cover, deterministic under seed.

    Each generator gets a random weight w in Z_degree and permutes sheets by
    i -> i + w mod degree.  Cyclic images always satisfy the surface relation
    (zero net exponent per generator); transitivity holds iff the weights
    and the degree are coprime as a set, else redraw.
    """
    if degree < 1:
        raise ParameterOutOfRange("degree must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        weights = rng.integers(0, degree, size=base.n_generators)
        if degree == 1 or math.gcd(degree, *[int(w) for w in weights]) == 1:
            perms = tuple(tuple((i + int(w)) % degree for i in range(degree))
                          for w in weights)
            return CoverSurface(base, degree, perms)
    raise NonTransitive(f"no transitive cover of degree {degree} in {_MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# Fundamental-domain sampling and the Benjamini-Schramm statistic
# ---------------------------------------------------------------------------

class DomainSampler:
    """Uniform (hyperbolic-area) sampler of the Dirichlet domain at 0 within
    the hyperbolic disc of a given radius (default: the Dirichlet
    circumradius, which holds the whole domain).

    Rejection from that disc; membership test: no face point of the domain
    is closer than 0 itself.  Each proposal takes two consecutive doubles of
    the generator, u for the radius and v for the angle, so the stream of
    proposals does not depend on how they are batched.  `proposals` counts
    the proposals up to and including each call's last accepted one, summed
    over calls, so 2 pi (cosh radius - 1) times the accepted share estimates
    the sampled area.
    """

    def __init__(self, group: FuchsianGroup, radius: float | None = None):
        if radius is None:
            radius = group.dirichlet_radius
        if radius is None:
            raise ValueError("sampler needs a radius or a group with a Dirichlet radius")
        self.group = group
        self.radius = radius
        self.faces = _face_points(group)
        self.proposals = 0

    # kept only because perfbench/tracer.py wraps it; goes with ROADMAP item 8
    def contains(self, z: complex) -> bool:
        return _in_dirichlet_domain(z, self.faces)

    def sample(self, rng: np.random.Generator, n: int,
               max_proposals: int | None = None) -> np.ndarray:
        """n points: proposals are drawn in batches of 3 times the count
        still needed plus 64, each batch tested by one membership call, and
        the first n accepted are kept.

        Raises BudgetExceeded when `proposals` would pass max_proposals
        before the n-th acceptance.
        """
        cosh_R = math.cosh(self.radius)
        out = np.empty(0, dtype=complex)
        while len(out) < n:
            need = n - len(out)
            u, v = rng.random((3 * need + 64, 2)).T
            z = np.tanh(np.arccosh(1.0 + u * (cosh_R - 1.0)) / 2.0) * np.exp(2j * math.pi * v)
            accepted = np.flatnonzero(_in_dirichlet_domain(z[:, None], self.faces))[:need]
            self.proposals += int(accepted[-1]) + 1 if len(accepted) == need else len(z)
            if max_proposals is not None and self.proposals > max_proposals:
                raise BudgetExceeded("sampler acceptance rate too low")
            out = np.concatenate([out, z[accepted]])
        return out


@dataclass(frozen=True)
class BsStatResult:
    value: float
    stderr: float
    n_hits: int                    # (point, sheet) pairs with InjRad < R
    orbit_elements_explored: int   # by the one injrad search of all samples
    orbit_levels: int
    sampler_proposals: int


def bs_statistic(surface, R: float, n_samples: int, seed: int) -> BsStatResult:
    """Monte Carlo estimate of Vol{InjRad < R} / Vol over the surface.

    Draws every point of D first and answers all injectivity-radius queries,
    on every sheet, from one search.  Each point contributes the share of
    its sheets below R, the exact mean over the sheet (Rao-Blackwell), so
    only the point is Monte Carlo: the value is the mean share and its
    stderr that of the shares.
    """
    if R > 25:
        raise ParameterOutOfRange("R > 25 not supported")
    if not R >= 0:
        raise ParameterOutOfRange("R must be >= 0")
    if n_samples < 1:
        raise ParameterOutOfRange("n_samples must be >= 1")
    sampler = DomainSampler(surface.base)
    zs = sampler.sample(np.random.default_rng(seed), n_samples)
    query = injrad_below_points(surface, zs, R)
    share = query.below.mean(axis=1)
    return BsStatResult(float(share.mean()),
                        math.sqrt(max(float(share.var()), 1e-12) / n_samples),
                        int(query.below.sum()), query.elements_explored,
                        query.levels, sampler.proposals)


# ---------------------------------------------------------------------------
# Periodization and the truncated-kernel HS bound
# ---------------------------------------------------------------------------

def smoothstep_cutoff(x):
    """Default chi: 1 minus the cubic smoothstep, clamped; 1 at 0, 0 for x >= 1.

    Shifted by 1, it is also the cutoff eta of the smooth propagator
    (propagators.default_eta)."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return 1.0 - (3.0 * x * x - 2.0 * x ** 3)


def periodize_truncated(kernel: RadialKernel, group: FuchsianGroup, r: float):
    """K^{Gamma,r}(z, w) = sum_gamma k(d) chi(d / r), d = d(z, gamma w), with
    chi = smoothstep_cutoff, as a function of two point arrays zs and ws (one
    value per pair zs[i], ws[i]).

    The gamma-sum runs over the complete orbit ball of radius r + 2 m + 0.2
    (every element that can contribute for z, w in the fundamental domain),
    in (pairs x elements) blocks of at most _BLOCK cells.  m is the
    Dirichlet radius, or for a group without one the largest generator
    displacement: a cyclic group of length L has its tile gamma^k D at
    distance (|k| - 1) L from D.
    """
    m = group.dirichlet_radius
    margin = 2.0 * (group.max_generator_displacement() if m is None else m) + 0.2
    ball = orbit_enumerate(group, DiscPoint(0, 0), r + margin)

    def periodized(zs, ws) -> np.ndarray:
        zs, ws = np.asarray(zs, dtype=complex), np.asarray(ws, dtype=complex)
        out = np.empty(len(zs))
        rows = max(1, _BLOCK // len(ball))
        for start in range(0, len(zs), rows):
            block = slice(start, start + rows)
            d = _dist_array(zs[block, None],
                            _mobius_array(ball.alpha, ball.beta, ws[block, None]))
            near = d <= r
            out[block] = np.where(near, kernel(np.where(near, d, 0.0))
                                  * smoothstep_cutoff(d / r), 0.0).sum(axis=1)
        return out

    return periodized


@dataclass(frozen=True)
class HsCheckReport:
    lhs_estimate: float
    lhs_stderr: float
    rhs_bound: float
    rhs_first_term: float
    rhs_second_term: float
    injrad_fraction: float
    systole_bound: float
    window_radius: float
    passed: bool
    orbit_elements_explored: int   # by the one injrad search of all samples
    orbit_levels: int
    sampler_proposals: int


def hs_bound_check(kernel: RadialKernel, group: FuchsianGroup, r: float,
                   n_mc: int, seed: int,
                   window_radius: float | None = None) -> HsCheckReport:
    """Monte Carlo check of the truncated-periodization HS inequality.

    lhs  = iint_D iint_D |K^{Gamma,r}|^2,
    rhs  = int_D int_disc |K chi(d/r)|^2
           + e^{2r}/systole * Vol{InjRad < r} * sup |K chi|^2.

    The kernel must be radial and chi is smoothstep_cutoff; the systole is
    systole_upper_bound(group).  pass = lhs <= rhs * (1 + 3 * relative MC
    error).  For groups with an infinite fundamental domain a finite
    sampling window (domain intersected with the hyperbolic ball of radius
    window_radius) replaces D; the unfolding argument applies verbatim on
    the window.
    """
    if not r > 0:
        raise ParameterOutOfRange("r must be > 0")
    if n_mc < 1:
        raise ParameterOutOfRange("n_mc must be >= 1")
    base_radius = group.dirichlet_radius
    if window_radius is None:
        if base_radius is None:
            raise ValueError("window_radius required for non-cocompact groups")
        window_radius = base_radius
    sampler = DomainSampler(group, window_radius)
    samples = sampler.sample(np.random.default_rng(seed), 2 * n_mc, 400 * n_mc)
    proposal_vol = 2.0 * math.pi * (math.cosh(window_radius) - 1.0)
    window_vol = proposal_vol * len(samples) / sampler.proposals
    zs, ws = samples[:n_mc], samples[n_mc:]

    vals = periodize_truncated(kernel, group, r)(zs, ws) ** 2
    lhs = window_vol ** 2 * float(np.mean(vals))
    lhs_err = window_vol ** 2 * float(np.std(vals) / math.sqrt(len(vals)))

    # first rhs term: the radial kernel unfolds exactly
    upper = min(kernel.support_bound, r)
    t, wq = gauss_legendre(0.0, upper, 400)
    chiv = smoothstep_cutoff(t / r)
    first = window_vol * 2.0 * math.pi * float(np.sum((kernel(t) * chiv) ** 2
                                                      * np.sinh(t) * wq))
    systole = systole_upper_bound(group)
    query = injrad_below_points(group, zs, r)
    frac = int(query.below.sum()) / len(zs)   # the base group has one sheet
    t_s = np.linspace(0.0, upper, 2048)
    sup_k2 = float(np.max((kernel(t_s) * smoothstep_cutoff(t_s / r)) ** 2))
    second = math.exp(2.0 * r) / systole * (frac * window_vol) * sup_k2
    rhs = first + second
    rel_err = lhs_err / lhs if lhs > 0 else 0.0
    passed = lhs <= rhs * (1.0 + 3.0 * rel_err) + 1e-12
    return HsCheckReport(lhs, lhs_err, rhs, first, second, frac, systole,
                         window_radius, passed, query.elements_explored, query.levels,
                         sampler.proposals)
