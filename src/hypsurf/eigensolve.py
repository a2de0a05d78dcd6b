"""Laplace-Beltrami eigensolver: one conforming P1 assembly for every surface.

The Dirichlet energy is conformally invariant in two dimensions, so the
stiffness matrix K is the flat P1 (cotangent) stiffness of a triangulated
chart domain, and a metric rho |dz|^2 enters only through the lumped mass
rho(z_i) * (area of the triangles at node i) / 3, rho = 4 / (1 - |z|^2)^2 on
the disc.  Paired sides of the domain carry node sets that the side pairings
map onto each other: node i on sheet s and its image j on the sheet the
pairing moves s to are one unknown.  The connected components of this
(node, sheet) graph, through which the corners close up too, label the
unknowns, and K and the masses are assembled straight onto the labels.

Octagon: nodes on each geodesic side, equally spaced in chart arc length (a
pairing g keeps |z| on a side, so it keeps arc length and density), grid
nodes of spacing h inside D and clear of the sides, and the Delaunay
triangles whose centroid lies in D.  None of this reads the sheet table, so
it is the chart of (group, h), built once and cached with its own degree-1
mesh (`_chart`); a cover's mesh is that chart lifted to its sheets.  Flat
unit torus: the (n+1)^2 lattice in right triangles with opposite edges
identified; its stiffness is exactly the 5-point Laplacian and its masses
h^2, so the known spectrum (4/h^2)(sin^2 pi m h + sin^2 pi n h) tests the
assembly that builds the octagon and its covers.

K is exactly symmetric and its rows sum to zero up to rounding.  M is
diagonal (the weights W), so K psi = nu M psi is solved in the standard form
K~ y = nu y with K~ = W^-1/2 K W^-1/2 and psi = W^-1/2 y: shift-invert
Lanczos (ARPACK mode 3, no M-products) around _SHIFT, below the spectrum,
started from a fixed vector so that runs are reproducible.  K~ - _SHIFT I is
positive definite, so SuperLU factorizes it once without pivoting, in its
symmetric mode (minimum degree on A^T + A, diagonal pivots): about half the
fill of a column-pivoted LU.  The fill reported is the entry count SuperLU
stores for L and U (`SuperLU.nnz`, its supernodes' explicit zeros
included), which is what the factor's memory scales with; no copy of L or U
is made.  Every solve, plain or one character block, goes through this one
path.

Covers are solved one character of the deck group at a time.  The mesh
carries the deck orbits as the table `walk`, which disc_surface_mesh reads
off the sheet table.  When every sheet permutation commutes with the shift
s -> s + 1 (the cyclic-shift covers of `random_cover`), the shift is a deck
transformation of order d = degree.  Orbit a is then the set of copies of
base unknown a on the sheets: walk[t, a] is the copy t sheets above the
least one r_a = walk[0, a], and the orbits are sorted by r_a.  A deck
transformation of a connected cover fixes no point, so it fixes no
unknown and nothing is left to check.  Otherwise (degree 1, the torus, a
non-cyclic cover) the table is one row and d is 1.
K and M commute with the shift, so they are block-diagonal in the
characters chi_k(t) = exp(2 pi i k t / d).  With sheet offsets sigma(u)
(u = walk[sigma(u), a] for u in orbit a), character k gives the
twisted Laplacian on N = n / d unknowns

    K_k[a, b] = sum over u in orbit b of K[r_a, u] chi_k(sigma(u)),
    M_k = diag(weights[r_a]),

real when 2k = 0 mod d and complex Hermitian otherwise; character d - k is
its conjugate and adds nothing new, so k runs over 0..d // 2.  Complex
blocks go through ARPACK's non-Hermitian driver, so their Ritz vectors are
made M_k-orthonormal by a Rayleigh-Ritz step on the returned span.
A solve asks either for the n_modes lowest eigenpairs or for every
eigenpair up to a reach nu_max, and one block loop serves both.  For a mode
count each block starts at ceil(n_modes / d) + _PAD pairs; for a reach, at
ceil(V nu_max / 4 pi) + _PAD, Weyl's leading term for the block's volume
V = mesh.volume / d.  A block is short when its top eigenvalue lies below
the cut (the n_modes-th of the union), or at or below nu_max, and is solved
again with twice the count.  Once none is short, every eigenvalue below
each block top has been found: the union, sorted stably, is the cover
spectrum, cut to its first n_modes or to everything up to the lowest block
top, which lies past nu_max.  At d = 1 the one block is K itself, and a
mode count is asked of it without a pad: the plain solve.

On a cyclic-shift cover each orbit is the fibre over one unknown of the
base mesh, so K_0 sums K over fibres: character 0 is the base surface's
problem.  It is solved on the chart's degree-1 mesh, once per chart and
pair count (`_base_pairs`), and a degree-1 disc mesh goes through the same
memo, so a tower factorizes its base once.  Its residuals, Gram matrix and
lifted check are still formed on the cover's own K_0 and weights.
Non-cyclic covers keep their one whole-cover block, and the torus its
plain solve.

The eigendata stay in the blocks.  An eigenpair (nu, psi) of block k lifts
to f(u) = chi_k(sigma(u)) psi(orbit(u)) / sqrt(d): the real mode f of a real
block, the modes sqrt(2) Re f and sqrt(2) Im f of a complex one.  For each
character the lift is an isometry onto the cover's problem, so residuals
|K_k psi - nu M_k psi| / |M_k psi| and Gram matrices are formed on the
blocks; validation also lifts the lowest mode of each character and checks
it against the full cover K.  Every mode is lifted only on request
(EigenData.eigenvectors: exports and tests).  Past the solve only
EigenData reads the blocks and the orbit table: the quantum variance takes
each cluster's compressed observable from EigenData.compress.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (FormatError, MeshPairingFailure, OrthonormalityViolation,
                     ParameterOutOfRange, ResidualViolation, SolverNotConverged,
                     WindowNotResolved)
from .fuchsian import _face_points, _in_dirichlet_domain
from .geometry import _mobius_array

_CLEARANCE = 0.5    # grid nodes stay this many h away from every side node
_MATCH_TOL = 1e-9   # a side node's pairing image lands this close to a side node
_PAD = 6            # eigenpairs asked of each character block beyond its share
_ORTHO_TOL = 1e-8   # largest |Gram - I| entry a solve may return
# shift of the one factorization per block.  K is positive semidefinite, so
# K~ - _SHIFT I is positive definite: its LU needs no pivoting for stability
# and can keep the symmetric fill-reducing order on the diagonal.
_SHIFT = -0.1


@dataclass(frozen=True)
class SurfaceMesh:
    label: str
    points: np.ndarray      # complex chart coordinates, (n,)
    sheets: np.ndarray      # int, (n,)
    weights: np.ndarray     # lumped masses, (n,)
    stiffness: sp.csr_matrix
    volume: float           # continuum volume, for reference
    h: float
    triangles: int          # over all sheets
    walk: np.ndarray        # int, (d, n / d): the deck orbits (module docstring)
    classes: np.ndarray     # int, (degree, chart nodes): the unknown of each node on each sheet
    chart: _Chart | None = None    # the chart a disc mesh is lifted from; None for the torus


@dataclass(frozen=True, eq=False)
class _Chart:
    """The triangulated Dirichlet domain of a group at one h, shared by every
    cover: chart points, triangles, metric density, per symmetrized generator
    the side nodes (i, j) it pairs, and the degree-1 mesh `base` (whose own
    `chart` is None).  eq=False: it hashes by identity, as a memo key."""
    points: np.ndarray
    triangles: np.ndarray
    density: np.ndarray
    sides: tuple
    base: SurfaceMesh


def _xy(z: np.ndarray) -> np.ndarray:
    return np.column_stack([z.real, z.imag])


def _p1_mesh(label, pts, tri, density, pairings, degree, volume, h) -> SurfaceMesh:
    """Conforming P1 mesh of a triangulated fundamental domain.

    pts: chart points (n,); tri: (t, 3) node indices; density: the metric
    density at pts; pairings: (i, j, perm) triples saying that node i[m] on
    sheet s is node j[m] on sheet perm[s].
    """
    from scipy.sparse.csgraph import connected_components  # here: keeps start-up short
    n = len(pts)
    sheets = np.arange(degree)[:, None]
    src = np.concatenate([(sheets * n + i).ravel() for i, _, _ in pairings])
    dst = np.concatenate([(perm[:, None] * n + j).ravel() for _, j, perm in pairings])
    graph = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(degree * n,) * 2)
    n_lab, lab = connected_components(graph, directed=False)
    lab = lab.reshape(degree, n)
    # e[:, k] is the edge opposite vertex k; the edge joining vertices a and
    # b has the cotangent weight -e_a . e_b / (4 area)
    z = pts[tri]
    e = z[:, [2, 0, 1]] - z[:, [1, 2, 0]]
    area = 0.5 * np.abs(e[:, 1].real * e[:, 2].imag - e[:, 1].imag * e[:, 2].real)
    a, b = [1, 2, 0], [2, 0, 1]
    w = -(e[:, a].real * e[:, b].real + e[:, a].imag * e[:, b].imag) / (4 * area[:, None])
    ends = lab[:, tri]
    W = sp.coo_matrix((np.broadcast_to(w, ends.shape).ravel(),
                       (ends[:, :, a].ravel(), ends[:, :, b].ravel())),
                      shape=(n_lab, n_lab)).tocsr()
    W = W + W.T
    K = (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()
    K.eliminate_zeros()
    mass = density * (np.bincount(tri.ravel(), np.repeat(area, 3), n) / 3.0)
    weights = np.bincount(lab.ravel(), np.tile(mass, degree), n_lab)
    _, first = np.unique(lab.ravel(), return_index=True)
    return SurfaceMesh(label, np.tile(pts, degree)[first], first // n, weights, K,
                       volume, h, degree * len(tri), np.arange(n_lab)[None, :], lab)


def _side_nodes(faces: np.ndarray, h: float):
    """Nodes on the sides of the Dirichlet domain with these face points.

    Side k is the bisector of 0 and faces[k]: the circle |z|^2 - 2 Re(z
    conj(c)) + 1 = 0 with c = 1 / conj(faces[k]).  Sides follow each other
    in the angular order of the face points, and paired sides (k and
    k + len(faces) / 2) get the same number of segments.  Returns the nodes
    and, per side, the indices of its nodes from one end to the other.
    """
    order = np.argsort(np.angle(faces))
    nxt, prev = np.empty_like(order), np.empty_like(order)
    nxt[order], prev[order] = np.roll(order, -1), np.roll(order, 1)
    c1 = 1.0 / np.conj(faces)
    c2 = c1[nxt]
    q = np.imag(c2 * np.conj(c1))
    # end of side k: the crossing with side nxt[k] inside the disc
    end = 1j * (c1 - c2) / (q + np.sign(q) * np.sqrt(q * q - np.abs(c1 - c2) ** 2))
    start = end[prev]
    turn = np.angle((end - c1) / (start - c1))
    arc = np.abs(start - c1) * np.abs(turn)
    segments = np.ceil(np.maximum(arc, np.roll(arc, len(faces) // 2)) / h).astype(int)
    offset = np.concatenate([[0], np.cumsum(segments)])
    nodes = np.concatenate([start[k] + (start[k] - c1[k])
                            * (np.exp(1j * turn[k] * np.arange(m) / m) - 1.0)
                            for k, m in enumerate(segments)])
    sides = [np.append(np.arange(offset[k], offset[k + 1]), offset[nxt[k]])
             for k in range(len(faces))]
    return nodes, sides


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=4)
def _chart(group, h: float) -> _Chart:
    """The chart of group at h: everything of a mesh that does not read the
    sheet table, triangulated once per (group, h).  Its arrays are read-only."""
    from scipy.spatial import Delaunay, cKDTree  # here: keeps CLI start-up short
    faces = _face_points(group)
    side_pts, sides = _side_nodes(faces, h)
    tree = cKDTree(_xy(side_pts))
    r = np.abs(side_pts).max()        # D lies in the disc through its corners
    m = int(math.ceil(r / h))
    x = h * np.arange(-m, m + 1)
    grid = (x[:, None] + 1j * x[None, :]).ravel()
    grid = grid[np.abs(grid) < r]
    grid = grid[_in_dirichlet_domain(grid[:, None], faces)]
    grid = grid[tree.query(_xy(grid))[0] >= _CLEARANCE * h]
    pts = np.concatenate([grid, side_pts])
    tri = Delaunay(_xy(pts)).simplices
    tri = tri[_in_dirichlet_domain(pts[tri].mean(axis=1, keepdims=True), faces)]
    pairs = []
    for k, g in enumerate(group.symmetrized()):
        image = _mobius_array(np.conj(g.alpha), -g.beta, side_pts[sides[k]])  # g^-1
        dist, j = tree.query(_xy(image))
        if dist.max() > _MATCH_TOL:
            raise MeshPairingFailure(f"side {k}: pairing images off by {dist.max():.2e}")
        pairs.append((len(grid) + sides[k], len(grid) + j))
    density = 4.0 / (1.0 - np.abs(pts) ** 2) ** 2
    base = _p1_mesh(group.label, pts, tri, density,
                    [(i, j, perm) for (i, j), perm in zip(pairs, group.sheets)], 1,
                    group.volume(), h)
    _frozen(pts, tri, density, *(a for pair in pairs for a in pair), base.points,
            base.sheets, base.weights, base.walk, base.classes, base.stiffness.data,
            base.stiffness.indices, base.stiffness.indptr)
    return _Chart(pts, tri, density, tuple(pairs), base)


def disc_surface_mesh(surface, h: float) -> SurfaceMesh:
    """Conforming P1 mesh of a cocompact quotient (or a finite cover of one):
    the chart of its group at h, lifted to the sheet table."""
    if not (0.01 <= h <= 0.2):
        raise ParameterOutOfRange("h must lie in [0.01, 0.2]")
    group, degree = surface.base, surface.degree
    if group.dirichlet_radius is None:
        raise ValueError("mesh needs a cocompact group with known radius")
    chart = _chart(group, h)
    if degree == 1:
        return replace(chart.base, chart=chart)
    sheets = surface.sheets
    mesh = _p1_mesh(f"{group.label}:deg{degree}", chart.points, chart.triangles,
                    chart.density, [(i, j, perm) for (i, j), perm in zip(chart.sides, sheets)],
                    degree, group.volume() * degree, h)
    if np.array_equal(np.roll(sheets, -1, axis=1), (sheets + 1) % degree):
        # the shift s -> s + 1 is a deck transformation: orbit a holds the
        # copies of base unknown a, from its least one on, sorted by it
        orbits = mesh.classes[:, np.unique(chart.base.classes[0], return_index=True)[1]]
        orbits = orbits[(orbits.argmin(axis=0) + np.arange(degree)[:, None]) % degree,
                        np.arange(orbits.shape[1])]
        mesh = replace(mesh, walk=orbits[:, np.argsort(orbits[0])])
    return replace(mesh, chart=chart)


def torus_mesh(h: float) -> SurfaceMesh:
    """Flat unit torus R^2/Z^2: the lattice of spacing 1/n in right triangles."""
    if not (0.005 <= h <= 0.2):
        raise ParameterOutOfRange("h must lie in [0.005, 0.2]")
    n = int(round(1.0 / h))
    h = 1.0 / n
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)     # node i (n + 1) + j
    cell = np.flatnonzero((i < n) & (j < n))
    tri = np.concatenate([np.column_stack([cell, cell + n + 1, cell + n + 2]),
                          np.column_stack([cell, cell + n + 2, cell + 1])])
    right, top = np.flatnonzero(i == n), np.flatnonzero(j == n)
    same = np.zeros(1, dtype=int)
    pairings = [(right, right - n * (n + 1), same), (top, top - n, same)]
    # the stiffness does not see scale, so the integer lattice is the chart,
    # with metric h^2 |dz|^2; the points are reported in torus coordinates
    mesh = _p1_mesh("torus", i + 1j * j, tri, np.full(len(i), h * h), pairings, 1, 1.0, h)
    return replace(mesh, points=h * mesh.points)


@dataclass(frozen=True)
class EigenData:
    """Eigenpairs in the deck-character blocks they were solved in: mode j is
    the lift of blocks[:, j] with character characters[j] (its imaginary part
    if imaginary[j]), and walk is the mesh's deck-orbit table.  Off cyclic
    covers and for files d = 1: walk is one row and the blocks are the modes."""
    surface_id: str
    points: np.ndarray
    sheets: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray     # ascending
    blocks: np.ndarray          # (N, n_modes): block vector psi of each mode
    walk: np.ndarray            # int, (d, N)
    characters: np.ndarray      # deck character k of each mode, 0 off covers
    imaginary: np.ndarray       # bool: the mode is the imaginary part of its lift
    residuals: np.ndarray       # block residuals
    ortho_tol: float
    residual_tol: float
    volume: float
    h: float
    factor_nnz: int = 0         # entries SuperLU stores for the solve's factors; 0 if read from files
    character_blocks: int = 0   # blocks solved, re-solves included; 0 if read from files
    stiffness: sp.csr_matrix | None = None   # the cover's K, for validate's lifted sample

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def lift(self, modes: np.ndarray) -> np.ndarray:
        """These modes on the mesh, (n_mesh, len(modes)): sqrt(mult / d) Re or
        Im chi_k(t) psi(a) at node walk[t, a], mult = 2 for a complex character."""
        d = len(self.walk)
        vecs = np.empty((self.walk.size, len(modes)), order="F")      # columns contiguous
        for k in np.unique(self.characters[modes]):
            sel = np.flatnonzero(self.characters[modes] == k)
            f = (np.exp(2j * np.pi * (k * np.arange(d) % d) / d)[:, None, None]
                 * self.blocks[:, modes[sel]])
            part = np.where(self.imaginary[modes[sel]], f.imag, f.real)
            vecs[self.walk[:, :, None], sel] = math.sqrt((1 if 2 * k % d == 0 else 2) / d) * part
        return vecs

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Every mode on the mesh, (n_mesh, n_modes), lifted on first use."""
        return self.lift(np.arange(self.n_modes))

    @cached_property
    def gram_deviation(self) -> float:
        """max |Psi^T W Psi - I| over the blocks, formed once per instance."""
        # characters are orthogonal by construction; within one the lifted Gram
        # is Re(Phi^H W_k Phi), phi = psi for a real part, -i psi for an imaginary
        d, w, dev = len(self.walk), self.weights[self.walk[0]], 0.0
        for k in np.unique(self.characters % d):
            sel = np.flatnonzero(self.characters % d == k)
            phi = self.blocks[:, sel]
            if self.imaginary[sel].any():
                phi = phi * np.where(self.imaginary[sel], -1j, 1.0)
            G = (phi.conj().T @ (w[:, None] * phi)).real
            dev = max(dev, float(np.max(np.abs(G - np.eye(len(sel))))))
        return dev

    def compress(self, values: np.ndarray, clusters):
        """Yield Psi^H diag(values w) Psi for each cluster (an array of mode
        indices), with no mode lifted.  It is formed in the complex character
        basis: psi with character k, and the imaginary part of a complex pair
        as conj(psi) with -k, spanning the same plane.  Its entries are
        sum_a w_a conj(psi_i(a)) psi_j(a) vhat_a(k_j - k_i), vhat_a the DFT of
        the values along orbit a, taken once per call; a deck-invariant
        density has only its zero frequency.  A cluster holding one part of a
        complex pair raises WindowNotResolved."""
        d, w = len(self.walk), self.weights[self.walk[0]]
        vhat = np.fft.ifft(values[self.walk], axis=0)
        for members in clusters:
            imag, k = self.imaginary[members], self.characters[members]
            if 2 * np.sum(imag) != np.count_nonzero(2 * k % d):
                raise WindowNotResolved("the mode count splits a complex pair in the window")
            psi = np.where(imag, self.blocks[:, members].conj(), self.blocks[:, members])
            k = np.where(imag, -k, k)
            yield np.einsum("ai,aj,ija->ij", w[:, None] * psi.conj(), psi,
                            vhat[(k - k[:, None]) % d])

    @property
    def validated_lifts(self) -> int:
        """Modes validate lifts onto the cover: the lowest of each character."""
        return 0 if self.stiffness is None else len(np.unique(self.characters))

    def validate(self):
        if np.any(np.diff(self.eigenvalues) < -1e-12):
            raise FormatError("eigenvalues not ascending")
        if self.gram_deviation > self.ortho_tol:
            raise OrthonormalityViolation(
                f"Gram deviation {self.gram_deviation:.2e} > {self.ortho_tol}")
        if np.any(self.residuals > self.residual_tol):
            raise ResidualViolation("stored residual exceeds its declared bound")
        sample = np.unique(self.characters, return_index=True)[1]
        for j in sample if self.stiffness is not None else ():
            f = self.lift(np.array([j]))[:, 0]
            res = (np.linalg.norm(self.stiffness @ f - self.eigenvalues[j] * (self.weights * f))
                   / np.linalg.norm(self.weights * f))
            if res > self.residual_tol:
                raise ResidualViolation(f"lifted mode {j} misses the cover by {res:.2e}")
        return self


def _smallest_pairs(K, weights: np.ndarray, count: int):
    """The count lowest eigenpairs of K psi = nu diag(weights) psi, ascending
    and M-orthonormal, and the entries SuperLU stores for the L and U of the
    one factorization made (SuperLU.nnz).
    A complex K goes through ARPACK's non-Hermitian iteration, whose Ritz
    vectors are not orthogonal inside clusters: a Rayleigh-Ritz step on
    their span makes them so."""
    n = K.shape[0]
    s = 1.0 / np.sqrt(weights)
    coo = K.tocoo()
    # s_i s_j is formed first, so the scaled matrix is exactly symmetric
    # (Hermitian) whenever K is
    A = sp.csc_matrix((coo.data * (s[coo.row] * s[coo.col]), (coo.row, coo.col)),
                      shape=K.shape)
    lu = spla.splu(A - _SHIFT * sp.eye(n, format="csc"),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    op = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype)
    # a fixed start makes runs reproducible; not a constant vector, which is
    # the null eigenvector and would end the Lanczos iteration
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(A, k=count, sigma=_SHIFT, which="LM", v0=v0, OPinv=op)
    except spla.ArpackNoConvergence as exc:
        raise SolverNotConverged(str(exc)) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], s[:, None] * vecs[:, order]
    if np.iscomplexobj(K):
        from scipy.linalg import eigh
        vals, coef = eigh(vecs.conj().T @ (K @ vecs), vecs.conj().T @ (weights[:, None] * vecs))
        vecs = vecs @ coef
    return vals, vecs, lu.nnz


@lru_cache(maxsize=8)
def _base_pairs(chart: _Chart, count: int):
    """_smallest_pairs of the base problem of a chart (its degree-1 mesh),
    solved once per pair count; the arrays are read-only."""
    vals, vecs, fill = _smallest_pairs(chart.base.stiffness, chart.base.weights, count)
    _frozen(vals, vecs)
    return vals, vecs, fill


def fem_eigensolve(mesh: SurfaceMesh, n_modes: int | None = None,
                   reach: float | None = None) -> EigenData:
    """The n_modes lowest eigenpairs of K psi = nu M psi on the mesh, or
    (given reach instead) every eigenpair up to reach and on to the lowest
    block top, by shift-invert Lanczos on each character block of the deck
    group (one block, K, off cyclic covers), kept in the blocks (see the module
    docstring).  Their Gram matrix must be the identity to _ORTHO_TOL."""
    if (n_modes is None) == (reach is None):
        raise ValueError("give exactly one of n_modes and reach")
    if n_modes is not None and n_modes < 1:
        raise ParameterOutOfRange("n_modes must be at least 1")
    walk = mesh.walk
    d = len(walk)
    orbit, offset = np.empty(walk.size, dtype=int), np.empty(walk.size, dtype=int)
    orbit[walk], offset[walk] = np.arange(walk.shape[1]), np.arange(d)[:, None]
    if mesh.chart is not None and d == len(mesh.classes):
        # character 0 is the base problem: below[a] is the base unknown under r_a
        below = np.empty(walk.size, dtype=int)
        below[mesh.classes] = mesh.chart.base.classes[0]
        below = below[walk[0]]
    else:
        below = None
    rows = mesh.stiffness[walk[0]].tocoo()
    w, size = mesh.weights[walk[0]], walk.shape[1]
    ks = range(d // 2 + 1)
    mult = {k: 1 if 2 * k % d == 0 else 2 for k in ks}   # a complex pair is 2 modes
    if reach is None:
        # at d = 1 the one block holds the whole spectrum and needs no pad
        start = -(-n_modes // d) + (_PAD if d > 1 else 0)
    else:
        start = math.ceil(mesh.volume / d * reach / (4.0 * math.pi)) + _PAD
    count = dict.fromkeys(ks, start)
    pairs, fill, solved = {}, 0, 0
    while True:
        for k in ks:
            if k in pairs and len(pairs[k][1]) == count[k]:
                continue
            if count[k] > size - 2:
                raise ParameterOutOfRange("the modes asked for must be far below the mesh size")
            phase = np.exp(2j * np.pi * (k * offset[rows.col] % d) / d)
            Kk = sp.csr_matrix((rows.data * (phase.real if mult[k] == 1 else phase),
                                (rows.row, orbit[rows.col])), shape=(size, size))
            Kk = 0.5 * (Kk + Kk.conj().T)
            if k == 0 and below is not None:
                vals, vecs, f = _base_pairs(mesh.chart, count[k])
                vecs = vecs[below]
            else:
                vals, vecs, f = _smallest_pairs(Kk, w, count[k])
            pairs[k], fill, solved = (Kk, vals, vecs), fill + f, solved + 1
        nu = np.concatenate([np.repeat(pairs[k][1], mult[k]) for k in ks])
        top = np.array([pairs[k][1][-1] for k in ks])
        short = top < np.sort(nu)[n_modes - 1] if reach is None else top <= reach
        if not short.any():
            break
        for k in np.flatnonzero(short):
            count[ks[k]] *= 2
    if reach is not None:
        n_modes = int(np.count_nonzero(nu <= top.min()))
    # the modes in the order of nu: pair p of block k, its imaginary part if i
    kpi = np.array([(k, p, i) for k in ks for p in range(len(pairs[k][1]))
                    for i in range(mult[k])])[np.argsort(nu, kind="stable")[:n_modes]]
    kept = np.unique(kpi[:, 0])
    blocks = np.empty((size, n_modes), dtype=np.result_type(*(pairs[k][2] for k in kept)))
    res = np.empty(n_modes)
    for k in kept:
        # one gather and one K_k product per character, on the columns as
        # stored (complex beside a complex block); norms column by column
        sel = np.flatnonzero(kpi[:, 0] == k)
        Kk, vals, vecs = pairs[k]
        p = kpi[sel, 1]
        V = blocks[:, sel] = vecs[:, p].astype(blocks.dtype, copy=False)
        wV = w[:, None] * V
        R = Kk @ V - vals[p] * wV
        res[sel] = [np.linalg.norm(r) / max(np.linalg.norm(m), 1e-300)
                    for r, m in zip(R.T, wV.T)]
    # modes the memo served are held to the bound of the blocks factorized
    # here, so base modes that do not solve this mesh's own K_0 are refused
    served = (kpi[:, 0] == 0) & (below is not None)
    return EigenData(mesh.label, mesh.points, mesh.sheets, mesh.weights, np.sort(nu)[:n_modes],
                     blocks, walk, kpi[:, 0], kpi[:, 2] == 1, res, _ORTHO_TOL,
                     residual_tol=max(1e-6, 10.0 * float(res[~served].max(initial=0.0))),
                     volume=mesh.volume, h=mesh.h, factor_nnz=fill,
                     character_blocks=solved, stiffness=mesh.stiffness).validate()


# ---------------------------------------------------------------------------
# Canonical file format: JSON header + CSV arrays, 17 significant digits
# ---------------------------------------------------------------------------

_FMT = "%.17g"


def export_eigendata(data: EigenData, basename: str):
    """Write {basename}.json / _mesh.csv / _eigs.csv / _modes.csv, creating
    the directory of basename if it is missing."""
    os.makedirs(os.path.dirname(basename) or ".", exist_ok=True)
    header = {"surface_id": data.surface_id, "n_mesh": int(len(data.points)),
              "n_modes": int(data.n_modes), "ortho_tol": data.ortho_tol,
              "residual_tol": data.residual_tol, "volume": data.volume, "h": data.h,
              "residuals": [float(_FMT % r) for r in data.residuals],
              "characters": [int(k) for k in data.characters]}
    with open(basename + ".json", "w") as f:
        json.dump(header, f, sort_keys=True, indent=1)
    with open(basename + "_mesh.csv", "w") as f:
        f.write("x,y,sheet,weight\n")
        for z, s, w in zip(data.points, data.sheets, data.weights):
            f.write(f"{_FMT % z.real},{_FMT % z.imag},{int(s)},{_FMT % w}\n")
    with open(basename + "_eigs.csv", "w") as f:
        f.write("eigenvalue\n")
        for v in data.eigenvalues:
            f.write((_FMT % v) + "\n")
    with open(basename + "_modes.csv", "w") as f:
        for j in range(data.n_modes):
            f.write(",".join(_FMT % v for v in data.eigenvectors[:, j]) + "\n")


def ingest_eigendata(basename: str) -> EigenData:
    """Read and validate the canonical eigendata files, against the
    tolerances their header declares."""
    try:
        with open(basename + ".json") as f:
            header = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable header: {exc}") from exc
    for key in ("surface_id", "n_mesh", "n_modes", "ortho_tol", "residuals"):
        if key not in header:
            raise FormatError(f"header missing {key!r}")
    try:
        mesh_rows = np.loadtxt(basename + "_mesh.csv", delimiter=",", skiprows=1,
                               ndmin=2)
        eigs = np.loadtxt(basename + "_eigs.csv", skiprows=1, ndmin=1)
        modes = np.loadtxt(basename + "_modes.csv", delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise FormatError(f"unreadable arrays: {exc}") from exc
    if mesh_rows.shape[0] != header["n_mesh"] or mesh_rows.shape[1] != 4:
        raise FormatError("mesh array shape does not match the header")
    if len(eigs) != header["n_modes"] or modes.shape != (header["n_modes"],
                                                         header["n_mesh"]):
        raise FormatError("eigen arrays do not match the header")
    # files written before characters were recorded hold no cover characters
    characters = np.asarray(header.get("characters", [0] * header["n_modes"]), dtype=int)
    if characters.shape != (header["n_modes"],):
        raise FormatError("characters do not match the header")
    return EigenData(header["surface_id"], mesh_rows[:, 0] + 1j * mesh_rows[:, 1],
                     mesh_rows[:, 2].astype(int), mesh_rows[:, 3],
                     eigs, modes.T, np.arange(header["n_mesh"])[None, :], characters,
                     np.zeros(header["n_modes"], dtype=bool),
                     np.asarray(header["residuals"], dtype=float),
                     header["ortho_tol"],
                     header.get("residual_tol", math.inf),
                     header.get("volume", float("nan")), header.get("h", float("nan"))).validate()
