"""Desk-scale Laplace-Beltrami eigensolver on chart grids with side pairings.

The disc metric is conformal, so the Dirichlet energy on the chart is the
flat one: the stiffness matrix is the plain 5-point graph Laplacian of the
grid, and all geometry enters through the diagonal mass matrix of hyperbolic
cell areas 4 h^2 / (1 - |z|^2)^2.  Grid nodes fill the Dirichlet domain;
stencil legs that exit it are pulled back by the side-pairing isometries and
expressed through bilinear interpolation on interior nodes (the pulled-back
point does not land on the grid).  On covers each node carries a sheet index
and boundary crossings permute sheets by the cover's monodromy.

The same pipeline runs on the flat unit torus (exact periodic pairings,
known spectrum 4 pi^2 (m^2 + n^2)), which serves as the solver's self-test.

Eigenpairs come from shift-invert Lanczos (ARPACK) on the generalized
symmetric problem K psi = nu M psi; the asymmetry introduced by ghost
interpolation is removed by symmetrizing K, which preserves zero row+column
mass so the constant mode stays an exact null vector up to interpolation
error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (FormatError, MeshPairingFailure, OrthonormalityViolation,
                     ParameterOutOfRange, ResidualViolation, SolverNotConverged)
from .fuchsian import (CoverSurface, FuchsianGroup, _compose_perms, _face_points,
                       _in_dirichlet_domain, _sinh2_half_dists)
from .geometry import mobius_apply_complex


@dataclass(frozen=True)
class SurfaceMesh:
    label: str
    points: np.ndarray      # complex chart coordinates, (n,)
    sheets: np.ndarray      # int, (n,)
    weights: np.ndarray     # cell measures, (n,)
    stiffness: sp.csr_matrix
    volume: float           # continuum volume, for reference
    h: float


class _OctagonDomain:
    """Dirichlet-domain membership and side-pairing reduction for a group."""

    def __init__(self, group: FuchsianGroup):
        if group.dirichlet_radius is None:
            raise ValueError("mesh needs a cocompact group with known radius")
        self.group = group
        self.pairings = group.symmetrized()              # gamma_k, k in 0..2n-1
        self.pair_pts = _face_points(group)
        self.pair_inv = [g.inverse() for g in self.pairings]

    def contains(self, z: complex, tol: float = 1e-12) -> bool:
        return _in_dirichlet_domain(z, self.pair_pts, tol)

    def reduce(self, z: complex, max_steps: int = 12):
        """Pull z into the domain by pairing moves; returns (z', word).

        word lists the symmetrized generator indices applied, in order, and
        determines the sheet monodromy on covers.
        """
        word = []
        for _ in range(max_steps):
            own, others = _sinh2_half_dists(z, self.pair_pts)
            k = int(np.argmin(others))
            if own <= others[k] + 1e-13:
                return z, word
            z = mobius_apply_complex(self.pair_inv[k], z)
            word.append(k)
        raise MeshPairingFailure("side-pairing reduction did not terminate")


def disc_surface_mesh(surface, h: float) -> SurfaceMesh:
    """Chart-grid mesh of a cocompact quotient (or a finite cover of one)."""
    if not (0.01 <= h <= 0.2):
        raise ParameterOutOfRange("h must lie in [0.01, 0.2]")
    group = surface.base if isinstance(surface, CoverSurface) else surface
    cover = surface if isinstance(surface, CoverSurface) else None
    degree = cover.degree if cover else 1
    dom = _OctagonDomain(group)
    r_max = math.tanh(group.dirichlet_radius / 2.0) + 2 * h
    m = int(math.ceil(r_max / h))
    base_nodes = {}
    pts = []
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            z = complex(i * h, j * h)
            if abs(z) < 1.0 and dom.contains(z):
                base_nodes[(i, j)] = len(pts)
                pts.append(z)
    n_base = len(pts)
    if n_base < 16:
        raise MeshPairingFailure(f"grid too coarse: {n_base} nodes")
    pts = np.array(pts)

    def sheet_after(word, s):
        if cover is None or not word:
            return s
        return int(_compose_perms(cover, word)[s])

    rows, cols, vals = [], [], []
    unmatched = 0

    def add_leg(terms):
        """Energy contribution (1/2) (sum_m c_m u_m)^2 for one stencil leg.

        Keeps the form symmetric PSD and exactly zero on constants (the
        coefficients of every leg sum to zero by construction).
        """
        for (r, cr) in terms:
            for (c, cc) in terms:
                rows.append(r)
                cols.append(c)
                vals.append(0.5 * cr * cc)

    offsets = [h, -h, 1j * h, -1j * h]
    for (i, j), idx in base_nodes.items():
        z = pts[idx]
        for off in offsets:
            w = z + off
            iw = (i + int(round(off.real / h)), j + int(round(off.imag / h)))
            if iw in base_nodes:
                nb = base_nodes[iw]
                for s in range(degree):
                    add_leg([(idx + s * n_base, 1.0), (nb + s * n_base, -1.0)])
                continue
            # ghost neighbor: pull back into the domain, bilinear on the grid
            wr, word = dom.reduce(w)
            gx, gy = wr.real / h, wr.imag / h
            i0, j0 = int(math.floor(gx)), int(math.floor(gy))
            fx, fy = gx - i0, gy - j0
            corners = [((i0, j0), (1 - fx) * (1 - fy)), ((i0 + 1, j0), fx * (1 - fy)),
                       ((i0, j0 + 1), (1 - fx) * fy), ((i0 + 1, j0 + 1), fx * fy)]
            avail = [(base_nodes[c], wgt) for c, wgt in corners if c in base_nodes]
            wsum = sum(wgt for _, wgt in avail)
            if not avail or wsum < 0.05:
                # corner sliver: all useful bilinear corners exited the
                # domain; snap to the nearest interior node instead
                d2 = np.abs(pts - wr)
                nearest = int(np.argmin(d2))
                if d2[nearest] > 1.6 * h:
                    unmatched += 1
                    continue
                avail = [(nearest, 1.0)]
                wsum = 1.0
            for s in range(degree):
                s2 = sheet_after(word, s)
                add_leg([(idx + s * n_base, 1.0)]
                        + [(nb + s2 * n_base, -wgt / wsum) for nb, wgt in avail])
    if unmatched > 0:
        raise MeshPairingFailure(f"{unmatched} stencil legs had no usable pairing image")

    n = n_base * degree
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    weights_base = 4.0 * h * h / (1.0 - np.abs(pts) ** 2) ** 2
    weights = np.tile(weights_base, degree)
    points = np.tile(pts, degree)
    sheets = np.repeat(np.arange(degree), n_base)
    vol = group.volume() * degree
    label = group.label + (f":deg{degree}" if degree > 1 else "")
    return SurfaceMesh(label, points, sheets, weights, K, vol, h)


def torus_mesh(h: float) -> SurfaceMesh:
    """Flat unit torus R^2/Z^2 through the same pipeline (exact pairings)."""
    if not (0.005 <= h <= 0.2):
        raise ParameterOutOfRange("h must lie in [0.005, 0.2]")
    n = int(round(1.0 / h))
    h = 1.0 / n
    idx = lambda i, j: (i % n) * n + (j % n)
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            r = idx(i, j)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rows.append(r)
                cols.append(r)
                vals.append(1.0)
                rows.append(r)
                cols.append(idx(i + di, j + dj))
                vals.append(-1.0)
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n * n, n * n)).tocsr()
    pts = np.array([complex(i * h, j * h) for i in range(n) for j in range(n)])
    return SurfaceMesh("torus", pts, np.zeros(n * n, dtype=int),
                       np.full(n * n, h * h), K, 1.0, h)


@dataclass(frozen=True)
class EigenData:
    surface_id: str
    points: np.ndarray
    sheets: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # (n_mesh, n_modes), M-orthonormal
    residuals: np.ndarray
    ortho_tol: float
    residual_tol: float
    volume: float
    h: float

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def gram_deviation(self) -> float:
        G = self.eigenvectors.T @ (self.weights[:, None] * self.eigenvectors)
        return float(np.max(np.abs(G - np.eye(self.n_modes))))

    def validate(self):
        if np.any(np.diff(self.eigenvalues) < -1e-12):
            raise FormatError("eigenvalues not ascending")
        dev = self.gram_deviation()
        if dev > self.ortho_tol:
            raise OrthonormalityViolation(f"Gram deviation {dev:.2e} > {self.ortho_tol}")
        if np.any(self.residuals > self.residual_tol):
            raise ResidualViolation("stored residual exceeds its declared bound")
        return self


def fem_eigensolve(mesh: SurfaceMesh, n_modes: int, ortho_tol: float = 1e-8,
                   sigma: float = -0.1) -> EigenData:
    """Shift-invert Lanczos eigenpairs of K psi = nu M psi on the mesh."""
    n = mesh.stiffness.shape[0]
    if n_modes >= n - 1:
        raise ParameterOutOfRange("n_modes must be far below the mesh size")
    M = sp.diags(mesh.weights)
    try:
        vals, vecs = spla.eigsh(mesh.stiffness, k=n_modes, M=M, sigma=sigma,
                                which="LM")
    except spla.ArpackNoConvergence as exc:
        raise SolverNotConverged(str(exc)) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    res = []
    for j in range(n_modes):
        r = mesh.stiffness @ vecs[:, j] - vals[j] * (mesh.weights * vecs[:, j])
        res.append(float(np.linalg.norm(r) / max(np.linalg.norm(
            mesh.weights * vecs[:, j]), 1e-300)))
    res = np.array(res)
    return EigenData(mesh.label, mesh.points, mesh.sheets, mesh.weights,
                     vals, vecs, res, ortho_tol,
                     residual_tol=max(1e-6, 10.0 * float(res.max())),
                     volume=mesh.volume, h=mesh.h).validate()


# ---------------------------------------------------------------------------
# Canonical file format: JSON header + CSV arrays, 17 significant digits
# ---------------------------------------------------------------------------

_FMT = "%.17g"


def export_eigendata(data: EigenData, basename: str):
    """Write {basename}.json / _mesh.csv / _eigs.csv / _modes.csv."""
    header = {
        "surface_id": data.surface_id,
        "n_mesh": int(len(data.points)),
        "n_modes": int(data.n_modes),
        "ortho_tol": data.ortho_tol,
        "residual_tol": data.residual_tol,
        "residuals": [float(_FMT % r) for r in data.residuals],
        "volume": data.volume,
        "h": data.h,
    }
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


def ingest_eigendata(basename: str, ortho_tol: float | None = None) -> EigenData:
    """Read and validate the canonical eigendata files."""
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
    data = EigenData(header["surface_id"],
                     mesh_rows[:, 0] + 1j * mesh_rows[:, 1],
                     mesh_rows[:, 2].astype(int), mesh_rows[:, 3],
                     eigs, modes.T, np.asarray(header["residuals"], dtype=float),
                     ortho_tol if ortho_tol is not None else header["ortho_tol"],
                     header.get("residual_tol", math.inf),
                     header.get("volume", float("nan")), header.get("h", float("nan")))
    return data.validate()
