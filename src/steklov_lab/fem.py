"""P1 finite elements for the Steklov / Steklov-Neumann / Steklov-Dirichlet
eigenproblems via a Dirichlet-to-Neumann reduction.

The Dirichlet energy is assembled over all vertices, reduced to the steklov
boundary by a Schur complement (interior and neumann vertices eliminated,
dirichlet vertices pinned to zero), and the resulting dense symmetric pencil
(Lambda, B) is solved with a generalized symmetric-definite eigensolver.
"""

from dataclasses import dataclass
import hashlib
import json

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from . import geometry
from .geometry import DIRICHLET, NEUMANN, STEKLOV, Mesh2D  # noqa: F401


class AssemblyError(ValueError):
    pass


class FactorizationError(ValueError):
    pass


class EmptyBoundaryError(ValueError):
    pass


class ZeroBoundaryTraceError(ValueError):
    pass


def _stiffness_local(coords, weights):
    """Local 3x3 Dirichlet-energy matrices for P1 triangles, vectorized.

    coords: (nt, 3, 2) triangle vertex coordinates (CCW), weights: (nt,).
    Returns (nt, 3, 3) local matrices and the signed doubled areas (nt,).
    """
    x = coords[:, :, 0]
    y = coords[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    # degenerate triangles are reported by the caller from area2
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = weights / (2.0 * area2)
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    local *= scale[:, None, None]
    return local, area2


def assemble_stiffness(mesh):
    """Weighted P1 Dirichlet-energy matrix over all mesh vertices (CSR)."""
    coords = geometry.triangle_coords(mesh)
    local, area2 = _stiffness_local(coords, np.asarray(mesh.tri_weight, float))
    if np.any(area2 <= 0):
        bad = int(np.argmin(area2))
        raise AssemblyError(f"triangle {bad} is degenerate (doubled area {area2[bad]:.3e})")
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.n_vertices, mesh.n_vertices))
    return K.tocsr()


@dataclass(frozen=True)
class BoundaryMass:
    """Consistent 1D P1 mass matrix on a tagged part of the boundary."""

    matrix: sp.csr_matrix      # (nb, nb) over the tagged boundary vertices
    vertices: np.ndarray       # sorted mesh vertex ids carrying the tag


def assemble_boundary_mass(mesh, tag=STEKLOV):
    sel = mesh.boundary_tags == tag
    if not np.any(sel):
        raise EmptyBoundaryError(f"no boundary edges tagged {tag!r}")
    edges = mesh.boundary_edges[sel]
    dens = mesh.edge_density[sel]
    lens = geometry.boundary_edge_lengths(mesh)[sel]
    verts = np.unique(edges)
    remap = -np.ones(mesh.n_vertices, np.int64)
    remap[verts] = np.arange(verts.size)
    a = remap[edges[:, 0]]
    b = remap[edges[:, 1]]
    w = dens * lens
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([w / 3.0, w / 3.0, w / 6.0, w / 6.0])
    M = sp.coo_matrix((vals, (rows, cols)), shape=(verts.size, verts.size))
    return BoundaryMass(matrix=M.tocsr(), vertices=verts)


@dataclass(frozen=True)
class DtNMatrix:
    """Discrete Dirichlet-to-Neumann operator on the steklov vertices."""

    matrix: np.ndarray          # (ns, ns) dense symmetric PSD
    steklov_vertices: np.ndarray
    interior_vertices: np.ndarray
    dirichlet_vertices: np.ndarray
    _interior_solve: object     # factorization of K_ii, or None
    _k_ib: object               # K_ib block (sparse), or None

    def extend(self, boundary_values, n_vertices):
        """Full vertex field of the energy-minimizing extension."""
        boundary_values = np.asarray(boundary_values, float)
        single = boundary_values.ndim == 1
        vals = np.atleast_2d(boundary_values)
        field = np.zeros((vals.shape[0], n_vertices))
        field[:, self.steklov_vertices] = vals
        if self.interior_vertices.size:
            rhs = -(self._k_ib @ vals.T)
            field[:, self.interior_vertices] = self._interior_solve(rhs).T
        return field[0] if single else field


def _check_connectivity(K, steklov_vertices, dirichlet_vertices):
    n = K.shape[0]
    keep = np.ones(n, bool)
    keep[dirichlet_vertices] = False
    sub = K[keep][:, keep]
    n_comp, labels = connected_components(sub, directed=False)
    anchored = np.zeros(n_comp, bool)
    local_ids = np.cumsum(keep) - 1
    sk = steklov_vertices[keep[steklov_vertices]]
    anchored[labels[local_ids[sk]]] = True
    if dirichlet_vertices.size:
        # components touching a removed dirichlet vertex are anchored too
        pattern = K.tocoo()
        dmask = np.zeros(n, bool)
        dmask[dirichlet_vertices] = True
        touch = dmask[pattern.row] & keep[pattern.col]
        anchored[labels[local_ids[pattern.col[touch]]]] = True
    if not anchored.all():
        raise FactorizationError(
            "mesh has a component disconnected from the steklov/dirichlet boundary; "
            "its pure-neumann block is singular")


def dtn_matrix(K, steklov_vertices, dirichlet_vertices=()):
    """Schur-complement reduction of the stiffness matrix to the steklov set."""
    steklov_vertices = np.asarray(steklov_vertices, np.int64)
    dirichlet_vertices = np.asarray(dirichlet_vertices, np.int64)
    if np.intersect1d(steklov_vertices, dirichlet_vertices).size:
        raise ValueError("steklov and dirichlet vertex sets must be disjoint")
    n = K.shape[0]
    _check_connectivity(K, steklov_vertices, dirichlet_vertices)
    interior = np.setdiff1d(np.arange(n), np.concatenate([steklov_vertices, dirichlet_vertices]))
    K = K.tocsr()
    K_bb = K[steklov_vertices][:, steklov_vertices].toarray()
    if interior.size == 0:
        return DtNMatrix(K_bb, steklov_vertices, interior, dirichlet_vertices, None, None)
    K_ii = K[interior][:, interior].tocsc()
    K_ib = K[interior][:, steklov_vertices].tocsc()
    try:
        lu = splu(K_ii)
    except RuntimeError as exc:
        raise FactorizationError(f"interior block factorization failed: {exc}") from exc
    X = lu.solve(K_ib.toarray())
    lam = K_bb - K_ib.T @ X
    solve = lu.solve
    return DtNMatrix(lam, steklov_vertices, interior, dirichlet_vertices, solve, K_ib)


@dataclass(frozen=True)
class SpectralResult:
    """Eigenpairs of the boundary pencil (Lambda, B) plus interior extensions."""

    eigenvalues: np.ndarray       # (n_eigs,) ascending
    boundary_vectors: np.ndarray  # (ns, n_eigs), B-orthonormal columns
    extensions: np.ndarray        # (n_eigs, nv) harmonic interior extensions
    clusters: list                # list of (start, stop) index ranges, stop exclusive
    cluster_rel_tol: float
    steklov_vertices: np.ndarray
    problem: dict
    dtn: np.ndarray               # dense DtN matrix (for residual checks)
    boundary_mass: np.ndarray     # dense boundary mass (for residual checks)


def multiplicity_clusters(eigenvalues, rel_tol):
    """Greedy grouping of numerically coincident sorted eigenvalues."""
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    eigenvalues = np.asarray(eigenvalues, float)
    clusters = []
    start = 0
    for j in range(1, eigenvalues.size):
        if eigenvalues[j] - eigenvalues[j - 1] >= rel_tol * max(1.0, abs(eigenvalues[j])):
            clusters.append((start, j))
            start = j
    if eigenvalues.size:
        clusters.append((start, eigenvalues.size))
    return clusters


def default_cluster_rel_tol(mesh):
    # multiplicity on a mesh is a tolerance statement: twice the crude h^2
    # discretization estimate, floored at 1e-3
    return max(1e-3, 2.0 * geometry.max_edge_length(mesh) ** 2)


def steklov_spectrum(mesh, n_eigs, cluster_rel_tol=None):
    """Solve the (mixed) Steklov eigenproblem on a tagged mesh."""
    if cluster_rel_tol is None:
        cluster_rel_tol = default_cluster_rel_tol(mesh)
    B = assemble_boundary_mass(mesh, STEKLOV)
    sk = B.vertices
    if n_eigs > sk.size:
        raise ValueError(f"n_eigs={n_eigs} exceeds the {sk.size} steklov vertices")
    K = assemble_stiffness(mesh)
    dirichlet = geometry.tagged_vertices(mesh, DIRICHLET)
    dirichlet = np.setdiff1d(dirichlet, sk)
    dtn = dtn_matrix(K, sk, dirichlet)
    lam = 0.5 * (dtn.matrix + dtn.matrix.T)
    B_dense = B.matrix.toarray()
    w, v = sla.eigh(lam, B_dense)
    w = w[:n_eigs]
    v = v[:, :n_eigs]
    extensions = dtn.extend(v.T, mesh.n_vertices)
    clusters = multiplicity_clusters(w, cluster_rel_tol)
    problem = {
        "n_eigs": int(n_eigs),
        "n_vertices": int(mesh.n_vertices),
        "n_steklov_vertices": int(sk.size),
        "has_dirichlet": bool(dirichlet.size),
        "mesh_hash": geometry.mesh_hash(mesh),
    }
    return SpectralResult(
        eigenvalues=w,
        boundary_vectors=v,
        extensions=extensions,
        clusters=clusters,
        cluster_rel_tol=float(cluster_rel_tol),
        steklov_vertices=sk,
        problem=problem,
        dtn=dtn.matrix,
        boundary_mass=B_dense,
    )


def harmonic_extension(mesh, boundary_values):
    """Energy-minimizing extension of steklov-boundary values (neumann natural)."""
    B = assemble_boundary_mass(mesh, STEKLOV)
    K = assemble_stiffness(mesh)
    dirichlet = np.setdiff1d(geometry.tagged_vertices(mesh, DIRICHLET), B.vertices)
    dtn = dtn_matrix(K, B.vertices, dirichlet)
    return dtn.extend(np.asarray(boundary_values, float), mesh.n_vertices)


def rayleigh_quotient(mesh, field):
    """(f' K f) / (f_b' B f_b) over the steklov boundary."""
    field = np.asarray(field, float)
    K = assemble_stiffness(mesh)
    B = assemble_boundary_mass(mesh, STEKLOV)
    fb = field[B.vertices]
    denom = float(fb @ (B.matrix @ fb))
    if denom == 0.0:
        raise ZeroBoundaryTraceError("field has zero trace on the steklov boundary")
    return float(field @ (K @ field)) / denom


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spectral_result_to_dict(result):
    return {
        "format": "steklov-spectrum v1",
        "eigenvalues": [format(x, ".17g") for x in result.eigenvalues],
        "clusters": [[int(a), int(b)] for a, b in result.clusters],
        "cluster_rel_tol": format(result.cluster_rel_tol, ".17g"),
        "problem": result.problem,
        "descriptor_hash": hashlib.sha256(
            json.dumps(result.problem, sort_keys=True).encode()).hexdigest(),
    }


def save_spectral_result(result, path):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(spectral_result_to_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
