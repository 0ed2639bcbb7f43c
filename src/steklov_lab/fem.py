"""P1 finite elements for the Steklov / Steklov-Neumann / Steklov-Dirichlet
eigenproblems.

The Dirichlet energy K is assembled over all vertices, once per weighting:
the meshes that geometry.replace_mesh derives without new triangle weights
share one read-only K.  K is summed on a scatter plan of the triangulation
(StiffnessPlan), in the order of scipy's COO to CSR conversion, so it has the
bits of that conversion.  A mesh assembled with one weight vector keeps no
plan; once a triangulation is assembled with a second one, the plan is kept
in mesh.geometry_cache, beside the default cluster tolerance, and every later
re-weighting reuses both.  What the boundary tags fix comes from mesh.tag_sets.
Dirichlet vertices are pinned to zero by removing them
(without them, K itself is used), and the pencil (K_f, M_Gamma) over the
remaining free vertices is solved on one of two paths, chosen by the number of
free boundary vertices (the boundary vertices that no dirichlet tag pins).

At most _DENSE_BOUNDARY of them: the boundary Schur complement of K,
S = K_BB - K_BI K_II^-1 K_IB (the discrete Dirichlet-to-Neumann map), and
K_II^-1 K_IB are built once per weighting and dirichlet set and kept beside
K, so every density and steklov arc on that weighting reuses them.  A solve
eliminates the neumann boundary vertices from S, T = S_ss - S_sn S_nn^-1 S_ns,
takes the n_eigs smallest pairs of the dense pencil (T, M_Gamma) from LAPACK
and extends them to the neumann boundary and the interior.  The bound is a
measured one: up to it a first dense solve is no slower than ARPACK, and
LAPACK gives the same bits with one or two BLAS threads.

Larger boundaries: the pencil is solved through one sparse factorization of
K_f - SHIFT * M_Gamma.  The steklov boundary mass is M_Gamma = G^T G, where G
holds the 2x2 Cholesky factor of each steklov edge's mass block, two rows per
edge, with its columns renumbered onto the free vertices.  ARPACK runs in
standard mode on the symmetric operator y -> G (K_f - SHIFT * M_Gamma)^-1 G^T y,
whose nonzero eigenvalues are theta = 1 / (sigma - SHIFT) and which needs no
M_Gamma product (the spectral transformation of Ericsson & Ruhe, Math. Comp.
35, 1980).  One block solve, x = (K_f - SHIFT * M_Gamma)^-1 G^T Y / theta,
turns the eigenvectors Y into the discrete harmonic extensions of their
steklov traces.

On both paths the eigenvectors are scaled to unit M_Gamma-norm, and each gets
the sign that makes the first trace entry of at least half the largest
magnitude positive.
"""

from dataclasses import dataclass
from functools import cached_property
import hashlib
import json

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
# the kernels of scipy's COO to CSR conversion, which the stiffness plan
# runs in two halves to keep its summation order
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from . import geometry
from .geometry import DIRICHLET, NEUMANN, STEKLOV, Mesh2D  # noqa: F401


class AssemblyError(ValueError):
    pass


class FactorizationError(ValueError):
    pass


class EmptyBoundaryError(ValueError):
    pass


def _local_matrices(coords):
    """The unweighted local Dirichlet-energy matrices of P1 triangles,
    b_i b_j + c_i c_j, and their signed doubled areas.

    coords: (nt, 3, 2) triangle vertex coordinates (CCW).  The matrices are
    symmetric, so each comes as its entries 00, 11, 22, 01, 12 and 20, one
    row of the (6, nt) result each; the areas are (nt,).
    """
    x, y = coords[:, :, 0], coords[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]])
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]])
    area2 = x[:, 0] * b[0] + x[:, 1] * b[1] + x[:, 2] * b[2]
    local = np.empty((6, x.shape[0]))
    for row, (i, j) in zip(local, ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))):
        np.multiply(b[i], b[j], out=row)
        row += c[i] * c[j]
    return local, area2


# the row of _local_matrices holding entry (i, j) of a local matrix, row by row
_LOCAL_ROW = np.array([0, 3, 5, 3, 1, 4, 5, 4, 2], np.int32)


@dataclass(frozen=True)
class StiffnessPlan:
    """The terms of K in the order in which scipy's COO to CSR conversion
    sums them: scipy's summation permutation of the local matrices, and the
    rows and columns the terms land in, duplicates kept.  An assembly
    weights the local matrices, takes them in that order and lets scipy's
    csr_sum_duplicates add up each entry, so K has the bits of the
    conversion for any triangle weights."""

    local: np.ndarray     # (6, nt) unweighted local matrices, as _local_matrices
    area2: np.ndarray     # (nt,) doubled triangle areas, all positive
    term: np.ndarray      # (9 nt,) place in local.ravel() of each term
    indptr: np.ndarray    # (nv + 1,) start of each row's terms
    indices: np.ndarray   # (9 nt,) column of each term, sorted within its row


def _build_plan(mesh):
    """The StiffnessPlan of the mesh's triangulation; AssemblyError names a
    degenerate triangle."""
    local, area2 = _local_matrices(geometry.triangle_coords(mesh))
    if np.any(area2 <= 0):
        bad = int(np.argmin(area2))
        raise AssemblyError(f"triangle {bad} is degenerate (doubled area {area2[bad]:.3e})")
    nv, nt = mesh.n_vertices, mesh.n_triangles
    n = 9 * nt
    # the 3x3 local matrices as COO terms, triangle by triangle and row by
    # row, each carrying its place in local.ravel() as its value: the two
    # kernels of scipy's conversion, a stable counting sort by row and a sort
    # of each row by column, leave the places in scipy's summation order
    tris = mesh.triangles.astype(np.int32, copy=False)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    places = (_LOCAL_ROW * np.int32(nt) + np.arange(nt, dtype=np.int32)[:, None]).ravel()
    indptr = np.empty(nv + 1, np.int32)
    indices = np.empty(n, np.int32)
    term = np.empty(n, np.int32)
    _sparsetools.coo_tocsr(nv, nv, n, rows, cols, places, indptr, indices, term)
    _sparsetools.csr_sort_indices(nv, indptr, indices, term)
    plan = StiffnessPlan(local=local, area2=area2, term=term, indptr=indptr, indices=indices)
    for arr in vars(plan).values():
        arr.flags.writeable = False
    return plan


def _stiffness_plan(mesh):
    """The scatter plan of the mesh's triangulation.  A geometry assembled
    with one weight vector only (a graph-limit or collar mesh, an audit
    domain) builds it for each assembly and keeps nothing; once it is
    assembled with a second weight vector, the plan is kept in
    mesh.geometry_cache for every later weighting."""
    held = mesh.geometry_cache
    if "plan" in held:
        return held["plan"]
    plan = _build_plan(mesh)
    if held.setdefault("assembled_weights", mesh.tri_weight) is not mesh.tri_weight:
        held["plan"] = plan
        del held["assembled_weights"]
    return plan


def assemble_stiffness(mesh):
    """Weighted P1 Dirichlet-energy matrix over all mesh vertices (CSR),
    summed on the triangulation's scatter plan."""
    plan = _stiffness_plan(mesh)
    nv = mesh.n_vertices
    scale = np.asarray(mesh.tri_weight, float) / (2.0 * plan.area2)
    data = (plan.local * scale).ravel()[plan.term]
    indptr, indices = plan.indptr.copy(), plan.indices.copy()
    _sparsetools.csr_sum_duplicates(nv, nv, indptr, indices, data)
    nnz = indptr[-1]
    K = sp.csr_matrix((data[:nnz].copy(), indices[:nnz].copy(), indptr), shape=(nv, nv))
    K.has_canonical_format = True  # sorted and summed, as scipy's conversion leaves it
    return K


def _stiffness(mesh):
    """The stiffness matrix of the mesh, assembled once per weighting: the
    meshes that geometry.replace_mesh derives without new triangle weights
    share it, so its arrays are read-only."""
    cache = mesh.stiffness_cache
    if "K" not in cache:
        K = assemble_stiffness(mesh)
        for arr in (K.data, K.indices, K.indptr):
            arr.flags.writeable = False
        cache["K"] = K
    return cache["K"]


@dataclass(frozen=True)
class BoundaryMass:
    """Consistent 1D P1 mass matrix on a tagged part of the boundary, and its
    per-edge factor: matrix = factor.T @ factor up to rounding.  The ARPACK
    path reads only the factor, so the matrix is built on first use."""

    factor: sp.csr_matrix      # (2 * n_edges, nb), two rows per tagged edge
    vertices: np.ndarray       # sorted mesh vertex ids carrying the tag
    edge_ends: np.ndarray      # (n_edges, 2) positions in vertices of each edge's ends
    edge_mass: np.ndarray      # (n_edges,) density times length of each edge

    @cached_property
    def matrix(self):
        """(nb, nb) CSR matrix over the tagged boundary vertices."""
        a, b = self.edge_ends.T
        w = self.edge_mass
        rows = np.concatenate([a, b, a, b])
        cols = np.concatenate([a, b, b, a])
        vals = np.concatenate([w / 3.0, w / 3.0, w / 6.0, w / 6.0])
        nb = self.vertices.size
        return sp.coo_matrix((vals, (rows, cols)), shape=(nb, nb)).tocsr()

    def dense(self):
        """The matrix as a dense (nb, nb) array, summed straight from the
        per-edge masses.  An entry has at most two terms, the two edges at a
        vertex, so this has the bits of matrix.toarray()."""
        a, b = self.edge_ends.T
        w = self.edge_mass
        nb = self.vertices.size
        flat = np.concatenate([a * nb + a, b * nb + b, a * nb + b, b * nb + a])
        vals = np.concatenate([w / 3.0, w / 3.0, w / 6.0, w / 6.0])
        return np.bincount(flat, vals, minlength=nb * nb).reshape(nb, nb)


def assemble_boundary_mass(mesh, tag=STEKLOV):
    """The mass of the steklov edges at the mesh's densities, on the vertex
    sets of mesh.tag_sets; any other tag raises ValueError."""
    if tag != STEKLOV:
        raise ValueError(f"the boundary mass is assembled on {STEKLOV!r} edges, not {tag!r}")
    tags = mesh.tag_sets
    if not tags.steklov.size:
        raise EmptyBoundaryError(f"no boundary edges tagged {tag!r}")
    a, b = tags.edge_ends.T
    w = mesh.edge_density[tags.steklov_edges] * tags.edge_lengths
    # an edge's block w/6 [[2, 1], [1, 2]] is R^T R for the upper triangular
    # Cholesky factor R = sqrt(w/6) [[sqrt(2), 1/sqrt(2)], [0, sqrt(3/2)]]:
    # per edge, one row with entries at a and b, one with an entry at b
    r = np.sqrt(w / 6.0)
    G = sp.csr_matrix(
        (np.column_stack([r * np.sqrt(2.0), r / np.sqrt(2.0), r * np.sqrt(1.5)]).ravel(),
         np.column_stack([a, b, b]).ravel(), np.r_[0, np.cumsum(np.tile([2, 1], a.size))]),
        shape=(2 * a.size, tags.steklov.size))
    return BoundaryMass(factor=G, vertices=tags.steklov, edge_ends=tags.edge_ends, edge_mass=w)


def _factor(A):
    """Sparse LU of a symmetric positive definite CSR matrix with a symmetric
    fill-reducing ordering and pivots kept on the diagonal.  A is exactly
    symmetric, so its CSR arrays are also its CSC arrays and go to splu
    without a copy."""
    try:
        return splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FactorizationError(f"factorization failed: {exc}") from exc


@dataclass(frozen=True)
class SpectralResult:
    """Eigenpairs of the pencil (K_f, M_Gamma); the eigenvectors are harmonic
    extensions of their steklov traces.  The traces are
    extensions[:, steklov_vertices], M_Gamma-orthonormal rows."""

    eigenvalues: np.ndarray       # (n_eigs,) ascending
    extensions: np.ndarray        # (n_eigs, nv) eigenvectors over all vertices
    clusters: list                # list of (start, stop) index ranges, stop exclusive
    cluster_rel_tol: float
    steklov_vertices: np.ndarray


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
    # multiplicity on a mesh is a tolerance statement: the relative P1 error
    # of sigma_1..sigma_8 on the unit disk measures 1.30 h_max^2 at h = 0.16
    # down to 0.01 (order 2 in h_max, checked in the tests), and twice h_max^2,
    # floored at 1e-3, keeps the copies of one multiple sigma together.
    # h_max depends on the triangulation only, so it is kept in the
    # geometry holder.
    cache = mesh.geometry_cache
    if "cluster_rel_tol" not in cache:
        cache["cluster_rel_tol"] = max(1e-3, 2.0 * geometry.max_edge_length(mesh) ** 2)
    return cache["cluster_rel_tol"]


def _trace_signs(traces):
    """The sign that fixes each column of (ns, m) steklov traces: the first
    entry whose magnitude is at least half the column's largest becomes
    positive.  An eigenvector is defined up to its sign, so this makes the
    reported one independent of the eigensolver's arbitrary choice; the half
    keeps the chosen entry clear of rounding ties with the largest one."""
    mag = np.abs(traces)
    first = np.argmax(mag >= 0.5 * mag.max(axis=0), axis=0)
    return np.sign(traces[first, np.arange(traces.shape[1])])


# shift of the pencil: every eigenvalue is >= 0, so K_f - SHIFT * M_Gamma is
# positive definite once each component is anchored to the steklov or
# dirichlet boundary
SHIFT = -0.1

# free boundary vertices up to which a mesh is solved on the boundary Schur
# complement of K.  A measured bound, not an option: a first dense solve took
# 6.1 ms against ARPACK's 6.5-6.8 ms at 79 vertices and 10.7-11.2 against
# 8.9-9.7 ms at 105 (the "solve_paths" runs in BENCH_pipeline.json), and
# LAPACK gave the same bits with one and two BLAS threads at 79, 105 and 126
# vertices but not at 158.
_DENSE_BOUNDARY = 100


def _boundary_schur(mesh, K, tags):
    """(S, X): the Schur complement S = K_BB - K_BI K_II^-1 K_IB of K onto the
    free boundary vertices and X = K_II^-1 K_IB over the interior ones.  They
    depend on the geometry and the dirichlet set only, so they are kept
    read-only in mesh.stiffness_cache, keyed by the dirichlet set."""
    key = ("schur", tags.dirichlet.tobytes())
    cache = mesh.stiffness_cache
    if key not in cache:
        boundary, interior = tags.free[tags.boundary], tags.free[tags.interior]
        S = K[boundary][:, boundary].toarray()
        X = np.zeros((0, boundary.size))
        if interior.size:
            K_i = K[interior]
            K_ib = K_i[:, boundary]
            X = _factor(K_i[:, interior]).solve(K_ib.toarray())
            S -= K_ib.T @ X
            S = 0.5 * (S + S.T)
        for arr in (S, X):
            arr.flags.writeable = False
        cache[key] = S, X
    return cache[key]


def _dense_pairs(mesh, K, B, tags, n_eigs):
    """The n_eigs smallest pairs on the boundary Schur complement: eigenvalues
    and eigenvectors over the free vertices, one column each."""
    S, X = _boundary_schur(mesh, K, tags)
    s, n = tags.s, tags.n
    T = S[np.ix_(s, s)]
    if n.size:
        # the neumann boundary vertices carry no mass: eliminate them
        S_ns = S[np.ix_(n, s)]
        try:
            chol = sla.cho_factor(S[np.ix_(n, n)])
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"factorization failed: {exc}") from exc
        Y = sla.cho_solve(chol, S_ns)
        T -= S_ns.T @ Y
    w, v = sla.eigh(T, B.dense(), subset_by_index=[0, n_eigs - 1],
                    overwrite_a=True, overwrite_b=True, check_finite=False)
    u = np.empty((tags.boundary.size, n_eigs))
    u[s] = v
    if n.size:
        u[n] = -(Y @ v)
    x = np.empty((tags.free.size, n_eigs))
    x[tags.boundary] = u
    x[tags.interior] = -(X @ u)
    return w, x


def _arpack_pairs(K, B, tags, n_eigs):
    """The n_eigs smallest pairs by shift-invert ARPACK: eigenvalues and
    eigenvectors over the free vertices, one column each."""
    K_f = K[tags.free][:, tags.free] if tags.dirichlet.size else K
    # the factor with its columns renumbered onto the free vertices:
    # M_Gamma = G^T G, and y -> G (K_f - SHIFT M_Gamma)^-1 G^T y is symmetric
    # positive semidefinite with eigenvalues 1 / (sigma - SHIFT)
    F = B.factor
    G = sp.csr_matrix((F.data, tags.pos[F.indices], F.indptr), shape=(F.shape[0], tags.free.size))
    lu = _factor(K_f - SHIFT * (G.T @ G))
    G_T = G.T
    op = LinearOperator((G.shape[0],) * 2, matvec=lambda y: G @ lu.solve(G_T @ y),
                        dtype=float)
    ns = B.vertices.size
    # two pairs beyond n_eigs so the last wanted one converges like the
    # others; the operator has rank ns, and a Krylov space wider than ns
    # breaks down
    k = min(n_eigs + 2, ns - 1)
    # a seeded random start: the constant vector is an exact eigenvector of a
    # pure steklov problem and would end the Krylov space at once.  The same
    # generator serves any restart vector ARPACK asks for.
    rng = np.random.default_rng(0)
    theta, y = eigsh(op, k=k, which="LM", ncv=min(ns, max(2 * k + 1, 20)), tol=1e-10,
                     v0=rng.standard_normal(G.shape[0]), rng=rng)
    w = SHIFT + 1.0 / theta
    order = np.argsort(w, kind="stable")[:n_eigs]
    return w[order], lu.solve(G_T @ y[:, order]) / theta[order]


def steklov_spectrum(mesh, n_eigs, cluster_rel_tol=None):
    """Solve the (mixed) Steklov eigenproblem on a tagged mesh."""
    if n_eigs < 1:
        raise ValueError(f"n_eigs={n_eigs} must be at least 1")
    if cluster_rel_tol is None:
        cluster_rel_tol = default_cluster_rel_tol(mesh)
    B = assemble_boundary_mass(mesh, STEKLOV)
    tags = mesh.tag_sets
    if n_eigs >= tags.steklov.size:
        raise ValueError(f"n_eigs={n_eigs} must be below the {tags.steklov.size} steklov vertices")
    K = _stiffness(mesh)
    if not tags.connected:
        raise FactorizationError("mesh has a component disconnected from the steklov/dirichlet "
                                 "boundary; its pure-neumann block is singular")
    if tags.boundary.size <= _DENSE_BOUNDARY:
        w, x = _dense_pairs(mesh, K, B, tags, n_eigs)
    else:
        w, x = _arpack_pairs(K, B, tags, n_eigs)
    x /= np.linalg.norm(B.factor @ x[tags.pos], axis=0)
    x *= _trace_signs(x[tags.pos])
    extensions = np.zeros((n_eigs, mesh.n_vertices))
    extensions[:, tags.free] = x.T
    return SpectralResult(
        eigenvalues=w,
        extensions=extensions,
        clusters=multiplicity_clusters(w, cluster_rel_tol),
        cluster_rel_tol=float(cluster_rel_tol),
        steklov_vertices=tags.steklov,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_spectral_result(mesh, result, path):
    """Write the "steklov-spectrum v1" record of a solve on mesh; has_dirichlet
    says whether the solve pinned a vertex: a dirichlet one that is not steklov."""
    problem = {
        "n_eigs": len(result.eigenvalues),
        "n_vertices": mesh.n_vertices,
        "n_steklov_vertices": result.steklov_vertices.size,
        "has_dirichlet": mesh.tag_sets.dirichlet.size > 0,
        "mesh_hash": geometry.mesh_hash(mesh),
    }
    record = {
        "format": "steklov-spectrum v1",
        "eigenvalues": [format(x, ".17g") for x in result.eigenvalues],
        "clusters": [[int(a), int(b)] for a, b in result.clusters],
        "cluster_rel_tol": format(result.cluster_rel_tol, ".17g"),
        "problem": problem,
        "descriptor_hash": hashlib.sha256(
            json.dumps(problem, sort_keys=True).encode()).hexdigest(),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
