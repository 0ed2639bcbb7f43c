"""The shift-invert Steklov solver against the dense Schur-complement oracle.

The oracle reduces the stiffness matrix to the steklov vertices: one sparse
LU of the interior block (interior and neumann vertices; dirichlet vertices
pinned to zero), one solve per steklov vertex, then the dense symmetric
pencil (Lambda, B) is solved with ``scipy.linalg.eigh`` and its boundary
eigenvectors are extended by one more interior solve.  It is slow and
obviously correct; the sparse solver must agree with it.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from steklov_lab import deformations, fem, geometry, graphs, thickening
from steklov_lab.geometry import DIRICHLET, NEUMANN, STEKLOV


def dense_dtn(K, steklov, dirichlet):
    """Schur complement of K onto the steklov vertices, plus the extension."""
    n = K.shape[0]
    interior = np.setdiff1d(np.arange(n), np.concatenate([steklov, dirichlet]))
    K = K.tocsr()
    lam = K[steklov][:, steklov].toarray()
    if interior.size == 0:
        return lam, lambda vals: vals
    K_ib = K[interior][:, steklov].toarray()
    lu = splu(K[interior][:, interior].tocsc())
    lam = lam - K_ib.T @ lu.solve(K_ib)

    def extend(vals):
        field = np.zeros((vals.shape[0], n))
        field[:, steklov] = vals
        field[:, interior] = lu.solve(-(K_ib @ vals.T)).T
        return field

    return 0.5 * (lam + lam.T), extend


def oracle_spectrum(mesh):
    """Every eigenvalue, the B-orthonormal boundary vectors and extensions."""
    B = fem.assemble_boundary_mass(mesh, STEKLOV)
    dirichlet = np.setdiff1d(geometry.tagged_vertices(mesh, DIRICHLET), B.vertices)
    lam, extend = dense_dtn(fem.assemble_stiffness(mesh), B.vertices, dirichlet)
    w, v = sla.eigh(lam, B.matrix.toarray())
    return w, v, extend(v.T)


def full_pencil(mesh):
    """K and the lifted steklov mass over all vertices, and the free rows."""
    K = fem.assemble_stiffness(mesh)
    B = fem.assemble_boundary_mass(mesh, STEKLOV)
    n = mesh.n_vertices
    lift = sp.csr_matrix((np.ones(B.vertices.size), (B.vertices, np.arange(B.vertices.size))),
                         shape=(n, B.vertices.size))
    free = np.ones(n, bool)
    free[geometry.tagged_vertices(mesh, DIRICHLET)] = False
    free[B.vertices] = True
    return K, lift @ B.matrix @ lift.T, free


def _mixed_disk():
    arcs = [((0.3, 0.3 + 1.2 * math.pi), STEKLOV),
            ((0.3 + 1.2 * math.pi, 0.3 + 2 * math.pi), NEUMANN)]
    return geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.1), arcs,
                                 by="angle", center=(0.0, 0.0))


def _dirichlet_disk():
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 1.5 * math.pi), NEUMANN),
            ((1.5 * math.pi, 2 * math.pi), DIRICHLET)]
    return geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.1), arcs,
                                 by="angle", center=(0.0, 0.0))


def _welded_five_cycle():
    cycle = np.array([[i, (i + 1) % 5] for i in range(5)])
    g = graphs.MetricGraph(5, cycle, np.array([1.0, 0.9, 1.1, 1.0, 1.0]))
    emb = thickening.embed_graph(g, "convex-boundary", 2.0)
    mesh = thickening.build_thickened_mesh(emb, 0.05, 2.0, target_h=0.025)
    return mesh


# mesh builder and a number of eigenpairs that ends between two clusters
CASES = {
    "disk": (lambda: geometry.make_disk_mesh(1.0, 0.1), 9),
    "annulus": (lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.1), 9),
    "mixed-disk": (_mixed_disk, 8),
    "dirichlet": (_dirichlet_disk, 6),
    "periodic-strip": (lambda: geometry.make_strip_mesh(2 * math.pi, 0.3, 0.05, periodic=True), 9),
    "five-cycle": (_welded_five_cycle, 8),
}


def _max_principal_angle(B, V1, V2):
    # angles in the B inner product: B = L L^T turns it into the euclidean one
    L = np.linalg.cholesky(B)
    return float(np.max(sla.subspace_angles(L.T @ V1, L.T @ V2)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_matches_dense_oracle(name):
    build, n_eigs = CASES[name]
    mesh = build()
    res = fem.steklov_spectrum(mesh, n_eigs)
    w_ref, v_ref, _ = oracle_spectrum(mesh)
    B = fem.assemble_boundary_mass(mesh, STEKLOV).matrix.toarray()
    # the reported list does not cut a cluster, so each cluster's eigenspace
    # is defined by the n_eigs pairs alone
    assert w_ref[n_eigs] - w_ref[n_eigs - 1] >= res.cluster_rel_tol * max(1.0, w_ref[n_eigs])
    assert np.all(np.abs(res.eigenvalues - w_ref[:n_eigs])
                  <= 1e-10 * np.maximum(1.0, np.abs(w_ref[:n_eigs])))
    V = res.extensions[:, res.steklov_vertices].T
    for a, b in res.clusters:
        assert _max_principal_angle(B, V[:, a:b], v_ref[:, a:b]) <= 1e-8
    assert np.max(np.abs(V.T @ B @ V - np.eye(n_eigs))) <= 1e-10
    K, M, free = full_pencil(mesh)
    X = res.extensions.T
    resid = (K @ X - (M @ X) * res.eigenvalues)[free]
    assert np.max(np.abs(resid)) <= 1e-8
    assert np.all(res.extensions[:, ~free] == 0.0)
    again = fem.steklov_spectrum(mesh, n_eigs)
    assert np.array_equal(again.eigenvalues, res.eigenvalues)
    assert np.array_equal(again.extensions, res.extensions)


@pytest.mark.parametrize("name", sorted(CASES))
def test_eigenvector_signs_follow_the_trace_rule(name):
    # the first trace entry of at least half the largest magnitude is positive
    build, n_eigs = CASES[name]
    res = fem.steklov_spectrum(build(), n_eigs)
    for trace in res.extensions[:, res.steklov_vertices]:
        big = np.flatnonzero(np.abs(trace) >= 0.5 * np.max(np.abs(trace)))
        assert trace[big[0]] > 0


def test_extensions_match_dense_oracle_on_simple_eigenvalues():
    mesh = _mixed_disk()
    res = fem.steklov_spectrum(mesh, 8)
    _, _, ext_ref = oracle_spectrum(mesh)
    for (a, b) in res.clusters:
        if b - a == 1:  # a simple eigenvector is fixed up to its sign
            sign = np.sign(res.extensions[a] @ ext_ref[a])
            assert np.max(np.abs(res.extensions[a] - sign * ext_ref[a])) <= 1e-8


def test_all_but_one_eigenpair():
    # few steklov vertices: the Krylov space spans the whole range of M
    mesh = geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.15),
                                 [((0.0, 1.5), STEKLOV), ((1.5, 2 * math.pi), NEUMANN)],
                                 by="angle", center=(0.0, 0.0))
    ns = fem.assemble_boundary_mass(mesh, STEKLOV).vertices.size
    res = fem.steklov_spectrum(mesh, ns - 1)
    w_ref, _, _ = oracle_spectrum(mesh)
    assert np.all(np.abs(res.eigenvalues - w_ref[:ns - 1])
                  <= 1e-10 * np.maximum(1.0, np.abs(w_ref[:ns - 1])))
    with pytest.raises(ValueError, match="steklov vertices"):
        fem.steklov_spectrum(mesh, ns)


# ---------------------------------------------------------------------------
# the dense path: meshes with at most fem._DENSE_BOUNDARY free boundary
# vertices are solved on the boundary Schur complement of K; the ARPACK path
# on the same mesh is its oracle
# ---------------------------------------------------------------------------

def _annulus_exact(r_inner, n):
    """The n smallest Steklov eigenvalues of the annulus r_inner < r < 1: a
    2x2 pencil per angular mode k, on (A, B) of A r^k + B r^-k (A + B log r
    for k = 0); each mode k >= 1 counts twice."""
    a = r_inner
    vals = [0.0, (1.0 + 1.0 / a) / math.log(1.0 / a)]
    for k in range(1, n):
        L = np.array([[k, -k], [-k * a ** (k - 1), k * a ** (-k - 1)]])
        M = np.array([[1.0, 1.0], [a ** k, a ** -k]])
        vals += 2 * list(np.linalg.eigvals(np.linalg.solve(M, L)).real)
    return np.sort(vals)[:n]


def _dirichlet_strip_exact(length, width, n):
    # steklov at y = 0, dirichlet at y = width, neumann sides: the modes are
    # width - y and cos(mu x) sinh(mu (width - y)) with mu = k pi / length
    mu = math.pi * np.arange(1, n) / length
    return np.sort(np.r_[1.0 / width, mu / np.tanh(mu * width)])


def _fan_polygon():
    # a regular 12-gon cut into a fan from one corner: no interior vertex
    t = 2 * math.pi * np.arange(12) / 12
    tris = np.array([[0, i, i + 1] for i in range(1, 11)], np.int32)
    return geometry.build_mesh(np.column_stack([np.cos(t), np.sin(t)]), tris)


# mesh builder, a number of eigenpairs that ends between two clusters, and
# the closed-form eigenvalues or None
DENSE_CASES = {
    "disk": (lambda: geometry.make_disk_mesh(1.0, 0.1), 9,
             np.repeat(np.arange(5.0), 2)[1:]),
    "annulus": (lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.13), 8, _annulus_exact(0.5, 8)),
    "mixed-disk": (_mixed_disk, 8, None),
    "dirichlet-strip": (lambda: geometry.make_strip_mesh(2.0, 0.5, 0.05, periodic=False,
                                                         top_tag=DIRICHLET), 4,
                        _dirichlet_strip_exact(2.0, 0.5, 4)),
    "periodic-strip": (lambda: geometry.make_strip_mesh(2 * math.pi, 0.5, 0.13, periodic=True),
                       9, np.sort(np.r_[0.0, 2 * [deformations.cylinder_formula(float(k * k), 0.5)
                                                  for k in range(1, 5)]])),
    "no-interior": (_fan_polygon, 5, None),
}


def _free_boundary(mesh):
    B = fem.assemble_boundary_mass(mesh, STEKLOV)
    dirichlet = np.setdiff1d(geometry.tagged_vertices(mesh, DIRICHLET), B.vertices)
    return np.setdiff1d(mesh.boundary_edges, dirichlet)


def _only(monkeypatch, path):
    """Make the solve path other than `path` ("dense" or "arpack") fail."""
    other = "_arpack_pairs" if path == "dense" else "_dense_pairs"

    def fail(*args):
        raise AssertionError(f"{other} was called")

    monkeypatch.setattr(fem, other, fail)


@pytest.mark.parametrize("name", sorted(DENSE_CASES))
def test_dense_path_matches_arpack(name, monkeypatch):
    build, n_eigs, exact = DENSE_CASES[name]
    mesh = build()
    assert _free_boundary(mesh).size <= fem._DENSE_BOUNDARY
    with monkeypatch.context() as m:
        _only(m, "dense")
        dense = fem.steklov_spectrum(mesh, n_eigs)
    with monkeypatch.context() as m:
        m.setattr(fem, "_DENSE_BOUNDARY", 0)
        _only(m, "arpack")
        ref = fem.steklov_spectrum(mesh, n_eigs)
    scale = np.maximum(1.0, np.abs(ref.eigenvalues))
    assert np.all(np.abs(dense.eigenvalues - ref.eigenvalues) <= 1e-10 * scale)
    assert dense.clusters == ref.clusters
    K, M, free = full_pencil(mesh)
    X = dense.extensions.T
    MX = M @ X
    resid = (K @ X - MX * dense.eigenvalues)[free]
    rel = np.linalg.norm(resid, axis=0) / (np.maximum(1.0, dense.eigenvalues)
                                           * np.linalg.norm(MX, axis=0))
    assert np.max(rel) <= 1e-10
    assert np.all(dense.extensions[:, ~free] == 0.0)
    if exact is not None:
        h2 = geometry.max_edge_length(mesh) ** 2
        assert np.all(np.abs(dense.eigenvalues - exact) <= 3.0 * h2 * np.maximum(1.0, exact))
    if name == "no-interior":
        assert mesh.n_vertices == _free_boundary(mesh).size


@pytest.mark.parametrize("h, n_boundary, path", [(0.063, 100, "dense"), (0.0625, 101, "arpack")])
def test_dense_path_threshold(h, n_boundary, path, monkeypatch):
    mesh = geometry.make_disk_mesh(1.0, h)
    assert _free_boundary(mesh).size == n_boundary
    _only(monkeypatch, path)
    res = fem.steklov_spectrum(mesh, 5)
    assert np.allclose(res.eigenvalues, [0.0, 1.0, 1.0, 2.0, 2.0], rtol=0.01, atol=1e-10)
