import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from steklov_lab import deformations, fem, geometry, graphs, harness, thickening
from steklov_lab.geometry import DIRICHLET, NEUMANN, STEKLOV

import oracles


def test_stiffness_reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = geometry.build_mesh(verts, np.array([[0, 1, 2]], np.int32))
    K = fem.assemble_stiffness(mesh).toarray()
    expected = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected)


def test_stiffness_annihilates_constants_and_matches_linears():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    K = fem.assemble_stiffness(mesh)
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(K @ ones)) < 1e-12
    # energy of f = x over the unit disk is pi
    fx = mesh.vertices[:, 0]
    assert fx @ (K @ fx) == pytest.approx(oracles.mesh_area(mesh), rel=1e-12)


def test_boundary_mass_total():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    B = fem.assemble_boundary_mass(mesh)
    ones = np.ones(B.vertices.size)
    total = ones @ (B.matrix @ ones)
    assert total == pytest.approx(geometry.boundary_length(mesh, STEKLOV))
    # the per-edge factor: two rows per steklov edge, B = G^T G
    assert B.factor.shape == (2 * np.count_nonzero(mesh.boundary_tags == STEKLOV),
                              B.vertices.size)
    assert np.allclose((B.factor.T @ B.factor).toarray(), B.matrix.toarray(),
                       rtol=0.0, atol=1e-15 * B.matrix.max())


def test_dense_boundary_mass_has_the_bits_of_the_sparse_one():
    rng = np.random.default_rng(6)
    disk = geometry.make_disk_mesh(1.0, 0.08)
    arcs = [((1.0, 4.0), STEKLOV), ((4.0, 1.0 + 2 * math.pi), NEUMANN)]
    for mesh in (geometry.replace_mesh(disk, edge_density=rng.uniform(0.3, 3.0, disk.edge_density.size)),
                 geometry.tag_boundary(disk, arcs, by="angle", center=(0.0, 0.0)),
                 geometry.make_annulus_mesh(0.5, 1.0, 0.08)):
        B = fem.assemble_boundary_mass(mesh)
        dense = B.dense()
        assert dense.tobytes() == B.matrix.toarray().tobytes()


def test_stiffness_shared_by_meshes_of_one_geometry():
    mesh = geometry.make_disk_mesh(1.0, 0.2)
    dens = geometry.replace_mesh(mesh, edge_density=2.0 * mesh.edge_density)
    K = fem._stiffness(dens)
    tagged = geometry.tag_boundary(mesh, [((0.0, 1.0), NEUMANN)], by="angle",
                                   center=(0.0, 0.0))
    assert fem._stiffness(mesh) is K
    assert fem._stiffness(tagged) is K
    weighted = geometry.replace_mesh(mesh, tri_weight=2.0 * mesh.tri_weight)
    fresh = fem._stiffness(weighted)
    assert fresh is not K
    assert (fresh != fem.assemble_stiffness(weighted)).nnz == 0
    with pytest.raises(TypeError):
        geometry.replace_mesh(mesh, vertices=1.5 * mesh.vertices)
    for arr in (K.data, K.indices, K.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_cached_stiffness_gives_the_same_bits():
    # h = 0.1: 63 boundary vertices, solved on the boundary Schur complement
    # that the derived meshes share; h = 0.05: 126, solved through ARPACK
    for h in (0.1, 0.05):
        base = geometry.make_disk_mesh(1.0, h)
        rng = np.random.default_rng(3)
        dens = geometry.replace_mesh(
            base, edge_density=rng.uniform(0.5, 2.0, base.edge_density.size))
        arcs = [((0.3, 0.3 + 1.2 * math.pi), STEKLOV),
                ((0.3 + 1.2 * math.pi, 0.3 + 2 * math.pi), NEUMANN)]
        mixed = geometry.tag_boundary(dens, arcs, by="angle", center=(0.0, 0.0))
        fem.steklov_spectrum(base, 5)  # fills what the derived meshes share
        schur = [key for key in base.stiffness_cache if key[0] == "schur"]
        assert len(schur) == (h == 0.1)
        for mesh in (dens, mixed):
            assert mesh.stiffness_cache is base.stiffness_cache
            warm = fem.steklov_spectrum(mesh, 5)
            cold = fem.steklov_spectrum(dataclasses.replace(mesh), 5)  # an unshared copy
            assert np.array_equal(cold.eigenvalues, warm.eigenvalues)
            assert np.array_equal(cold.extensions, warm.extensions)
        f = warm.extensions[3]
        assert (oracles.rayleigh_quotient(dataclasses.replace(mesh), f)
                == oracles.rayleigh_quotient(mesh, f))
        # new triangle weights: a K of their own, summed on the plan that the
        # geometry keeps from its second weight vector on
        weighted = geometry.replace_mesh(mixed, tri_weight=rng.uniform(0.5, 2.0, base.n_triangles))
        assert weighted.geometry_cache is base.geometry_cache
        assert weighted.stiffness_cache is not base.stiffness_cache
        warm = fem.steklov_spectrum(weighted, 5)
        assert "plan" in base.geometry_cache
        cold = fem.steklov_spectrum(dataclasses.replace(weighted), 5)
        assert np.array_equal(cold.eigenvalues, warm.eigenvalues)
        assert np.array_equal(cold.extensions, warm.extensions)


def _same_bits(A, B):
    return A.shape == B.shape and all(
        getattr(A, name).dtype == getattr(B, name).dtype
        and getattr(A, name).tobytes() == getattr(B, name).tobytes()
        for name in ("data", "indices", "indptr"))


def _weightings(case):
    """A base mesh, then meshes with three more triangle weight vectors on
    its triangulation."""
    rng = np.random.default_rng(8)
    if case in ("disk-density", "disk-subdomain"):
        disk = geometry.make_disk_mesh(1.0, 0.1)
        if case == "disk-density":
            rho_bar = rng.uniform(1.0, 3.0, disk.boundary_edges.shape[0])
            family = deformations.DensityFamily(disk, rho_bar, 3)
            return [disk] + [deformations.density_family_at(family, eps)
                             for eps in (1.0, 0.25, 0.0625)]
        family = deformations.SingularWeightFamily(
            disk, geometry.triangle_coords(disk).mean(axis=1)[:, 1] > 0.0, 3)
        return [disk] + [deformations.singular_family_at(family, eta) for eta in (0.5, 0.25, 0.125)]
    if case == "periodic-strip":
        base = geometry.make_strip_mesh(2 * math.pi, 0.5, 0.1, periodic=True)
    elif case == "dirichlet-disk":
        arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), DIRICHLET)]
        base = geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.1), arcs, by="angle",
                                     center=(0.0, 0.0))
    else:
        cycle = graphs.MetricGraph(5, [[i, (i + 1) % 5] for i in range(5)], np.ones(5))
        embedding = thickening.embed_graph(cycle, "convex-boundary", 2.0)
        base = thickening.build_thickened_mesh(embedding, 0.02, 2.0, target_h=0.005)
    return [base] + [geometry.replace_mesh(base, tri_weight=rng.uniform(0.1, 3.0, base.n_triangles))
                     for _ in range(3)]


@pytest.mark.parametrize("case", ["disk-density", "disk-subdomain", "periodic-strip",
                                  "dirichlet-disk", "thickened-cycle"])
def test_planned_stiffness_matches_coo_oracle(case):
    # the first weighting sums on a plan built for it, the later ones on the
    # plan the geometry keeps; each K has the bits of scipy's COO to CSR
    # conversion, the periodic strip's seam triangles and the grid's exact
    # zeros among them
    meshes = _weightings(case)
    for mesh in meshes:
        assert _same_bits(fem.assemble_stiffness(mesh), oracles.coo_stiffness(mesh))
    assert "plan" in meshes[0].geometry_cache


def test_mesh_assembled_once_keeps_no_plan(monkeypatch):
    builds = []
    build = fem._build_plan

    def counted(mesh):
        builds.append(1)
        return build(mesh)

    monkeypatch.setattr(fem, "_build_plan", counted)
    base = geometry.make_disk_mesh(1.0, 0.1)
    for mesh in (base, geometry.replace_mesh(base, edge_density=2.0 * base.edge_density)):
        fem.steklov_spectrum(mesh, 4)
    fem.assemble_stiffness(base)  # the same weights again, as a residual check assembles
    assert "plan" not in base.geometry_cache
    assert len(builds) == 2
    rng = np.random.default_rng(4)
    for _ in range(3):
        fem.steklov_spectrum(
            geometry.replace_mesh(base, tri_weight=rng.uniform(0.5, 2.0, base.n_triangles)), 4)
    assert "plan" in base.geometry_cache
    assert len(builds) == 3


def test_disk_spectrum_oracle():
    mesh = geometry.make_disk_mesh(1.0, 0.05)
    res = fem.steklov_spectrum(mesh, 7)
    assert abs(res.eigenvalues[0]) < 1e-10
    ref = np.array([1, 1, 2, 2, 3, 3])
    rel = np.abs(res.eigenvalues[1:] - ref) / ref
    assert np.max(rel) < 0.01
    assert res.clusters[0] == (0, 1)
    assert res.clusters[1] == (1, 3)
    assert res.clusters[2] == (3, 5)


@pytest.mark.parametrize("domain", ["disk", "flat-cylinder"])
def test_eigenvalue_error_is_second_order_in_h(domain):
    # max_k |sigma_k - exact_k| / exact_k over sigma_1..sigma_8 against the
    # closed forms: k twice on the unit disk; sqrt(l) tanh(w sqrt(l)),
    # l = k^2 twice, on the circumference-2 pi cylinder of width w with its
    # other circle neumann.  On the disk the error is 1.30 h_max^2.
    k = np.repeat(np.arange(1, 5), 2)
    width = 0.5
    if domain == "disk":
        exact = k.astype(float)
    else:
        exact = np.array([deformations.cylinder_formula(float(j * j), width) for j in k])
    h_max, err = [], []
    for h in (0.16, 0.08, 0.04, 0.02):
        if domain == "disk":
            mesh = geometry.make_disk_mesh(1.0, h)
        else:
            mesh = geometry.make_strip_mesh(2 * math.pi, width, h, periodic=True,
                                            top_tag=NEUMANN)
        sigma = fem.steklov_spectrum(mesh, 9).eigenvalues[1:]
        h_max.append(geometry.max_edge_length(mesh))
        err.append(np.max(np.abs(sigma - exact) / exact))
    order = np.diff(np.log(err)) / np.diff(np.log(h_max))
    assert np.all((1.8 <= order) & (order <= 2.2)), order


def test_eigenpairs_satisfy_pencil():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    res = fem.steklov_spectrum(mesh, 5)
    K = fem.assemble_stiffness(mesh)
    B = fem.assemble_boundary_mass(mesh)
    X = res.extensions.T
    MX = np.zeros_like(X)
    MX[B.vertices] = B.matrix @ X[B.vertices]
    # M_Gamma-orthonormal columns and small residual on every vertex: the
    # interior rows say the eigenvectors are harmonic, the boundary rows that
    # their normal derivative is sigma times their trace
    assert np.allclose(X.T @ MX, np.eye(5), atol=1e-10)
    resid = K @ X - MX * res.eigenvalues
    assert np.max(np.abs(resid)) < 1e-10


def test_extension_consistency_and_rayleigh():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    res = fem.steklov_spectrum(mesh, 4)
    f = res.extensions[2]
    q = oracles.rayleigh_quotient(mesh, f)
    assert q == pytest.approx(res.eigenvalues[2], rel=1e-10)


def test_mixed_boundary_dirichlet_positive():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), DIRICHLET)]
    mesh = geometry.tag_boundary(mesh, arcs, by="angle", center=(0.0, 0.0))
    res = fem.steklov_spectrum(mesh, 3)
    # Steklov-Dirichlet spectrum is strictly positive
    assert res.eigenvalues[0] > 0.05


def test_neumann_part_shrinks_spectrum():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), NEUMANN)]
    mixed = geometry.tag_boundary(mesh, arcs, by="angle", center=(0.0, 0.0))
    full = fem.steklov_spectrum(mesh, 3).eigenvalues
    part = fem.steklov_spectrum(mixed, 3).eigenvalues
    assert abs(part[0]) < 1e-10
    assert part[1] > 0


def test_zero_trace_error():
    mesh = geometry.make_disk_mesh(1.0, 0.2)
    f = np.zeros(mesh.n_vertices)
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            np.unique(mesh.boundary_edges))
    f[interior] = 1.0
    with pytest.raises(oracles.ZeroBoundaryTraceError):
        oracles.rayleigh_quotient(mesh, f)


def test_disconnected_component_raises():
    # two disjoint triangles; only one touches the steklov boundary
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]])
    tris = np.array([[0, 1, 2], [3, 4, 5]], np.int32)
    mesh = geometry.build_mesh(verts, tris)
    tags = np.where(mesh.boundary_edges.min(axis=1) >= 3, NEUMANN, STEKLOV).astype(object)
    mesh = geometry.replace_mesh(mesh, boundary_tags=tags)
    with pytest.raises(fem.FactorizationError):
        fem.steklov_spectrum(mesh, 2)


def test_dirichlet_edge_anchors_a_second_component():
    # a steklov disk and a disjoint square whose only anchor is one dirichlet edge
    disk = geometry.make_disk_mesh(1.0, 0.3)
    n = disk.n_vertices
    verts = np.vstack([disk.vertices, [[3.0, 0.0], [4.0, 0.0], [4.0, 1.0], [3.0, 1.0]]])
    tris = np.vstack([disk.triangles, [[n, n + 1, n + 2], [n, n + 2, n + 3]]])
    mesh = geometry.build_mesh(verts, tris)
    square = mesh.boundary_edges.min(axis=1) >= n
    bottom = np.all(np.sort(mesh.boundary_edges, axis=1) == [n, n + 1], axis=1)
    tags = np.where(square, NEUMANN, STEKLOV).astype(object)
    tags[bottom] = DIRICHLET
    mesh = geometry.replace_mesh(mesh, boundary_tags=tags)
    res = fem.steklov_spectrum(mesh, 4)
    assert np.allclose(res.eigenvalues, fem.steklov_spectrum(disk, 4).eigenvalues,
                       rtol=1e-8, atol=1e-10)
    assert np.max(np.abs(res.extensions[:, n:])) < 1e-10


def test_tag_sets_kept_per_tag_set(monkeypatch):
    calls = []
    label = geometry.label_components

    def counted(*args):
        calls.append(1)
        return label(*args)

    monkeypatch.setattr(geometry, "label_components", counted)
    base = geometry.make_disk_mesh(1.0, 0.1)
    rng = np.random.default_rng(5)
    sibling = geometry.replace_mesh(base, edge_density=rng.uniform(0.5, 2.0, base.edge_density.size))
    for mesh in (base, sibling):
        fem.steklov_spectrum(mesh, 4)
    assert len(calls) == 1
    # new triangle weights keep the tags, and with them the record
    fem.steklov_spectrum(
        geometry.replace_mesh(base, tri_weight=rng.uniform(0.5, 2.0, base.n_triangles)), 4)
    assert len(calls) == 1
    # a dirichlet arc builds a record of its own, which a density sibling shares
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), DIRICHLET)]
    mixed = geometry.tag_boundary(base, arcs, by="angle", center=(0.0, 0.0))
    assert mixed.stiffness_cache is base.stiffness_cache
    for mesh in (mixed, geometry.replace_mesh(mixed, edge_density=2.0 * mixed.edge_density)):
        fem.steklov_spectrum(mesh, 4)
    assert len(calls) == 2

    # two disjoint triangles solve while both are steklov; retagged with one
    # of them neumann, they build one more record, whose verdict fails every
    # solve that reads it
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]])
    pair = geometry.build_mesh(verts, np.array([[0, 1, 2], [3, 4, 5]], np.int32))
    fem.steklov_spectrum(pair, 2)
    tags = np.where(pair.boundary_edges.min(axis=1) >= 3, NEUMANN, STEKLOV).astype(object)
    retagged = geometry.replace_mesh(pair, boundary_tags=tags)
    assert retagged.stiffness_cache is pair.stiffness_cache
    for mesh in (retagged, geometry.replace_mesh(retagged, edge_density=2.0 * retagged.edge_density)):
        with pytest.raises(fem.FactorizationError):
            fem.steklov_spectrum(mesh, 2)
    assert len(calls) == 4


def _tag_set_mesh(case):
    disk = geometry.make_disk_mesh(1.0, 0.1)
    if case == "disk":
        return disk
    if case == "dirichlet-disk":
        arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), DIRICHLET)]
        return geometry.tag_boundary(disk, arcs, by="angle", center=(0.0, 0.0))
    if case == "mixed-disk":
        arcs = [((0.5, 3.0), STEKLOV), ((3.0, 4.5), DIRICHLET), ((4.5, 0.5 + 2 * math.pi), NEUMANN)]
        return geometry.tag_boundary(disk, arcs, by="angle", center=(0.0, 0.0))
    if case == "periodic-strip":
        return geometry.make_strip_mesh(2 * math.pi, 0.5, 0.1, periodic=True, top_tag=DIRICHLET)
    if case == "submesh":
        return geometry.extract_submesh(disk, geometry.triangle_coords(disk).mean(axis=1)[:, 1] > 0)
    if case == "thickened-cycle":
        cycle = graphs.MetricGraph(5, [[i, (i + 1) % 5] for i in range(5)], np.ones(5))
        embedding = thickening.embed_graph(cycle, "convex-boundary", 2.0)
        return thickening.build_thickened_mesh(embedding, 0.05, 2.0, target_h=0.025)
    # two disjoint triangles, one of them with neumann edges only
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]])
    pair = geometry.build_mesh(verts, np.array([[0, 1, 2], [3, 4, 5]], np.int32))
    tags = np.where(pair.boundary_edges.min(axis=1) >= 3, NEUMANN, STEKLOV).astype(object)
    return geometry.replace_mesh(pair, boundary_tags=tags)


@pytest.mark.parametrize("case", ["disk", "dirichlet-disk", "mixed-disk", "periodic-strip",
                                  "submesh", "thickened-cycle", "unanchored-pair"])
def test_tag_sets_match_set_formulas(case):
    mesh = _tag_set_mesh(case)
    record, want = mesh.tag_sets, oracles.tag_sets(mesh)
    assert record.connected is want.pop("connected") is (case != "unanchored-pair")
    for name, value in want.items():
        got = getattr(record, name)
        assert np.array_equal(got, value), name
        assert not got.flags.writeable, name
    # the steklov vertices are the boundary mass's vertices, in the dtype
    # np.unique gives them
    assert record.steklov.dtype == want["steklov"].dtype


def test_tag_sets_handed_on_unless_tags_change():
    mesh = geometry.make_disk_mesh(1.0, 0.2)
    rng = np.random.default_rng(2)
    record = mesh.tag_sets
    assert geometry.replace_mesh(mesh, edge_density=2.0 * mesh.edge_density).tag_sets is record
    assert geometry.replace_mesh(
        mesh, tri_weight=rng.uniform(0.5, 2.0, mesh.n_triangles)).tag_sets is record
    assert geometry.replace_mesh(mesh, boundary_tags=mesh.boundary_tags).tag_sets is not record
    assert dataclasses.replace(mesh).tag_sets is not record
    with pytest.raises(ValueError, match="neumann"):
        fem.assemble_boundary_mass(mesh, NEUMANN)


def test_mixed_disk_audit_keeps_nothing_per_point_on_the_base_disk():
    # each point retags the base disk that harness keeps per process; the
    # record of its arc lives on its own mesh, not on the shared one
    def audit(runs):
        harness.run(harness.ExperimentConfig(
            kind="nodal-audit", name="mixed", seed=9,
            params={"domain": "mixed-disk", "target_h": 0.15, "runs": runs, "k_max": 3,
                    "n_rotations": 2}))
        base = harness._base_mesh("disk", (1.0,), 0.15)
        return (sorted(base.__dict__), sorted(base.geometry_cache),
                sorted(map(str, base.stiffness_cache)))

    assert audit(1) == audit(30)


def test_factor_reads_the_shifted_matrix_as_its_own_transpose(monkeypatch):
    # _factor hands the CSR arrays of the matrix it factors (K_f - SHIFT
    # M_Gamma, or the interior block of K for the boundary Schur complement)
    # to splu as CSC arrays, which holds only while it is exactly symmetric
    seen = []
    factor = fem._factor

    def kept(A):
        seen.append(A)
        return factor(A)

    monkeypatch.setattr(fem, "_factor", kept)
    disk = geometry.make_disk_mesh(1.0, 0.1)
    arcs = [((0.0, 2.0), STEKLOV), ((2.0, 4.0), DIRICHLET), ((4.0, 2 * math.pi), NEUMANN)]
    rng = np.random.default_rng(9)
    meshes = [
        geometry.replace_mesh(disk, edge_density=rng.uniform(0.5, 2.0, disk.edge_density.size),
                              tri_weight=rng.uniform(0.5, 2.0, disk.n_triangles)),
        geometry.tag_boundary(disk, arcs, by="angle", center=(0.0, 0.0)),
        geometry.make_strip_mesh(2 * math.pi, 0.5, 0.1, periodic=True),
    ]
    for mesh in meshes:
        fem.steklov_spectrum(mesh, 4)
    assert len(seen) == len(meshes)
    for A in seen:
        assert A.format == "csr"
        assert (A != A.T).nnz == 0
        lu, copied = factor(A), fem.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                         diag_pivot_thresh=0, options={"SymmetricMode": True})
        for name in ("L", "U"):
            assert (getattr(lu, name) != getattr(copied, name)).nnz == 0
        assert np.array_equal(lu.perm_r, copied.perm_r)
        assert np.array_equal(lu.perm_c, copied.perm_c)


def test_degenerate_triangle_raises():
    # build_mesh would reject the triangle, so no constructor validates it here
    mesh = geometry.Mesh2D(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        triangles=np.array([[0, 1, 2]], np.int32),
        boundary_edges=np.array([[0, 1], [1, 2], [0, 2]], np.int32),
        boundary_tags=np.array([STEKLOV] * 3, object),
        edge_density=np.ones(3), tri_weight=np.ones(1))
    with pytest.raises(fem.AssemblyError):
        fem.assemble_stiffness(mesh)


def test_degenerate_triangle_raises_on_a_reweighted_mesh():
    # a good triangle and a flat one: no weighting gets a plan to assemble on
    mesh = geometry.Mesh2D(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0]]),
        triangles=np.array([[0, 1, 2], [1, 3, 4]], np.int32),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0], [1, 3], [3, 4], [1, 4]], np.int32),
        boundary_tags=np.array([STEKLOV] * 6, object),
        edge_density=np.ones(6), tri_weight=np.ones(2))
    for weights in ([1.0, 1.0], [2.0, 0.5], [3.0, 3.0]):
        with pytest.raises(fem.AssemblyError, match="triangle 1 is degenerate"):
            fem.assemble_stiffness(geometry.replace_mesh(mesh, tri_weight=np.array(weights)))
    assert "plan" not in mesh.geometry_cache


def test_multiplicity_clusters():
    vals = np.array([0.0, 1.0, 1.0005, 2.0, 3.0, 3.0001])
    assert fem.multiplicity_clusters(vals, 1e-2) == [(0, 1), (1, 3), (3, 4), (4, 6)]
    with pytest.raises(ValueError):
        fem.multiplicity_clusters(vals, 0.0)


def test_default_cluster_tol_floor():
    mesh = geometry.make_disk_mesh(1.0, 0.01)
    assert fem.default_cluster_rel_tol(mesh) == pytest.approx(1e-3)


def test_spectral_result_serialization(tmp_path):
    mesh = geometry.make_disk_mesh(1.0, 0.2)
    res = fem.steklov_spectrum(mesh, 3)
    path = tmp_path / "spec.json"
    fem.save_spectral_result(mesh, res, str(path))
    data = json.loads(path.read_text())
    assert data["format"] == "steklov-spectrum v1"
    back = np.array([float(s) for s in data["eigenvalues"]])
    assert np.array_equal(back, res.eigenvalues)  # 17 significant digits
    # the writer derives the descriptor from the mesh and the result
    assert data["problem"] == {"n_eigs": 3, "n_vertices": 98, "n_steklov_vertices": 32,
                               "has_dirichlet": False, "mesh_hash": geometry.mesh_hash(mesh)}
    assert data["descriptor_hash"] == hashlib.sha256(
        json.dumps(data["problem"], sort_keys=True).encode()).hexdigest()


def test_solve_does_not_hash_the_mesh(monkeypatch):
    def fail(mesh):
        raise AssertionError("steklov_spectrum hashed the mesh")

    monkeypatch.setattr(geometry, "mesh_hash", fail)
    fem.steklov_spectrum(geometry.make_disk_mesh(1.0, 0.2), 3)


def _descriptor(mesh, n_eigs, tmp_path):
    path = tmp_path / "spec.json"
    fem.save_spectral_result(mesh, fem.steklov_spectrum(mesh, n_eigs), str(path))
    return json.loads(path.read_text())["problem"]


def test_spectral_descriptor_counts_dirichlet_vertices(tmp_path):
    disk = geometry.make_disk_mesh(1.0, 0.2)
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), DIRICHLET)]
    mixed = geometry.tag_boundary(disk, arcs, by="angle", center=(0.0, 0.0))
    steklov = np.unique(mixed.boundary_edges[mixed.boundary_tags == STEKLOV])
    assert _descriptor(mixed, 4, tmp_path) == {
        "n_eigs": 4, "n_vertices": 98, "n_steklov_vertices": steklov.size,
        "has_dirichlet": True, "mesh_hash": geometry.mesh_hash(mixed)}
    # one dirichlet edge between steklov edges: both its ends are steklov
    # vertices, which the solve does not pin
    mids = geometry.boundary_edge_midpoints(disk)
    theta = float(np.mod(np.arctan2(mids[0, 1], mids[0, 0]), 2 * math.pi))
    one = geometry.tag_boundary(disk, [((theta - 0.01, theta + 0.01), DIRICHLET)],
                                by="angle", center=(0.0, 0.0))
    assert np.count_nonzero(one.boundary_tags == DIRICHLET) == 1
    problem = _descriptor(one, 4, tmp_path)
    assert problem["n_steklov_vertices"] == 32 and not problem["has_dirichlet"]
