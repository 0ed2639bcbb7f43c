import dataclasses
from dataclasses import replace
import math

import numpy as np
import pytest

from steklov_lab import geometry
from steklov_lab.geometry import DIRICHLET, NEUMANN, STEKLOV

import oracles


def boundary_curve_count(mesh):
    verts, ends = np.unique(mesh.boundary_edges, return_inverse=True)
    n, _ = geometry.label_components(verts.size, *ends.reshape(-1, 2).T)
    return n


def test_disk_mesh_basic():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    geometry.validate_mesh(mesh)
    assert np.all(geometry.triangle_areas(mesh) > 0)
    assert abs(oracles.mesh_area(mesh) - math.pi) < 0.02
    assert abs(geometry.boundary_length(mesh, STEKLOV) - 2 * math.pi) < 0.02
    assert geometry.max_edge_length(mesh) <= 1.5 * 0.1
    assert set(mesh.boundary_tags) == {STEKLOV}


def test_disk_mesh_scaling_determinism():
    small = geometry.make_disk_mesh(1.0, 0.05)
    big = geometry.make_disk_mesh(2.0, 0.1)
    assert np.array_equal(small.triangles, big.triangles)
    assert np.allclose(2.0 * small.vertices, big.vertices)


def test_disk_mesh_rejects_bad_params():
    with pytest.raises(geometry.ParameterError):
        geometry.make_disk_mesh(1.0, 2.0)
    with pytest.raises(geometry.ParameterError):
        geometry.make_disk_mesh(-1.0, 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mesh_builders_reject_non_finite_numbers(bad):
    for build in (lambda: geometry.make_disk_mesh(bad, 0.1),
                  lambda: geometry.make_disk_mesh(1.0, bad),
                  lambda: geometry.make_annulus_mesh(0.5, bad, 0.1),
                  lambda: geometry.make_annulus_mesh(bad, 1.0, 0.1),
                  lambda: geometry.make_annulus_mesh(0.5, 1.0, bad),
                  lambda: geometry.make_strip_mesh(bad, 0.5, 0.1, periodic=True),
                  lambda: geometry.make_strip_mesh(1.0, bad, 0.1, periodic=False),
                  lambda: geometry.make_strip_mesh(1.0, 0.5, bad, periodic=True)):
        with pytest.raises(geometry.ParameterError):
            build()


def test_annulus_mesh():
    mesh = geometry.make_annulus_mesh(0.5, 1.0, 0.07)
    geometry.validate_mesh(mesh)
    assert boundary_curve_count(mesh) == 2
    expected = math.pi * (1.0 - 0.25)
    assert abs(oracles.mesh_area(mesh) - expected) < 0.03


def _ring_loop_triangles(n_t, n_r):
    """The annulus cells as make_annulus_mesh once built them: ring by ring,
    (a, b, c) and (a, c, d) per cell, vertex (ring j, angle i) = j * n_t + i."""
    tris = []
    for j in range(n_r):
        for i in range(n_t):
            a, b = j * n_t + i, j * n_t + (i + 1) % n_t
            c, d = (j + 1) * n_t + (i + 1) % n_t, (j + 1) * n_t + i
            tris.append((a, b, c))
            tris.append((a, c, d))
    return np.asarray(tris, np.int32)


@pytest.mark.parametrize("r_inner, r_outer, h", [
    (0.5, 1.0, 0.08), (0.5, 1.0, 0.02), (0.2, 1.0, 0.3), (0.9, 1.0, 0.05)])
def test_annulus_triangles_match_ring_loop(r_inner, r_outer, h):
    mesh = geometry.make_annulus_mesh(r_inner, r_outer, h)
    n_t = np.count_nonzero(np.isclose(np.hypot(*mesh.vertices.T), r_inner))
    n_r = mesh.n_vertices // n_t - 1
    expected = geometry.build_mesh(mesh.vertices, _ring_loop_triangles(n_t, n_r))
    assert mesh.triangles.dtype == np.int32
    assert np.array_equal(mesh.triangles, expected.triangles)
    assert np.array_equal(mesh.boundary_edges, expected.boundary_edges)


def test_strip_mesh_periodic_is_flat():
    mesh = geometry.make_strip_mesh(2 * math.pi, 0.5, 0.1, periodic=True)
    geometry.validate_mesh(mesh)
    assert mesh.period_x == pytest.approx(2 * math.pi)
    # exactly flat: total area is L*w to rounding
    assert oracles.mesh_area(mesh) == pytest.approx(2 * math.pi * 0.5)
    assert boundary_curve_count(mesh) == 2
    tags = set(mesh.boundary_tags)
    assert tags == {STEKLOV, NEUMANN}


def test_strip_mesh_nonperiodic_sides():
    mesh = geometry.make_strip_mesh(2.0, 0.5, 0.1, periodic=False)
    mids = geometry.boundary_edge_midpoints(mesh)
    sides = np.isclose(mids[:, 0], 0.0) | np.isclose(mids[:, 0], 2.0)
    assert np.count_nonzero(sides) == 2 * 5
    assert np.all(mesh.boundary_tags[sides] == NEUMANN)
    assert np.all(mesh.boundary_tags[np.isclose(mids[:, 1], 0.0)] == STEKLOV)
    assert np.all(mesh.boundary_tags[np.isclose(mids[:, 1], 0.5)] == NEUMANN)


def test_tag_boundary_by_angle():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), NEUMANN)]
    tagged = geometry.tag_boundary(mesh, arcs, by="angle", center=(0.0, 0.0))
    mids = geometry.boundary_edge_midpoints(tagged)
    clear = np.abs(mids[:, 1]) > 0.05  # skip edges straddling the cut angles
    upper = mids[:, 1] > 0
    assert np.all(tagged.boundary_tags[clear & upper] == STEKLOV)
    assert np.all(tagged.boundary_tags[clear & ~upper] == NEUMANN)


def test_tag_boundary_requires_steklov():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    with pytest.raises(geometry.TaggingError):
        geometry.tag_boundary(mesh, [((0.0, 2 * math.pi), NEUMANN)],
                              by="angle", center=(0.0, 0.0))


def test_tag_boundary_does_not_revalidate(monkeypatch):
    mesh = geometry.make_disk_mesh(1.0, 0.1)

    def fail(mesh):
        raise AssertionError("a retag cannot invalidate a validated mesh")

    monkeypatch.setattr(geometry, "validate_mesh", fail)
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), NEUMANN)]
    tagged = geometry.tag_boundary(mesh, arcs, by="angle", center=(0.0, 0.0))
    assert set(tagged.boundary_tags) == {STEKLOV, NEUMANN}


def test_every_mesh_rejects_an_unknown_tag(tmp_path):
    mesh = geometry.make_disk_mesh(1.0, 0.3)
    tags = np.array(mesh.boundary_tags, object)
    tags[:5] = "stekolv"
    with pytest.raises(geometry.MeshError, match="unknown boundary tag 'stekolv'"):
        geometry.replace_mesh(mesh, boundary_tags=tags)
    # a saved mesh with five misspelled tags, which would solve as neumann
    path = tmp_path / "bad-tag.msh"
    path.write_text("".join(geometry.mesh_to_text(mesh)).replace(" steklov ", " stekolv ", 5))
    with pytest.raises(geometry.MeshError, match="unknown boundary tag 'stekolv'"):
        geometry.load_mesh(str(path))
    with pytest.raises(geometry.MeshError, match="unknown boundary tag 'dirichelt'"):
        geometry.make_strip_mesh(2.0, 0.5, 0.25, periodic=True, top_tag="dirichelt")
    with pytest.raises(geometry.MeshError, match="unknown boundary tag 'robin'"):
        geometry.tag_boundary(mesh, [((0.0, 1.0), "robin")], by="angle", center=(0.0, 0.0))


def test_extract_submesh_interface_tag():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    cen = geometry.triangle_coords(mesh).mean(axis=1)
    sub = geometry.extract_submesh(mesh, cen[:, 1] > 0)
    geometry.validate_mesh(sub)
    tags = set(sub.boundary_tags)
    assert tags == {STEKLOV, NEUMANN}
    mids = geometry.boundary_edge_midpoints(sub)
    interface = sub.boundary_tags == NEUMANN
    assert np.all(np.abs(mids[interface, 1]) < 0.1)


def _three_tag_disk():
    arcs = [((0.0, 2.0), STEKLOV), ((2.0, 4.0), NEUMANN), ((4.0, 2 * math.pi), DIRICHLET)]
    mesh = geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.2), arcs,
                                 by="angle", center=(0.0, 0.0))
    rng = np.random.default_rng(7)
    return geometry.replace_mesh(mesh, edge_density=rng.uniform(0.5, 2.0, len(mesh.edge_density)),
                                 tri_weight=rng.uniform(0.5, 2.0, mesh.n_triangles))


def test_extract_submesh_inherits_tags_densities_and_weights():
    mesh = _three_tag_disk()
    mask = geometry.triangle_coords(mesh).mean(axis=1)[:, 1] < 0.2
    sub = geometry.extract_submesh(mesh, mask)
    keep = np.unique(mesh.triangles[mask])
    assert np.array_equal(sub.vertices, mesh.vertices[keep])
    assert np.array_equal(keep[sub.triangles], mesh.triangles[mask])
    parent = {tuple(sorted(e)): (tag, rho) for e, tag, rho in
              zip(mesh.boundary_edges.tolist(), mesh.boundary_tags, mesh.edge_density)}
    inherited, new = set(), 0
    for e, tag, rho in zip(keep[sub.boundary_edges].tolist(), sub.boundary_tags,
                           sub.edge_density):
        if tuple(sorted(e)) in parent:
            assert (tag, rho) == parent[tuple(sorted(e))]
            inherited.add(tag)
        else:
            assert (tag, rho) == (NEUMANN, 1.0)
            new += 1
    assert inherited == {STEKLOV, NEUMANN, DIRICHLET} and new > 0
    assert np.array_equal(sub.tri_weight, mesh.tri_weight[mask])
    fresh = geometry._edge_table(sub.triangles, sub.n_vertices)
    for f in dataclasses.fields(fresh):
        assert np.array_equal(getattr(sub.edge_table, f.name), getattr(fresh, f.name))


def test_mesh_text_roundtrip(tmp_path):
    strip = geometry.make_strip_mesh(1.0, 0.3, 0.1, periodic=True)
    for mesh in (strip, _three_tag_disk()):
        path = tmp_path / "mesh.msh"
        geometry.save_mesh(mesh, str(path))
        back = geometry.load_mesh(str(path))
        assert np.array_equal(mesh.vertices, back.vertices)
        assert np.array_equal(mesh.triangles, back.triangles)
        assert np.array_equal(mesh.boundary_edges, back.boundary_edges)
        assert list(mesh.boundary_tags) == list(back.boundary_tags)
        assert np.array_equal(mesh.edge_density, back.edge_density)
        assert np.array_equal(mesh.tri_weight, back.tri_weight)
        assert back.period_x == mesh.period_x
        assert geometry.mesh_hash(back) == geometry.mesh_hash(mesh)
        assert "".join(geometry.mesh_to_text(mesh)) == "".join(geometry.mesh_to_text(back))


def test_load_mesh_rejects_bad_text(tmp_path):
    text = "".join(geometry.mesh_to_text(geometry.make_disk_mesh(1.0, 0.3)))
    path = tmp_path / "bad.msh"
    path.write_text(text.replace("steklov-mesh v1", "steklov-mesh v2"))
    with pytest.raises(geometry.MeshError, match="unexpected header"):
        geometry.load_mesh(str(path))
    path.write_text("")
    with pytest.raises(geometry.MeshError, match="unexpected header"):
        geometry.load_mesh(str(path))
    lines = text.split("\n")
    lines[2] += " 0.5"  # a vertex line with three fields
    path.write_text("\n".join(lines))
    with pytest.raises(geometry.MeshError, match="vertex block"):
        geometry.load_mesh(str(path))


def test_validate_rejects_inverted_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]], np.int32)  # clockwise
    mesh = geometry.build_mesh(verts, np.array([[0, 1, 2]], np.int32))
    from dataclasses import replace
    bad = replace(mesh, triangles=tris)
    with pytest.raises(geometry.MeshError):
        geometry.validate_mesh(bad)


def test_mesh_hash_covers_every_field():
    mesh = geometry.make_strip_mesh(2.0, 0.5, 0.25, periodic=True)
    base = geometry.mesh_hash(mesh)
    again = geometry.make_strip_mesh(2.0, 0.5, 0.25, periodic=True)
    assert geometry.mesh_hash(again) == base
    # the dtype of the index arrays does not matter, only their values
    assert geometry.mesh_hash(replace(mesh, triangles=mesh.triangles.astype(np.int64))) == base

    def changed(name, index, value):
        arr = np.array(getattr(mesh, name))
        arr[index] = value
        return replace(mesh, **{name: arr})

    swap = [int(np.argmax(mesh.boundary_tags == STEKLOV)),
            int(np.argmax(mesh.boundary_tags == NEUMANN))]
    variants = [
        changed("vertices", (3, 1), mesh.vertices[3, 1] + 1e-12),
        changed("triangles", (0, slice(None)), mesh.triangles[0, [1, 2, 0]]),
        changed("boundary_edges", (0, slice(None)), mesh.boundary_edges[0, ::-1]),
        changed("boundary_tags", 2, DIRICHLET),
        # the same tags on other edges
        changed("boundary_tags", swap, mesh.boundary_tags[swap[::-1]]),
        changed("edge_density", 1, 1.5),
        changed("tri_weight", 4, 2.0),
        replace(mesh, period_x=2.5),
    ]
    hashes = {geometry.mesh_hash(m) for m in variants}
    assert len(hashes) == len(variants)
    assert base not in hashes


@pytest.mark.parametrize("make_mesh", [
    lambda: geometry.make_disk_mesh(1.0, 0.2),
    lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.2),
    lambda: geometry.make_strip_mesh(2.0, 0.5, 0.25, periodic=True),
], ids=["disk", "annulus", "periodic-strip"])
def test_edge_table_matches_sorted_incidence(make_mesh):
    mesh = make_mesh()
    table = mesh.edge_table
    assert mesh.edge_table is table  # built once per mesh
    assert "edge_table" not in {f.name for f in dataclasses.fields(mesh)}
    tris = mesh.triangles
    local = np.stack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=1)
    assert np.array_equal(table.edges[table.tri_edges], np.sort(local, axis=2))
    assert np.array_equal(table.edges, np.unique(np.sort(local.reshape(-1, 2), axis=1), axis=0))
    declared = {tuple(e) for e in np.sort(mesh.boundary_edges, axis=1).tolist()}
    assert {tuple(e) for e in table.edges[table.boundary].tolist()} == declared
    # a boundary edge has one incident triangle and every other edge two
    count = np.bincount(table.tri_edges.ravel(), minlength=len(table.edges))
    assert np.array_equal(count, np.where(table.boundary, 1, 2))
    assert np.array_equal(geometry.edge_ids(mesh, table.edges[:, ::-1]),
                          np.arange(len(table.edges)))
    with pytest.raises(geometry.MeshError):
        geometry.edge_ids(mesh, [[tris[0, 0], tris[0, 0]]])


def test_mesh_builders_build_the_edge_table_once(monkeypatch):
    calls = []
    build = geometry._edge_table

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(geometry, "_edge_table", counted)
    mesh = geometry.make_disk_mesh(1.0, 0.3)
    assert len(calls) == 1
    geometry.extract_submesh(mesh, geometry.triangle_coords(mesh).mean(axis=1)[:, 1] > 0)
    assert len(calls) == 2


@pytest.mark.parametrize("n_rows,n_cols,wrap", [(1, 1, False), (4, 3, False),
                                                 (3, 1, True), (5, 4, True)])
def test_grid_triangles_match_cell_loops(n_rows, n_cols, wrap):
    def vid(i, j):
        return (i % n_rows if wrap else i) * (n_cols + 1) + j

    tris = []
    for i in range(n_rows):
        for j in range(n_cols):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    assert np.array_equal(geometry.grid_triangles(n_rows, n_cols, wrap), tris)


def test_point_segment_distances_match_scalar_reference():
    rng = np.random.default_rng(4)
    points = rng.uniform(-2.0, 2.0, (7, 2))
    seg_a = rng.uniform(-1.0, 1.0, (5, 2))
    seg_b = rng.uniform(-1.0, 1.0, (5, 2))
    # a point on a segment, and one beyond each end of it
    points[0] = 0.3 * seg_a[0] + 0.7 * seg_b[0]
    points[1] = seg_a[1] + 2.0 * (seg_a[1] - seg_b[1])
    points[2] = seg_b[2] + 0.5 * (seg_b[2] - seg_a[2])

    def reference(p, a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        # the projection a + t*d, then its offset from p, in the function's order
        return np.hypot(p[0] - (a[0] + t * dx), p[1] - (a[1] + t * dy))

    got = geometry.point_segment_distances(points[:, None], seg_a, seg_b)
    want = [[reference(p, a, b) for a, b in zip(seg_a, seg_b)] for p in points]
    assert got.shape == (7, 5)
    assert np.array_equal(got, want)
    assert got[0, 0] < 1e-14
    assert got[1, 1] == pytest.approx(np.linalg.norm(points[1] - seg_a[1]), rel=1e-12)
    assert got[2, 2] == pytest.approx(np.linalg.norm(points[2] - seg_b[2]), rel=1e-12)
    # paired points and segments: the same formula, so the same bits
    i, j = np.meshgrid(np.arange(7), np.arange(5), indexing="ij")
    i, j = i.ravel()[::-1], j.ravel()[::-1]
    paired = geometry.point_segment_distances(points[i], seg_a[j], seg_b[j])
    assert paired.shape == (35,)
    assert np.array_equal(paired, got[i, j])
    one = geometry.point_segment_distances(points, seg_a[3], seg_b[3])
    assert np.array_equal(one, got[:, 3])


def test_replace_mesh_keeps_edge_table_for_same_triangles():
    mesh = geometry.make_disk_mesh(1.0, 0.2)
    table = mesh.edge_table
    dens = geometry.replace_mesh(mesh, edge_density=2.0 * mesh.edge_density)
    assert dens.edge_table is table
    tagged = geometry.tag_boundary(mesh, [((0.0, 1.0), geometry.NEUMANN)],
                                   by="angle", center=(0.0, 0.0))
    assert tagged.edge_table is table
    weighted = geometry.replace_mesh(mesh, tri_weight=2.0 * mesh.tri_weight)
    assert weighted.edge_table is table
    # the geometry of a mesh is not replaced
    with pytest.raises(TypeError):
        geometry.replace_mesh(mesh, triangles=mesh.triangles[:, [1, 2, 0]])
    with pytest.raises(TypeError):
        geometry.replace_mesh(mesh, vertices=1.5 * mesh.vertices)
