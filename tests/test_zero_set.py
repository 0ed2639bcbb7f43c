"""The zero-set graph against a tuple-keyed oracle, and the mesh text and
SVG writers against per-line oracles.

The graph oracle walks the triangles one by one and keys nodes as ("v", i)
for a dead-zone vertex and ("e", i, j) for a sign-changing edge, in dicts and
sets.  It is slow and obviously correct; the array version must list the same
nodes in id order with the same positions, the same sorted segments, and the
same two verdicts for every row, and draw the same segments.
The writer oracles format one vertex, triangle or boundary edge at a time;
the chunked writers must give the same bytes on every mesh here, with their
default chunk and with chunks of a few rows that split every block.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from steklov_lab import fem, geometry, graphs, nodal, thickening
from steklov_lab.geometry import DIRICHLET, NEUMANN, STEKLOV, TAGS

# the dead zone of nodal.vertex_signs and the width of nodal.nodal_svg,
# copied so that the oracles stand alone
ZERO_TOL = 1e-7
SVG_WIDTH = 640


def oracle_signs(field):
    scale = np.abs(field).max()
    return np.where(field > ZERO_TOL * scale, 1, np.where(field < -ZERO_TOL * scale, -1, 0))


def oracle_graph(mesh, field):
    field = np.asarray(field, float)
    signs = oracle_signs(field)
    nodes = {}
    segments = set()

    def add_node(key):
        if key not in nodes:
            if key[0] == "v":
                nodes[key] = mesh.vertices[key[1]].astype(float)
            else:
                _, i, j = key
                t = field[i] / (field[i] - field[j])
                d = geometry.edge_vector(mesh, np.array([i]), np.array([j]))[0]
                nodes[key] = mesh.vertices[i].astype(float) + t * d
        return key

    for tri in mesh.triangles:
        s = signs[tri]
        zero = [int(v) for v, sv in zip(tri, s) if sv == 0]
        cross = [(int(tri[i]), int(tri[j])) for i, j in ((0, 1), (1, 2), (2, 0))
                 if s[i] * s[j] == -1]
        keys = [add_node(("v", v)) for v in zero]
        keys += [add_node(("e", min(a, b), max(a, b))) for a, b in cross]
        if len(zero) == 3:
            for i in range(3):
                segments.add(tuple(sorted((keys[i], keys[(i + 1) % 3]))))
        elif len(keys) == 2:
            segments.add(tuple(sorted(keys)))
    return nodes, segments


def oracle_verdicts(mesh, field):
    """The cycle rank of the zero set, and whether each of its components has
    an even number of arc endpoints on the boundary."""
    nodes, segments = oracle_graph(mesh, field)
    keys = list(nodes)
    index = {k: i for i, k in enumerate(keys)}
    pairs = np.array([(index[a], index[b]) for a, b in segments], np.int64).reshape(-1, 2)
    degree = np.bincount(pairs.ravel(), minlength=len(keys))
    n_components, labels = geometry.label_components(len(keys), pairs[:, 0], pairs[:, 1])
    bvert = set(mesh.boundary_edges.ravel().tolist())
    bedge = {tuple(sorted(e)) for e in mesh.boundary_edges.tolist()}
    per_component = {}
    for i, key in enumerate(keys):
        on_boundary = key[1] in bvert if key[0] == "v" else key[1:] in bedge
        if degree[i] > 0 and on_boundary:
            per_component[int(labels[i])] = per_component.get(int(labels[i]), 0) + 1
    return (len(segments) - len(keys) + n_components,
            all(c % 2 == 0 for c in per_component.values()))


def _node_id(mesh, key):
    """Edge e has id e and vertex v has id n_edges + v."""
    if key[0] == "v":
        return len(mesh.edge_table.edges) + key[1]
    return int(geometry.edge_ids(mesh, [key[1:]])[0])


def _svg_segments(text):
    found = re.findall(r'<polyline points="([^"]*)" fill="none" stroke="#000"', text)
    return [frozenset(p.split()) for p in found]


def _svg_point(mesh):
    """The point formatter of nodal.nodal_svg, for drawing oracle segments."""
    coords = geometry.triangle_coords(mesh).reshape(-1, 2)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span.max()
    scale = SVG_WIDTH / (span[0] + 2 * pad)
    height = (span[1] + 2 * pad) * scale
    return lambda p: (f"{(p[0] - lo[0] + pad) * scale:.2f},"
                      f"{height - (p[1] - lo[1] + pad) * scale:.2f}")


def _mixed_disk():
    cut = 0.3 + 1.2 * math.pi
    arcs = [((0.3, cut), STEKLOV), ((cut, 0.3 + 2 * math.pi), NEUMANN)]
    return geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.12), arcs,
                                 by="angle", center=(0.0, 0.0))


def _three_tag_disk():
    arcs = [((0.3, 2.5), STEKLOV), ((2.5, 4.4), NEUMANN),
            ((4.4, 0.3 + 2 * math.pi), DIRICHLET)]
    return geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.12), arcs,
                                 by="angle", center=(0.0, 0.0))


def _welded_five_cycle():
    cycle = np.array([[i, (i + 1) % 5] for i in range(5)])
    g = graphs.MetricGraph(5, cycle, np.array([1.0, 0.9, 1.1, 1.0, 1.0]))
    emb = thickening.embed_graph(g, "convex-boundary", 2.0)
    mesh = thickening.build_thickened_mesh(emb, 0.05, 2.0, target_h=0.025)
    return mesh


MESHES = {
    "disk": lambda: geometry.make_disk_mesh(1.0, 0.12),
    "annulus": lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.12),
    "mixed-disk": _mixed_disk,
    "three-tag-disk": _three_tag_disk,
    "periodic-strip": lambda: geometry.make_strip_mesh(2 * math.pi, 0.5, 0.15, periodic=True),
    "five-cycle": _welded_five_cycle,
}


def _fields(mesh):
    res = fem.steklov_spectrum(mesh, 7)
    rng = np.random.default_rng(11)
    fields = list(res.extensions)
    for a, b in res.clusters:
        if b - a > 1:  # random rotations inside a multiple eigenvalue
            for _ in range(5):
                coef = rng.normal(size=b - a)
                fields.append(coef / np.linalg.norm(coef) @ res.extensions[a:b])
    # a few levels only: whole triangles fall in the dead zone
    for f in list(fields[:4]):
        fields.append(np.round(3.0 * f / np.abs(f).max()))
    # isolated touch points, one on the boundary and one inside
    touch = np.ones(mesh.n_vertices)
    touch[mesh.boundary_edges[0, 0]] = 0.0
    touch[np.setdiff1d(np.arange(mesh.n_vertices), mesh.boundary_edges)[0]] = 0.0
    fields.append(touch)
    # a cross of two lines and a separate chord: components with 4 and 2
    # boundary endpoints
    x, y = (mesh.vertices - mesh.vertices.mean(axis=0)).T
    for th in (0.0, math.pi / 4):
        u = x * math.cos(th) + y * math.sin(th)
        v = y * math.cos(th) - x * math.sin(th)
        for q in range(4):
            w = x * math.cos(th + (q + 0.5) * math.pi / 2) + y * math.sin(th + (q + 0.5) * math.pi / 2)
            fields.append(u * v * (w - 0.85 * np.abs(w).max()))
    return fields


@pytest.mark.parametrize("name", sorted(MESHES))
def test_zero_set_graph_matches_oracle(name):
    mesh = MESHES[name]()
    fields = _fields(mesh)
    dead_triangles = 0
    for field in fields:
        signs = oracle_signs(field)
        dead_triangles += int(np.all(signs[mesh.triangles] == 0, axis=1).sum())
        nodes, segments = oracle_graph(mesh, field)
        keys = sorted(nodes, key=lambda k: _node_id(mesh, k))
        index = {k: i for i, k in enumerate(keys)}
        graph = nodal.nodal_graph(mesh, field)
        ids, segs = nodal._zero_set(mesh, field[None])
        assert ids.tolist() == [_node_id(mesh, k) for k in keys]
        assert np.array_equal(segs, graph.segments)
        assert np.array_equal(graph.positions, np.array([nodes[k] for k in keys]).reshape(-1, 2))
        assert graph.segments.tolist() == sorted(sorted([index[a], index[b]])
                                                 for a, b in segments)

        cycle_rank, all_even = nodal.nodal_graph_stats(mesh, field)
        assert (cycle_rank.tolist(), all_even.tolist()) == tuple(
            [v] for v in oracle_verdicts(mesh, field))

        drawn = _svg_segments("".join(nodal.nodal_svg(mesh, field)))
        pt = _svg_point(mesh)
        assert len(drawn) == len(segments)
        assert set(drawn) == {frozenset((pt(nodes[a]), pt(nodes[b]))) for a, b in segments}
    assert dead_triangles > 0
    # the whole stack at once: one verdict per row, each taking both values
    cycle_rank, all_even = nodal.nodal_graph_stats(mesh, np.array(fields))
    assert cycle_rank.any() and cycle_rank.min() == 0 and all_even.any() and not all_even.all()
    assert list(zip(cycle_rank.tolist(), all_even.tolist())) == [
        oracle_verdicts(mesh, f) for f in fields]


def oracle_mesh_text(mesh):
    fmt = geometry._fmt
    lines = ["steklov-mesh v1"]
    if mesh.period_x > 0:
        lines.append(f"period-x {fmt(mesh.period_x)}")
    lines.append(str(mesh.n_vertices))
    for x, y in mesh.vertices:
        lines.append(f"{fmt(x)} {fmt(y)}")
    lines.append(str(mesh.n_triangles))
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    lines.append(str(mesh.boundary_edges.shape[0]))
    for (a, b), tag, d in zip(mesh.boundary_edges, mesh.boundary_tags, mesh.edge_density):
        lines.append(f"{a} {b} {tag} {fmt(d)}")
    for w in mesh.tri_weight:
        lines.append(fmt(w))
    return "\n".join(lines) + "\n"


def oracle_svg(mesh, field):
    coords = geometry.triangle_coords(mesh)
    lo = coords.reshape(-1, 2).min(axis=0)
    hi = coords.reshape(-1, 2).max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span.max()
    height = (span[1] + 2 * pad) * (SVG_WIDTH / (span[0] + 2 * pad))
    pt = _svg_point(mesh)
    field = np.asarray(field, float)
    cen_val = field[mesh.triangles].mean(axis=1)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {SVG_WIDTH:.0f} {height:.0f}">']
    for t in range(mesh.n_triangles):
        fill = "#fddcdc" if cen_val[t] > 0 else "#dce8fd"
        pts = " ".join(pt(coords[t, i]) for i in range(3))
        out.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        pa = mesh.vertices[a].astype(float)
        pb = pa + geometry.edge_vector(mesh, np.array([a]), np.array([b]))[0]
        out.append(f'<polyline points="{pt(pa)} {pt(pb)}" fill="none" '
                   f'stroke="{nodal._TAG_COLORS[tag]}" stroke-width="2"/>')
    graph = nodal.nodal_graph(mesh, field)
    for pa, pb in graph.positions[graph.segments]:
        out.append(f'<polyline points="{pt(pa)} {pt(pb)}" '
                   f'fill="none" stroke="#000" stroke-width="1.2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def test_meshes_cover_every_tag_and_periodicity():
    meshes = [make() for make in MESHES.values()]
    assert {t for m in meshes for t in m.boundary_tags} == set(TAGS)
    assert any(m.period_x > 0 for m in meshes)


# rows per chunk that split every block of the meshes here, at odd offsets
SMALL_CHUNK_ROWS = 7


@pytest.mark.parametrize("name", sorted(MESHES))
def test_mesh_text_matches_oracle(name, monkeypatch):
    mesh = MESHES[name]()
    rng = np.random.default_rng(3)
    # irregular densities and weights exercise every digit of %.17g
    varied = geometry.replace_mesh(
        mesh, edge_density=rng.uniform(0.1, 10.0, len(mesh.edge_density)),
        tri_weight=np.exp(rng.normal(size=mesh.n_triangles)))
    for rows in (geometry._CHUNK_ROWS, SMALL_CHUNK_ROWS):
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", rows)
        for m in (mesh, varied):
            assert "".join(geometry.mesh_to_text(m)) == oracle_mesh_text(m)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_nodal_svg_matches_oracle(name, monkeypatch):
    mesh = MESHES[name]()
    fields = _fields(mesh)
    dead = [f for f in fields if np.any(oracle_signs(f) == 0)]
    assert dead
    for rows in (geometry._CHUNK_ROWS, SMALL_CHUNK_ROWS):
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", rows)
        for field in fields:
            assert "".join(nodal.nodal_svg(mesh, field)) == oracle_svg(mesh, field)


def test_artifact_writers_keep_a_bounded_peak(tmp_path):
    # the eps = 0.005 thickened 5-cycle has 66,445 triangles; formatted in one
    # %-operation per block, its mesh text peaked at 12.0 MiB and its figure
    # at 36.0 MiB of traced memory
    g = graphs.MetricGraph(5, [[i, (i + 1) % 5] for i in range(5)], np.ones(5))
    emb = thickening.embed_graph(g, "convex-boundary", 2.0)
    mesh = thickening.build_thickened_mesh(emb, 0.005, 2.0, target_h=0.25 * 0.005)
    field = mesh.vertices[:, 0].copy()
    writers = [
        ("mesh.msh", lambda path: geometry.save_mesh(mesh, path), 2),
        ("mode1.svg", lambda path: nodal.save_nodal_svg(mesh, field, path), 14),
    ]
    peaks_mib = {}
    for name, write, _ in writers:
        tracemalloc.start()
        try:
            write(str(tmp_path / name))
            peaks_mib[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert all(peaks_mib[name] <= bound for name, _, bound in writers), peaks_mib
