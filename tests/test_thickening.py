import math

import numpy as np
import pytest

from steklov_lab import fem, geometry, graphs, harness, thickening as thk

import oracles


def unit_k3():
    return graphs.MetricGraph(3, graphs.complete_graph_edges(3), np.ones(3))


def test_convex_boundary_embedding_k3():
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    r = np.linalg.norm(emb.positions, axis=1)
    assert np.allclose(r, 1.0 / math.sqrt(3.0))  # circumradius of unit triangle
    for (a, b), l in zip(emb.graph.edges, emb.graph.lengths):
        assert np.linalg.norm(emb.positions[a] - emb.positions[b]) == pytest.approx(l)


def test_convex_boundary_rejects_non_cycles():
    g = graphs.MetricGraph(4, graphs.complete_graph_edges(4), np.ones(6))
    with pytest.raises(thk.EmbeddingError):
        thk.embed_graph(g, "convex-boundary")


def test_path_embedding_bends():
    g = graphs.MetricGraph(3, np.array([[0, 1], [1, 2]]), np.array([1.0, 2.0]))
    emb = thk.embed_graph(g, "path")
    d1 = emb.positions[1] - emb.positions[0]
    d2 = emb.positions[2] - emb.positions[1]
    cos = d1 @ d2 / (np.linalg.norm(d1) * np.linalg.norm(d2))
    assert cos == pytest.approx(0.0, abs=1e-12)  # right-angle zigzag


def test_star_embedding_needs_room():
    g = graphs.MetricGraph(4, np.array([[0, 1], [0, 2], [0, 3]]),
                           np.array([1.0, 1.0, 1.0]))
    with pytest.raises(thk.EmbeddingError):
        thk.embed_graph(g, "star", c=2.0)
    emb = thk.embed_graph(g, "star", c=4.0)
    assert np.allclose(np.linalg.norm(emb.positions[1:], axis=1), 1.0)


def test_collinear_interior_vertex_rejected():
    g = graphs.MetricGraph(3, np.array([[0, 1], [1, 2]]), np.ones(2))
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    emb = thk.GraphEmbedding(g, pos)
    with pytest.raises(thk.ThickeningError):
        thk.build_thickened_mesh(emb, 0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_thickening_rejects_non_finite_numbers(bad):
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    with pytest.raises(thk.EmbeddingError):
        thk.embed_graph(unit_k3(), "convex-boundary", c=bad)
    for kwargs in ({"eps": bad}, {"eps": 0.05, "c": bad}, {"eps": 0.05, "target_h": bad}):
        with pytest.raises(thk.ThickeningError):
            thk.build_thickened_mesh(emb, **kwargs)


def test_embedding_must_realize_lengths():
    g = graphs.MetricGraph(2, np.array([[0, 1]]), np.array([2.0]))
    with pytest.raises(thk.EmbeddingError):
        thk.GraphEmbedding(g, np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_thickened_mesh_structure():
    eps, c = 0.06, 2.0
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    mesh = thk.build_thickened_mesh(emb, eps, c)
    geometry.validate_mesh(mesh)
    # steklov boundary = three flat diameters of length 2*c*eps
    assert geometry.boundary_length(mesh, geometry.STEKLOV) == pytest.approx(
        3 * 2 * c * eps)
    # total area close to three strips plus three cut half-disks
    t0 = eps * math.sqrt(c * c - 1.0)
    assert oracles.mesh_area(mesh) == pytest.approx(
        3 * 2 * eps * (1 - 2 * t0), rel=0.25)


def seeded_cycle(seed):
    rng = np.random.default_rng(seed)
    lengths = rng.uniform(0.9, 1.1, 5)
    lengths *= 5.0 / lengths.sum()
    return graphs.MetricGraph(5, [[i, (i + 1) % 5] for i in range(5)], lengths)


EMBEDDINGS = {
    "k3": (unit_k3(), "convex-boundary", 2.0),
    "5-cycle": (seeded_cycle(1), "convex-boundary", 2.0),
    "path": (graphs.MetricGraph(4, [[0, 1], [1, 2], [2, 3]], [1.0, 0.8, 1.2]), "path", 2.0),
    "star": (graphs.MetricGraph(4, [[0, 1], [0, 2], [0, 3]], [1.0, 0.9, 1.1]), "star", 4.0),
}


@pytest.mark.parametrize("name", list(EMBEDDINGS))
def test_steklov_boundary_is_one_diameter_per_vertex(name):
    g, style, c = EMBEDDINGS[name]
    emb = thk.embed_graph(g, style, c)
    eps = 0.04
    mesh = thk.build_thickened_mesh(emb, eps, c)
    edges = mesh.boundary_edges[mesh.boundary_tags == geometry.STEKLOV]
    lengths = geometry.boundary_edge_lengths(mesh)[mesh.boundary_tags == geometry.STEKLOV]
    _, labels = geometry.label_components(mesh.n_vertices, edges[:, 0], edges[:, 1])
    comps = np.unique(labels[edges[:, 0]])
    assert comps.size == g.n_vertices
    centers = []
    for comp in comps:
        on = labels[edges[:, 0]] == comp
        pts = mesh.vertices[np.unique(edges[on])]
        # extreme points: the farthest from any point, then the farthest from it
        a = pts[np.argmax(np.linalg.norm(pts - pts[0], axis=1))]
        b = pts[np.argmax(np.linalg.norm(pts - a, axis=1))]
        u = (b - a) / np.linalg.norm(b - a)
        off_line = (pts - a) @ np.array([-u[1], u[0]])
        assert np.max(np.abs(off_line)) < 1e-12
        assert np.linalg.norm(b - a) == pytest.approx(2 * c * eps, rel=1e-12)
        assert lengths[on].sum() == pytest.approx(2 * c * eps, rel=1e-12)
        centers.append(0.5 * (a + b))
    # the midpoints are the vertex positions, one diameter per vertex
    dist = np.linalg.norm(np.asarray(centers)[:, None] - emb.positions[None], axis=2)
    assert sorted(np.argmin(dist, axis=1).tolist()) == list(range(g.n_vertices))
    assert np.max(np.min(dist, axis=1)) < 1e-12


def test_overlapping_disks_rejected():
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    with pytest.raises(thk.ThickeningError):
        thk.build_thickened_mesh(emb, 0.3, c=2.0)  # disks of radius 0.6


def test_graph_limit_converges_to_inverse_c(monkeypatch):
    solves = []
    solve = fem.steklov_spectrum

    def recorded(mesh, *args):
        solves.append((mesh, solve(mesh, *args)))
        return solves[-1][1]

    monkeypatch.setattr(fem, "steklov_spectrum", recorded)
    config = harness.ExperimentConfig(
        kind="graph-limit", name="k3", seed=0,
        params={"complete": 3, "lengths": [1.0, 1.0, 1.0], "c": 2.0,
                "eps_values": [0.08, 0.04]})
    report = harness.run(config)
    points = report.points
    checks = {c["name"]: c["observed"] for c in report.checks}
    means = [np.mean([pt["ratio"] for pt in points
                      if pt["eps"] == eps and pt["ratio"] is not None])
             for eps in (0.08, 0.04)]
    gaps = checks["gap-monotone"]
    # ratio approaches 1/c from above, gap grows
    assert abs(means[1] - 0.5) < abs(means[0] - 0.5)
    assert gaps[1] > gaps[0]
    assert checks["constant-recorded"]["closest"] == "1/c"
    # the double graph eigenvalue stays numerically double on the domain
    assert checks["ratio-spread"] < 1e-6
    # the final solve, which a graph-limit run draws: it is the last eps's
    # mesh and spectrum, and mode 1 lies in the double eigenspace of sigma_1
    mesh, res = solves[-1]
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    built = thk.build_thickened_mesh(emb, 0.04, c=2.0, target_h=0.01)
    assert geometry.mesh_hash(mesh) == geometry.mesh_hash(built)
    assert res.eigenvalues[1:].tolist() == [pt["sigma"] for pt in points if pt["eps"] == 0.04]
    assert abs(oracles.rayleigh_quotient(mesh, res.extensions[1]) - res.eigenvalues[1]) < 1e-10
    # each nonconstant trace is nearly constant on each steklov diameter, a
    # connected component of the steklov boundary
    sk = res.steklov_vertices
    ends = np.searchsorted(sk, mesh.boundary_edges[mesh.boundary_tags == geometry.STEKLOV])
    n_diam, diam = geometry.label_components(sk.size, ends[:, 0], ends[:, 1])
    assert n_diam == 3
    vecs = res.extensions[1:3, sk].T
    scale = np.abs(vecs).max(axis=0)
    assert max(np.max(np.ptp(vecs[diam == j], axis=0) / scale) for j in range(n_diam)) < 0.1


def test_circumscribed_radius_square():
    r = thk._circumscribed_radius([1.0, 1.0, 1.0, 1.0])
    assert r == pytest.approx(math.sqrt(0.5))
    with pytest.raises(thk.EmbeddingError):
        thk._circumscribed_radius([10.0, 1.0, 1.0])
