import math

import numpy as np
import pytest

from steklov_lab import fem, geometry, graphs, thickening as thk


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
    emb = thk.GraphEmbedding(g, pos, "custom")
    with pytest.raises(thk.ThickeningError):
        thk.build_thickened_mesh(emb, 0.05)


def test_embedding_must_realize_lengths():
    g = graphs.MetricGraph(2, np.array([[0, 1]]), np.array([2.0]))
    with pytest.raises(thk.EmbeddingError):
        thk.GraphEmbedding(g, np.array([[0.0, 0.0], [1.0, 0.0]]), "custom")


def test_thickened_mesh_structure():
    eps, c = 0.06, 2.0
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    mesh, diameters = thk.build_thickened_mesh(emb, eps, c)
    geometry.validate_mesh(mesh)
    # steklov boundary = three flat diameters of length 2*c*eps
    assert geometry.boundary_length(mesh, geometry.STEKLOV) == pytest.approx(
        3 * 2 * c * eps)
    assert len(diameters) == 3
    for e_minus, e_plus in diameters.values():
        assert np.linalg.norm(e_plus - e_minus) == pytest.approx(2 * c * eps)
    # total area close to three strips plus three cut half-disks
    t0 = eps * math.sqrt(c * c - 1.0)
    assert geometry.mesh_area(mesh) == pytest.approx(
        3 * 2 * eps * (1 - 2 * t0), rel=0.25)


def test_overlapping_disks_rejected():
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    with pytest.raises(thk.ThickeningError):
        thk.build_thickened_mesh(emb, 0.3, c=2.0)  # disks of radius 0.6


def test_graph_limit_converges_to_inverse_c():
    emb = thk.embed_graph(unit_k3(), "convex-boundary")
    out = thk.verify_graph_limit(emb, [0.08, 0.04], c=2.0)
    rows = out["rows"]
    # ratio approaches 1/c from above, gap grows
    assert abs(rows[1]["ratio_mean"] - 0.5) < abs(rows[0]["ratio_mean"] - 0.5)
    assert rows[1]["gap"] > rows[0]["gap"]
    assert out["closest_candidate"] == "1/c"
    # the double graph eigenvalue stays numerically double on the domain
    assert rows[1]["ratio_spread"] < 1e-6
    assert rows[1]["trace_spread"] < 0.1
    # the final solve, which a graph-limit run draws: mode 1 lies in the
    # double eigenspace of sigma_1
    mesh, res = out["final"]
    assert mesh.n_vertices == rows[1]["n_vertices_mesh"]
    assert res.eigenvalues.tolist() == rows[1]["sigma"]
    assert abs(fem.rayleigh_quotient(mesh, res.extensions[1]) - res.eigenvalues[1]) < 1e-10


def test_circumscribed_radius_square():
    r = thk._circumscribed_radius([1.0, 1.0, 1.0, 1.0])
    assert r == pytest.approx(math.sqrt(0.5))
    with pytest.raises(thk.EmbeddingError):
        thk._circumscribed_radius([10.0, 1.0, 1.0])
