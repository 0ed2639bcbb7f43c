import json
import os
import subprocess
import sys

import numpy as np
import pytest

from steklov_lab import graphs

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def test_laplacian_values():
    g = graphs.MetricGraph(3, np.array([[0, 1], [1, 2]]), np.array([1.0, 2.0]))
    L = graphs.graph_laplacian(g)
    expected = np.array([[1.0, -1.0, 0.0],
                         [-1.0, 1.5, -0.5],
                         [0.0, -0.5, 0.5]])
    assert np.allclose(L, expected)


def test_k3_unit_spectrum():
    g = graphs.MetricGraph(3, graphs.complete_graph_edges(3), np.ones(3))
    assert np.allclose(graphs.graph_laplacian_spectrum(g), [0.0, 3.0, 3.0])


def test_homogeneity():
    rng = np.random.default_rng(3)
    g = graphs.MetricGraph(4, graphs.complete_graph_edges(4),
                           rng.uniform(0.5, 3.0, 6))
    base = graphs.graph_laplacian_spectrum(g)
    # the values eigh gives, to the bit: the reports were written from them
    assert np.array_equal(base, np.linalg.eigh(graphs.graph_laplacian(g))[0])
    scaled = graphs.graph_laplacian_spectrum(
        graphs.MetricGraph(4, g.edges, g.lengths / 2.0))
    assert np.allclose(scaled, 2.0 * base, rtol=1e-13, atol=1e-13)


def test_graph_validation():
    with pytest.raises(graphs.GraphError):
        graphs.MetricGraph(2, np.array([[0, 0]]), np.array([1.0]))  # loop
    with pytest.raises(graphs.GraphError):
        graphs.MetricGraph(2, np.array([[0, 1], [1, 0]]), np.ones(2))  # multi
    with pytest.raises(graphs.GraphError):
        graphs.MetricGraph(2, np.array([[0, 1]]), np.array([-1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(graphs.GraphError):
            graphs.MetricGraph(2, np.array([[0, 1]]), np.array([bad]))
    with pytest.raises(graphs.GraphError):
        graphs.MetricGraph(2, np.array([[0, 2]]), np.array([1.0]))
    with pytest.raises(graphs.GraphError):
        graphs.MetricGraph(2, [[0], [1]], np.ones(2))  # not vertex pairs


def test_disconnected_detection():
    g = graphs.MetricGraph(4, np.array([[0, 1], [2, 3]]), np.ones(2))
    with pytest.raises(graphs.GraphError):
        graphs.graph_laplacian_spectrum(g)


def test_weight_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    edges = graphs.complete_graph_edges(4)
    w = rng.uniform(0.5, 2.0, edges.shape[0])
    lam, jac = graphs.eigenvalues_and_weight_jacobian(4, edges, w)
    h = 1e-6
    for i in range(edges.shape[0]):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        lp, _ = graphs.eigenvalues_and_weight_jacobian(4, edges, wp)
        lm, _ = graphs.eigenvalues_and_weight_jacobian(4, edges, wm)
        fd = (lp - lm) / (2 * h)
        assert np.allclose(jac[:, i], fd, atol=1e-5)


def _loop_laplacian(n, edges, weights):
    """The weighted Laplacian accumulated edge by edge."""
    L = np.zeros((n, n))
    for (x, y), w in zip(edges, weights):
        L[x, x] += w
        L[y, y] += w
        L[x, y] -= w
        L[y, x] -= w
    return L


def test_laplacian_matches_edge_loop():
    rng = np.random.default_rng(7)
    for n in range(3, 8):
        edges = graphs.complete_graph_edges(n)
        for scale in (1e-3, 1.0, 1e3):
            w = scale * rng.lognormal(0.0, 1.0, edges.shape[0])
            assert np.array_equal(graphs._laplacian(n, edges, w), _loop_laplacian(n, edges, w))
        sparse = edges[rng.permutation(edges.shape[0])[:n]]
        w = rng.uniform(0.1, 3.0, n)
        assert np.array_equal(graphs._laplacian(n, sparse, w), _loop_laplacian(n, sparse, w))


def test_prescriber_decomposes_each_point_once(monkeypatch):
    points = []
    evaluate = graphs.eigenvalues_and_weight_jacobian

    def counted(n, edges, weights):
        points.append(weights.tobytes())
        return evaluate(n, edges, weights)

    rng = np.random.default_rng(12)
    targets = [np.sort(rng.uniform(0.5, 5.0, n)) for n in (2, 3, 5)]
    want = [graphs.prescribe_spectrum(t).lengths for t in targets]
    monkeypatch.setattr(graphs, "eigenvalues_and_weight_jacobian", counted)
    for t, lengths in zip(targets, want):
        points.clear()
        assert np.array_equal(graphs.prescribe_spectrum(t).lengths, lengths)
        assert len(points) > 1
        assert len(set(points)) == len(points)
    # no start reaches the tolerance: every start and its final check
    points.clear()
    with pytest.raises(graphs.PrescriptionError):
        graphs.prescribe_spectrum([1.0, 1.0, 1.0, 1.0, 50.0], tol=1e-300)
    assert len(set(points)) == len(points) > graphs._N_STARTS


def test_prescribe_single_target():
    g = graphs.prescribe_spectrum([2.5])
    spec = graphs.graph_laplacian_spectrum(g)
    assert np.allclose(spec, [0.0, 2.5])


def test_prescribe_triple_one():
    g = graphs.prescribe_spectrum([1.0, 1.0, 1.0])
    spec = graphs.graph_laplacian_spectrum(g)
    assert np.allclose(spec, [0.0, 1.0, 1.0, 1.0], atol=1e-9)
    assert np.allclose(g.lengths, 4.0, atol=1e-6)


def test_prescribe_random_targets():
    rng = np.random.default_rng(12)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        targets = np.sort(rng.uniform(0.5, 5.0, n))
        g = graphs.prescribe_spectrum(targets)
        got = graphs.graph_laplacian_spectrum(g)[1:]
        assert np.max(np.abs(got - targets) / targets) <= 1e-8


@pytest.mark.parametrize("targets", [[1.0, 1.0, 2.0], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 3.0],
                                     [0.5, 3.0, 3.0, 3.0, 4.0]])
def test_prescribe_repeated_targets(targets):
    g = graphs.prescribe_spectrum(targets)
    got = graphs.graph_laplacian_spectrum(g)[1:]
    assert np.max(np.abs(got - targets) / np.asarray(targets)) <= 1e-8


def test_stalled_start_gives_way(monkeypatch):
    """At a repeated target ||r|| falls only linearly; a start that stalls
    ends before its _MAX_ITERS iterations and the next start fits."""
    calls = []
    evaluate = graphs.eigenvalues_and_weight_jacobian

    def counted(n, edges, weights):
        calls.append(1)
        return evaluate(n, edges, weights)

    monkeypatch.setattr(graphs, "eigenvalues_and_weight_jacobian", counted)
    targets = [0.5, 3.0, 3.0, 3.0, 4.0]
    got = graphs.graph_laplacian_spectrum(graphs.prescribe_spectrum(targets))[1:]
    assert np.max(np.abs(got - targets) / np.asarray(targets)) <= 1e-8
    assert len(calls) <= 600


def test_prescriber_audit_fits_in_few_evaluations(monkeypatch):
    """The target sets of the shipped prescriber audit, drawn as its runner
    draws them: each fit takes few eigendecompositions."""
    with open(os.path.join(CONFIG_DIR, "06-prescriber-audit.json"), encoding="ascii") as fh:
        config = json.load(fh)
    lo, hi = config["params"]["n_range"]
    rng = np.random.default_rng(config["seed"])
    calls = []
    evaluate = graphs.eigenvalues_and_weight_jacobian

    def counted(n, edges, weights):
        calls[-1] += 1
        return evaluate(n, edges, weights)

    monkeypatch.setattr(graphs, "eigenvalues_and_weight_jacobian", counted)
    for _ in range(config["params"]["trials"]):
        targets = np.sort(rng.uniform(0.5, 5.0, int(rng.integers(lo, hi + 1))))
        calls.append(0)
        graphs.prescribe_spectrum(targets, seed=int(rng.integers(2 ** 32)))
    assert len(calls) == 50
    assert max(calls) <= 25


def test_cli_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(graphs.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([package_root] + [p for p in
                                        env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = "import sys, steklov_lab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_prescribe_rejects_bad_targets():
    with pytest.raises(graphs.GraphError):
        graphs.prescribe_spectrum([2.0, 1.0])
    with pytest.raises(graphs.GraphError):
        graphs.prescribe_spectrum([-1.0])
    for bad in (np.nan, np.inf):
        for targets in ([bad], [1.0, bad], [bad, 1.0, 2.0]):
            with pytest.raises(graphs.GraphError):
                graphs.prescribe_spectrum(targets)


def test_graph_roundtrip(tmp_path):
    g = graphs.MetricGraph(3, graphs.complete_graph_edges(3),
                           np.array([1.0, 2.0, np.pi]))
    path = tmp_path / "g.graph"
    graphs.save_graph(g, str(path))
    back = graphs.load_graph(str(path))
    assert back.n_vertices == 3
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.lengths, g.lengths)  # 17 significant digits
