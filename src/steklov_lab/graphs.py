"""Metric graphs, their combinatorial Laplacian, and inverse spectrum design.

The Laplacian quadratic form is sum over edges of (f(x)-f(y))^2 / l, i.e. the
weighted graph Laplacian with edge weights 1/l, acting on vertex functions
with the canonical Euclidean inner product.  The prescriber fits edge lengths
on the complete graph K_{N+1} so that the nonzero spectrum matches a target
sequence, by minimum-norm Gauss-Newton with analytic eigenvalue derivatives.
"""

from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    pass


class PrescriptionError(RuntimeError):
    pass


@dataclass(frozen=True)
class MetricGraph:
    n_vertices: int
    edges: np.ndarray   # (m, 2) int
    lengths: np.ndarray  # (m,) float > 0

    def __post_init__(self):
        edges = np.asarray(self.edges, np.int64)
        lengths = np.asarray(self.lengths, float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lengths", lengths)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError("edges must be vertex pairs")
        if edges.shape[0] != lengths.shape[0]:
            raise GraphError("edge and length counts differ")
        if not np.all((0 < lengths) & (lengths < np.inf)):
            raise GraphError("all edge lengths must be positive and finite")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise GraphError("loops are not allowed")
        key = {tuple(sorted(e)) for e in edges.tolist()}
        if len(key) != edges.shape[0]:
            raise GraphError("multi-edges are not allowed")
        if edges.size and (edges.min() < 0 or edges.max() >= self.n_vertices):
            raise GraphError("edge endpoint out of range")


def complete_graph_edges(n_vertices):
    return np.column_stack(np.triu_indices(n_vertices, 1)).astype(np.int64)


def _laplacian(n, edges, weights):
    """Weighted Laplacian of a simple graph.  bincount sums each vertex's
    weights in edge order, so the diagonal is the same to the bit as
    accumulating edge by edge."""
    w = np.asarray(weights, float)
    L = np.diag(np.bincount(edges.ravel(), np.repeat(w, 2), minlength=n))
    L[edges[:, 0], edges[:, 1]] = -w
    L[edges[:, 1], edges[:, 0]] = -w
    return L


def graph_laplacian(g):
    return _laplacian(g.n_vertices, g.edges, 1.0 / g.lengths)


def graph_laplacian_spectrum(g):
    """Ascending Laplacian eigenvalues, from eigh: eigvalsh can differ in the last bits."""
    w = np.linalg.eigh(graph_laplacian(g))[0]
    if g.n_vertices > 1 and w[1] < 1e-12 * max(1.0, w[-1]):
        raise GraphError("graph is disconnected (zero eigenvalue is multiple)")
    return w


def eigenvalues_and_weight_jacobian(n, edges, weights):
    """Sorted eigenvalues and d(lambda_k)/d(w_i) = (v_k(x_i) - v_k(y_i))^2.

    The derivative formula is exact for simple eigenvalues and a valid
    subgradient choice inside clusters (sorted matching).
    """
    w, v = np.linalg.eigh(_laplacian(n, edges, weights))
    diff = v[edges[:, 0], :] - v[edges[:, 1], :]   # (m, n)
    jac = (diff ** 2).T                            # (n, m): row k, column i
    return w, jac


# Gauss-Newton iterations per start, starts (symmetric plus random), halvings
# per step, the relative error that ends a start, and the largest change of a
# log-weight per step (near a singular J, J^+ r can carry a weight to 0 at once)
_MAX_ITERS = 200
_N_STARTS = 8
_MAX_HALVINGS = 30
_FIT_REL_ERR = 1e-12
_MAX_STEP = 2.0
# at a repeated target the jacobian is only a subgradient and ||r|| can creep
# down for every iteration of a start: a start ends once ||r|| is still above
# _STALL_RATIO times its value _STALL_WINDOW accepted steps before
_STALL_WINDOW = 5
_STALL_RATIO = 0.5


def prescribe_spectrum(targets, tol=1e-8, seed=0):
    """Edge lengths on K_{N+1} whose Laplacian spectrum is (0, a_1..a_N).

    Gauss-Newton in the log-weights z (positivity by construction) from a
    symmetric start, then seeded random ones.  The N equations have N(N+1)/2
    unknowns, so the step is the minimum-norm dz = -J^+ r (Ben-Israel 1966),
    halved until the residual norm falls.  A start that stalls gives way to
    the next one.
    """
    targets = np.asarray(targets, float)
    if not (targets.size and np.all((0 < targets) & (targets < np.inf))
            and np.all(np.diff(targets) >= 0)):
        raise GraphError("targets must be positive, finite and sorted ascending")
    if targets.size == 1:
        # K_2: single edge, spectrum (0, 2/l)
        return MetricGraph(2, np.array([[0, 1]]), np.array([2.0 / targets[0]]))
    n = targets.size + 1
    edges = complete_graph_edges(n)
    rng = np.random.default_rng(seed)
    # uniform weights give the constant spectrum mean(targets); good basin
    w_uniform = np.full(len(edges), targets.mean() / n)
    best = np.inf
    for start in range(_N_STARTS):
        w = w_uniform if start == 0 else w_uniform * np.exp(rng.normal(0.0, 0.5, len(edges)))
        lam, jac = eigenvalues_and_weight_jacobian(n, edges, w)
        norms = []   # ||r|| at each accepted point of the start
        for _ in range(_MAX_ITERS):
            if np.max(np.abs(lam[1:] - targets) / targets) <= _FIT_REL_ERR:
                break
            # the step in z = log(w), where d(lambda)/dz_i = w_i d(lambda)/dw_i
            r = lam[1:] - targets
            norms.append(np.linalg.norm(r))
            if (len(norms) > _STALL_WINDOW
                    and norms[-1] > _STALL_RATIO * norms[-1 - _STALL_WINDOW]):
                break
            step = np.linalg.lstsq(jac[1:] * w, -r, rcond=None)[0]
            step *= min(1.0, _MAX_STEP / np.abs(step).max())
            accepted, tried = False, None
            for _ in range(_MAX_HALVINGS):
                w_trial = w * np.exp(step)
                if np.array_equal(w_trial, w) or np.array_equal(w_trial, tried):
                    break  # halving no longer moves the weights
                tried = w_trial
                lam_trial, jac_trial = eigenvalues_and_weight_jacobian(n, edges, w_trial)
                if np.linalg.norm(lam_trial[1:] - targets) < norms[-1]:
                    w, lam, jac, accepted = w_trial, lam_trial, jac_trial, True
                    break
                step /= 2.0
            if not accepted:
                break
        rel = np.max(np.abs(lam[1:] - targets) / targets)
        best = min(best, rel)
        if rel <= tol:
            g = MetricGraph(n, edges, 1.0 / w)
            check = graph_laplacian_spectrum(g)
            if np.max(np.abs(check[1:] - targets) / targets) <= tol:
                return g
    raise PrescriptionError(
        f"none of {_N_STARTS} Gauss-Newton starts reached tol={tol} "
        f"(best max relative error {best:.3e})")


# ---------------------------------------------------------------------------
# serialization: "steklov-graph v1"
# ---------------------------------------------------------------------------

def graph_to_text(g):
    lines = ["steklov-graph v1", f"{g.n_vertices} {g.edges.shape[0]}"]
    for (a, b), l in zip(g.edges, g.lengths):
        lines.append(f"{a} {b} {format(float(l), '.17g')}")
    return "\n".join(lines) + "\n"


def save_graph(g, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_text(g))


def load_graph(path):
    with open(path, encoding="ascii") as fh:
        lines = [l for l in fh.read().splitlines() if l.strip()]
    header = lines[0] if lines else ""
    if header.strip() != "steklov-graph v1":
        raise GraphError(f"unexpected header {header!r}")
    if len(lines) < 2:
        raise GraphError("the file ends before the vertex and edge counts")
    nv, ne = (int(t) for t in lines[1].split())
    if len(lines) < 2 + ne:
        raise GraphError(f"edge block needs {ne} lines, found {len(lines) - 2}")
    edges = np.empty((ne, 2), np.int64)
    lengths = np.empty(ne)
    for i in range(ne):
        a, b, l = lines[2 + i].split()
        edges[i] = (int(a), int(b))
        lengths[i] = float(l)
    return MetricGraph(nv, edges, lengths)
