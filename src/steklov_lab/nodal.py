"""Nodal decomposition and combinatorial audits of eigenfunction sign patterns.

A P1 field is linear per triangle, so its zero set crosses each triangle in a
single line and each triangle carries at most one positive and one negative
piece.  Pieces are glued across interior edges where the shared edge carries
the sign, giving the nodal domains; the zero set itself becomes a graph whose
nodes are keyed combinatorially (mesh vertices and crossed edges).
"""

from dataclasses import dataclass
import json

import numpy as np

from . import geometry
from .geometry import DIRICHLET, NEUMANN, STEKLOV


class NodalError(ValueError):
    pass


DEFAULT_ZERO_TOL = 1e-7


@dataclass(frozen=True)
class NodalDecomposition:
    vertex_signs: np.ndarray   # (nv,) in {-1, 0, +1}
    piece_pos: np.ndarray      # (nt,) piece id of the positive piece, or -1
    piece_neg: np.ndarray      # (nt,) piece id of the negative piece, or -1
    piece_sign: np.ndarray     # (n_pieces,) +1 / -1
    piece_domain: np.ndarray   # (n_pieces,) domain label in 0..n_domains-1
    n_domains: int
    zero_tol: float


def vertex_signs(field, zero_tol=DEFAULT_ZERO_TOL):
    """Signs with a dead zone of zero_tol relative to the max amplitude."""
    field = np.asarray(field, float)
    scale = np.abs(field).max()
    if scale == 0.0:
        raise NodalError("field is identically zero")
    signs = np.zeros(field.size, np.int8)
    signs[field > zero_tol * scale] = 1
    signs[field < -zero_tol * scale] = -1
    return signs


def decompose_nodal(mesh, field, zero_tol=DEFAULT_ZERO_TOL):
    """Connected components of {field > 0} and {field < 0} on the mesh."""
    field = np.asarray(field, float)
    if field.shape != (mesh.n_vertices,):
        raise NodalError("field must be a vertex array")
    signs = vertex_signs(field, zero_tol)
    tri_signs = signs[mesh.triangles]
    has_pos = np.any(tri_signs == 1, axis=1)
    has_neg = np.any(tri_signs == -1, axis=1)
    piece_pos = np.full(mesh.n_triangles, -1, np.int64)
    piece_neg = np.full(mesh.n_triangles, -1, np.int64)
    n_pos = int(has_pos.sum())
    piece_pos[has_pos] = np.arange(n_pos)
    piece_neg[has_neg] = n_pos + np.arange(int(has_neg.sum()))
    n_pieces = n_pos + int(has_neg.sum())
    piece_sign = np.empty(n_pieces, np.int8)
    piece_sign[:n_pos] = 1
    piece_sign[n_pos:] = -1

    # pieces of sign s are glued across an interior edge carrying s
    edges, tri_a, tri_b = geometry.interior_edges_with_triangles(mesh)
    sign_a = signs[edges[:, 0]]
    sign_b = signs[edges[:, 1]]
    glue_a, glue_b = [], []
    for s, piece in ((1, piece_pos), (-1, piece_neg)):
        pa, pb = piece[tri_a], piece[tri_b]
        glue = ((sign_a == s) | (sign_b == s)) & (pa >= 0) & (pb >= 0)
        glue_a.append(pa[glue])
        glue_b.append(pb[glue])
    n_domains, domain = geometry.label_components(
        n_pieces, np.concatenate(glue_a), np.concatenate(glue_b))
    return NodalDecomposition(
        vertex_signs=signs,
        piece_pos=piece_pos,
        piece_neg=piece_neg,
        piece_sign=piece_sign,
        piece_domain=domain,
        n_domains=n_domains,
        zero_tol=float(zero_tol),
    )


def domain_of_triangle_sign(decomp, tri, sign):
    piece = decomp.piece_pos[tri] if sign > 0 else decomp.piece_neg[tri]
    return -1 if piece < 0 else int(decomp.piece_domain[piece])


def courant_check(mesh, result, n_rotations=20, seed=0, zero_tol=DEFAULT_ZERO_TOL):
    """Nodal-domain counts against the bound k+1, per eigenvalue cluster.

    For a cluster ending at index k (inclusive), every vector of the cluster
    eigenspace must have at most k+1 nodal domains.  Each basis vector and
    n_rotations random unit combinations are checked.
    """
    rng = np.random.default_rng(seed)
    records = []
    for a, b in result.clusters:
        bound = b  # worst index in the cluster is b-1; bound is (b-1)+1
        vectors = [result.extensions[j] for j in range(a, b)]
        if b - a > 1:
            for _ in range(n_rotations):
                coef = rng.normal(size=b - a)
                coef /= np.linalg.norm(coef)
                vectors.append(coef @ result.extensions[a:b])
        worst = 0
        for vec in vectors:
            worst = max(worst, decompose_nodal(mesh, vec, zero_tol).n_domains)
        records.append({
            "cluster": (int(a), int(b)),
            "k": int(b - 1),
            "bound": int(bound),
            "max_domains": int(worst),
            "ok": worst <= bound,
        })
    return records


def boundary_touch_check(mesh, decomp, tag=STEKLOV):
    """Whether every nodal domain reaches the tagged part of the boundary."""
    touched = np.zeros(decomp.n_domains, bool)
    tagged = np.zeros(mesh.n_vertices, bool)
    tagged[geometry.tagged_vertices(mesh, tag)] = True
    tri_tagged = tagged[mesh.triangles]
    tri_signs = decomp.vertex_signs[mesh.triangles]
    for sign, pieces in ((1, decomp.piece_pos), (-1, decomp.piece_neg)):
        hit = np.any(tri_tagged & (tri_signs == sign), axis=1) & (pieces >= 0)
        touched[decomp.piece_domain[pieces[hit]]] = True
    untouched = np.nonzero(~touched)[0]
    return {"all_touch": untouched.size == 0, "untouched": untouched.tolist(),
            "n_domains": decomp.n_domains}


def multiplicity_bound(topology, k, mixed=False):
    """Best applicable bound on the multiplicity of the k-th eigenvalue.

    Returns a dict with the enforced bound and, for non-orientable surfaces,
    both the stated constant (+1) and the larger computation-backed constant
    (+3), the larger one being enforced.
    """
    if k < 1:
        raise NodalError("bounds apply to k >= 1")
    if topology.orientable:
        is_disk = topology.genus == 0 and topology.boundary_components == 1
        if is_disk and mixed:
            return {"bound": k + 1, "rule": "mixed-disk"}
        if is_disk and k in (1, 2):
            return {"bound": k + 1, "rule": "disk-low"}
        return {"bound": 4 * topology.genus + 2 * k + 1, "rule": "orientable"}
    stated = 4 * topology.p_invariant + 4 * k + 1
    backed = 4 * topology.p_invariant + 4 * k + 3
    return {"bound": backed, "stated_bound": stated, "rule": "non-orientable"}


def multiplicity_bound_check(result, topology, mixed=False):
    """Observed cluster multiplicities against the applicable bounds."""
    records = []
    for a, b in result.clusters:
        if a == 0:
            continue  # the zero eigenvalue is simple by connectivity
        info = multiplicity_bound(topology, a, mixed)
        mult = b - a
        records.append({
            "cluster": (int(a), int(b)),
            "k": int(a),
            "multiplicity": int(mult),
            "bound": int(info["bound"]),
            "rule": info["rule"],
            "ok": mult <= info["bound"],
        })
    return records


# ---------------------------------------------------------------------------
# the zero set as a combinatorial graph
# ---------------------------------------------------------------------------

def _edge_key(i, j):
    return ("e", int(min(i, j)), int(max(i, j)))


def _node_position(mesh, key, field):
    if key[0] == "v":
        return mesh.vertices[key[1]].astype(float)
    _, i, j = key
    fi, fj = field[i], field[j]
    t = fi / (fi - fj)
    pi = mesh.vertices[i].astype(float)
    d = geometry.edge_vector(mesh, np.array([i]), np.array([j]))[0]
    return pi + t * d


def nodal_graph(mesh, field, zero_tol=DEFAULT_ZERO_TOL):
    """Nodes and segments of the zero set, keyed combinatorially.

    Node keys: ("v", i) for a vertex in the dead zone, ("e", i, j) for an
    edge with a strict sign change.  Returns (nodes, segments) where nodes
    maps key -> position and segments is a set of sorted key pairs.
    """
    signs = vertex_signs(field, zero_tol)
    field = np.asarray(field, float)
    nodes = {}
    segments = set()

    def add_node(key):
        if key not in nodes:
            nodes[key] = _node_position(mesh, key, field)
        return key

    def add_segment(ka, kb):
        if ka != kb:
            segments.add(tuple(sorted((ka, kb))))

    for tri in mesh.triangles:
        s = signs[tri]
        zero = [int(v) for v, sv in zip(tri, s) if sv == 0]
        cross = [(int(tri[i]), int(tri[j]))
                 for i, j in ((0, 1), (1, 2), (2, 0))
                 if s[i] * s[j] == -1]
        keys = [add_node(("v", v)) for v in zero]
        keys += [add_node(_edge_key(a, b)) for a, b in cross]
        if len(zero) == 3:
            for i in range(3):
                add_segment(keys[i], keys[(i + 1) % 3])
        elif len(keys) == 2:
            add_segment(keys[0], keys[1])
        # a single key is an isolated touch point; keep the node, no segment
    return nodes, segments


def nodal_graph_stats(mesh, field, zero_tol=DEFAULT_ZERO_TOL):
    """Component count, cycle rank, and boundary-endpoint parity of the zero set."""
    nodes, segments = nodal_graph(mesh, field, zero_tol)
    keys = list(nodes)
    index = {k: i for i, k in enumerate(keys)}
    pairs = np.array([(index[ka], index[kb]) for ka, kb in segments],
                     np.int64).reshape(-1, 2)
    degree = np.bincount(pairs.ravel(), minlength=len(keys))
    n_components, labels = geometry.label_components(len(keys), pairs[:, 0], pairs[:, 1])
    cycle_rank = len(segments) - len(keys) + n_components

    bvert = np.zeros(mesh.n_vertices, bool)
    bvert[np.unique(mesh.boundary_edges)] = True
    bedge = {tuple(sorted(e)) for e in mesh.boundary_edges.tolist()}

    def on_boundary(key):
        if key[0] == "v":
            return bool(bvert[key[1]])
        return (key[1], key[2]) in bedge

    per_component = {}
    for i, key in enumerate(keys):
        if degree[i] == 0:
            continue  # isolated touch points carry no arc endpoints
        if on_boundary(key):
            per_component[int(labels[i])] = per_component.get(int(labels[i]), 0) + 1
    counts = list(per_component.values())
    return {
        "n_nodes": len(keys),
        "n_segments": len(segments),
        "n_components": n_components,
        "cycle_rank": int(cycle_rank),
        "boundary_endpoints_per_component": counts,
        "all_even": all(c % 2 == 0 for c in counts),
    }


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_TAG_COLORS = {STEKLOV: "#d62728", NEUMANN: "#1f77b4", DIRICHLET: "#7f7f7f"}


def nodal_svg(mesh, field, zero_tol=DEFAULT_ZERO_TOL, width=640):
    """SVG figure: sign-shaded triangles, tagged boundary, zero-set segments."""
    coords = geometry.triangle_coords(mesh)
    lo = coords.reshape(-1, 2).min(axis=0)
    hi = coords.reshape(-1, 2).max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span.max()
    scale = width / (span[0] + 2 * pad)
    height = (span[1] + 2 * pad) * scale

    def pt(p):
        x = (p[0] - lo[0] + pad) * scale
        y = height - (p[1] - lo[1] + pad) * scale
        return f"{x:.2f},{y:.2f}"

    field = np.asarray(field, float)
    cen_val = field[mesh.triangles].mean(axis=1)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
           f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">']
    for t in range(mesh.n_triangles):
        fill = "#fddcdc" if cen_val[t] > 0 else "#dce8fd"
        pts = " ".join(pt(coords[t, i]) for i in range(3))
        out.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        pa = mesh.vertices[a].astype(float)
        pb = pa + geometry.edge_vector(mesh, np.array([a]), np.array([b]))[0]
        out.append(f'<polyline points="{pt(pa)} {pt(pb)}" fill="none" '
                   f'stroke="{_TAG_COLORS.get(tag, "#000")}" stroke-width="2"/>')
    nodes, segments = nodal_graph(mesh, field, zero_tol)
    for ka, kb in sorted(segments):
        out.append(f'<polyline points="{pt(nodes[ka])} {pt(nodes[kb])}" '
                   f'fill="none" stroke="#000" stroke-width="1.2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save_nodal_svg(mesh, field, path, zero_tol=DEFAULT_ZERO_TOL, width=640):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(nodal_svg(mesh, field, zero_tol, width))


def nodal_report(mesh, field, zero_tol=DEFAULT_ZERO_TOL):
    """JSON-ready summary combining the decomposition and zero-set graph."""
    decomp = decompose_nodal(mesh, field, zero_tol)
    stats = nodal_graph_stats(mesh, field, zero_tol)
    touch = boundary_touch_check(mesh, decomp)
    return {
        "n_domains": decomp.n_domains,
        "zero_tol": decomp.zero_tol,
        "graph": stats,
        "boundary_touch": touch,
    }


def save_nodal_report(mesh, field, path, zero_tol=DEFAULT_ZERO_TOL):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(nodal_report(mesh, field, zero_tol), fh, indent=2, sort_keys=True)
        fh.write("\n")
