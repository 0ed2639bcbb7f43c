"""Nodal decomposition and combinatorial audits of eigenfunction sign patterns.

A P1 field is linear per triangle, so its zero set crosses each triangle in a
single line and each triangle carries at most one positive and one negative
piece.  Pieces are glued across interior edges where the shared edge carries
the sign, giving the nodal domains; the zero set itself becomes a graph whose
nodes are keyed combinatorially (mesh vertices and crossed edges).
"""

from dataclasses import dataclass

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


def boundary_touch_check(mesh, decomp):
    """Whether every nodal domain reaches the steklov boundary."""
    touched = np.zeros(decomp.n_domains, bool)
    tagged = np.zeros(mesh.n_vertices, bool)
    tagged[geometry.tagged_vertices(mesh, STEKLOV)] = True
    tri_tagged = tagged[mesh.triangles]
    tri_signs = decomp.vertex_signs[mesh.triangles]
    for sign, pieces in ((1, decomp.piece_pos), (-1, decomp.piece_neg)):
        hit = np.any(tri_tagged & (tri_signs == sign), axis=1) & (pieces >= 0)
        touched[decomp.piece_domain[pieces[hit]]] = True
    untouched = np.nonzero(~touched)[0]
    return {"all_touch": untouched.size == 0, "untouched": untouched.tolist(),
            "n_domains": decomp.n_domains}


def multiplicity_bounds(mesh, ks):
    """Best applicable bound on the multiplicity of the k-th eigenvalue, per k in ks.

    A planar or x-periodic mesh with positive areas is orientable of genus 0,
    so its topology is the number of its boundary curves.  A disk (one curve)
    has the bound k+1 when mixed (some boundary edge is not steklov) or when
    k is 1 or 2; every other case has the orientable bound 2k+1.
    """
    verts, ends = np.unique(mesh.boundary_edges, return_inverse=True)
    n_curves, _ = geometry.label_components(verts.size, *ends.reshape(-1, 2).T)
    mixed = bool(np.any(mesh.boundary_tags != STEKLOV))
    bounds = []
    for k in ks:
        if k < 1:
            raise NodalError("bounds apply to k >= 1")
        if n_curves == 1 and mixed:
            bounds.append({"bound": k + 1, "rule": "mixed-disk"})
        elif n_curves == 1 and k in (1, 2):
            bounds.append({"bound": k + 1, "rule": "disk-low"})
        else:
            bounds.append({"bound": 2 * k + 1, "rule": "orientable"})
    return bounds


def multiplicity_bound_check(mesh, result):
    """Observed cluster multiplicities of a solve on mesh against the bounds."""
    # the zero eigenvalue is simple by connectivity
    clusters = [(a, b) for a, b in result.clusters if a > 0]
    bounds = multiplicity_bounds(mesh, [a for a, _ in clusters])
    return [{"cluster": (int(a), int(b)),
             "k": int(a),
             "multiplicity": int(b - a),
             "bound": int(info["bound"]),
             "rule": info["rule"],
             "ok": b - a <= info["bound"]}
            for (a, b), info in zip(clusters, bounds)]


# ---------------------------------------------------------------------------
# the zero set as a combinatorial graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroSetGraph:
    """The zero set of a P1 field as a graph.

    Node ids are v for a vertex in the dead zone and nv + e for an edge e of
    the mesh's edge table with a strict sign change.  Nodes are listed in order
    of first appearance: triangle order, vertex nodes before edge nodes inside
    a triangle.  Segments index into `nodes`, one row per node pair, and are
    ordered by (first end, second end) with edge nodes (by edge id) ranking
    before vertex nodes (by vertex), the lower-ranked end first.
    """

    nodes: np.ndarray      # (n,) node ids
    positions: np.ndarray  # (n, 2) node coordinates
    segments: np.ndarray   # (m, 2) indices into nodes


def nodal_graph(mesh, field, zero_tol=DEFAULT_ZERO_TOL):
    """Nodes and segments of the zero set, keyed combinatorially.

    Per triangle, the keys are its dead-zone vertices and its sign-changing
    edges.  Two keys give one segment, three dead-zone vertices give the
    triangle's three sides, and a single key is an isolated touch point: the
    node is kept, no segment.
    """
    signs = vertex_signs(field, zero_tol)
    field = np.asarray(field, float)
    nv = mesh.n_vertices
    table = mesh.edge_table
    tri_signs = signs[mesh.triangles]
    zero = tri_signs == 0
    cross = tri_signs * np.roll(tri_signs, -1, axis=1) == -1   # edges 01, 12, 20
    keys = np.concatenate([mesh.triangles, nv + table.tri_edges], axis=1)
    mask = np.concatenate([zero, cross], axis=1)

    found = keys[mask]
    ids, first = np.unique(found, return_index=True)
    nodes = ids[np.argsort(first)]
    index = np.empty(nv + len(table.edges), np.int64)
    index[nodes] = np.arange(nodes.size)

    two = mask.sum(axis=1) == 2
    pairs = keys[two][mask[two]].reshape(-1, 2)
    full = mesh.triangles[zero.all(axis=1)].astype(np.int64)
    pairs = np.concatenate([pairs, full[:, [0, 1]], full[:, [1, 2]], full[:, [2, 0]]])
    # edge nodes rank by edge id before vertex nodes; ordering segments by rank
    # fixes the order in which nodal_svg draws them
    rank = np.where(nodes >= nv, nodes - nv, len(table.edges) + nodes)
    ends = index[pairs]
    ends = np.where((rank[ends[:, 0]] > rank[ends[:, 1]])[:, None], ends[:, ::-1], ends)
    _, keep = np.unique(rank[ends[:, 0]] * index.size + rank[ends[:, 1]], return_index=True)
    segments = ends[keep]

    positions = np.empty((nodes.size, 2))
    on_edge = nodes >= nv
    positions[~on_edge] = mesh.vertices[nodes[~on_edge]]
    i, j = table.edges[nodes[on_edge] - nv].T
    t = field[i] / (field[i] - field[j])
    positions[on_edge] = (mesh.vertices[i].astype(float)
                          + t[:, None] * geometry.edge_vector(mesh, i, j))
    return ZeroSetGraph(nodes=nodes, positions=positions, segments=segments)


def nodal_graph_stats(mesh, field, zero_tol=DEFAULT_ZERO_TOL):
    """Component count, cycle rank, and boundary-endpoint parity of the zero set."""
    graph = nodal_graph(mesh, field, zero_tol)
    n_nodes, n_segments = graph.nodes.size, len(graph.segments)
    a, b = graph.segments.T
    degree = np.bincount(graph.segments.ravel(), minlength=n_nodes)
    n_components, labels = geometry.label_components(n_nodes, a, b)
    cycle_rank = n_segments - n_nodes + n_components

    on_boundary = np.zeros(mesh.n_vertices, bool)
    on_boundary[mesh.boundary_edges.ravel()] = True
    on_boundary = np.concatenate([on_boundary, mesh.edge_table.boundary])
    # isolated touch points carry no arc endpoints
    hit = labels[(degree > 0) & on_boundary[graph.nodes]]
    _, first, counts = np.unique(hit, return_index=True, return_counts=True)
    counts = counts[np.argsort(first)].tolist()
    return {
        "n_nodes": n_nodes,
        "n_segments": n_segments,
        "n_components": n_components,
        "cycle_rank": int(cycle_rank),
        "boundary_endpoints_per_component": counts,
        "all_even": all(c % 2 == 0 for c in counts),
    }


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_TAG_COLORS = {STEKLOV: "#d62728", NEUMANN: "#1f77b4", DIRICHLET: "#7f7f7f"}


def _rows(template, values, labels=None):
    """template once per row of values (n, k), then labels (n,) as a last
    field, formatted in a single %-operation."""
    if labels is not None:
        table = np.empty((values.shape[0], values.shape[1] + 1), object)
        table[:, :-1] = values
        table[:, -1] = labels
        values = table
    return template * values.shape[0] % tuple(values.ravel().tolist())


def nodal_svg(mesh, field, zero_tol=DEFAULT_ZERO_TOL, width=640):
    """SVG figure: sign-shaded triangles, tagged boundary, zero-set segments."""
    coords = geometry.triangle_coords(mesh)
    lo = coords.reshape(-1, 2).min(axis=0)
    hi = coords.reshape(-1, 2).max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span.max()
    scale = width / (span[0] + 2 * pad)
    height = (span[1] + 2 * pad) * scale

    def pixels(p):
        """(n, k, 2) points to (n, 2k) pixel coordinates x0, y0, x1, ..."""
        xy = np.empty(p.shape)
        xy[..., 0] = (p[..., 0] - lo[0] + pad) * scale
        xy[..., 1] = height - (p[..., 1] - lo[1] + pad) * scale
        return xy.reshape(p.shape[0], 2 * p.shape[1])

    field = np.asarray(field, float)
    cen_val = field[mesh.triangles].mean(axis=1)
    fills = np.where(cen_val > 0, "#fddcdc", "#dce8fd")
    edges = mesh.boundary_edges
    pa = mesh.vertices[edges[:, 0]].astype(float)
    pb = pa + geometry.edge_vector(mesh, edges[:, 0], edges[:, 1])
    colors = [_TAG_COLORS.get(tag, "#000") for tag in mesh.boundary_tags.tolist()]
    graph = nodal_graph(mesh, field, zero_tol)
    return "".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n',
        _rows('<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="%s" stroke="none"/>\n',
              pixels(coords), fills),
        _rows('<polyline points="%.2f,%.2f %.2f,%.2f" fill="none" '
              'stroke="%s" stroke-width="2"/>\n',
              pixels(np.stack([pa, pb], axis=1)), colors),
        _rows('<polyline points="%.2f,%.2f %.2f,%.2f" '
              'fill="none" stroke="#000" stroke-width="1.2"/>\n',
              pixels(graph.positions[graph.segments])),
        "</svg>\n",
    ])


def save_nodal_svg(mesh, field, path, zero_tol=DEFAULT_ZERO_TOL, width=640):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(nodal_svg(mesh, field, zero_tol, width))
