"""Nodal decomposition and combinatorial audits of eigenfunction sign patterns.

A P1 field is linear per triangle, so its zero set crosses each triangle in a
single line.  A nodal domain of sign s is one connected component of the
vertices of sign s, joined by the mesh edges whose two ends both carry s; the
zero set itself becomes a graph whose nodes are keyed combinatorially (mesh
vertices and crossed edges).
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import DIRICHLET, NEUMANN, STEKLOV


class NodalError(ValueError):
    pass


# the dead zone: sign 0 within ZERO_TOL of the field's largest amplitude
ZERO_TOL = 1e-7


@dataclass(frozen=True)
class NodalDecomposition:
    """Nodal domains of an (m, nv) stack of fields, row by row.

    Domain ids count from 0 in every row; row r's domains are entries
    domain_start[r]:domain_start[r + 1] of the stack's domains.  The sign of
    a domain is that of its vertices under vertex_signs.
    """

    vertex_domain: np.ndarray  # (m, nv) int32 domain id in its row, -1 in the dead zone
    domain_start: np.ndarray   # (m + 1,) offsets of the rows' domains

    @property
    def n_domains(self):
        return np.diff(self.domain_start)

    def rows(self, start, stop):
        """Rows start..stop-1 as a record of their own.  The arrays are
        copies, so the rest of the stack is freed with the original."""
        return NodalDecomposition(self.vertex_domain[start:stop].copy(),
                                  self.domain_start[start:stop + 1] - self.domain_start[start])


# rows decomposed together: one components call per block, and the block's
# temporaries stay small when a multiple cluster stacks dozens of fields
_BLOCK_ROWS = 8


def vertex_signs(field):
    """Signs with the ZERO_TOL dead zone of a (nv,) field or of each row of a stack."""
    field = np.asarray(field, float)
    scale = np.abs(field).max(axis=-1, keepdims=True)
    if np.any(scale == 0.0):
        raise NodalError("field is identically zero")
    signs = np.zeros(field.shape, np.int8)
    signs[field > ZERO_TOL * scale] = 1
    signs[field < -ZERO_TOL * scale] = -1
    return signs


def _vertex_fields(mesh, fields):
    """An (m, nv) stack of vertex fields; a single field is a stack of one."""
    fields = np.asarray(fields, float)
    if fields.ndim not in (1, 2) or fields.shape[-1] != mesh.n_vertices:
        raise NodalError("field must be a vertex array or a stack of them")
    return np.atleast_2d(fields)


def decompose_nodal(mesh, fields):
    """Connected components of {field > 0} and {field < 0} on the mesh, for
    every row of an (m, nv) stack, as one NodalDecomposition.

    A triangle's s-vertices are joined by its edges, two triangles glued
    across an edge share the edge's s-ends, and the triangles around a vertex
    form an edge-connected fan; so the sign-s components of the triangle
    pieces are the components of the sign-s vertices under the edges with
    both ends of sign s.
    """
    fields = _vertex_fields(mesh, fields)
    blocks = [_decompose_block(mesh, fields[start:start + _BLOCK_ROWS])
              for start in range(0, len(fields), _BLOCK_ROWS)]
    domain, n_domains = map(np.concatenate, zip(*blocks))
    return NodalDecomposition(domain, np.concatenate([[0], np.cumsum(n_domains)]))


def _decompose_block(mesh, fields):
    """The vertex domains of a few rows, through one components call on the
    block's vertices, with each row's count of domains.

    Vertex v of row r is node r * nv + v.  Components are numbered by their
    lowest node, so the components of a row are one contiguous run of labels;
    a dead-zone vertex is a component of its own and no domain.
    """
    signs = vertex_signs(fields)
    m, nv = signs.shape
    a, b = mesh.edge_table.edges.T
    sign_a = signs[:, a]
    glue = (sign_a == signs[:, b]) & (sign_a != 0)
    first = np.arange(0, m * nv, nv)[:, None]
    n_labels, labels = geometry.label_components(m * nv, (first + a)[glue], (first + b)[glue])
    live = np.zeros(n_labels, bool)
    live[labels[signs.ravel() != 0]] = True
    # the domains before each label, and before each row: a row's first
    # vertex carries the row's lowest label
    before = np.concatenate([[0], np.cumsum(live)])
    start = before[np.append(labels[::nv], n_labels)]
    domain = (before[labels].reshape(m, nv) - start[:-1, None]).astype(np.int32)
    domain[signs == 0] = -1
    return domain, np.diff(start)


def courant_check(mesh, result, n_rotations=20, seed=0):
    """Nodal-domain counts against the bound k+1, per eigenvalue cluster.

    For a cluster ending at index k (inclusive), every vector of the cluster
    eigenspace must have at most k+1 nodal domains.  Each basis vector and
    n_rotations random unit combinations are checked, all as one stack.
    Returns the records and the rows of result.extensions, one per
    eigenvalue, of the stack's decomposition.
    """
    rng = np.random.default_rng(seed)
    n = len(result.extensions)
    # stack rows per cluster: its basis vectors, then its rotations after the
    # n eigenvectors, drawn cluster by cluster
    members = [list(range(a, b)) for a, b in result.clusters]
    rotations = []
    for (a, b), rows in zip(result.clusters, members):
        if b - a > 1:
            for _ in range(n_rotations):
                coef = rng.normal(size=b - a)
                coef /= np.linalg.norm(coef)
                rows.append(n + len(rotations))
                rotations.append(coef @ result.extensions[a:b])
    decomp = decompose_nodal(mesh, np.concatenate(
        [result.extensions, np.reshape(rotations, (-1, mesh.n_vertices))]))
    worst = [int(decomp.n_domains[rows].max()) for rows in members]
    # the worst index in a cluster is b-1, so its bound is (b-1)+1
    records = [{"cluster": [int(a), int(b)], "k": int(b - 1), "bound": int(b),
                "max_domains": w, "ok": w <= b}
               for (a, b), w in zip(result.clusters, worst)]
    return records, decomp.rows(0, n)


def boundary_touch_check(mesh, decomp):
    """Whether every nodal domain reaches the steklov boundary: an (m,) bool
    array, one verdict per row of the NodalDecomposition decomp.  A domain
    reaches it when it holds a vertex of a steklov edge."""
    domain = decomp.vertex_domain[:, mesh.tag_sets.steklov]
    # stack-wide ids of the domains that hold a steklov vertex
    hit = (domain + decomp.domain_start[:-1, None])[domain >= 0]
    touched = np.zeros(decomp.domain_start[-1], bool)
    touched[hit] = True
    # every row has a domain, so no two offsets are equal
    return np.logical_and.reduceat(touched, decomp.domain_start[:-1])


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
    return [{"cluster": [int(a), int(b)],
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
    """The zero set of a P1 field, or of a stack of fields, as a graph: the
    positions of its nodes, in the order of _zero_set's node ids, and its
    segments, which index into them and fix the order in which nodal_svg
    draws them."""

    positions: np.ndarray  # (n, 2) node coordinates
    segments: np.ndarray   # (m, 2) node indices, the lower first; sorted


def nodal_graph(mesh, fields):
    """Nodes and segments of the zero set, keyed combinatorially.

    Per triangle, the keys are its dead-zone vertices and its sign-changing
    edges.  Two keys give one segment, three dead-zone vertices give the
    triangle's three sides, and a single key is an isolated touch point: the
    node is kept, no segment.  An (m, nv) stack gives one graph in which no
    two rows share a node; a single field is a stack of one.
    """
    fields = _vertex_fields(mesh, fields)
    nodes, segments = _zero_set(mesh, fields)
    table = mesh.edge_table
    n_edges = len(table.edges)
    node_row, key = np.divmod(nodes, n_edges + mesh.n_vertices)
    positions = np.empty((nodes.size, 2))
    on_edge = key < n_edges
    positions[~on_edge] = mesh.vertices[key[~on_edge] - n_edges]
    i, j = table.edges[key[on_edge]].T
    fi = fields[node_row[on_edge], i]
    t = fi / (fi - fields[node_row[on_edge], j])
    positions[on_edge] = (mesh.vertices[i].astype(float)
                          + t[:, None] * geometry.edge_vector(mesh, i, j))
    return ZeroSetGraph(positions=positions, segments=segments)


def _zero_set(mesh, fields):
    """Node ids and segments of the zero-set graph of an (m, nv) stack.

    Node ids are e for an edge e of the mesh's edge table with a strict sign
    change and n_edges + v for a vertex v in the dead zone; the ids of row r
    are offset by r * (n_edges + nv).  Nodes are listed by id, so row by row,
    a row's edge nodes before its vertex nodes.  Segments index into the
    nodes, one row per node pair, the lower index first, and are sorted.
    """
    signs = vertex_signs(fields)
    table = mesh.edge_table
    n_edges = len(table.edges)
    n_keys = n_edges + mesh.n_vertices
    tri_signs = signs[:, mesh.triangles]
    zero = tri_signs == 0
    cross = tri_signs * np.roll(tri_signs, -1, axis=2) == -1   # edges 01, 12, 20
    keys = (np.concatenate([n_edges + mesh.triangles, table.tri_edges], axis=1)
            + (n_keys * np.arange(len(fields)))[:, None, None])
    mask = np.concatenate([zero, cross], axis=2)
    nodes, index = np.unique(keys[mask], return_inverse=True)

    # a triangle has three keys only when its three vertices are dead; the
    # keys are counted by a product, as numpy sums a short last axis slowly
    count = (mask.view(np.int8) @ np.ones(mask.shape[2], np.int8)).ravel()
    two = index[np.repeat(count == 2, count)].reshape(-1, 2)
    full = index[np.repeat(count == 3, count)].reshape(-1, 3)
    ends = np.concatenate([two, full[:, [0, 1]], full[:, [1, 2]], full[:, [2, 0]]])
    ends.sort(axis=1)
    code = np.unique(ends[:, 0] * nodes.size + ends[:, 1])
    return nodes, np.stack(np.divmod(code, nodes.size), axis=1)


def nodal_graph_stats(mesh, fields):
    """Cycle rank and boundary-endpoint parity of the zero set of each row.

    Returns (cycle_rank, all_even), two (m,) arrays for an (m, nv) stack, from
    the nodes and segments of one zero-set graph of the whole stack, with no
    node positions, and one components call: all_even says that
    every component of the row's zero set has an even number of arc endpoints
    on the boundary.  A single field is a stack of one.
    """
    fields = _vertex_fields(mesh, fields)
    nodes, segments = _zero_set(mesh, fields)
    m = len(fields)
    node_row, key = np.divmod(nodes, len(mesh.edge_table.edges) + mesh.n_vertices)
    n_comp, labels = geometry.label_components(nodes.size, *segments.T)
    # no component spans two rows; a row's cycle rank is its segments less
    # its nodes plus its components
    comp_row = np.empty(n_comp, np.int64)
    comp_row[labels] = node_row
    cycle_rank = (np.bincount(node_row[segments[:, 0]], minlength=m)
                  - np.bincount(node_row, minlength=m) + np.bincount(comp_row, minlength=m))

    on_vertex = np.zeros(mesh.n_vertices, bool)
    on_vertex[mesh.boundary_edges.ravel()] = True
    on_boundary = np.concatenate([mesh.edge_table.boundary, on_vertex])
    degree = np.bincount(segments.ravel(), minlength=nodes.size)
    # isolated touch points carry no arc endpoints
    hit = labels[(degree > 0) & on_boundary[key]]
    odd = np.bincount(hit, minlength=n_comp) % 2 == 1
    return cycle_rank, np.bincount(comp_row[odd], minlength=m) == 0


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_SVG_WIDTH = 640   # pixels; the height keeps the mesh's aspect ratio
_TAG_COLORS = {STEKLOV: "#d62728", NEUMANN: "#1f77b4", DIRICHLET: "#7f7f7f"}


def _with_labels(values, labels):
    """The fields of (n, k) values with labels (n,) as a last field per row,
    flat and row by row."""
    table = np.empty((values.shape[0], values.shape[1] + 1), object)
    table[:, :-1] = values
    table[:, -1] = labels
    return table.ravel().tolist()


def nodal_svg(mesh, field):
    """SVG figure: sign-shaded triangles, tagged boundary, zero-set segments,
    yielded in chunks of text by geometry.text_chunks."""
    field = np.asarray(field, float)
    # the graph before the coordinates, so that its temporaries are freed
    # before the (nt, 3, 2) array is made
    graph = nodal_graph(mesh, field)
    coords = geometry.triangle_coords(mesh)
    lo = coords.reshape(-1, 2).min(axis=0)
    hi = coords.reshape(-1, 2).max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span.max()
    scale = _SVG_WIDTH / (span[0] + 2 * pad)
    height = (span[1] + 2 * pad) * scale

    def pixels(p):
        """(n, k, 2) points to (n, 2k) pixel coordinates x0, y0, x1, ..."""
        xy = np.empty(p.shape)
        xy[..., 0] = (p[..., 0] - lo[0] + pad) * scale
        xy[..., 1] = height - (p[..., 1] - lo[1] + pad) * scale
        return xy.reshape(p.shape[0], 2 * p.shape[1])

    def triangle_fields(start, stop):
        cen_val = field[mesh.triangles[start:stop]].mean(axis=1)
        return _with_labels(pixels(coords[start:stop]),
                            np.where(cen_val > 0, "#fddcdc", "#dce8fd"))

    edges = mesh.boundary_edges

    def edge_fields(start, stop):
        a, b = edges[start:stop].T
        pa = mesh.vertices[a].astype(float)
        pb = pa + geometry.edge_vector(mesh, a, b)
        colors = [_TAG_COLORS[tag] for tag in mesh.boundary_tags[start:stop].tolist()]
        return _with_labels(pixels(np.stack([pa, pb], axis=1)), colors)

    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
           f'height="{height:.0f}" viewBox="0 0 {_SVG_WIDTH} {height:.0f}">\n')
    yield from geometry.text_chunks(
        '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="%s" stroke="none"/>\n',
        mesh.n_triangles, triangle_fields)
    yield from geometry.text_chunks(
        '<polyline points="%.2f,%.2f %.2f,%.2f" fill="none" stroke="%s" stroke-width="2"/>\n',
        len(edges), edge_fields)
    yield from geometry.text_chunks(
        '<polyline points="%.2f,%.2f %.2f,%.2f" fill="none" stroke="#000" stroke-width="1.2"/>\n',
        len(graph.segments),
        lambda start, stop: pixels(graph.positions[graph.segments[start:stop]]).ravel().tolist())
    yield "</svg>\n"


def save_nodal_svg(mesh, field, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(nodal_svg(mesh, field))
