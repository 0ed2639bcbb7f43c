"""Thickening a metric graph into a planar domain whose Steklov spectrum
collapses onto the (scaled) graph Laplacian spectrum.

Each graph vertex becomes a half-disk of radius c*eps whose flat diameter is
the steklov boundary; each edge becomes a strip of width 2*eps with neumann
walls.  A strip attaches to the vertex circle along the chord at distance
t0 = eps*sqrt(c^2-1) from the center, so the chord endpoints lie exactly on
the circle.  As eps -> 0 the first |V| eigenvalues converge to (1/c) times
the graph Laplacian spectrum and a gap opens above them.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.spatial import cKDTree

from . import geometry, graphs
from .geometry import NEUMANN, STEKLOV


class EmbeddingError(ValueError):
    pass


class ThickeningError(ValueError):
    pass


_WELD_TOL = 1e-9
# least angle between an incident strip and the end of its vertex's diameter
_MARGIN = math.radians(2.0)


@dataclass(frozen=True)
class GraphEmbedding:
    """Straight-line planar embedding realizing the edge lengths as chords."""

    graph: graphs.MetricGraph
    positions: np.ndarray   # (n, 2)

    def __post_init__(self):
        pos = np.asarray(self.positions, float)
        object.__setattr__(self, "positions", pos)
        if pos.shape != (self.graph.n_vertices, 2):
            raise EmbeddingError("positions must be (n_vertices, 2)")
        d = np.linalg.norm(pos[self.graph.edges[:, 1]] - pos[self.graph.edges[:, 0]],
                           axis=1)
        if np.any(np.abs(d - self.graph.lengths) > 1e-9 * np.maximum(1.0, self.graph.lengths)):
            raise EmbeddingError("embedded chord lengths do not match the edge lengths")


def _walk_order(g, start):
    """Vertex order along a path or cycle (all degrees <= 2)."""
    adj = {i: [] for i in range(g.n_vertices)}
    for a, b in g.edges:
        adj[a].append(int(b))
        adj[b].append(int(a))
    order = [start]
    prev = -1
    while True:
        nxt = [v for v in adj[order[-1]] if v != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
        if order[-1] == start:
            order.pop()
            break
    if len(order) != g.n_vertices:
        raise EmbeddingError("graph is not a single path/cycle")
    return order


def embed_graph(g, style="convex-boundary", c=2.0):
    """Planar embedding of a metric graph in one of three styles.

    convex-boundary: a single cycle laid out on its circumscribed circle.
    path: a right-angle zigzag (interior vertices must bend for thickening).
    star: spokes of a star graph fanned inside a cone whose opening is set by
    the thickening parameter c.
    """
    if not 1.0 < c < math.inf:
        raise EmbeddingError("need finite c > 1")
    deg = np.bincount(g.edges.ravel(), minlength=g.n_vertices)
    pos = np.zeros((g.n_vertices, 2))
    lookup = {tuple(sorted((int(a), int(b)))): float(l)
              for (a, b), l in zip(g.edges, g.lengths)}

    if style == "convex-boundary":
        if np.any(deg != 2):
            raise EmbeddingError("convex-boundary embedding needs a single cycle "
                                 "(every vertex of degree 2)")
        order = _walk_order(g, 0)
        lens = [lookup[tuple(sorted((order[i], order[(i + 1) % len(order)])))]
                for i in range(len(order))]
        radius = _circumscribed_radius(lens)
        phi = 0.0
        for v, l in zip(order, lens):
            pos[v] = (radius * math.cos(phi), radius * math.sin(phi))
            phi += 2.0 * math.asin(l / (2.0 * radius))
    elif style == "path":
        if np.sum(deg == 1) != 2 or np.any(deg > 2):
            raise EmbeddingError("path embedding needs a path graph")
        order = _walk_order(g, int(np.nonzero(deg == 1)[0][0]))
        p = np.zeros(2)
        s = math.sqrt(0.5)
        for i in range(len(order) - 1):
            l = lookup[tuple(sorted((order[i], order[i + 1])))]
            d = np.array([s, s if i % 2 == 0 else -s])
            p = p + l * d
            pos[order[i + 1]] = p
    elif style == "star":
        centers = np.nonzero(deg == g.n_vertices - 1)[0]
        if g.n_vertices < 2 or centers.size == 0 or g.edges.shape[0] != g.n_vertices - 1:
            raise EmbeddingError("star embedding needs a star graph")
        center = int(centers[0])
        beta = math.asin(1.0 / c)
        # strictly inside the builder's angular margin
        margin = math.radians(3.0)
        k = g.n_vertices - 1
        if k == 1:
            angles = [0.5 * math.pi]
        else:
            spread = (math.pi - 2.0 * beta - 2.0 * margin) / (k - 1)
            if spread < 2.0 * beta + margin:
                raise EmbeddingError(
                    f"cannot fan {k} spokes inside the cone allowed by c={c}")
            angles = [0.5 * math.pi + spread * (i - 0.5 * (k - 1)) for i in range(k)]
        leaves = [(int(a) if int(b) == center else int(b), float(l))
                  for (a, b), l in zip(g.edges, g.lengths)]
        for (v, l), ang in zip(leaves, angles):
            pos[v] = (l * math.cos(ang), l * math.sin(ang))
    else:
        raise EmbeddingError(f"unknown embedding style {style!r}")
    return GraphEmbedding(graph=g, positions=pos)


def _circumscribed_radius(lens):
    """Radius R with sum of 2*asin(l_i / 2R) equal to 2*pi (center inside)."""
    lens = np.asarray(lens, float)

    def f(r):
        return float(np.sum(2.0 * np.arcsin(np.clip(lens / (2.0 * r), -1.0, 1.0)))) - 2.0 * math.pi

    lo = 0.5 * lens.max()
    if f(lo) < 0:
        raise EmbeddingError("cycle has no circumscribed embedding with interior center")
    hi = lens.sum()
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# domain construction
# ---------------------------------------------------------------------------

def _seg_seg_distance(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    if (orient(p1, p2, p3) * orient(p1, p2, p4) < 0
            and orient(p3, p4, p1) * orient(p3, p4, p2) < 0):
        return 0.0
    ends = np.array([p1, p2, p3, p4])
    return float(min(geometry.point_segment_distances(ends[:2], ends[2], ends[3]).min(),
                     geometry.point_segment_distances(ends[2:], ends[0], ends[1]).min()))


def _check_clearances(embedding, eps, c):
    pos = embedding.positions
    edges = embedding.graph.edges
    n = pos.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pos[i] - pos[j]) <= 2.0 * c * eps:
                raise ThickeningError(f"vertex disks {i} and {j} overlap")
    # (edge, vertex) distances; a strip's own end vertices do not count
    dist = geometry.point_segment_distances(pos[:, None], pos[edges[:, 0]], pos[edges[:, 1]]).T
    dist[np.arange(edges.shape[0])[:, None], edges] = np.inf
    hits = np.argwhere(dist <= (c + 1.0) * eps)
    if hits.size:
        k, v = hits[0]
        raise ThickeningError(f"strip {k} runs into vertex disk {v}")
    for k1 in range(edges.shape[0]):
        for k2 in range(k1 + 1, edges.shape[0]):
            if set(edges[k1].tolist()) & set(edges[k2].tolist()):
                continue
            if _seg_seg_distance(pos[edges[k1, 0]], pos[edges[k1, 1]],
                                 pos[edges[k2, 0]], pos[edges[k2, 1]]) <= 2.0 * eps:
                raise ThickeningError(f"strips {k1} and {k2} overlap")


def _junction_polyline(x, dirs, us, eps, c, target_h):
    """Closed CCW boundary polyline of the convex vertex region, and n_diam:
    the steklov diameter is point 0 plus the last n_diam points.

    The region is disk(x, c*eps) cut by the diameter half-plane and by one
    chord per incident edge at distance t0; chord subdivision points are the
    shared strip cross-sections.
    """
    beta = math.asin(1.0 / c)
    t0 = eps * math.sqrt(c * c - 1.0)
    r = c * eps
    thetas = np.array([math.atan2(d[1], d[0]) for d in dirs])
    mean = np.mean([np.asarray(d) for d in dirs], axis=0)
    if np.linalg.norm(mean) < 1e-12:
        raise ThickeningError("incident edge directions cancel; no diameter fits")
    psi = math.atan2(mean[1], mean[0])

    rel = np.mod(thetas - psi + math.pi, 2.0 * math.pi) - math.pi
    if np.any(np.abs(rel) + beta > 0.5 * math.pi - _MARGIN):
        raise ThickeningError(
            "an incident edge leaves too close to the diameter; reduce c or re-embed")
    order = np.argsort(rel)
    rel = rel[order]
    gaps = np.diff(rel)
    if np.any(gaps < 2.0 * beta - 1e-9):
        raise ThickeningError("adjacent strips overlap on the vertex circle")

    def circle(angle):
        return x + r * np.array([math.cos(angle), math.sin(angle)])

    def arc_points(a0, a1):
        """Open arc (a0, a1) sampled at roughly target_h spacing."""
        span = a1 - a0
        if span * r < 0.25 * target_h:
            return []
        n_arc = max(1, math.ceil(span * r / target_h))
        return [circle(a0 + span * j / n_arc) for j in range(1, n_arc)]

    pts = []
    e_minus = circle(psi - 0.5 * math.pi)
    e_plus = circle(psi + 0.5 * math.pi)
    pts.append(e_minus)
    cursor = psi - 0.5 * math.pi
    for idx, rel_idx in zip(order, rel):
        d = np.asarray(dirs[idx], float)
        d_perp = np.array([-d[1], d[0]])
        a_in = psi + rel_idx - beta
        pts.extend(arc_points(cursor, a_in))
        chord = [x + t0 * d + u * eps * d_perp for u in us]
        if pts and np.linalg.norm(pts[-1] - chord[0]) < 10 * _WELD_TOL:
            pts.pop()
        pts.extend(chord)
        cursor = a_in + 2.0 * beta
    pts.extend(arc_points(cursor, psi + 0.5 * math.pi))
    pts.append(e_plus)
    # straight diameter back from e_plus to e_minus (exclusive endpoints)
    n_d = max(2, math.ceil(2.0 * r / target_h))
    for j in range(1, n_d):
        pts.append(e_plus + (e_minus - e_plus) * j / n_d)
    poly = np.asarray(pts)
    keep = np.ones(len(poly), bool)
    keep[1:] = np.linalg.norm(np.diff(poly, axis=0), axis=1) > 10 * _WELD_TOL
    return poly[keep], int(keep[-n_d:].sum())


def _ring_triangulate(poly, target_h):
    """Triangulate a convex closed polyline by shrinking rings to the centroid."""
    m = poly.shape[0]
    c0 = poly.mean(axis=0)
    rmax = np.linalg.norm(poly - c0, axis=1).max()
    n_rings = max(1, int(round(rmax / target_h)))
    verts = [c0 + (1.0 - k / n_rings) * (poly - c0) for k in range(n_rings)]
    verts = np.vstack(verts + [c0[None, :]])
    tris = []
    for k in range(n_rings - 1):
        o = k * m
        i = (k + 1) * m
        for j in range(m):
            jn = (j + 1) % m
            tris.append((o + j, o + jn, i + j))
            tris.append((o + jn, i + jn, i + j))
    o = (n_rings - 1) * m
    center = n_rings * m
    for j in range(m):
        tris.append((o + j, o + (j + 1) % m, center))
    return verts, np.asarray(tris, np.int64)


def _strip_mesh(a, d, t0, length, us, eps, target_h):
    """Structured grid of the strip from a + t0*d, running `length` along d."""
    d = np.asarray(d, float)
    d_perp = np.array([-d[1], d[0]])
    n_long = max(1, math.ceil(length / target_h))
    s = np.linspace(0.0, 1.0, n_long + 1)
    cols = a[None, :] + (t0 + s * length)[:, None] * d[None, :]
    verts = (cols[:, None, :] + (np.asarray(us) * eps)[None, :, None] * d_perp[None, None, :])
    return verts.reshape(-1, 2), geometry.grid_triangles(n_long, len(us) - 1, False)


def build_thickened_mesh(embedding, eps, c=2.0, target_h=None):
    """Mesh of the thickened domain with steklov diameters and neumann walls.

    A boundary edge is steklov when both of its ends lie on the diameter of
    the same graph vertex, as the junction polylines lay the diameters out.
    """
    if not (0 < eps < math.inf and 1.0 < c < math.inf):
        raise ThickeningError("need finite eps > 0 and c > 1")
    if target_h is None:
        target_h = eps / 4.0
    if not target_h > 10 * _WELD_TOL:
        raise ThickeningError("target_h must exceed the welding tolerance")
    g = embedding.graph
    pos = embedding.positions
    _check_clearances(embedding, eps, c)
    t0 = eps * math.sqrt(c * c - 1.0)
    n_across = max(2, int(round(2.0 * eps / target_h)))
    us = np.linspace(-1.0, 1.0, n_across + 1)

    incident = {v: [] for v in range(g.n_vertices)}
    for k, (a, b) in enumerate(g.edges):
        delta = pos[b] - pos[a]
        d = delta / np.linalg.norm(delta)
        incident[int(a)].append(d)
        incident[int(b)].append(-d)

    all_verts = []
    all_tris = []
    offset = 0
    # diameter point ids before welding, and the graph vertex of each
    diam_ids = []
    diam_owner = []
    for v in range(g.n_vertices):
        if not incident[v]:
            raise ThickeningError(f"vertex {v} is isolated")
        poly, n_diam = _junction_polyline(pos[v], incident[v], us, eps, c, target_h)
        # the outer ring of the triangulation is the polyline itself
        verts, tris = _ring_triangulate(poly, target_h)
        m = poly.shape[0]
        diam_ids.append(offset + np.r_[0, m - n_diam:m])
        diam_owner.append(np.full(n_diam + 1, v))
        all_verts.append(verts)
        all_tris.append(tris + offset)
        offset += verts.shape[0]
    for k, (a, b) in enumerate(g.edges):
        delta = pos[b] - pos[a]
        full = np.linalg.norm(delta)
        length = full - 2.0 * t0
        if length <= 2.0 * target_h:
            raise ThickeningError(f"edge {k} is too short for eps={eps}, c={c}")
        verts, tris = _strip_mesh(pos[a], delta / full, t0, length, us, eps, target_h)
        all_verts.append(verts)
        all_tris.append(tris + offset)
        offset += verts.shape[0]

    verts = np.vstack(all_verts)
    tris = np.vstack(all_tris)
    pairs = cKDTree(verts).query_pairs(_WELD_TOL, output_type="ndarray")
    n_welded, new_ids = geometry.label_components(verts.shape[0], pairs[:, 0], pairs[:, 1])
    # each welded vertex keeps the coordinates of its lowest-index duplicate
    _, keep = np.unique(new_ids, return_index=True)
    mesh = geometry.build_mesh(verts[keep], new_ids[tris])

    owner = np.full(n_welded, -1)
    owner[new_ids[np.concatenate(diam_ids)]] = np.concatenate(diam_owner)
    ends = owner[mesh.boundary_edges]
    tags = np.where((ends[:, 0] >= 0) & (ends[:, 0] == ends[:, 1]), STEKLOV, NEUMANN)
    mesh = geometry.replace_mesh(mesh, boundary_tags=tags.astype(object))
    expected = 2.0 * c * eps * g.n_vertices
    got = geometry.boundary_length(mesh, STEKLOV)
    if abs(got - expected) > 1e-6 * expected:
        raise ThickeningError(
            f"steklov tagging inconsistent: length {got} vs expected {expected}")
    return mesh

