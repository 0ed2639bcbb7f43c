"""Planar triangle meshes with tagged boundary segments.

A mesh carries the discrete problem data: vertex coordinates, CCW triangles,
boundary edges tagged steklov/neumann/dirichlet, a positive density per
boundary edge and a positive weight per triangle.  Meshes may be periodic in
x (flat cylinders): geometric quantities then use minimum-image coordinate
differences, so the strip [0, L) x [0, w] is an exactly flat cylinder.
"""

from dataclasses import dataclass, replace
from functools import cached_property
import hashlib
import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay

STEKLOV = "steklov"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"
TAGS = (STEKLOV, NEUMANN, DIRICHLET)


class MeshError(ValueError):
    pass


class ParameterError(MeshError):
    pass


class TaggingError(MeshError):
    pass


@dataclass(frozen=True)
class Mesh2D:
    """Immutable planar triangulation with tagged boundary."""

    vertices: np.ndarray       # (nv, 2) float
    triangles: np.ndarray      # (nt, 3) int, CCW
    boundary_edges: np.ndarray  # (nb, 2) int
    boundary_tags: np.ndarray   # (nb,) object/str, entries in TAGS
    edge_density: np.ndarray    # (nb,) float, used on steklov edges
    tri_weight: np.ndarray      # (nt,) float
    period_x: float = 0.0       # > 0: x identified modulo period_x

    def __post_init__(self):
        for name in ("vertices", "triangles", "boundary_edges",
                     "boundary_tags", "edge_density", "tri_weight"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # dataclasses.replace runs this too, so a loaded mesh and every
        # replace_mesh retag are checked
        unknown = set(self.boundary_tags.tolist()).difference(TAGS)
        if unknown:
            raise MeshError(f"unknown boundary tag {', '.join(sorted(map(repr, unknown)))}; "
                            f"tags are {', '.join(TAGS)}")

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @cached_property
    def edge_table(self):
        """The mesh's EdgeTable, built on first use and kept on the instance."""
        return _edge_table(self.triangles, self.n_vertices)

    @cached_property
    def geometry_cache(self):
        """A holder for what fem derives from the triangulation alone: the
        stiffness scatter plan (once the geometry is assembled with a second
        triangle weight vector) and the default cluster tolerance.
        replace_mesh always hands it on, so a re-weighted mesh reuses them."""
        return {}

    @cached_property
    def tag_sets(self):
        """The mesh's TagSets, built on first use."""
        return _tag_sets(self)

    @cached_property
    def stiffness_cache(self):
        """A holder that fem fills with what depends on the triangle weights
        too: the stiffness matrix and (on a small boundary) the boundary Schur
        complement of each dirichlet set; replace_mesh hands it on unless the
        triangle weights change."""
        return {}


@dataclass(frozen=True)
class EdgeTable:
    """Unique edges of a triangulation and their incidences.

    Edges are sorted vertex pairs in lexicographic order, so an edge id is its
    rank in that order.
    """

    edges: np.ndarray       # (ne, 2) sorted vertex pairs, lexicographic
    tri_edges: np.ndarray   # (nt, 3) edge ids of local edges 01, 12, 20
    boundary: np.ndarray    # (ne,) bool, edge has a single incident triangle


@dataclass(frozen=True)
class TagSets:
    """What the boundary tags of a mesh fix for a solve, read-only.  Dirichlet
    vertices off the steklov edges are pinned to zero; the others are free."""

    steklov_edges: np.ndarray  # (nb,) bool, boundary edge tagged steklov
    edge_ends: np.ndarray      # (n_edges, 2) positions in steklov of each steklov edge's ends
    edge_lengths: np.ndarray   # (n_edges,) length of each steklov edge
    steklov: np.ndarray        # vertices of the steklov edges
    dirichlet: np.ndarray      # the pinned vertices
    free: np.ndarray           # the vertices not pinned
    pos: np.ndarray            # positions in free of steklov
    boundary: np.ndarray       # positions in free of the free boundary vertices
    interior: np.ndarray       # positions in free of the other free vertices
    s: np.ndarray              # positions in boundary of steklov
    n: np.ndarray              # positions in boundary of the others
    connected: bool            # each free component has a steklov or pinned-adjacent vertex


# ---------------------------------------------------------------------------
# geometric helpers (periodicity-aware)
# ---------------------------------------------------------------------------

def _wrap_delta(dx, period):
    """Minimum-image differences modulo period > 0."""
    return dx - period * np.round(dx / period)


def _unwrapped_coords(vertices, triangles, period_x):
    coords = vertices[triangles].astype(float)
    if period_x > 0:
        anchor = coords[:, :1, 0]
        coords[:, :, 0] = anchor[:, 0][:, None] + _wrap_delta(coords[:, :, 0] - anchor, period_x)
    return coords


def _doubled_areas(c):
    """Signed doubled areas of (nt, 3, 2) triangle coordinates."""
    return ((c[:, 1, 0] - c[:, 0, 0]) * (c[:, 2, 1] - c[:, 0, 1])
            - (c[:, 2, 0] - c[:, 0, 0]) * (c[:, 1, 1] - c[:, 0, 1]))


def triangle_coords(mesh):
    """Per-triangle local vertex coordinates (nt, 3, 2), unwrapped.

    The first vertex anchors the frame; the others are shifted by the
    minimum-image rule so seam triangles of periodic meshes are geometrically
    correct.
    """
    return _unwrapped_coords(mesh.vertices, mesh.triangles, mesh.period_x)


def triangle_areas(mesh):
    return 0.5 * _doubled_areas(triangle_coords(mesh))


def edge_vector(mesh, v0, v1):
    d = mesh.vertices[v1] - mesh.vertices[v0]
    d = d.astype(float)
    if mesh.period_x > 0:
        d[..., 0] = _wrap_delta(d[..., 0], mesh.period_x)
    return d


def boundary_edge_lengths(mesh):
    d = edge_vector(mesh, mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1])
    return np.hypot(d[:, 0], d[:, 1])


def boundary_length(mesh, tag):
    return float(boundary_edge_lengths(mesh)[mesh.boundary_tags == tag].sum())


def boundary_edge_midpoints(mesh):
    p0 = mesh.vertices[mesh.boundary_edges[:, 0]].astype(float)
    d = edge_vector(mesh, mesh.boundary_edges[:, 0], mesh.boundary_edges[:, 1])
    mid = p0 + 0.5 * d
    if mesh.period_x > 0:
        mid[:, 0] = np.mod(mid[:, 0], mesh.period_x)
    return mid


def tagged_vertices(mesh, tag):
    """Sorted vertex indices incident to boundary edges carrying the tag."""
    sel = mesh.boundary_edges[mesh.boundary_tags == tag]
    return np.unique(sel)


def max_edge_length(mesh):
    d = edge_vector(mesh, *mesh.edge_table.edges.T)
    return float(np.max(np.hypot(d[:, 0], d[:, 1])))


def point_segment_distances(points, seg_a, seg_b):
    """Distances from points to the segments seg_a -> seg_b, all (..., 2) and
    broadcast together -> (...).  Pass (n, 1, 2) points against (m, 2)
    segments for all pairs (n, m), or paired (k, 2) arrays for k distances."""
    ax, ay = seg_a[..., 0], seg_a[..., 1]
    dx, dy = seg_b[..., 0] - ax, seg_b[..., 1] - ay
    px, py = points[..., 0], points[..., 1]
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _all_edges(triangles):
    e = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    return np.sort(e, axis=1)


def _edge_table(triangles, n_vertices):
    nt = triangles.shape[0]
    e = _all_edges(triangles).astype(np.int64)
    # the copies of an edge are equal, so their order after the sort is free
    order = np.argsort(e[:, 0] * n_vertices + e[:, 1])
    e = e[order]
    first = np.ones(len(e), bool)
    first[1:] = np.any(e[1:] != e[:-1], axis=1)
    sorted_ids = np.cumsum(first) - 1
    ids = np.empty_like(sorted_ids)
    ids[order] = sorted_ids
    table = EdgeTable(
        edges=e[first],
        tri_edges=ids.reshape(3, nt).T.copy(),
        boundary=np.bincount(sorted_ids, minlength=int(first.sum())) == 1,
    )
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def edge_ids(mesh, pairs):
    """Edge-table ids of (k, 2) vertex pairs given in either orientation."""
    pairs = np.sort(np.asarray(pairs, np.int64).reshape(-1, 2), axis=1)
    edges = mesh.edge_table.edges
    keys = edges[:, 0] * mesh.n_vertices + edges[:, 1]
    query = pairs[:, 0] * mesh.n_vertices + pairs[:, 1]
    ids = np.searchsorted(keys, query)
    if np.any(ids == len(keys)) or not np.array_equal(keys[ids], query):
        raise MeshError("vertex pair is not an edge of the mesh")
    return ids


def label_components(n, a, b):
    """Connected components of the undirected graph on 0..n-1 with edges a[k]-b[k].

    Returns (n_components, labels).  Components are numbered in order of their
    lowest vertex, so the first vertex carrying label k is that minimum.
    """
    a = np.asarray(a, np.int64)
    # CSR rows straight from a sort of the edge tails; going through COO
    # costs more than the search on graphs of a few hundred nodes.  The order
    # inside a row does not change the labels, so the sort need not be stable.
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(a, minlength=n), out=indptr[1:])
    indices = np.asarray(b, np.int32)[np.argsort(a)]
    adj = sp.csr_matrix((np.ones(a.size), indices, indptr), shape=(n, n))
    return connected_components(adj, directed=False)


def _tag_sets(mesh):
    """The TagSets of the mesh, from vertex masks."""
    nv, edges, sel = mesh.n_vertices, mesh.boundary_edges, mesh.boundary_tags == STEKLOV
    steklov, pinned, boundary = np.zeros((3, nv), bool)
    steklov[edges[sel]] = True
    pinned[edges[mesh.boundary_tags == DIRICHLET]] = True
    pinned &= ~steklov
    boundary[edges] = True
    boundary &= ~pinned
    free_rank = np.cumsum(~pinned) - 1
    # every free component holds a steklov vertex or a neighbour of a pinned
    # one when a vertex nv, joined to each steklov and pinned vertex, connects all
    table, tied = mesh.edge_table.edges, np.flatnonzero(steklov | pinned)
    n_comp, _ = label_components(nv + 1, np.concatenate([table[:, 0], tied]),
                                 np.concatenate([table[:, 1], np.full(tied.size, nv)]))
    arrays = {"steklov_edges": sel, "edge_ends": (np.cumsum(steklov) - 1)[edges[sel]],
              "edge_lengths": boundary_edge_lengths(mesh)[sel],
              "steklov": np.flatnonzero(steklov).astype(edges.dtype),
              "dirichlet": np.flatnonzero(pinned), "free": np.flatnonzero(~pinned),
              "pos": free_rank[steklov], "boundary": free_rank[boundary],
              "interior": free_rank[~(pinned | boundary)],
              "s": (np.cumsum(boundary) - 1)[steklov], "n": np.flatnonzero(~steklov[boundary])}
    for arr in arrays.values():
        arr.flags.writeable = False
    return TagSets(**arrays, connected=n_comp == 1)


def validate_mesh(mesh):
    """Check the structural invariants; raises MeshError on violation."""
    areas = triangle_areas(mesh)
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} has non-positive signed area {areas[bad]:.3e}")
    if np.any(mesh.tri_weight <= 0):
        raise MeshError("all triangle weights must be positive")
    steklov = mesh.boundary_tags == STEKLOV
    if np.any(mesh.edge_density[steklov] <= 0):
        raise MeshError("all steklov edge densities must be positive")
    table = mesh.edge_table
    if np.any(np.bincount(table.tri_edges.ravel()) > 2):
        raise MeshError("an edge belongs to more than two triangles")
    declared = np.sort(mesh.boundary_edges, axis=1)
    declared = declared[np.lexsort((declared[:, 1], declared[:, 0]))]
    if not np.array_equal(declared, table.edges[table.boundary]):
        raise MeshError("declared boundary edges do not match edges with a single incident triangle")
    # boundary vertices of degree exactly 2 make the boundary edges closed loops
    deg = np.bincount(mesh.boundary_edges.ravel())
    if np.any((deg != 0) & (deg != 2)):
        raise MeshError("boundary does not form closed polygonal curves")
    return mesh


def _orient_ccw(vertices, triangles, period_x=0.0):
    flip = _doubled_areas(_unwrapped_coords(vertices, triangles, period_x)) < 0
    triangles = triangles.copy()
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    return triangles


def build_mesh(vertices, triangles, period_x=0.0):
    """Assemble and validate a Mesh2D from raw arrays, deriving the boundary
    and tagging every boundary edge steklov; every edge density and triangle
    weight is 1.  Other tags, densities and weights come through replace_mesh."""
    vertices = np.asarray(vertices, float)
    triangles = _orient_ccw(vertices, np.asarray(triangles, np.int32), period_x)
    table = _edge_table(triangles, vertices.shape[0])
    bedges = table.edges[table.boundary].astype(np.int32)
    nb = bedges.shape[0]
    mesh = Mesh2D(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=bedges,
        boundary_tags=np.array([STEKLOV] * nb, object),
        edge_density=np.ones(nb),
        tri_weight=np.ones(triangles.shape[0]),
        period_x=float(period_x),
    )
    mesh.__dict__["edge_table"] = table  # seed the cached_property
    return validate_mesh(mesh)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def grid_triangles(n_rows, n_cols, wrap_rows):
    """Triangles of an n_rows x n_cols grid of cells, two per cell.

    Vertex (i, j) has id i * (n_cols + 1) + j; with wrap_rows, row n_rows is
    row 0.  Cell (i, j), taken row by row, gives (a, b, c) and (a, c, d) with
    a = (i, j), b = (i + 1, j), c = (i + 1, j + 1) and d = (i, j + 1).
    """
    i, j = np.meshgrid(np.arange(n_rows), np.arange(n_cols), indexing="ij")
    a = i * (n_cols + 1) + j
    b = ((i + 1) % n_rows if wrap_rows else i + 1) * (n_cols + 1) + j
    return np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)


def make_disk_mesh(radius, target_h):
    """Deterministic ring-based triangulation of a disk, all-steklov boundary."""
    if not 0 < target_h < radius < math.inf:
        raise ParameterError("need 0 < target_h < radius, radius finite")
    n_r = max(2, math.ceil(radius / target_h))
    dr = radius / n_r
    pts = [(0.0, 0.0)]
    for j in range(1, n_r + 1):
        r = j * dr
        m = max(6, math.ceil(2 * math.pi * r / target_h))
        offset = 0.5 * (j % 2) * (2 * math.pi / m)
        theta = offset + 2 * math.pi * np.arange(m) / m
        ring = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        pts.append(ring)
    pts = np.vstack([np.asarray(pts[0])[None, :]] + pts[1:])
    tri = Delaunay(pts)
    mesh = build_mesh(pts, tri.simplices)
    if max_edge_length(mesh) > 1.5 * target_h:
        raise MeshError("disk mesh exceeds the 1.5*target_h edge-length budget")
    return mesh


def make_annulus_mesh(r_inner, r_outer, target_h):
    """Structured triangulation of an annulus, both circles steklov-tagged."""
    if not 0 < r_inner < r_outer < math.inf:
        raise ParameterError("need 0 < r_inner < r_outer, r_outer finite")
    if not 0 < target_h < r_outer - r_inner:
        raise ParameterError("target_h must be in (0, r_outer - r_inner)")
    n_t = max(6, math.ceil(2 * math.pi * r_outer / target_h))
    n_r = max(1, math.ceil((r_outer - r_inner) / target_h))
    radii = np.linspace(r_inner, r_outer, n_r + 1)
    theta = 2 * math.pi * np.arange(n_t) / n_t
    verts = np.concatenate([
        np.column_stack([r * np.cos(theta), r * np.sin(theta)]) for r in radii])
    # grid rows are angles and columns rings: vertex (i, j) is j * n_t + i,
    # and the cells are listed ring by ring
    i, j = np.divmod(grid_triangles(n_t, n_r, wrap_rows=True), n_r + 1)
    tris = (j * n_t + i).reshape(n_t, n_r, 2, 3).transpose(1, 0, 2, 3).reshape(-1, 3)
    mesh = build_mesh(verts, tris)
    if max_edge_length(mesh) > 1.5 * target_h:
        raise MeshError("annulus mesh exceeds the 1.5*target_h edge-length budget")
    return mesh


def make_strip_mesh(length_l, width_w, target_h, periodic, top_tag=NEUMANN):
    """Structured mesh of [0,L]x[0,w]; periodic=True identifies x=0 and x=L.

    The long side y=0 is steklov and the long side y=w gets top_tag; the
    short sides of the non-periodic rectangle are neumann.
    """
    if not (0 < length_l < math.inf and 0 < width_w < math.inf and 0 < target_h):
        raise ParameterError("lengths must be positive and finite")
    if not target_h < min(length_l, width_w):
        raise ParameterError("target_h must be smaller than min(L, w)")
    nx = max(3, math.ceil(length_l / target_h))
    ny = max(1, math.ceil(width_w / target_h))
    n_cols = nx if periodic else nx + 1
    xs = length_l * np.arange(n_cols) / nx
    ys = width_w * np.arange(ny + 1) / ny
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel()])
    period = length_l if periodic else 0.0
    mesh = build_mesh(verts, grid_triangles(nx, ny, periodic), period_x=period)
    # build_mesh tagged every edge steklov: retag the top and the short sides
    tags = np.array(mesh.boundary_tags, object)
    mids = boundary_edge_midpoints(mesh)
    tags[~np.isclose(mids[:, 1], 0.0)] = NEUMANN
    tags[np.isclose(mids[:, 1], width_w)] = top_tag
    return replace_mesh(mesh, boundary_tags=tags)


def tag_boundary(mesh, arcs, by, center):
    """Retag boundary edges whose midpoint falls in one of the given intervals.

    arcs: list of ((a, b), tag).  by="angle", the only supported value: the
    intervals are angles (radians, taken mod 2*pi) around the point `center`.
    Edges outside every interval keep their tag.
    """
    if by != "angle":
        raise TaggingError("by must be 'angle'")
    intervals = []
    for (a, b), tag in arcs:
        if not b > a:
            raise TaggingError("interval must satisfy b > a")
        intervals.append((float(a), float(b), tag))
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            a0, b0, _ = intervals[i]
            a1, b1, _ = intervals[j]
            if a0 < b1 and a1 < b0:
                raise TaggingError("tagging intervals overlap")

    center = np.asarray(center, float)
    mids = boundary_edge_midpoints(mesh)
    theta = np.mod(np.arctan2(mids[:, 1] - center[1], mids[:, 0] - center[0]), 2 * np.pi)
    tags = np.array(mesh.boundary_tags, object)
    for a, b, tag in intervals:
        inside = np.mod(theta - a, 2 * np.pi) < (b - a)
        tags[inside] = tag
    if not np.any(tags == STEKLOV):
        raise TaggingError("tagging removed the whole steklov boundary")
    # a retag changes no area, weight or density of a validated mesh
    return replace_mesh(mesh, boundary_tags=tags)


def extract_submesh(mesh, tri_mask):
    """Mesh of a triangle subset; new boundary edges are neumann."""
    tri_mask = np.asarray(tri_mask, bool)
    if not np.any(tri_mask):
        raise ParameterError("empty triangle subset")
    tris = mesh.triangles[tri_mask]
    keep = np.unique(tris)
    remap = -np.ones(mesh.n_vertices, np.int64)
    remap[keep] = np.arange(keep.size)
    sub = build_mesh(mesh.vertices[keep], remap[tris], mesh.period_x)
    # a new boundary edge that was a boundary edge keeps its tag and density
    slot = np.full(len(mesh.edge_table.edges), -1)
    slot[edge_ids(mesh, mesh.boundary_edges)] = np.arange(len(mesh.boundary_edges))
    old = slot[edge_ids(mesh, keep[sub.boundary_edges])]
    return replace_mesh(sub, boundary_tags=np.where(old >= 0, mesh.boundary_tags[old], NEUMANN),
                        edge_density=np.where(old >= 0, mesh.edge_density[old], 1.0),
                        tri_weight=mesh.tri_weight[tri_mask])


def replace_mesh(mesh, *, boundary_tags=None, edge_density=None, tri_weight=None):
    """The mesh with the given boundary tags, edge densities or triangle
    weights in place of its own.  The copy keeps the mesh's edge table and
    geometry holder, its stiffness holder unless tri_weight is given, and its
    tag sets, built, unless boundary_tags is given."""
    changes = {"boundary_tags": boundary_tags, "edge_density": edge_density,
               "tri_weight": tri_weight}
    out = replace(mesh, **{k: v for k, v in changes.items() if v is not None})
    out.__dict__["edge_table"] = mesh.edge_table
    out.__dict__["geometry_cache"] = mesh.geometry_cache
    if tri_weight is None:
        out.__dict__["stiffness_cache"] = mesh.stiffness_cache
    if boundary_tags is None:
        out.__dict__["tag_sets"] = mesh.tag_sets
    return out


# ---------------------------------------------------------------------------
# serialization: "steklov-mesh v1" plain text format
# ---------------------------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


# rows per chunk of a text artifact: a chunk's %-operation holds a few hundred
# kB of Python objects, whatever the size of the mesh
_CHUNK_ROWS = 4096


def text_chunks(template, n_rows, values):
    """template once per row for n_rows rows, formatted and yielded
    _CHUNK_ROWS rows at a time; values(start, stop) gives the fields of rows
    start..stop-1, flat and row by row."""
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_rows)
        yield template * (stop - start) % tuple(values(start, stop))


def mesh_to_text(mesh):
    """The "steklov-mesh v1" text of a mesh, yielded in chunks of at most
    _CHUNK_ROWS lines of a block; floats are written as %.17g, which reads
    back to the same bits."""
    head = "steklov-mesh v1\n"
    if mesh.period_x > 0:
        head += f"period-x {_fmt(mesh.period_x)}\n"
    nv, nt, nb = mesh.n_vertices, mesh.n_triangles, mesh.boundary_edges.shape[0]

    def edge_fields(start, stop):
        edges = mesh.boundary_edges[start:stop]
        return itertools.chain.from_iterable(zip(
            edges[:, 0].tolist(), edges[:, 1].tolist(),
            mesh.boundary_tags[start:stop].tolist(), mesh.edge_density[start:stop].tolist()))

    yield head + f"{nv}\n"
    yield from text_chunks("%.17g %.17g\n", nv,
                           lambda start, stop: mesh.vertices[start:stop].ravel().tolist())
    yield f"{nt}\n"
    yield from text_chunks("%d %d %d\n", nt,
                           lambda start, stop: mesh.triangles[start:stop].ravel().tolist())
    yield f"{nb}\n"
    yield from text_chunks("%d %d %s %.17g\n", nb, edge_fields)
    yield from text_chunks("%.17g\n", nt, lambda start, stop: mesh.tri_weight[start:stop].tolist())


def mesh_hash(mesh):
    """sha256 hex digest of the mesh arrays in fixed little-endian dtypes."""
    h = hashlib.sha256(b"steklov-mesh arrays v1")
    for name, dtype in (("vertices", "<f8"), ("triangles", "<i8"),
                        ("boundary_edges", "<i8"), ("edge_density", "<f8"),
                        ("tri_weight", "<f8")):
        arr = np.ascontiguousarray(getattr(mesh, name), dtype)
        h.update(f"{name} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    h.update(f"boundary_tags {len(mesh.boundary_tags)}\n".encode())
    h.update("\n".join(map(str, mesh.boundary_tags)).encode())
    h.update(b"period_x\n" + np.float64(mesh.period_x).astype("<f8").tobytes())
    return h.hexdigest()


def save_mesh(mesh, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(mesh_to_text(mesh))


def _block(lines, start, n, per_line, what):
    """The whitespace-separated tokens of lines[start:start + n]."""
    tokens = " ".join(lines[start:start + n]).split()
    if len(tokens) != n * per_line:
        raise MeshError(f"{what} block needs {n} lines of {per_line} fields")
    return tokens


def _count(lines, i, what):
    """The size of a block, on line i."""
    if i >= len(lines):
        raise MeshError(f"the file ends before the {what} count")
    return int(lines[i])


def load_mesh(path):
    with open(path, encoding="ascii") as fh:
        lines = [t for t in fh.read().split("\n") if t.strip()]
    header = lines[0] if lines else ""
    if header.strip() != "steklov-mesh v1":
        raise MeshError(f"unexpected header {header!r}")
    i = 1
    period = 0.0
    if i < len(lines) and lines[i].startswith("period-x"):
        period = float(lines[i][len("period-x"):])
        i += 1
    nv = _count(lines, i, "vertex")
    verts = np.array(list(map(float, _block(lines, i + 1, nv, 2, "vertex"))))
    i += 1 + nv
    nt = _count(lines, i, "triangle")
    tris = np.array(list(map(int, _block(lines, i + 1, nt, 3, "triangle"))), np.int32)
    i += 1 + nt
    nb = _count(lines, i, "boundary edge")
    edges = _block(lines, i + 1, nb, 4, "boundary edge")
    i += 1 + nb
    bedges = np.array(list(map(int, edges[0::4] + edges[1::4])), np.int32)
    tags = np.array(edges[2::4], object)
    dens = np.array(list(map(float, edges[3::4])))
    weights = np.array(list(map(float, _block(lines, i, nt, 1, "weight"))))
    mesh = Mesh2D(vertices=verts.reshape(nv, 2), triangles=tris.reshape(nt, 3),
                  boundary_edges=bedges.reshape(2, nb).T.copy(),
                  boundary_tags=tags, edge_density=dens, tri_weight=weights,
                  period_x=period)
    return validate_mesh(mesh)
