"""Closed-form quantities of a mesh and a field that only the tests read."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from steklov_lab import fem, geometry
from steklov_lab.geometry import DIRICHLET, STEKLOV


class ZeroBoundaryTraceError(ValueError):
    pass


def rayleigh_quotient(mesh, field):
    """(f' K f) / (f_b' B f_b) over the steklov boundary."""
    field = np.asarray(field, float)
    K = fem._stiffness(mesh)
    B = fem.assemble_boundary_mass(mesh, STEKLOV)
    fb = field[B.vertices]
    denom = float(fb @ (B.matrix @ fb))
    if denom == 0.0:
        raise ZeroBoundaryTraceError("field has zero trace on the steklov boundary")
    return float(field @ (K @ field)) / denom


def mesh_area(mesh):
    return float(np.sum(geometry.triangle_areas(mesh)))


def coo_stiffness(mesh):
    """The weighted P1 stiffness matrix by scipy's COO to CSR conversion of
    every local 3x3 matrix, triangle by triangle: the assembly that
    fem.assemble_stiffness reproduces bit for bit on its scatter plan."""
    coords = geometry.triangle_coords(mesh)
    x = coords[:, :, 0]
    y = coords[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    local *= (np.asarray(mesh.tri_weight, float) / (2.0 * area2))[:, None, None]
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices))
    return K.tocsr()


def tag_sets(mesh):
    """The fields of geometry.TagSets by the set formulas that fem evaluated
    at every solve before the record: np.unique, np.setdiff1d and
    np.searchsorted, and the connectivity rule on the components of the mesh
    less its dirichlet vertices."""
    sel = mesh.boundary_tags == STEKLOV
    edges = mesh.boundary_edges[sel]
    steklov = np.unique(edges)
    dirichlet = np.setdiff1d(geometry.tagged_vertices(mesh, DIRICHLET), steklov)
    free = np.setdiff1d(np.arange(mesh.n_vertices), dirichlet)
    boundary = np.setdiff1d(mesh.boundary_edges, dirichlet)
    s = np.searchsorted(boundary, steklov)
    return {"steklov_edges": sel, "edge_ends": np.searchsorted(steklov, edges),
            "edge_lengths": geometry.boundary_edge_lengths(mesh)[sel],
            "steklov": steklov, "dirichlet": dirichlet, "free": free,
            "pos": np.searchsorted(free, steklov),
            "boundary": np.searchsorted(free, boundary),
            "interior": np.searchsorted(free, np.setdiff1d(free, boundary)),
            "s": s, "n": np.setdiff1d(np.arange(boundary.size), s),
            "connected": _anchored(mesh, steklov, dirichlet, free)}


def _anchored(mesh, steklov, dirichlet, free):
    """Whether every component of the mesh less its dirichlet vertices holds
    a steklov vertex or the free end of an edge whose other end is dirichlet."""
    edges = mesh.edge_table.edges
    pinned = np.isin(edges, dirichlet)
    kept = edges[~pinned.any(axis=1)]
    n = mesh.n_vertices
    adj = sp.coo_matrix((np.ones(len(kept)), (kept[:, 0], kept[:, 1])), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    anchors = np.concatenate([steklov, edges[pinned[:, ::-1] & ~pinned]])
    return set(labels[free].tolist()) <= set(labels[anchors].tolist())
