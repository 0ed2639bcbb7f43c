"""Closed-form quantities of a mesh and a field that only the tests read."""

import numpy as np
import scipy.sparse as sp

from steklov_lab import fem, geometry
from steklov_lab.geometry import STEKLOV


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
