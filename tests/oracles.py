"""Closed-form quantities of a mesh and a field that only the tests read."""

import numpy as np

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
