"""Correctness gates that do not depend on how the spectrum was solved.

Every eigenpair is checked against the full-vertex pencil ``(K, M_Gamma)``
built from ``fem.assemble_stiffness`` and ``fem.assemble_boundary_mass``:
the field returned as the eigenfunction must satisfy
``K f = sigma M_Gamma f`` on every vertex that is not pinned by a Dirichlet
condition, whatever solver produced it.  Where a closed form exists (unit
disk, annulus, flat cylinder) the eigenvalues are compared with it too.
"""

import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from steklov_lab import deformations, fem, geometry

# relative pencil residual; exact solves reach ~1e-11 at h = 0.005
RESIDUAL_BOUND = 1e-6
# P1 eigenvalue error bound C * (h * kappa)^2 for wavenumber kappa and longest
# edge h; see check_spectrum
DISCRETISATION_CONSTANT = 0.5


def pencil_residuals(mesh, result):
    """``||K f - sigma M f|| / (sigma ||M f||)`` per eigenpair, Dirichlet rows
    dropped.  The zero mode is scaled by the largest eigenvalue instead."""
    K = fem.assemble_stiffness(mesh)
    B = fem.assemble_boundary_mass(mesh, geometry.STEKLOV)
    n = mesh.n_vertices
    lift = sp.csr_matrix((np.ones(B.vertices.size), (B.vertices, np.arange(B.vertices.size))),
                         shape=(n, B.vertices.size))
    M = lift @ B.matrix @ lift.T
    free = np.ones(n, bool)
    free[geometry.tagged_vertices(mesh, geometry.DIRICHLET)] = False
    free[B.vertices] = True
    sigma = np.asarray(result.eigenvalues, float)
    fields = np.atleast_2d(np.asarray(result.extensions, float))
    scale = max(float(np.max(np.abs(sigma))), 1e-300)
    out = []
    for s, f in zip(sigma, fields):
        Mf = (M @ f)[free]
        r = (K @ f)[free] - s * Mf
        denom = s if s > 1e-8 * scale else scale
        out.append(float(np.linalg.norm(r) / (denom * np.linalg.norm(Mf))))
    return np.array(out)


def check_spectrum(mesh, result, n_eigs, closed_form=None):
    """True when the result is a sorted, finite, converged set of n_eigs pairs
    that also matches ``closed_form`` (values, wavenumbers) when given."""
    sigma = np.asarray(result.eigenvalues, float)
    if sigma.shape != (n_eigs,) or not np.all(np.isfinite(sigma)):
        return False
    if np.any(np.diff(sigma) < -1e-12 * max(1.0, abs(sigma[-1]))):
        return False
    if np.asarray(result.extensions).shape != (n_eigs, mesh.n_vertices):
        return False
    if not np.all(pencil_residuals(mesh, result) <= RESIDUAL_BOUND):
        return False
    if closed_form is not None:
        ref, kappa = (np.asarray(a, float)[:n_eigs] for a in closed_form)
        zero = np.abs(ref) < 1e-12
        if np.any(np.abs(sigma[zero]) > 1e-8 * abs(sigma[-1])):
            return False
        h = geometry.max_edge_length(mesh)
        tol = DISCRETISATION_CONSTANT * (h * kappa[~zero]) ** 2
        if np.any(np.abs(sigma[~zero] - ref[~zero]) > tol * ref[~zero]):
            return False
    return True


def disk_spectrum(radius, count):
    """Unit-density disk: 0, then k / radius twice for k = 1, 2, ..."""
    ks = [0] + [k for k in range(1, count) for _ in range(2)]
    ks = np.array(ks[:count], float)
    return ks / radius, ks / radius


def annulus_spectrum(r_inner, r_outer, count):
    """Unit-density annulus with both circles steklov, one 2x2 pencil per
    Fourier mode m: u = A r^m + B r^-m (m >= 1) or A + B log r (m = 0)."""
    a, R = float(r_inner), float(r_outer)
    values = []
    for m in range(count):
        if m == 0:
            L = np.array([[0.0, 1.0 / R], [0.0, -1.0 / a]])
            M = np.array([[1.0, math.log(R)], [1.0, math.log(a)]])
        else:
            L = np.array([[m * R ** (m - 1), -m * R ** (-m - 1)],
                          [-m * a ** (m - 1), m * a ** (-m - 1)]])
            M = np.array([[R ** m, R ** -m], [a ** m, a ** -m]])
        sig = np.sort(sla.eigvals(L, M).real)
        copies = 1 if m == 0 else 2
        values += [(float(s), max(m / a, float(s))) for s in sig for _ in range(copies)]
    values.sort()
    values = values[:count]
    return [v for v, _ in values], [k for _, k in values]


def one_sided_cylinder(mesh, count):
    """Closed form for a periodic strip with a steklov bottom and a neumann
    top, or None for any other mesh: sqrt(lam) tanh(w sqrt(lam)) over the
    circle Laplacian spectrum of the bottom circle."""
    if mesh.period_x <= 0:
        return None
    mids = geometry.boundary_edge_midpoints(mesh)
    y0, y1 = mesh.vertices[:, 1].min(), mesh.vertices[:, 1].max()
    bottom = np.isclose(mids[:, 1], y0)
    top = np.isclose(mids[:, 1], y1)
    tags = mesh.boundary_tags
    if not (np.all(tags[bottom] == geometry.STEKLOV) and np.all(tags[top] == geometry.NEUMANN)
            and np.all(bottom | top) and np.all(mesh.edge_density == 1.0)
            and np.all(mesh.tri_weight == 1.0)):
        return None
    lam = deformations.circle_laplacian_eigenvalues(mesh.period_x, count)
    width = float(y1 - y0)
    ref = [deformations.cylinder_formula(float(x), width) for x in lam]
    return ref, np.sqrt(lam)
