"""Weighted problem families driving the spectral convergence experiments.

Three mechanisms are modeled through per-triangle weights and boundary
densities, with an explicit "virtual dimension" n >= 3 supplying the
exponents n-2 (energy weight) and n-1 (boundary norm weight):

* density deformation: a boundary conformal factor converts the base density
  into a target density while the interior weight relaxes to 1;
* singular subdomain weights: energy weight eta^(n-2) off a subdomain U and
  boundary weight eta^(n-1) off the steklov part of U's boundary, collapsing
  the spectrum onto the mixed problem on U;
* collar homothety: the flat cylinder whose exact Steklov spectrum is
  sqrt(lambda)*tanh(eta*sqrt(lambda)) over the boundary Laplacian spectrum.
"""

from dataclasses import dataclass
from functools import cached_property
import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .geometry import STEKLOV


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class DensityFamily:
    mesh: geometry.Mesh2D
    rho_bar: np.ndarray       # target density per steklov boundary edge
    virtual_dim: int = 3

    def __post_init__(self):
        sel = self.mesh.boundary_tags == STEKLOV
        rho_bar = np.broadcast_to(np.asarray(self.rho_bar, float), (int(sel.sum()),)).copy()
        object.__setattr__(self, "rho_bar", rho_bar)
        if self.virtual_dim < 3:
            raise FamilyError("virtual dimension must be >= 3")
        rho = self.mesh.edge_density[sel]
        if np.any(rho_bar < rho - 1e-14 * np.abs(rho)):
            raise FamilyError("target density must dominate the base density edge-wise")

    @cached_property
    def steklov_distance(self):
        """(nearest steklov edge, distance to it) per triangle centroid.

        The search does not depend on eps, so it runs once per family.  It is
        a certified k-d tree search (Bentley, CACM 18, 1975) over the midpoints
        of the (locally unwrapped) steklov segments.  A centroid's nearest
        midpoint bounds its distance from above by ub.  A segment within ub of
        the centroid has its midpoint within ub + half the longest segment,
        so the midpoints in that ball, widened by a relative 1e-12 against
        rounding, hold every segment that can be nearest; only their exact
        distances are computed.  The answer equals the argmin over all
        segments of geometry.point_segment_distances, bit for bit.
        """
        mesh = self.mesh
        edges = mesh.boundary_edges[mesh.boundary_tags == STEKLOV]
        pa = mesh.vertices[edges[:, 0]].astype(float)
        pb = pa + geometry.edge_vector(mesh, edges[:, 0], edges[:, 1])
        cen = geometry.triangle_coords(mesh).mean(axis=1)
        nearest, dmin = _nearest_segments(cen, pa, pb, mesh.period_x)
        for arr in (nearest, dmin):
            arr.flags.writeable = False
        return nearest, dmin


def _nearest_segments(points, seg_a, seg_b, period_x):
    """(index, distance) of the segment nearest each point, the lowest index
    on a tie, as np.argmin; with period_x > 0 a point also meets the
    segments shifted by -period_x and +period_x."""
    mid = 0.5 * (seg_a + seg_b)
    half = 0.5 * float(np.max(np.hypot(*(seg_b - seg_a).T)))
    tree = cKDTree(mid)
    shifts = (0.0, -period_x, period_x) if period_x > 0 else (0.0,)
    shifted = [points + (shift, 0.0) for shift in shifts]
    ub = np.min([tree.query(p)[0] for p in shifted], axis=0)
    radius = (ub + half) * (1.0 + 1e-12)
    # per point, the least distance and on a tie the lowest segment, as
    # np.argmin: per shift a grouped minimum over the point's pairs, which
    # come grouped by point, then the better of the shifts
    best_dist = np.full(len(points), np.inf)
    best_seg = np.full(len(points), len(seg_a))
    for p in shifted:
        i, j = _ball_pairs(tree, p, radius)
        dist = geometry.point_segment_distances(p[i], seg_a[j], seg_b[j])
        start = np.flatnonzero(np.diff(i, prepend=-1))
        sizes = np.diff(np.append(start, i.size))
        dmin = np.minimum.reduceat(dist, start)
        jmin = np.minimum.reduceat(np.where(dist == np.repeat(dmin, sizes), j, len(seg_a)), start)
        hit = i[start]
        better = (dmin < best_dist[hit]) | ((dmin == best_dist[hit]) & (jmin < best_seg[hit]))
        best_dist[hit[better]] = dmin[better]
        best_seg[hit[better]] = jmin[better]
    return best_seg, best_dist


def _ball_pairs(tree, points, radius):
    """The (point, tree point) index pairs of tree.query_ball_point as two
    arrays; its per-point lists are freed on return."""
    balls = tree.query_ball_point(points, radius, return_sorted=False)
    counts = np.fromiter(map(len, balls), np.int64, len(balls))
    return (np.repeat(np.arange(len(points)), counts),
            np.fromiter(itertools.chain.from_iterable(balls), np.int64, counts.sum()))


def density_family_at(family, eps):
    """Deformed mesh: energy weight h^(n-2), boundary density = target density.

    h interpolates piecewise-linearly in distance-to-steklov-boundary from
    (rho_bar/rho)^(1/(n-1)) on the boundary down to 1 at distance >= eps, so
    the boundary norm of the deformed problem is exactly the target-density
    norm and h decreases pointwise as eps shrinks.
    """
    if not 0 < eps <= 1:
        raise FamilyError("eps must lie in (0, 1]")
    mesh = family.mesh
    n = family.virtual_dim
    sel = mesh.boundary_tags == STEKLOV
    factor_edge = (family.rho_bar / mesh.edge_density[sel]) ** (1.0 / (n - 1))
    nearest, dmin = family.steklov_distance
    h = 1.0 + (factor_edge[nearest] - 1.0) * np.clip(1.0 - dmin / eps, 0.0, 1.0)

    new_weight = mesh.tri_weight * h ** (n - 2)
    new_density = np.array(mesh.edge_density, float)
    new_density[sel] = family.rho_bar
    return geometry.replace_mesh(mesh, tri_weight=new_weight, edge_density=new_density)


@dataclass(frozen=True)
class SingularWeightFamily:
    mesh: geometry.Mesh2D
    in_subdomain: np.ndarray   # bool per triangle
    virtual_dim: int = 3

    def __post_init__(self):
        mask = np.asarray(self.in_subdomain, bool)
        object.__setattr__(self, "in_subdomain", mask)
        if mask.shape != (self.mesh.n_triangles,):
            raise FamilyError("subdomain mask must have one flag per triangle")
        if self.virtual_dim < 3:
            raise FamilyError("virtual dimension must be >= 3")
        if not np.any(self.steklov_edges_in_subdomain()):
            raise FamilyError("subdomain closure must meet the steklov boundary")

    def steklov_edges_in_subdomain(self):
        """Mask (over steklov edges) of edges owned by a subdomain triangle."""
        mesh = self.mesh
        table = mesh.edge_table
        owner = np.empty(len(table.edges), np.int64)
        owner[table.tri_edges.ravel()] = np.repeat(np.arange(mesh.n_triangles), 3)
        ids = geometry.edge_ids(mesh, mesh.boundary_edges[mesh.boundary_tags == STEKLOV])
        return self.in_subdomain[owner[ids]]


def singular_family_at(family, eta):
    """Weighted mesh: energy weight eta^(n-2) off U, boundary weight eta^(n-1)
    off the steklov part of U's boundary."""
    if not 0 < eta <= 1:
        raise FamilyError("eta must lie in (0, 1]")
    mesh = family.mesh
    n = family.virtual_dim
    weight = np.where(family.in_subdomain, mesh.tri_weight,
                      mesh.tri_weight * eta ** (n - 2))
    sel = mesh.boundary_tags == STEKLOV
    on_u = family.steklov_edges_in_subdomain()
    density = np.array(mesh.edge_density, float)
    density[sel] = np.where(on_u, density[sel], density[sel] * eta ** (n - 1))
    return geometry.replace_mesh(mesh, tri_weight=weight, edge_density=density)


def subdomain_limit_mesh(family):
    """The limiting mixed problem: submesh of U, steklov on the inherited
    boundary, neumann on the interface."""
    return geometry.extract_submesh(family.mesh, family.in_subdomain)


def cylinder_formula(lam, eta):
    """Steklov-Neumann eigenvalue of the flat collar of half-width eta over a
    boundary Laplacian eigenvalue: sqrt(lam) * tanh(eta * sqrt(lam))."""
    if lam < 0 or eta <= 0:
        raise ValueError("need lam >= 0 and eta > 0")
    if lam == 0:
        return 0.0
    r = math.sqrt(lam)
    return r * math.tanh(eta * r)


def circle_laplacian_eigenvalues(circle_length, count):
    """Sorted Laplacian spectrum of a circle: 0 then (2*pi*k/L)^2 twice each."""
    vals = [0.0]
    k = 1
    while len(vals) < count:
        lam = (2.0 * math.pi * k / circle_length) ** 2
        vals.extend([lam, lam])
        k += 1
    return np.array(vals[:count])

