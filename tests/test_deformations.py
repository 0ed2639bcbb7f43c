import math
from dataclasses import replace

import numpy as np
import pytest

from steklov_lab import deformations as dfm
from steklov_lab import fem, geometry, harness


def test_cylinder_formula_values():
    assert dfm.cylinder_formula(0.0, 1.0) == 0.0
    assert dfm.cylinder_formula(1.0, 0.5) == pytest.approx(math.tanh(0.5))
    assert dfm.cylinder_formula(4.0, 0.25) == pytest.approx(2 * math.tanh(0.5))
    with pytest.raises(ValueError):
        dfm.cylinder_formula(-1.0, 1.0)
    with pytest.raises(ValueError):
        dfm.cylinder_formula(1.0, 0.0)


def test_circle_laplacian_eigenvalues():
    vals = dfm.circle_laplacian_eigenvalues(2 * math.pi, 7)
    assert np.allclose(vals, [0, 1, 1, 4, 4, 9, 9])
    vals = dfm.circle_laplacian_eigenvalues(math.pi, 3)
    assert np.allclose(vals, [0, 4, 4])


def make_density_family(target_h=0.1):
    mesh = geometry.make_disk_mesh(1.0, target_h)
    sel = mesh.boundary_tags == geometry.STEKLOV
    mids = geometry.boundary_edge_midpoints(mesh)[sel]
    theta = np.arctan2(mids[:, 1], mids[:, 0])
    t = 0.4 * np.cos(theta)
    rho_bar = np.exp(t - t.min())
    return mesh, rho_bar, dfm.DensityFamily(mesh, rho_bar, 3)


def test_density_family_boundary_norm_is_target():
    mesh, rho_bar, fam = make_density_family()
    deformed = dfm.density_family_at(fam, 0.25)
    sel = mesh.boundary_tags == geometry.STEKLOV
    assert np.allclose(deformed.edge_density[sel], rho_bar)
    # weights exceed 1 near the boundary and relax to 1 deep inside
    assert deformed.tri_weight.max() > 1.0
    cen = geometry.triangle_coords(deformed).mean(axis=1)
    deep = np.hypot(cen[:, 0], cen[:, 1]) < 0.5
    assert np.allclose(deformed.tri_weight[deep], 1.0)


def test_density_family_converges_from_above():
    mesh, rho_bar, fam = make_density_family()
    sel = mesh.boundary_tags == geometry.STEKLOV
    dens = np.array(mesh.edge_density)
    dens[sel] = rho_bar
    limit = fem.steklov_spectrum(replace(mesh, edge_density=dens), 4).eigenvalues
    prev = None
    for j in (1, 2, 3, 4):
        res = fem.steklov_spectrum(
            dfm.density_family_at(fam, 2.0 ** -j), 4).eigenvalues
        assert np.all(res[1:] >= limit[1:] - 1e-10)
        err = np.max(np.abs(res[1:] - limit[1:]) / limit[1:])
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err
    assert prev < 0.05


def test_density_family_requires_domination():
    mesh = geometry.make_disk_mesh(1.0, 0.2)
    with pytest.raises(dfm.FamilyError):
        dfm.DensityFamily(mesh, 0.5)  # below the base density 1
    with pytest.raises(dfm.FamilyError):
        dfm.DensityFamily(mesh, 2.0, virtual_dim=2)


def _brute_force_nearest(points, pa, pb, period_x):
    """The nearest segment by an all-pairs argmin, and its distance."""
    dist = geometry.point_segment_distances(points[:, None], pa, pb)
    if period_x > 0:
        for shift in (-period_x, period_x):
            shifted = points.copy()
            shifted[:, 0] += shift
            dist = np.minimum(dist, geometry.point_segment_distances(shifted[:, None], pa, pb))
    nearest = np.argmin(dist, axis=1)
    return nearest, dist[np.arange(points.shape[0]), nearest]


def _brute_force_search(mesh):
    """DensityFamily.steklov_distance by an all-pairs argmin."""
    edges = mesh.boundary_edges[mesh.boundary_tags == geometry.STEKLOV]
    pa = mesh.vertices[edges[:, 0]].astype(float)
    pb = pa + geometry.edge_vector(mesh, edges[:, 0], edges[:, 1])
    cen = geometry.triangle_coords(mesh).mean(axis=1)
    return _brute_force_nearest(cen, pa, pb, mesh.period_x)


def _brute_force_weight(family, eps):
    """density_family_at's weight with the distance search done all-pairs."""
    mesh, n = family.mesh, family.virtual_dim
    sel = mesh.boundary_tags == geometry.STEKLOV
    factor = (family.rho_bar / mesh.edge_density[sel]) ** (1.0 / (n - 1))
    nearest, dmin = _brute_force_search(mesh)
    h = 1.0 + (factor[nearest] - 1.0) * np.clip(1.0 - dmin / eps, 0.0, 1.0)
    return mesh.tri_weight * h ** (n - 2)


def _periodic_strip_family():
    mesh = geometry.make_strip_mesh(2 * math.pi, 0.5, 0.1, periodic=True)
    sel = mesh.boundary_tags == geometry.STEKLOV
    x = geometry.boundary_edge_midpoints(mesh)[sel, 0]
    return dfm.DensityFamily(mesh, 1.0 + 0.5 * np.sin(x) ** 2, 4)


def _mixed_disk_family():
    mesh = geometry.tag_boundary(geometry.make_disk_mesh(1.0, 0.08),
                                 [((0.4, 3.9), geometry.STEKLOV),
                                  ((3.9, 0.4 + 2 * math.pi), geometry.NEUMANN)],
                                 by="angle", center=(0.0, 0.0))
    return dfm.DensityFamily(mesh, 1.5, 3)


@pytest.mark.parametrize("make_family", [
    lambda: make_density_family()[2],
    lambda: dfm.DensityFamily(geometry.make_annulus_mesh(0.5, 1.0, 0.08), 2.0, 3),
    _mixed_disk_family,
    _periodic_strip_family,
], ids=["disk", "annulus", "mixed-disk", "periodic-strip"])
def test_density_family_search_matches_brute_force(make_family):
    fam = make_family()
    nearest, dmin = fam.steklov_distance
    want_nearest, want_dmin = _brute_force_search(fam.mesh)
    assert np.array_equal(nearest, want_nearest)
    assert np.array_equal(dmin, want_dmin)
    for eps in (0.5, 0.1):
        got = dfm.density_family_at(fam, eps).tri_weight
        assert np.array_equal(got, _brute_force_weight(fam, eps))


@pytest.mark.parametrize("period_x", [0.0, 2.0], ids=["plane", "periodic"])
def test_nearest_segment_ties_go_to_lowest_index(period_x):
    # vertical segments at x = 0.5 and x = -0.5, the latter one period to the
    # right on a periodic strip, with a far one; the points lie on x = 0
    left = ([-0.5 + period_x, -0.5], [-0.5 + period_x, 0.5])
    right = ([0.5, -0.5], [0.5, 0.5])
    far = ([-3.0, 4.0], [3.0, 4.0])
    points = np.column_stack([np.zeros(9), np.linspace(-2.0, 2.0, 9)])
    for segs, want in (([left, right, far], 0), ([far, right, left], 1)):
        pa, pb = (np.array([s[k] for s in segs]) for k in (0, 1))
        nearest, dmin = dfm._nearest_segments(points, pa, pb, period_x)
        assert np.all(nearest == want)
        assert np.array_equal(dmin, _brute_force_nearest(points, pa, pb, period_x)[1])
        # a true tie: without the winner, its mirror image is as near
        rest = np.arange(3) != want
        assert np.array_equal(_brute_force_nearest(points, pa[rest], pb[rest], period_x)[1], dmin)


def test_density_family_searches_distances_once(monkeypatch):
    mesh, _, fam = make_density_family()
    calls = []
    search = geometry.point_segment_distances

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(geometry, "point_segment_distances", counted)
    first = dfm.density_family_at(fam, 0.5)
    assert calls
    n_first = len(calls)
    second = dfm.density_family_at(fam, 0.1)
    assert len(calls) == n_first
    assert np.array_equal(first.tri_weight, _brute_force_weight(fam, 0.5))
    assert np.array_equal(second.tri_weight, _brute_force_weight(fam, 0.1))
    assert second.edge_table is mesh.edge_table


def test_density_family_memory_bounded_on_fine_disk():
    import tracemalloc
    mesh = geometry.make_disk_mesh(1.0, 0.01)
    fam = dfm.DensityFamily(mesh, 2.0, 3)
    tracemalloc.start()
    try:
        dfm.density_family_at(fam, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unchunked (n_tri, n_edges, 2) temporary alone was 0.63 GB here
    assert peak < 200e6


def make_singular_family(target_h=0.1):
    mesh = geometry.make_disk_mesh(1.0, target_h)
    cen = geometry.triangle_coords(mesh).mean(axis=1)
    return mesh, dfm.SingularWeightFamily(mesh, cen[:, 1] > 0, 3)


def test_singular_family_weights():
    mesh, fam = make_singular_family()
    eta = 0.25
    weighted = dfm.singular_family_at(fam, eta)
    assert np.allclose(weighted.tri_weight[fam.in_subdomain], 1.0)
    assert np.allclose(weighted.tri_weight[~fam.in_subdomain], eta)  # n-2 = 1
    sel = mesh.boundary_tags == geometry.STEKLOV
    on_u = fam.steklov_edges_in_subdomain()
    dens = weighted.edge_density[sel]
    assert np.allclose(dens[on_u], 1.0)
    assert np.allclose(dens[~on_u], eta ** 2)  # n-1 = 2


def test_singular_family_converges_to_submesh_oracle():
    mesh, fam = make_singular_family(0.08)
    oracle = fem.steklov_spectrum(dfm.subdomain_limit_mesh(fam), 4).eigenvalues
    errs = []
    for j in (2, 4, 6):
        res = fem.steklov_spectrum(dfm.singular_family_at(fam, 2.0 ** -j), 4)
        errs.append(np.max(np.abs(res.eigenvalues[1:] - oracle[1:]) / oracle[1:]))
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.05


def test_singular_family_needs_boundary_contact():
    mesh = geometry.make_disk_mesh(1.0, 0.1)
    cen = geometry.triangle_coords(mesh).mean(axis=1)
    interior_only = np.hypot(cen[:, 0], cen[:, 1]) < 0.4
    with pytest.raises(dfm.FamilyError):
        dfm.SingularWeightFamily(mesh, interior_only, 3)


def _collar_config(**params):
    base = {"mode": "one-sided", "circle_length": 2 * math.pi, "widths": [0.2, 0.1],
            "n_eigs": 5}
    return harness.ExperimentConfig(kind="collar-sweep", name="collar", seed=0,
                                    params=dict(base, **params))


def test_collar_convergence_run():
    report = harness.run(_collar_config())
    first = [pt for pt in report.points if pt["eta"] == 0.2]
    assert np.allclose([pt["reference"] for pt in first], [0, 1, 1, 4, 4])
    errs = [max(pt["rel_err"] for pt in report.points if pt["eta"] == eta)
            for eta in (0.2, 0.1)]
    assert errs[1] < errs[0]
    assert errs[1] < 0.05
    assert report.passed
    with pytest.raises(harness.ConfigError):
        harness.run(_collar_config(widths=[0.1, 0.2]))
    with pytest.raises(harness.ConfigError):
        harness.run(_collar_config(widths=[0.1], elements_across=4))


def test_two_sided_cylinder_matches_formula():
    length = 2 * math.pi
    width = 0.5
    eta = 0.25
    mesh = geometry.make_strip_mesh(length, width, width / 10, periodic=True,
                                    top_tag=geometry.STEKLOV)
    res = fem.steklov_spectrum(mesh, 10)
    for k in (1, 2, 3):
        ref = dfm.cylinder_formula(float(k * k), eta)
        best = np.min(np.abs(res.eigenvalues - ref)) / ref
        assert best < 0.01
