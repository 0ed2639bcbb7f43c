import math

import numpy as np
import pytest

from steklov_lab import fem, geometry, nodal
from steklov_lab.geometry import NEUMANN, STEKLOV


def disk(h=0.08):
    return geometry.make_disk_mesh(1.0, h)


def test_signs_and_zero_tolerance():
    f = np.array([1.0, -1.0, 1e-9, 0.5])
    signs = nodal.vertex_signs(f)
    assert list(signs) == [1, -1, 0, 1]
    with pytest.raises(nodal.NodalError):
        nodal.vertex_signs(np.zeros(3))


def test_linear_field_two_domains():
    mesh = disk()
    d = nodal.decompose_nodal(mesh, mesh.vertices[:, 0])
    assert d.n_domains.tolist() == [2]
    # one positive and one negative domain
    signs = nodal.vertex_signs(mesh.vertices[:, 0])
    pos = np.unique(d.vertex_domain[0, signs == 1])
    neg = np.unique(d.vertex_domain[0, signs == -1])
    assert pos.size == neg.size == 1 and pos[0] != neg[0]


def test_constant_field_one_domain():
    mesh = disk()
    d = nodal.decompose_nodal(mesh, np.ones(mesh.n_vertices))
    assert d.n_domains.tolist() == [1]


def test_quadrant_field_four_domains():
    mesh = disk()
    xy = mesh.vertices[:, 0] * mesh.vertices[:, 1]
    d = nodal.decompose_nodal(mesh, xy)
    assert d.n_domains.tolist() == [4]


def test_courant_on_disk_spectrum():
    mesh = disk()
    res = fem.steklov_spectrum(mesh, 7)
    records, decomps = nodal.courant_check(mesh, res, n_rotations=10, seed=0)
    assert all(r["ok"] for r in records)
    # the constant eigenfunction has exactly one domain
    assert records[0]["max_domains"] == 1
    # one decomposition per eigenfunction, in order
    assert decomps.n_domains.tolist() == [
        nodal.decompose_nodal(mesh, f).n_domains[0] for f in res.extensions]


def test_boundary_touch_on_mixed_disk():
    mesh = disk()
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), NEUMANN)]
    mesh = geometry.tag_boundary(mesh, arcs, by="angle", center=(0.0, 0.0))
    res = fem.steklov_spectrum(mesh, 5)
    for k in range(1, 5):
        d = nodal.decompose_nodal(mesh, res.extensions[k])
        assert nodal.boundary_touch_check(mesh, d).tolist() == [True]


def test_boundary_touch_detects_interior_domain():
    mesh = disk()
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    bump = 0.5 - r  # positive inner disk, negative collar: inner domain is trapped
    d = nodal.decompose_nodal(mesh, bump)
    assert d.n_domains.tolist() == [2]
    assert nodal.boundary_touch_check(mesh, d).tolist() == [False]


def test_nodal_graph_stats_diameter_line():
    mesh = disk()
    # a single field is a stack of one: arrays of one verdict
    cycle_rank, all_even = nodal.nodal_graph_stats(mesh, mesh.vertices[:, 0])
    assert cycle_rank.tolist() == [0]
    assert all_even.tolist() == [True]


def test_nodal_graph_stats_closed_circle_has_cycle():
    mesh = disk(0.06)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    cycle_rank, all_even = nodal.nodal_graph_stats(mesh, 0.5 - r)
    assert cycle_rank.tolist() == [1]
    assert all_even.tolist() == [True]


def test_multiplicity_bounds_rules():
    plain = disk(0.3)
    assert nodal.multiplicity_bounds(plain, [1, 2, 3]) == [
        {"bound": 2, "rule": "disk-low"}, {"bound": 3, "rule": "disk-low"},
        {"bound": 7, "rule": "orientable"}]
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), NEUMANN)]
    mixed = geometry.tag_boundary(plain, arcs, by="angle", center=(0.0, 0.0))
    assert nodal.multiplicity_bounds(mixed, [2, 4]) == [
        {"bound": 3, "rule": "mixed-disk"}, {"bound": 5, "rule": "mixed-disk"}]
    # two boundary curves: the orientable bound, also for k = 1 and when mixed
    annulus = geometry.make_annulus_mesh(0.5, 1.0, 0.2)
    assert nodal.multiplicity_bounds(annulus, [1]) == [{"bound": 3, "rule": "orientable"}]
    strip = geometry.make_strip_mesh(2 * math.pi, 0.5, 0.2, periodic=True)
    assert nodal.multiplicity_bounds(strip, [1]) == [{"bound": 3, "rule": "orientable"}]
    with pytest.raises(nodal.NodalError):
        nodal.multiplicity_bounds(plain, [0])


def test_multiplicity_check_on_disk():
    mesh = disk(0.05)
    res = fem.steklov_spectrum(mesh, 5)
    records = nodal.multiplicity_bound_check(mesh, res)
    assert all(r["ok"] for r in records)
    assert records[0]["multiplicity"] == 2


def test_svg_and_report_emission(tmp_path):
    mesh = disk(0.15)
    res = fem.steklov_spectrum(mesh, 3)
    svg_path = tmp_path / "mode.svg"
    nodal.save_nodal_svg(mesh, res.extensions[1], str(svg_path))
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text


def test_periodic_mesh_decomposition():
    mesh = geometry.make_strip_mesh(2 * math.pi, 0.5, 0.1, periodic=True)
    f = np.cos(mesh.vertices[:, 0])
    d = nodal.decompose_nodal(mesh, f)
    assert d.n_domains.tolist() == [2]  # one positive, one negative band around the cylinder
