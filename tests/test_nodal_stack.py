"""Stacks of fields through the nodal layer against one field at a time.

Every nodal entry point takes an (m, nv) stack and decomposes or graphs all
rows together; decompose_nodal gives one record for the whole stack.  Each row
must come out exactly as the same field does alone: its signs, vertex domains
and domain count, the boundary-touch verdict, the zero-set graph and its two
verdicts.
The audit points of a nodal audit are also compared with the per-field loop
that the stack replaced.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from steklov_lab import fem, geometry, harness, nodal
from steklov_lab.geometry import NEUMANN, STEKLOV


def _mixed_disk(h):
    arcs = [((0.0, math.pi), STEKLOV), ((math.pi, 2 * math.pi), NEUMANN)]
    return geometry.tag_boundary(geometry.make_disk_mesh(1.0, h), arcs,
                                 by="angle", center=(0.0, 0.0))


MESHES = {
    "disk": lambda: geometry.make_disk_mesh(1.0, 0.12),
    "annulus": lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.12),
    "mixed-disk": lambda: _mixed_disk(0.12),
}


def _stack(mesh):
    """Eigenfunctions, rotations inside multiple clusters and one field with a
    dead zone: more than one block of rows, the last block partial."""
    res = fem.steklov_spectrum(mesh, 7)
    rng = np.random.default_rng(5)
    fields = list(res.extensions[1:])
    for _ in range(6):
        coef = rng.normal(size=3)
        fields.append(coef / np.linalg.norm(coef) @ res.extensions[1:4])
    # rounded to a few levels: whole vertices, edges and triangles in the dead zone
    fields.append(np.round(3 * res.extensions[2] / np.abs(res.extensions[2]).max()))
    return np.array(fields)


def _row(decomp, r):
    """Row r of a decomposition, read from the record's arrays."""
    return {"vertex_domain": decomp.vertex_domain[r], "n_domains": decomp.n_domains[r]}


def _same_row(mesh, decomp, r, field):
    """Row r of decomp against field decomposed alone, a stack of one."""
    alone = nodal.decompose_nodal(mesh, field)
    assert len(alone.vertex_domain) == 1
    got, want = _row(decomp, r), _row(alone, 0)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("name", sorted(MESHES))
def test_stack_rows_match_single_fields(name):
    mesh = MESHES[name]()
    fields = _stack(mesh)
    assert len(fields) > nodal._BLOCK_ROWS and len(fields) % nodal._BLOCK_ROWS
    assert np.any(nodal.vertex_signs(fields[-1]) == 0)

    decomp = nodal.decompose_nodal(mesh, fields)
    assert decomp.n_domains.size == len(decomp.vertex_domain) == len(fields)
    for r, field in enumerate(fields):
        _same_row(mesh, decomp, r, field)

    touch = nodal.boundary_touch_check(mesh, decomp)
    assert touch.shape == (len(fields),)
    assert np.array_equal(touch, np.concatenate(
        [nodal.boundary_touch_check(mesh, nodal.decompose_nodal(mesh, f)) for f in fields]))

    alone = [nodal.nodal_graph_stats(mesh, f) for f in fields]
    for got, want in zip(nodal.nodal_graph_stats(mesh, fields), zip(*alone)):
        assert got.shape == (len(fields),)
        assert np.array_equal(got, np.concatenate(want))

    graph = nodal.nodal_graph(mesh, fields)
    nodes, _ = nodal._zero_set(mesh, fields)
    n_keys = mesh.n_vertices + len(mesh.edge_table.edges)
    row = nodes // n_keys
    for r, field in enumerate(fields):
        alone = nodal.nodal_graph(mesh, field)
        mine = np.nonzero(row == r)[0]
        assert np.array_equal(nodes[mine] - r * n_keys, nodal._zero_set(mesh, field[None])[0])
        assert np.array_equal(graph.positions[mine], alone.positions)
        segs = graph.segments[row[graph.segments[:, 0]] == r]
        assert np.array_equal(segs - mine[0] if mine.size else segs, alone.segments)


def test_flagged_rows_stay_in_their_row():
    """A closed nodal circle and a domain off the steklov arc, between good
    eigenfunction rows, flag only their own rows."""
    mesh = _mixed_disk(0.06)
    res = fem.steklov_spectrum(mesh, 5)
    x, y = mesh.vertices.T
    circle = 0.5 - np.hypot(x, y)   # cycle rank 1, inner disk off the boundary
    cap = -y - 0.5                  # a cap on the neumann arc only: no cycle
    fields = np.array([res.extensions[1], res.extensions[2], circle,
                       res.extensions[3], cap, res.extensions[4]])
    touch = nodal.boundary_touch_check(mesh, nodal.decompose_nodal(mesh, fields))
    cycle_rank, all_even = nodal.nodal_graph_stats(mesh, fields)
    assert np.nonzero(~touch)[0].tolist() == [2, 4]
    assert cycle_rank.tolist() == [0, 0, 1, 0, 0, 0]
    assert all_even.all()


def _per_field_courant(mesh, res, n_rotations, seed):
    """The Courant records one field at a time, as before the stack."""
    rng = np.random.default_rng(seed)
    courant = []
    for a, b in res.clusters:
        vectors = [res.extensions[j] for j in range(a, b)]
        if b - a > 1:
            for _ in range(n_rotations):
                coef = rng.normal(size=b - a)
                coef /= np.linalg.norm(coef)
                vectors.append(coef @ res.extensions[a:b])
        worst = max(int(nodal.decompose_nodal(mesh, v).n_domains[0]) for v in vectors)
        courant.append({"cluster": [int(a), int(b)], "k": int(b - 1), "bound": int(b),
                        "max_domains": int(worst), "ok": worst <= b})
    return courant


def test_courant_check_matches_per_field_loop():
    """Random smooth fields in two multiple clusters, whose rotations have
    domain counts that vary from draw to draw: every rotation must count for
    its own cluster."""
    mesh = geometry.make_disk_mesh(1.0, 0.12)
    x, y = mesh.vertices.T
    rng = np.random.default_rng(0)
    waves = [np.cos(rng.uniform(2, 6) * (x * np.cos(a) + y * np.sin(a)) + rng.uniform(0, 6))
             for a in rng.uniform(0, np.pi, 5)]
    res = SimpleNamespace(extensions=np.array([np.ones(mesh.n_vertices)] + waves),
                          clusters=[(0, 1), (1, 4), (4, 6)])
    maxima = set()
    for seed in range(12):
        records, decomps = nodal.courant_check(mesh, res, n_rotations=3, seed=seed)
        assert records == _per_field_courant(mesh, res, 3, seed)
        assert decomps.n_domains.tolist() == [
            nodal.decompose_nodal(mesh, f).n_domains[0] for f in res.extensions]
        maxima.add(tuple(r["max_domains"] for r in records))
    assert len(maxima) > 1


def test_courant_check_keeps_only_the_eigenvector_rows():
    """The rotations of a multiple cluster are decomposed after the
    eigenvectors; the record returned holds the eigenvectors' rows alone, as
    copies, each equal to its field decomposed alone."""
    mesh = geometry.make_disk_mesh(1.0, 0.12)
    res = fem.steklov_spectrum(mesh, 7)
    assert sum(b - a > 1 for a, b in res.clusters) >= 2
    records, decomp = nodal.courant_check(mesh, res, n_rotations=20, seed=3)
    n = len(res.extensions)
    assert decomp.n_domains.size == len(decomp.vertex_domain) == n
    assert decomp.vertex_domain.shape == (n, mesh.n_vertices)
    assert decomp.domain_start[0] == 0
    assert decomp.domain_start[-1] == (decomp.vertex_domain.max(axis=1) + 1).sum()
    for r, field in enumerate(res.extensions):
        _same_row(mesh, decomp, r, field)
    # no array is a view that would keep the rotation rows alive
    for field in dataclasses.fields(decomp):
        assert getattr(decomp, field.name).base is None, field.name


def _per_field_measure(mesh, res, params, seed):
    """The nodal measurements one field at a time, as before the stack."""
    courant = _per_field_courant(mesh, res, int(params.get("n_rotations", 20)), seed)
    modes = res.extensions[1:]
    touches = [nodal.boundary_touch_check(mesh, nodal.decompose_nodal(mesh, f)) for f in modes]
    stats = [nodal.nodal_graph_stats(mesh, f) for f in modes]
    return {"courant": courant,
            "courant_ok": all(r["ok"] for r in courant),
            "touch_ok": all(bool(t[0]) for t in touches),
            "cycle_rank_ok": all(rank[0] == 0 for rank, _ in stats),
            "parity_ok": all(bool(even[0]) for _, even in stats)}


@pytest.mark.parametrize("seed, runs", [(21, 41), (22, 28)])
def test_audit_points_match_per_field_loop(seed, runs, monkeypatch):
    params = {"domains": ["disk", "annulus", "mixed-disk"], "radius": 1.0,
              "r_inner": 0.5, "r_outer": 1.0, "target_h": 0.08, "runs": runs,
              "k_max": 6, "n_rotations": 20}
    config = harness.ExperimentConfig(kind="nodal-audit", name="stack", seed=seed,
                                      params=params)
    stacked = harness.run(config).points
    # rows in a Courant stack: 7 eigenfunctions and 20 per multiple cluster
    rows = {7 + 20 * sum(b - a > 1 for a, b in pt["clusters"]) for pt in stacked}
    assert max(rows) >= 27
    entry = harness._REGISTRY["nodal-audit"]
    monkeypatch.setitem(harness._REGISTRY, "nodal-audit",
                        entry._replace(measure=_per_field_measure))
    assert harness.run(config).points == stacked
    assert all("error" not in pt for pt in stacked)
