"""Connected components against a python union-find oracle.

The oracle is slow and obviously correct: it attaches the larger root under
the smaller one, so every root is the lowest vertex of its component.
"""

import math

import numpy as np
import pytest

from steklov_lab import fem, geometry, graphs, nodal, thickening
from steklov_lab.geometry import NEUMANN, STEKLOV

# the dead zone of nodal.vertex_signs, copied so that the oracle stands alone
ZERO_TOL = 1e-7


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@pytest.mark.parametrize("seed", range(20))
def test_label_components_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    m = int(rng.integers(0, 2 * n + 1)) if n else 0
    a = rng.integers(0, max(n, 1), m)
    b = rng.integers(0, max(n, 1), m)
    uf = UnionFind(n)
    for i, j in zip(a.tolist(), b.tolist()):
        uf.union(i, j)
    roots = [uf.find(i) for i in range(n)]
    # components in order of their lowest vertex: the weld relies on this
    uniq, expected = np.unique(np.array(roots, np.int64), return_inverse=True)
    n_comp, labels = geometry.label_components(n, a, b)
    assert n_comp == uniq.size
    assert labels.tolist() == expected.tolist()


def _oracle_signs(field):
    scale = max(abs(v) for v in field)
    return [1 if v > ZERO_TOL * scale else -1 if v < -ZERO_TOL * scale else 0 for v in field]


def _oracle_partition(mesh, field):
    """Nodal domains as sets of (triangle, sign) pieces, by union-find."""
    signs = _oracle_signs(field.tolist())
    tris = mesh.triangles.tolist()
    pieces = [(t, s) for t, tri in enumerate(tris) for s in (1, -1)
              if s in (signs[v] for v in tri)]
    index = {p: i for i, p in enumerate(pieces)}
    edge_tris = {}
    for t, tri in enumerate(tris):
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            edge_tris.setdefault((min(a, b), max(a, b)), []).append(t)
    uf = UnionFind(len(pieces))
    for (a, b), ts in edge_tris.items():
        if len(ts) == 2:
            for s in (1, -1):
                if s in (signs[a], signs[b]):
                    uf.union(index[(ts[0], s)], index[(ts[1], s)])
    groups = {}
    for p, i in index.items():
        groups.setdefault(uf.find(i), set()).add(p)
    return {frozenset(g) for g in groups.values()}


def _oracle_touch(mesh, field):
    """Whether every domain of the piece oracle holds a piece whose triangle
    has a vertex of its sign on a steklov edge."""
    signs = _oracle_signs(field.tolist())
    steklov = set(mesh.boundary_edges[mesh.boundary_tags == STEKLOV].ravel().tolist())
    tris = mesh.triangles.tolist()
    return all(any(v in steklov and signs[v] == s for t, s in domain for v in tris[t])
               for domain in _oracle_partition(mesh, field))


def _partition(mesh, field, decomp, r):
    """Row r of a decomposition, that of field, as sets of (triangle, sign)
    pieces: a triangle's s-piece lies in the domain of its s-vertices."""
    signs, domain = nodal.vertex_signs(field), decomp.vertex_domain[r]
    assert np.array_equal(domain < 0, signs == 0)
    groups = {}
    for t, tri in enumerate(mesh.triangles.tolist()):
        for sign in (1, -1):
            ids = {int(domain[v]) for v in tri if signs[v] == sign}
            if ids:
                assert len(ids) == 1, (t, sign)
                groups.setdefault(ids.pop(), set()).add((t, sign))
    assert sorted(groups) == list(range(decomp.n_domains[r]))
    return {frozenset(g) for g in groups.values()}


def _mixed_disk(h):
    cut = 0.3 + 1.2 * math.pi
    arcs = [((0.3, cut), STEKLOV), ((cut, 0.3 + 2 * math.pi), NEUMANN)]
    return geometry.tag_boundary(geometry.make_disk_mesh(1.0, h), arcs,
                                 by="angle", center=(0.0, 0.0))


def _five_cycle(eps):
    cycle = np.array([[i, (i + 1) % 5] for i in range(5)])
    g = graphs.MetricGraph(5, cycle, np.array([1.0, 0.9, 1.1, 1.0, 1.0]))
    emb = thickening.embed_graph(g, "convex-boundary", 2.0)
    return thickening.build_thickened_mesh(emb, eps, 2.0, target_h=eps / 2)


@pytest.mark.parametrize("make_mesh", [
    lambda: geometry.make_disk_mesh(1.0, 0.12),
    lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.12),
    lambda: _mixed_disk(0.12),
    lambda: geometry.make_strip_mesh(2 * math.pi, 0.5, 0.12, periodic=True),
    lambda: _five_cycle(0.02),
], ids=["disk", "annulus", "mixed-disk", "periodic-strip", "five-cycle"])
def test_decompose_nodal_matches_union_find(make_mesh):
    mesh = make_mesh()
    res = fem.steklov_spectrum(mesh, 7)
    rng = np.random.default_rng(3)
    fields = list(res.extensions)
    for a, b in res.clusters:
        if b - a > 1:  # random rotations inside a multiple eigenvalue
            for _ in range(3):
                coef = rng.normal(size=b - a)
                fields.append(coef / np.linalg.norm(coef) @ res.extensions[a:b])
    # rounded to a few levels: whole vertices, edges and triangles in the dead zone
    rounded = np.round(2 * res.extensions[3] / np.abs(res.extensions[3]).max())
    dead = _oracle_signs(rounded.tolist())
    assert 0 in dead and -1 in dead and 1 in dead
    assert any(all(dead[v] == 0 for v in tri) for tri in mesh.triangles.tolist())
    # a small negative blob around the vertex farthest from the boundary:
    # a domain that does not reach the steklov boundary
    bverts = mesh.vertices[np.unique(mesh.boundary_edges)]
    gap = np.linalg.norm(mesh.vertices[:, None] - bverts, axis=2).min(axis=1)
    dist = np.linalg.norm(mesh.vertices - mesh.vertices[np.argmax(gap)], axis=1)
    fields += [rounded, dist - gap.max() / 2]
    stack = nodal.decompose_nodal(mesh, np.array(fields))
    touch = nodal.boundary_touch_check(mesh, stack)
    for r, field in enumerate(fields):
        oracle = _oracle_partition(mesh, field)
        alone = nodal.decompose_nodal(mesh, field)
        assert _partition(mesh, field, alone, 0) == oracle
        assert _partition(mesh, field, stack, r) == oracle
        assert nodal.boundary_touch_check(mesh, alone).tolist() == [_oracle_touch(mesh, field)]
        assert bool(touch[r]) == _oracle_touch(mesh, field)
    assert not touch[-1]
