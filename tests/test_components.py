"""Connected components against a python union-find oracle.

The oracle is slow and obviously correct: it attaches the larger root under
the smaller one, so every root is the lowest vertex of its component.
"""

import math

import numpy as np
import pytest

from steklov_lab import fem, geometry, nodal
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


def _partition(decomp, r):
    """Row r of a decomposition as sets of (triangle, sign) pieces."""
    domain = decomp.piece_domain[decomp.piece_start[r]:decomp.piece_start[r + 1]]
    groups = {}
    for sign, piece in ((1, decomp.piece_pos[r]), (-1, decomp.piece_neg[r])):
        for t in np.nonzero(piece >= 0)[0].tolist():
            groups.setdefault(int(domain[piece[t]]), set()).add((t, sign))
    assert sorted(groups) == list(range(decomp.n_domains[r]))
    return {frozenset(g) for g in groups.values()}


def _mixed_disk(h):
    cut = 0.3 + 1.2 * math.pi
    arcs = [((0.3, cut), STEKLOV), ((cut, 0.3 + 2 * math.pi), NEUMANN)]
    return geometry.tag_boundary(geometry.make_disk_mesh(1.0, h), arcs,
                                 by="angle", center=(0.0, 0.0))


@pytest.mark.parametrize("make_mesh", [
    lambda: geometry.make_disk_mesh(1.0, 0.12),
    lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.12),
    lambda: _mixed_disk(0.12),
], ids=["disk", "annulus", "mixed-disk"])
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
    stack = nodal.decompose_nodal(mesh, np.array(fields))
    for r, field in enumerate(fields):
        oracle = _oracle_partition(mesh, field)
        assert _partition(nodal.decompose_nodal(mesh, field), 0) == oracle
        assert _partition(stack, r) == oracle
