"""Solve-stage benchmark of ``fem.steklov_spectrum``, the nodal layer of an
audit point, the nearest-edge search of ``deformations.DensityFamily``, the
artifact writers, the shipped configs and the graph prescriber.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_pipeline.py --label change

It records, with one BLAS thread:

- the unit disk at h = 0.05, 0.02 and 0.01, 7 eigenpairs: the median
  whole-solve time on a mesh that has not been solved yet (its edge table
  built, its stiffness matrix not), the median time of a repeated solve of one
  mesh, the ARPACK operator applications of a solve and the LU fill;
- the two solve paths of ``fem.steklov_spectrum``, each forced through
  ``fem._DENSE_BOUNDARY``, on the unit disk at h = 0.08, 0.06 and 0.05 (79,
  105 and 126 boundary vertices) and the 0.5-1 annulus at h = 0.08 (158), 7
  eigenpairs: the median time of a solve on a mesh that has not been solved
  yet, the paths alternating after one warm-up round.  These are the figures
  behind the bound of 100 free boundary vertices;
- the re-weighted steps of perfbench's family_sweep, seeded as there
  (seed 11): a density sweep (7 steps, 6 eigenpairs) and a subdomain sweep
  (8 steps, 5 eigenpairs) on the unit disk at h = 0.02, each pass building
  its families anew and solving the limit mesh before the steps, as
  ``harness._family_sweep`` does: the median over 5 passes of each step's
  solve time and of the stiffness assembly inside it, the assemblies per
  pass, and the median first solve (6 eigenpairs, as a graph-limit run
  solves it) of the thickened 5-cycle of unit edges at eps = 0.005;
- the 90 meshes of a seed-1 nodal audit (disk, annulus and mixed disk at
  h = 0.08, random steklov densities, 7 eigenpairs), built as
  ``harness._audit_point`` builds them: the median over the meshes of each
  mesh's median solve time over the passes after the first, in all and for
  the meshes of each solve path, the median pass time, the operator
  applications and LU fill, and how many times the stiffness matrix was
  assembled in the first pass and in each later one;
- the nodal layer of an audit point on the same 90 meshes, each solved once
  with its audit seed: the median over the points of each point's median
  time, over 5 passes after a warm-up, of ``nodal.courant_check`` (20
  rotations per multiple cluster), ``nodal.boundary_touch_check`` of the
  modes 1..6 and ``nodal.nodal_graph_stats`` of the same modes, as
  ``harness._measure_nodal`` calls them, and the largest ``tracemalloc`` peak
  of one ``courant_check`` call over the points;
- the nearest-steklov-edge search ``DensityFamily.steklov_distance`` on the
  unit disk at h = 0.05, 0.02 and 0.01 and on the periodic 2*pi x 0.5 strip
  at h = 0.02: the median time of a search by a new family, and the
  ``tracemalloc`` peak of one more search, traced apart from the timed ones;
- the artifact writers ``geometry.save_mesh`` and ``nodal.save_nodal_svg`` on
  the thickened 5-cycle of unit edges at eps = 0.005 (the finest mesh of a
  graph-limit sweep) and on the unit disk at h = 0.01, the figure drawing the
  field x: the median time of a write after one warm-up, and the
  ``tracemalloc`` peak of one more write;
- each of the shipped configs in ``configs/`` through ``harness.run``, with
  no files written: the times of 3 runs after one warm-up, their median and
  the report hash, and the sum of the medians.  These runs come before the
  counters below are installed;
- ``configs/06-prescriber-audit.json`` through ``harness.run``, once more
  after its timed runs above: the eigendecompositions of
  ``graphs.prescribe_spectrum`` (``graphs.eigenvalues_and_weight_jacobian``
  calls), in all and the most in one fit.

An operator application is a one-vector LU solve, and a solve on the
boundary Schur complement makes none; the block solves, which extend the
eigenvectors or build a mesh's Schur complement, are counted apart.  The
counters wrap ``fem._factor`` and ``fem.assemble_stiffness`` for the whole
run, which adds a Python call per LU solve, and time each assembly.  The result is merged under ``--label`` into the
JSON file given by ``--out``, so that runs of two checkouts, each with its own
``PYTHONPATH``, land side by side.  Each run records the commit of the
measured package and ``tree_clean``: whether its checkout had no change but
to the ``--out`` file.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from steklov_lab import (deformations, fem, geometry, graphs, harness, nodal,  # noqa: E402
                         thickening)

DISK_H = (0.05, 0.02, 0.01)
DISK_REPEATS = {0.05: 7, 0.02: 5, 0.01: 3}
N_EIGS = 7
AUDIT_PARAMS = {"domains": ["disk", "annulus", "mixed-disk"], "radius": 1.0,
                "r_inner": 0.5, "r_outer": 1.0, "target_h": 0.08}
AUDIT_SEED = 1
AUDIT_RUNS = 90
AUDIT_PASSES = 5
NODAL_PASSES = 5
NODAL_ROTATIONS = 20
STRIP = (2 * np.pi, 0.5, 0.02)  # periodic strip: length, height, target_h
ARTIFACT_EPS = 0.005
ARTIFACT_REPEATS = 5
CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")
CONFIG_RUNS = 3
PRESCRIBER_CONFIG = os.path.join(CONFIG_DIR, "06-prescriber-audit.json")
PATH_MESHES = (("disk h=0.08", lambda: geometry.make_disk_mesh(1.0, 0.08)),
               ("disk h=0.06", lambda: geometry.make_disk_mesh(1.0, 0.06)),
               ("disk h=0.05", lambda: geometry.make_disk_mesh(1.0, 0.05)),
               ("annulus h=0.08", lambda: geometry.make_annulus_mesh(0.5, 1.0, 0.08)))
PATH_REPEATS = 7
REWEIGHTED_SEED = 11
REWEIGHTED_H = 0.02
REWEIGHTED_PASSES = 5


class Counters:
    """Counts LU solves and stiffness assemblies through the fem module."""

    def __init__(self):
        self.op = self.block = self.assemblies = 0
        self.assembly_s = 0.0
        self.lu_nnz = 0
        factor, assemble = fem._factor, fem.assemble_stiffness
        counters = self

        class CountingLU:
            def __init__(self, lu):
                self.lu = lu
                counters.lu_nnz = lu.L.nnz + lu.U.nnz

            def solve(self, rhs, *args):
                if np.ndim(rhs) == 1:
                    counters.op += 1
                else:
                    counters.block += 1
                return self.lu.solve(rhs, *args)

        def counted_assemble(mesh):
            counters.assemblies += 1
            t0 = time.perf_counter()
            K = assemble(mesh)
            counters.assembly_s += time.perf_counter() - t0
            return K

        fem._factor = lambda A: CountingLU(factor(A))
        fem.assemble_stiffness = counted_assemble

    def solve(self, mesh):
        """One timed solve: (seconds, operator applications, block solves)."""
        op, block = self.op, self.block
        t0 = time.perf_counter()
        fem.steklov_spectrum(mesh, N_EIGS)
        return time.perf_counter() - t0, self.op - op, self.block - block


def unsolved_copy(mesh):
    """The same mesh as a new instance that hands over only the edge table,
    as geometry.replace_mesh would: not the geometry holder (scatter plan,
    connectivity labels, cluster tolerance) nor the stiffness holder (K, the
    boundary Schur complement), so a solve of it is a first solve."""
    out = dataclasses.replace(mesh)
    out.__dict__["edge_table"] = mesh.edge_table
    return out


def bench_disk(counters, h):
    mesh = geometry.make_disk_mesh(1.0, h)
    counters.solve(unsolved_copy(mesh))  # warm-up
    cold, ops, blocks = [], set(), set()
    for _ in range(DISK_REPEATS[h]):
        dt, op, block = counters.solve(unsolved_copy(mesh))
        cold.append(dt)
        ops.add(op)
        blocks.add(block)
    warm = [counters.solve(mesh)[0] for _ in range(DISK_REPEATS[h])]
    return {"h": h, "nv": int(mesh.n_vertices),
            "ns": int(geometry.tagged_vertices(mesh, geometry.STEKLOV).size),
            "lu_nnz": counters.lu_nnz, "op_applications": sorted(ops),
            "block_solves": sorted(blocks),
            "solve_ms_median": 1e3 * statistics.median(cold),
            "repeat_solve_ms_median": 1e3 * statistics.median(warm),
            "repeats": DISK_REPEATS[h]}


def reweighted_steps(seed):
    """(name, n_eigs, limit, [step meshes]) of the density and subdomain
    sweeps of perfbench's family_sweep at this seed, built as harness builds
    them; each call makes new families."""
    disk = geometry.make_disk_mesh(1.0, REWEIGHTED_H)
    rho = harness._apply_random_density(disk, np.random.default_rng(seed))[0].edge_density
    rho_bar = rho / rho.min()
    density = deformations.DensityFamily(disk, rho_bar, 3)
    disk = geometry.make_disk_mesh(1.0, REWEIGHTED_H)  # each sweep builds its own disk
    cen = geometry.triangle_coords(disk).mean(axis=1)
    subdomain = deformations.SingularWeightFamily(disk, cen[:, 1] > 0.0, 3)
    return [("density", 6, geometry.replace_mesh(density.mesh, edge_density=rho_bar),
             [deformations.density_family_at(density, 2.0 ** -j) for j in range(1, 8)]),
            ("subdomain", 5, deformations.subdomain_limit_mesh(subdomain),
             [deformations.singular_family_at(subdomain, 2.0 ** -j) for j in range(1, 9)])]


def bench_reweighted(counters):
    sweeps = {}
    for p in range(REWEIGHTED_PASSES + 1):  # the first pass is a warm-up
        for name, n_eigs, limit, steps in reweighted_steps(REWEIGHTED_SEED):
            record = sweeps.setdefault(name, {"solve": [], "assembly": [], "assemblies": []})
            before = counters.assemblies
            fem.steklov_spectrum(limit, n_eigs)
            solve, assembly = [], []
            for mesh in steps:
                assembled = counters.assembly_s
                t0 = time.perf_counter()
                fem.steklov_spectrum(mesh, n_eigs)
                solve.append(time.perf_counter() - t0)
                assembly.append(counters.assembly_s - assembled)
            if p:
                record["solve"].append(solve)
                record["assembly"].append(assembly)
                record["assemblies"].append(counters.assemblies - before)
    out = {"seed": REWEIGHTED_SEED, "h": REWEIGHTED_H, "passes": REWEIGHTED_PASSES}
    for name, record in sweeps.items():
        solve, assembly = np.array(record["solve"]), np.array(record["assembly"])
        out[name] = {"step_solve_ms_median": (1e3 * np.median(solve, axis=0)).tolist(),
                     "step_assembly_ms_median": (1e3 * np.median(assembly, axis=0)).tolist(),
                     "pass_solve_ms_median": 1e3 * float(np.median(solve.sum(axis=1))),
                     "assemblies_per_pass": record["assemblies"]}
    cycle = graphs.MetricGraph(5, [[i, (i + 1) % 5] for i in range(5)], np.ones(5))
    thick = thickening.build_thickened_mesh(thickening.embed_graph(cycle, "convex-boundary", 2.0),
                                            ARTIFACT_EPS, 2.0, target_h=0.25 * ARTIFACT_EPS)
    fem.steklov_spectrum(unsolved_copy(thick), 6)  # warm-up
    first = []
    for _ in range(REWEIGHTED_PASSES):
        copy = unsolved_copy(thick)
        t0 = time.perf_counter()
        fem.steklov_spectrum(copy, 6)
        first.append(time.perf_counter() - t0)
    out["thickened_first_solve"] = {"eps": ARTIFACT_EPS, "nv": int(thick.n_vertices),
                                    "triangles": int(thick.n_triangles),
                                    "solve_ms_median": 1e3 * statistics.median(first),
                                    "repeats": REWEIGHTED_PASSES}
    return out


def free_boundary_size(mesh):
    """The boundary vertices that fem.steklov_spectrum counts to choose its
    path: all of them, as no mesh here has a dirichlet edge."""
    return int(np.unique(mesh.boundary_edges).size)


def bench_solve_paths():
    """A solve on a new mesh instance by each path, the path forced through
    the module bound fem._DENSE_BOUNDARY, which is restored afterwards."""
    bound = fem._DENSE_BOUNDARY
    out = []
    try:
        for name, build in PATH_MESHES:
            mesh = build()
            times = {"dense": [], "arpack": []}
            for r in range(PATH_REPEATS + 1):  # round 0 is a warm-up
                for path in (("dense", "arpack") if r % 2 == 0 else ("arpack", "dense")):
                    fem._DENSE_BOUNDARY = mesh.n_vertices if path == "dense" else -1
                    copy = unsolved_copy(mesh)
                    t0 = time.perf_counter()
                    fem.steklov_spectrum(copy, N_EIGS)
                    if r:
                        times[path].append(time.perf_counter() - t0)
            out.append({"mesh": name, "free_boundary": free_boundary_size(mesh),
                        "dense_ms_median": 1e3 * statistics.median(times["dense"]),
                        "arpack_ms_median": 1e3 * statistics.median(times["arpack"]),
                        "repeats": PATH_REPEATS})
    finally:
        fem._DENSE_BOUNDARY = bound
    return out


def audit_meshes():
    meshes = []
    for i in range(AUDIT_RUNS):
        rng = np.random.default_rng(AUDIT_SEED + 1000 * i)
        params = dict(AUDIT_PARAMS, domain=AUDIT_PARAMS["domains"][i % 3])
        mesh, _ = harness._apply_random_density(harness._make_domain(params, rng), rng)
        meshes.append(mesh)
    return meshes


def bench_audit(counters):
    meshes = audit_meshes()
    times = np.zeros((AUDIT_PASSES, len(meshes)))
    ops, nnz, assemblies = [], [], []
    for p in range(AUDIT_PASSES):
        before = counters.assemblies
        for j, mesh in enumerate(meshes):
            times[p, j], op, _ = counters.solve(mesh)
            if p == 0:
                ops.append(op)
                nnz.append(counters.lu_nnz)
        assemblies.append(counters.assemblies - before)
    later = times[1:]
    per_mesh = np.median(later, axis=0)
    dense = np.array([free_boundary_size(m) <= fem._DENSE_BOUNDARY for m in meshes])
    return {"seed": AUDIT_SEED, "meshes": len(meshes), "passes": AUDIT_PASSES,
            "solve_ms_median": 1e3 * float(np.median(per_mesh)),
            "solve_ms_median_by_path": {
                "dense": {"meshes": int(dense.sum()),
                          "ms": 1e3 * float(np.median(per_mesh[dense]))},
                "arpack": {"meshes": int((~dense).sum()),
                           "ms": 1e3 * float(np.median(per_mesh[~dense]))}},
            "pass_ms_median": 1e3 * float(np.median(later.sum(axis=1))),
            "first_pass_ms": 1e3 * float(times[0].sum()),
            "op_applications": {"min": min(ops), "median": statistics.median(ops),
                                "max": max(ops), "total": sum(ops)},
            "lu_nnz_median": statistics.median(nnz),
            "stiffness_assemblies_per_pass": assemblies}


def bench_nodal():
    """The nodal layer of an audit point on the audit meshes, each solved once."""
    points = []
    for i, mesh in enumerate(audit_meshes()):
        res = fem.steklov_spectrum(mesh, N_EIGS)
        points.append((mesh, res, AUDIT_SEED + 1000 * i))
    stages = ("courant_check", "boundary_touch_check", "nodal_graph_stats")
    times = np.zeros((NODAL_PASSES + 1, len(stages), len(points)))
    for p in range(NODAL_PASSES + 1):  # the first pass is a warm-up
        for j, (mesh, res, seed) in enumerate(points):
            # the calls of harness._measure_nodal
            t0 = time.perf_counter()
            _, modes = nodal.courant_check(mesh, res, NODAL_ROTATIONS, seed=seed)
            t1 = time.perf_counter()
            nodal.boundary_touch_check(mesh, modes.rows(1, len(res.extensions)))
            t2 = time.perf_counter()
            nodal.nodal_graph_stats(mesh, res.extensions[1:])
            times[p, :, j] = t1 - t0, t2 - t1, time.perf_counter() - t2
    per_point = np.median(times[1:], axis=0)
    # the largest rise of the traced memory over one courant_check call
    peak = 0
    tracemalloc.start()
    try:
        for mesh, res, seed in points:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            nodal.courant_check(mesh, res, NODAL_ROTATIONS, seed=seed)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    out = {"seed": AUDIT_SEED, "meshes": len(points), "passes": NODAL_PASSES,
           "n_rotations": NODAL_ROTATIONS,
           "point_ms_median": 1e3 * float(np.median(per_point.sum(axis=0))),
           "courant_check_traced_peak_mb": peak / 2 ** 20}
    for name, row in zip(stages, per_point):
        out[f"{name}_ms_median"] = 1e3 * float(np.median(row))
    return out


def bench_nearest_edge(name, mesh, repeats):
    def search():
        return deformations.DensityFamily(mesh, 2.0, 3).steklov_distance

    search()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        search()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        search()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_edges = int(np.count_nonzero(mesh.boundary_tags == geometry.STEKLOV))
    return {"mesh": name, "triangles": int(mesh.n_triangles), "steklov_edges": n_edges,
            "search_ms_median": 1e3 * statistics.median(times),
            "traced_peak_mb": peak / 2 ** 20, "repeats": repeats}


def bench_nearest_edges():
    runs = [bench_nearest_edge(f"disk h={h}", geometry.make_disk_mesh(1.0, h), DISK_REPEATS[h])
            for h in DISK_H]
    strip = geometry.make_strip_mesh(*STRIP, periodic=True)
    runs.append(bench_nearest_edge(f"periodic strip h={STRIP[2]}", strip, 5))
    return runs


def bench_artifact(name, mesh, out_dir):
    field = mesh.vertices[:, 0].copy()
    writers = {"save_mesh": lambda: geometry.save_mesh(mesh, os.path.join(out_dir, "mesh.msh")),
               "save_nodal_svg": lambda: nodal.save_nodal_svg(
                   mesh, field, os.path.join(out_dir, "figure.svg"))}
    out = {"mesh": name, "triangles": int(mesh.n_triangles), "repeats": ARTIFACT_REPEATS}
    for writer, write in writers.items():
        write()  # warm-up
        times = []
        for _ in range(ARTIFACT_REPEATS):
            t0 = time.perf_counter()
            write()
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[writer] = {"ms_median": 1e3 * statistics.median(times),
                       "traced_peak_mb": peak / 2 ** 20}
    return out


def bench_artifacts():
    cycle = graphs.MetricGraph(5, [[i, (i + 1) % 5] for i in range(5)], np.ones(5))
    thick = thickening.build_thickened_mesh(thickening.embed_graph(cycle, "convex-boundary", 2.0),
                                            ARTIFACT_EPS, 2.0, target_h=0.25 * ARTIFACT_EPS)
    with tempfile.TemporaryDirectory() as out_dir:
        return [bench_artifact(f"thickened 5-cycle eps={ARTIFACT_EPS}", thick, out_dir),
                bench_artifact("disk h=0.01", geometry.make_disk_mesh(1.0, 0.01), out_dir)]


def bench_configs():
    rows = []
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        config = harness.load_config(path)
        report_hash = harness.run(config).report_hash()  # warm-up
        times = []
        for _ in range(CONFIG_RUNS):
            t0 = time.perf_counter()
            harness.run(config)
            times.append(time.perf_counter() - t0)
        rows.append({"config": os.path.basename(path), "run_s": times,
                     "run_s_median": statistics.median(times), "report_hash": report_hash})
    return {"runs": CONFIG_RUNS, "configs": rows,
            "run_s_median_total": sum(row["run_s_median"] for row in rows)}


def bench_prescriber():
    config = harness.load_config(PRESCRIBER_CONFIG)
    fits = []
    prescribe, evaluate = graphs.prescribe_spectrum, graphs.eigenvalues_and_weight_jacobian

    def counted_prescribe(*args, **kwargs):
        fits.append(0)
        return prescribe(*args, **kwargs)

    def counted_evaluate(*args):
        fits[-1] += 1
        return evaluate(*args)

    graphs.prescribe_spectrum, graphs.eigenvalues_and_weight_jacobian = (
        counted_prescribe, counted_evaluate)
    try:
        report_hash = harness.run(config).report_hash()
    finally:
        graphs.prescribe_spectrum, graphs.eigenvalues_and_weight_jacobian = prescribe, evaluate
    return {"config": os.path.basename(PRESCRIBER_CONFIG), "fits": len(fits),
            "evaluations": sum(fits), "evaluations_max_per_fit": max(fits),
            "report_hash": report_hash}


def checkout_state(path, out):
    """The short HEAD commit of the checkout holding path, and whether that
    checkout has no change but to the file out; (None, None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", path, *args], capture_output=True, text=True,
                              check=True).stdout
    try:
        commit = git("rev-parse", "--short", "HEAD").strip()
        top = git("rev-parse", "--show-toplevel").strip()
        status = git("status", "--porcelain").splitlines()
    except (OSError, subprocess.CalledProcessError):
        return None, None
    out = os.path.relpath(os.path.abspath(out), top)
    return commit, all(line[3:] == out for line in status)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", default="BENCH_pipeline.json")
    args = parser.parse_args()
    commit, clean = checkout_state(os.path.dirname(os.path.abspath(fem.__file__)), args.out)
    configs = bench_configs()
    prescriber = bench_prescriber()
    nodal_layer = bench_nodal()
    solve_paths = bench_solve_paths()
    counters = Counters()
    result = {
        "commit": commit,
        "tree_clean": clean,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "machine": platform.machine(),
                        "cpus": os.cpu_count(), "blas_threads": 1},
        "solve_paths": solve_paths,
        "disk": [bench_disk(counters, h) for h in DISK_H],
        "reweighted": bench_reweighted(counters),
        "nodal_audit": bench_audit(counters),
        "nodal": nodal_layer,
        "nearest_edge": bench_nearest_edges(),
        "artifacts": bench_artifacts(),
        "configs": configs,
        "prescriber": prescriber,
    }
    print(json.dumps(result, indent=2))
    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="ascii") as fh:
            data = json.load(fh)
    data[args.label] = result
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
