"""Experiment orchestration: configs, runners, reports, and table emission.

Each experiment is a JSON config (kind + parameters + seed).  The registry at
the end of this module maps every kind to its runner and to the columns of its
CSV table; an audit kind also names the function that measures one randomized
run and the point flags that become its checks.  ``run`` calls the runner,
which collects per-point results (capturing per-point audit errors instead of
aborting the sweep) and evaluates the checks, and returns a report whose hash
is deterministic given config + seed (the environment stamp and wall-clock
are excluded from the hash).
"""

from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
import csv
import functools
import hashlib
import json
import math
import os
import platform
import time

import numpy as np

from . import deformations, fem, geometry, graphs, nodal, thickening
from .geometry import NEUMANN, STEKLOV


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    name: str
    seed: int
    params: dict
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        for name in ("params", "tolerances"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object")

    def content_hash(self):
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path, seed=None):
    """The config in a JSON file; a seed that is not None replaces its seed."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "kind" not in data:
        raise ConfigError(f"{path} has no experiment kind")
    if seed is not None:
        data["seed"] = seed
    return ExperimentConfig(
        kind=data["kind"],
        name=data.get("name", os.path.splitext(os.path.basename(path))[0]),
        seed=data.get("seed", 0),
        params=data.get("params", {}),
        tolerances=data.get("tolerances", {}),
    )


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    config_hash: str
    points: list
    checks: list
    environment: dict
    wallclock_s: float

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)

    def report_hash(self):
        blob = json.dumps({"config": self.config, "points": self.points,
                           "checks": self.checks}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_dict(self):
        return {
            "format": "steklov-report v1",
            "config": self.config,
            "config_hash": self.config_hash,
            "points": self.points,
            "checks": self.checks,
            "passed": self.passed,
            "report_hash": self.report_hash(),
            "environment": self.environment,
            "wallclock_s": self.wallclock_s,
        }


def _environment_stamp():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def random_boundary_density(angles, rng):
    """Positive smooth density exp(sum of low-order Fourier modes) at angles."""
    a = rng.uniform(-0.5, 0.5, 4)
    b = rng.uniform(-0.5, 0.5, 4)
    t = np.zeros_like(angles)
    for m in range(1, 5):
        t += a[m - 1] * np.cos(m * angles) + b[m - 1] * np.sin(m * angles)
    return np.exp(t), {"a": a.tolist(), "b": b.tolist()}


def _apply_random_density(mesh, rng):
    """A random density, by midpoint angle, on the steklov edges of the mesh."""
    mids = geometry.boundary_edge_midpoints(mesh)
    sel = mesh.boundary_tags == STEKLOV
    rho, coeffs = random_boundary_density(np.arctan2(mids[sel, 1], mids[sel, 0]), rng)
    dens = np.array(mesh.edge_density, float)
    dens[sel] = rho
    return geometry.replace_mesh(mesh, edge_density=dens), coeffs


@functools.lru_cache(maxsize=4)
def _base_mesh(domain, dims, h):
    """The untagged disk (dims = (radius,)) or annulus (dims = (r_inner,
    r_outer)) at target_h = h, built once per process; a Mesh2D is frozen
    and its arrays read-only, so audit points can share it."""
    if domain == "annulus":
        return geometry.make_annulus_mesh(*dims, h)
    return geometry.make_disk_mesh(*dims, h)


def _make_domain(params, rng):
    """Build the domain named by params["domain"]; rng places the steklov arc
    of a mixed disk."""
    domain = params.get("domain", "disk")
    h = float(params.get("target_h", 0.08))
    if domain == "disk":
        return _base_mesh("disk", (float(params.get("radius", 1.0)),), h)
    if domain == "annulus":
        return _base_mesh("annulus", (float(params.get("r_inner", 0.5)),
                                      float(params.get("r_outer", 1.0))), h)
    if domain == "mixed-disk":
        mesh = _base_mesh("disk", (float(params.get("radius", 1.0)),), h)
        frac = rng.uniform(0.25, 0.75)
        start = rng.uniform(0.0, 2 * math.pi)
        arcs = [((start, start + 2 * math.pi * frac), STEKLOV),
                ((start + 2 * math.pi * frac, start + 2 * math.pi), NEUMANN)]
        return geometry.tag_boundary(mesh, arcs, by="angle", center=(0.0, 0.0))
    raise ConfigError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# experiment runners: runner(config, jobs) -> (points, checks, artifacts);
# only the audits use jobs
# ---------------------------------------------------------------------------

def _run_spectrum(config, jobs):
    p = config.params
    n_eigs = int(p.get("n_eigs", 6))
    ref = np.asarray(p.get("reference", []), float)
    if "reference" in p and not 0 < ref.size < n_eigs:
        raise ConfigError(f"reference needs 1 to {n_eigs - 1} values when n_eigs = {n_eigs}")
    mesh = _make_domain(p, np.random.default_rng(config.seed))
    res = fem.steklov_spectrum(mesh, n_eigs, p.get("cluster_rel_tol"))
    points = [{"k": k, "sigma": float(res.eigenvalues[k])} for k in range(n_eigs)]
    checks = []
    if "reference" in p:
        tol = float(config.tolerances.get("rel_err", 0.01))
        err = float(np.max(np.abs(res.eigenvalues[1:ref.size + 1] - ref) / ref))
        checks.append(_check("spectrum-vs-reference", err <= tol, err, tol))
    if "cluster_sizes" in p:
        sizes = [b - a for a, b in res.clusters[1:len(p["cluster_sizes"]) + 1]]
        ok = sizes == list(p["cluster_sizes"])
        checks.append(_check("cluster-sizes", ok,
                             f"observed {sizes}", f'expected {p["cluster_sizes"]}'))
    return points, checks, {"spectral": res, "mesh": mesh}


def _sweep_step(param, value, ks, sigma, reference):
    """The sweep points of one step, one per k in ks with its sigma and
    reference, and the step's largest relative error; a zero reference has
    relative error 0."""
    sigma = np.asarray(sigma, float)
    reference = np.asarray(reference, float)
    abs_err = np.abs(sigma - reference)
    rel = np.divide(abs_err, reference, out=np.zeros_like(abs_err), where=reference != 0)
    points = [{param: value, "k": k, "sigma": s, "reference": r, "abs_err": a, "rel_err": e}
              for k, s, r, a, e in zip(ks, sigma.tolist(), reference.tolist(),
                                       abs_err.tolist(), rel.tolist())]
    return points, float(rel.max())


def _run_collar_sweep(config, jobs):
    p = config.params
    length = float(p.get("circle_length", 2 * math.pi))
    widths = [float(w) for w in p["widths"]]
    if not widths:
        raise ConfigError("widths must not be empty")
    mode = p.get("mode", "one-sided")
    tol = float(config.tolerances.get("final_rel_err", 0.02))
    points = []
    finals = []
    if mode == "one-sided":
        # Steklov-Neumann collars of shrinking width eta, rescaled by 1/eta,
        # against the Laplacian spectrum of the steklov circle
        n_eigs = int(p.get("n_eigs", 7))
        across = int(p.get("elements_across", 8))
        if n_eigs < 2:
            raise ConfigError("a one-sided collar-sweep needs n_eigs >= 2")
        if any(w <= 0 for w in widths):
            raise ConfigError("widths must be positive")
        if any(b >= a for a, b in zip(widths, widths[1:])):
            raise ConfigError("widths must be strictly decreasing")
        if across < 8:
            raise ConfigError("elements_across must be at least 8")
        reference = deformations.circle_laplacian_eigenvalues(length, n_eigs)
        for eta in widths:
            mesh = geometry.make_strip_mesh(length, eta, eta / across, periodic=True,
                                            top_tag=NEUMANN)
            sig = fem.steklov_spectrum(mesh, n_eigs).eigenvalues / eta
            step, worst = _sweep_step("eta", eta, range(n_eigs), sig, reference)
            points += step
            finals.append(worst)
    elif mode == "two-sided":
        # both circles steklov; the symmetric family obeys sqrt(l)*tanh(eta*sqrt(l))
        k_max = int(p.get("k_max", 4))
        if k_max < 1:
            raise ConfigError("a two-sided collar-sweep needs k_max >= 1")
        for width in widths:
            eta = 0.5 * width
            h = min(float(p.get("target_h", 0.05)), width / 8.0)
            mesh = geometry.make_strip_mesh(length, width, h, periodic=True,
                                            top_tag=STEKLOV)
            sig = fem.steklov_spectrum(mesh, 4 * k_max + 2).eigenvalues
            ref = [deformations.cylinder_formula((2 * math.pi * k / length) ** 2, eta)
                   for k in range(1, k_max + 1)]
            # the symmetric-family eigenvalue is the closest computed one
            near = sig[[int(np.argmin(np.abs(sig - r))) for r in ref]]
            step, worst = _sweep_step("eta", eta, range(1, k_max + 1), near, ref)
            points += step
            finals.append(worst)
    else:
        raise ConfigError(f"unknown collar mode {mode!r}")
    checks = [_check("final-error", finals[-1] <= tol, finals[-1], tol)]
    if mode == "one-sided" and len(finals) > 1:
        dec = all(b < a for a, b in zip(finals, finals[1:]))
        checks.append(_check("error-decreasing", dec, finals, "strictly decreasing"))
    if mode == "two-sided":
        allok = max(finals) <= tol
        checks.append(_check("all-widths", allok, max(finals), tol))
    return points, checks, {}


def _family_sweep(config, param, family_at, limit, defaults):
    """Spectra of family_at(2^-j), j = 1..j_max, against the limit mesh's.

    One point per step and nonzero eigenvalue, keyed by `param`; the checks
    are the final step's max relative error and a non-increasing second half.
    defaults gives n_eigs, j_max and final_rel_err when the config does not.
    """
    p = config.params
    j_max = int(p.get("j_max", defaults["j_max"]))
    if j_max < 1:
        raise ConfigError("j_max must be at least 1")
    n_eigs = int(p.get("n_eigs", defaults["n_eigs"]))
    if n_eigs < 2:
        raise ConfigError(f"a {config.kind} needs n_eigs >= 2")
    ref = fem.steklov_spectrum(limit, n_eigs).eigenvalues
    points = []
    errs = []
    for j in range(1, j_max + 1):
        t = 2.0 ** -j
        sig = fem.steklov_spectrum(family_at(t), n_eigs).eigenvalues
        step, worst = _sweep_step(param, t, range(1, n_eigs), sig[1:], ref[1:])
        points += step
        errs.append(worst)
    tol = float(config.tolerances.get("final_rel_err", defaults["final_rel_err"]))
    tail = errs[len(errs) // 2:]
    checks = [
        _check("final-error", errs[-1] <= tol, errs[-1], tol),
        _check("eventually-decreasing",
               all(b <= a for a, b in zip(tail, tail[1:])), errs, "tail non-increasing"),
    ]
    return points, checks, {}


def _run_density_sweep(config, jobs):
    p = config.params
    rng = np.random.default_rng(config.seed)
    mesh = geometry.make_disk_mesh(float(p.get("radius", 1.0)),
                                   float(p.get("target_h", 0.05)))
    rho = _apply_random_density(mesh, rng)[0].edge_density
    # dominate the base density rho = 1 edge-wise; every edge of the disk is steklov
    rho_bar = rho / rho.min()
    fam = deformations.DensityFamily(mesh, rho_bar, int(p.get("virtual_dim", 3)))
    limit = geometry.replace_mesh(mesh, edge_density=rho_bar)
    return _family_sweep(config, "eps", lambda eps: deformations.density_family_at(fam, eps),
                         limit, {"n_eigs": 6, "j_max": 7, "final_rel_err": 0.02})


def _run_subdomain_sweep(config, jobs):
    p = config.params
    mesh = geometry.make_disk_mesh(float(p.get("radius", 1.0)),
                                   float(p.get("target_h", 0.05)))
    cen = geometry.triangle_coords(mesh).mean(axis=1)
    mask = cen[:, 1] > 0.0  # half-disk touching the boundary
    fam = deformations.SingularWeightFamily(mesh, mask, int(p.get("virtual_dim", 3)))
    return _family_sweep(config, "eta", lambda eta: deformations.singular_family_at(fam, eta),
                         deformations.subdomain_limit_mesh(fam),
                         {"n_eigs": 5, "j_max": 8, "final_rel_err": 0.05})


def _load_or_build_graph(config):
    p = config.params
    if "edges" in p:
        return graphs.MetricGraph(int(p["n_vertices"]),
                                  np.asarray(p["edges"], np.int64),
                                  np.asarray(p["lengths"], float))
    n = int(p.get("complete", 3))
    lengths = np.asarray(p.get("lengths", np.ones(n * (n - 1) // 2)), float)
    return graphs.MetricGraph(n, graphs.complete_graph_edges(n), lengths)


def _run_graph_limit(config, jobs):
    """Thickened-domain spectra against the graph Laplacian spectrum.

    For each eps the (|V|+1)-st eigenvalue over the |V|-th is the spectral
    gap; at the final eps the first |V| eigenvalues over the graph's give the
    empirical proportionality constant (candidates c and 1/c) and its spread.
    The artifacts keep the (mesh, SpectralResult) of the final eps.
    """
    p = config.params
    eps_values = [float(e) for e in p["eps_values"]]
    if not eps_values:
        raise ConfigError("eps_values must not be empty")
    g = _load_or_build_graph(config)
    nv = g.n_vertices
    c = float(p.get("c", 2.0))
    emb = thickening.embed_graph(g, p.get("style", "convex-boundary"), c)
    h_factor = float(p.get("target_h_factor", 0.25))
    lam = graphs.graph_laplacian_spectrum(g).eigenvalues
    nz = lam > 1e-12
    nz[0] = False
    points = []
    gaps = []
    for eps in eps_values:
        mesh = thickening.build_thickened_mesh(emb, eps, c, target_h=h_factor * eps)
        res = fem.steklov_spectrum(mesh, nv + 1)
        sig = res.eigenvalues
        for k in range(1, nv):
            points.append({"eps": eps, "k": k, "sigma": float(sig[k]), "lambda": float(lam[k]),
                           "ratio": float(sig[k] / lam[k]) if lam[k] > 0 else None})
        points.append({"eps": eps, "k": nv, "sigma": float(sig[nv]),
                       "lambda": None, "ratio": None})
        gaps.append(float(sig[nv] / sig[nv - 1]))
    # the constant and its spread at the final eps
    ratios = sig[:nv][nz] / lam[nz]
    mean = float(ratios.mean())
    spread = float(ratios.max() - ratios.min()) / mean
    candidates = {"c": c, "1/c": 1.0 / c}
    closest = min(candidates, key=lambda name: abs(candidates[name] - mean))
    spread_tol = float(config.tolerances.get("ratio_spread", 0.05))
    checks = [
        _check("ratio-spread", spread <= spread_tol, spread, spread_tol),
        _check("gap-monotone", all(b > a for a, b in zip(gaps, gaps[1:])),
               gaps, "strictly increasing"),
        _check("constant-recorded", True,
               {"final_ratio": mean, "candidates": candidates, "closest": closest},
               "informational"),
    ]
    return points, checks, {"graph": g, "thickened": (mesh, res)}


def _run_prescriber_audit(config, jobs):
    p = config.params
    if p.get("mode") != "audit":
        raise ConfigError(
            'prescription-pipeline runs only the prescriber audit and needs mode "audit"; '
            "for the graph limit of a prescribed graph, write the graph with "
            "`steklov-lab prescribe --out` and run a graph-limit config on its edges")
    tol = float(config.tolerances.get("prescriber_rel_err", 1e-8))
    rng = np.random.default_rng(config.seed)
    n_trials = int(p.get("trials", 50))
    if n_trials < 1:
        raise ConfigError("trials must be at least 1")
    lo, hi = p.get("n_range", [2, 6])
    points = []
    for trial in range(n_trials):
        n = int(rng.integers(lo, hi + 1))
        targets = np.sort(rng.uniform(0.5, 5.0, n))
        g = graphs.prescribe_spectrum(targets, seed=int(rng.integers(2 ** 32)))
        got = graphs.graph_laplacian_spectrum(g).eigenvalues[1:]
        rel = float(np.max(np.abs(got - targets) / targets))
        # homogeneity: scaling lengths by 1/s scales the spectrum by s
        s = 2.0
        scaled = graphs.graph_laplacian_spectrum(
            graphs.MetricGraph(g.n_vertices, g.edges, g.lengths / s)).eigenvalues[1:]
        hom = float(np.max(np.abs(scaled - s * got) / (s * got)))
        points.append({"trial": trial, "n_targets": n, "rel_err": rel,
                       "homogeneity_err": hom})
    worst = max(pt["rel_err"] for pt in points)
    hom_worst = max(pt["homogeneity_err"] for pt in points)
    checks = [
        _check("prescriber-accuracy", worst <= tol, worst, tol),
        _check("homogeneity", hom_worst <= 1e-12, hom_worst, 1e-12),
    ]
    return points, checks, {}


def _audit_point(args):
    """One randomized audit run; top-level for process-pool dispatch.

    An exception from mesh build, solve or nodal steps is recorded on the
    point as its type name and message; the point then has no check flags.
    """
    kind, params, tolerances, seed, run_id = args
    if "domains" in params:
        params = dict(params, domain=params["domains"][run_id % len(params["domains"])])
    point = {"run": run_id, "seed": seed, "domain": params.get("domain", "disk")}
    try:
        point.update(_audit_measurements(kind, params, seed))
    except Exception as exc:
        point.update(error=type(exc).__name__, message=str(exc))
    return point


def _audit_measurements(kind, params, seed):
    rng = np.random.default_rng(seed)
    mesh = _make_domain(params, rng)
    mesh, coeffs = _apply_random_density(mesh, rng)
    n_eigs = int(params.get("k_max", 6)) + 1
    res = fem.steklov_spectrum(mesh, n_eigs)
    point = {"density": coeffs,
             "eigenvalues": res.eigenvalues.tolist(),
             "clusters": [list(c) for c in res.clusters]}
    point.update(_REGISTRY[kind].measure(mesh, res, params, seed))
    return point


def _measure_nodal(mesh, res, params, seed):
    """Courant counts, boundary contact and zero-set structure of each mode."""
    courant, modes = nodal.courant_check(mesh, res, int(params.get("n_rotations", 20)),
                                         seed=seed)
    # the Courant stack decomposed each mode as a row: slice the record's rows 1..n-1
    touches = nodal.boundary_touch_check(mesh, modes.rows(1, len(res.extensions)))
    stats = nodal.nodal_graph_stats(mesh, res.extensions[1:])
    return {"courant": courant,
            "courant_ok": all(r["ok"] for r in courant),
            "touch_ok": all(t["all_touch"] for t in touches),
            "cycle_rank_ok": all(st["cycle_rank"] == 0 for st in stats),
            "parity_ok": all(st["all_even"] for st in stats)}


def _measure_multiplicity(mesh, res, params, seed):
    """Cluster multiplicities against the bounds for the mesh's topology."""
    recs = nodal.multiplicity_bound_check(mesh, res)
    return {"bounds": recs, "bounds_ok": all(r["ok"] for r in recs)}


def _run_audit(config, jobs):
    p = config.params
    n_runs = int(p.get("runs", 50))
    if n_runs < 1:
        raise ConfigError("an audit needs runs >= 1")
    if int(p.get("k_max", 6)) < 1:
        raise ConfigError("an audit needs k_max >= 1")
    if int(p.get("n_rotations", 20)) < 0:
        raise ConfigError("n_rotations must not be negative")
    if "domains" in p and not p["domains"]:
        raise ConfigError("domains must not be empty")
    seeds = [config.seed + 1000 * i for i in range(n_runs)]
    args = [(config.kind, p, config.tolerances, s, i) for i, s in enumerate(seeds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_audit_point, args))
    else:
        points = [_audit_point(a) for a in args]
    checks = []
    for flag, name in _REGISTRY[config.kind].flags:
        bad = [pt["run"] for pt in points if not pt.get(flag)]
        checks.append(_check(name, not bad,
                             f"{len(points) - len(bad)}/{len(points)} runs",
                             f"failures: {bad}" if bad else "none"))
    return points, checks, {}


def _check(name, passed, observed, required):
    return {"name": name, "passed": bool(passed),
            "observed": _jsonable(observed), "required": _jsonable(required)}


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def run(config, out_dir=None, jobs=1):
    """Execute an experiment and (optionally) persist its artifact tree."""
    start = time.monotonic()
    points, checks, artifacts = _REGISTRY[config.kind].runner(config, jobs)
    report = ExperimentReport(
        config=asdict(config),
        config_hash=config.content_hash(),
        points=_jsonable(points),
        checks=checks,
        environment=_environment_stamp(),
        wallclock_s=time.monotonic() - start,
    )
    if out_dir is not None:
        _persist(report, artifacts, config, out_dir)
    return report


def _persist(report, artifacts, config, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_tables(report, out_dir)
    meshes = os.path.join(out_dir, "meshes")
    figures = os.path.join(out_dir, "figures")
    if "mesh" in artifacts:
        os.makedirs(meshes, exist_ok=True)
        geometry.save_mesh(artifacts["mesh"], os.path.join(meshes, f"{config.name}.msh"))
    if "spectral" in artifacts:
        fem.save_spectral_result(artifacts["mesh"], artifacts["spectral"],
                                 os.path.join(out_dir, "spectrum.json"))
    if "graph" in artifacts:
        graphs.save_graph(artifacts["graph"],
                          os.path.join(out_dir, f"{config.name}.graph"))
    if "thickened" in artifacts:
        # the final eps of the sweep: its mesh and the mode-1 field of its solve
        mesh, res = artifacts["thickened"]
        os.makedirs(meshes, exist_ok=True)
        geometry.save_mesh(mesh, os.path.join(meshes, f"{config.name}-thickened.msh"))
        os.makedirs(figures, exist_ok=True)
        nodal.save_nodal_svg(mesh, _mode1_field(res),
                             os.path.join(figures, f"{config.name}-mode1.svg"))


def _mode1_field(res):
    """The kernel X'X[:, v] of the eigenspace of sigma_1 at one steklov vertex v.

    X holds the M_Gamma-orthonormal eigenvectors of the cluster of index 1, so
    the field lies in that eigenspace and depends neither on the basis an
    eigensolver returns for a multiple sigma_1 nor on the signs.  v is the
    first steklov vertex whose kernel diagonal is at least half its largest.
    """
    start, stop = next(c for c in res.clusters if c[0] <= 1 < c[1])
    X = res.extensions[start:stop]
    diag = np.sum(X[:, res.steklov_vertices] ** 2, axis=0)
    v = res.steklov_vertices[np.argmax(diag >= 0.5 * diag.max())]
    return X.T @ X[:, v]


def check_line(c):
    """One check as "[PASS] name: observed=... required=..."."""
    return (f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
            f"observed={c['observed']} required={c['required']}")


def emit_tables(report, out_dir):
    """CSV per sweep plus a human-readable summary of every check."""
    tables = os.path.join(out_dir, "tables")
    os.makedirs(tables, exist_ok=True)
    kind = report.config["kind"]
    columns = _REGISTRY[kind].columns
    path = os.path.join(tables, "sweep.csv")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for pt in report.points:
            writer.writerow([pt.get(c, "") for c in columns])
    summary = os.path.join(out_dir, "summary.txt")
    with open(summary, "w", encoding="ascii") as fh:
        fh.write(f"experiment: {report.config['name']} ({kind})\n")
        fh.write(f"config hash: {report.config_hash}\n")
        fh.write(f"report hash: {report.report_hash()}\n\n")
        fh.write("".join(check_line(c) + "\n" for c in report.checks))
        fh.write(f"\noverall: {'PASS' if report.passed else 'FAIL'}\n")
    return [path, summary]


# The registry.  runner(config, jobs) returns (points, checks, artifacts) and
# columns are the point fields of tables/sweep.csv.  An audit kind also has
# measure(mesh, spectral_result, params, seed), which returns its fields of one
# randomized run's point, and flags: (point flag, check name) pairs, each flag
# becoming one check over all runs.
_Kind = namedtuple("_Kind", "runner columns measure flags", defaults=(None, ()))


def _audit_kind(measure, flags):
    return _Kind(_run_audit, ("run", "seed", "domain") + tuple(f for f, _ in flags),
                 measure, flags)


_SWEEP_COLUMNS = ("k", "sigma", "reference", "abs_err", "rel_err")

_REGISTRY = {
    "spectrum": _Kind(_run_spectrum, ("k", "sigma")),
    "density-sweep": _Kind(_run_density_sweep, ("eps",) + _SWEEP_COLUMNS),
    "subdomain-sweep": _Kind(_run_subdomain_sweep, ("eta",) + _SWEEP_COLUMNS),
    "collar-sweep": _Kind(_run_collar_sweep, ("eta",) + _SWEEP_COLUMNS),
    "graph-limit": _Kind(_run_graph_limit, ("eps", "k", "sigma", "lambda", "ratio")),
    "prescription-pipeline": _Kind(_run_prescriber_audit,
                                   ("trial", "n_targets", "rel_err", "homogeneity_err")),
    "nodal-audit": _audit_kind(_measure_nodal, (
        ("courant_ok", "courant-ok"), ("touch_ok", "touch-ok"),
        ("cycle_rank_ok", "cycle-rank-ok"), ("parity_ok", "parity-ok"))),
    "multiplicity-audit": _audit_kind(_measure_multiplicity,
                                      (("bounds_ok", "multiplicity-bounds"),)),
}

KINDS = tuple(_REGISTRY)
AUDIT_KINDS = tuple(k for k, entry in _REGISTRY.items() if entry.measure is not None)

