"""Experiment orchestration: configs, runners, reports, and table emission.

Each experiment is a JSON config (kind + parameters + seed).  The registry at
the end of this module maps every kind to its runner, the schemas of its
params and tolerances and its CSV columns, and an audit kind also to its
point measure and flags.  ``run`` checks the config against the schemas and
calls the runner, which collects per-point results and evaluates the checks;
the report's hash is deterministic given config + seed (environment and
wall-clock are excluded).
"""

from collections import namedtuple
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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        for name, cls in (("name", str), ("params", dict), ("tolerances", dict)):
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be a JSON {'string' if cls is str else 'object'}")

    def content_hash(self):
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path, seed=None):
    """The config in a JSON file; a seed that is not None replaces its seed."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"{path} must hold a JSON object with an experiment kind")
    if seed is not None:
        data["seed"] = seed
    return ExperimentConfig(
        kind=data["kind"],
        name=data.get("name", os.path.splitext(os.path.basename(path))[0]),
        seed=data.get("seed", 0),
        params=data.get("params", {}),
        tolerances=data.get("tolerances", {}),
    )


# A schema maps each key a runner reads to (rule, default); a key whose
# default is ... must be given, and a default of None means absent.  A rule is
# (int, lo) for an integer >= lo, float for a positive finite number, a tuple
# of strings for one of them, or [rule] for a non-empty list of items that
# each meet rule.
def _checked(value, rule, where):
    """value if it meets rule, with numbers of a float rule made floats."""
    if isinstance(rule, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        return [_checked(v, rule[0], f"{where}[{i}]") for i, v in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if rule is float:
        if not (number and 0 < value < math.inf):
            raise ConfigError(f"{where} must be a positive number, got {value!r}")
        return float(value)
    if rule[0] is int:
        if not (number and isinstance(value, int) and value >= rule[1]):
            raise ConfigError(f"{where} must be an integer >= {rule[1]}, got {value!r}")
        return value
    if value not in rule:
        raise ConfigError(f"{where} must be one of {', '.join(rule)}, got {value!r}")
    return value


def _filled(kind, what, given):
    """The config's `what` mapping ("params" or "tolerances") checked against
    the kind's schema, with the defaults filled in."""
    schema = getattr(_REGISTRY[kind], what)
    unknown = [key for key in given if key not in schema]
    if unknown:
        owners = [k for k, e in _REGISTRY.items() if set(unknown) & set(getattr(e, what))]
        raise ConfigError(
            f"{kind} has no {what} key {', '.join(map(repr, unknown))}"
            + (f" (see kind {', '.join(owners)})" if owners else "")
            + (f"; its {what} keys are {', '.join(schema)}" if schema else f"; it takes no {what}"))
    missing = [key for key, (_, default) in schema.items() if default is ... and key not in given]
    if missing:
        raise ConfigError(f"{kind} needs the {what} key {missing[0]!r}")
    return {key: _checked(given[key], rule, f"{kind} {what} {key!r}") if key in given else default
            for key, (rule, default) in schema.items()}


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
    if params["domain"] == "annulus":
        return _base_mesh("annulus", (params["r_inner"], params["r_outer"]), params["target_h"])
    mesh = _base_mesh("disk", (params["radius"],), params["target_h"])
    if params["domain"] == "disk":
        return mesh
    frac = rng.uniform(0.25, 0.75)
    start = rng.uniform(0.0, 2 * math.pi)
    arcs = [((start, start + 2 * math.pi * frac), STEKLOV),
            ((start + 2 * math.pi * frac, start + 2 * math.pi), NEUMANN)]
    return geometry.tag_boundary(mesh, arcs, by="angle", center=(0.0, 0.0))


# ---------------------------------------------------------------------------
# experiment runners: runner(config, p, tol) -> (points, checks, artifacts);
# p and tol are the config's params and tolerances with defaults filled in, a
# runner checks only rules across keys, and artifacts maps each path relative
# to the output directory to its writer(path)
# ---------------------------------------------------------------------------

def _reject_unread(config, where, keys):
    """ConfigError naming the keys of `keys` written in config.params: the
    runner does not read them `where`, and a filled default would hide them."""
    written = [key for key in keys if key in config.params]
    if written:
        raise ConfigError(f"{config.kind} {where} does not read the params key "
                          f"{', '.join(map(repr, written))}")


def _reject_unread_dims(config, domains):
    """ConfigError for a written radius when no domain in `domains` is a disk
    or mixed disk, and for r_inner or r_outer when none is an annulus."""
    unread = () if {"disk", "mixed-disk"} & set(domains) else ("radius",)
    if "annulus" not in domains:
        unread += ("r_inner", "r_outer")
    _reject_unread(config, f"on {', '.join(domains)}", unread)


def _run_spectrum(config, p, tol):
    _reject_unread_dims(config, [p["domain"]])
    n_eigs = p["n_eigs"]
    if p["reference"] is not None and len(p["reference"]) >= n_eigs:
        raise ConfigError(f"reference needs 1 to {n_eigs - 1} values when n_eigs = {n_eigs}")
    mesh = _make_domain(p, np.random.default_rng(config.seed))
    res = fem.steklov_spectrum(mesh, n_eigs, p["cluster_rel_tol"])
    points = [{"k": k, "sigma": float(res.eigenvalues[k])} for k in range(n_eigs)]
    checks = []
    if p["reference"] is not None:
        ref = np.asarray(p["reference"])
        err = float(np.max(np.abs(res.eigenvalues[1:ref.size + 1] - ref) / ref))
        checks.append(_check("spectrum-vs-reference", err <= tol["rel_err"], err, tol["rel_err"]))
    if p["cluster_sizes"] is not None:
        sizes = [b - a for a, b in res.clusters[1:len(p["cluster_sizes"]) + 1]]
        checks.append(_check("cluster-sizes", sizes == p["cluster_sizes"],
                             f"observed {sizes}", f'expected {p["cluster_sizes"]}'))
    return points, checks, {
        f"meshes/{config.name}.msh": functools.partial(geometry.save_mesh, mesh),
        "spectrum.json": functools.partial(fem.save_spectral_result, mesh, res)}


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


def _run_collar_sweep(config, p, tol):
    length = p["circle_length"]
    widths = p["widths"]
    one_sided = p["mode"] == "one-sided"
    if one_sided and any(b >= a for a, b in zip(widths, widths[1:])):
        raise ConfigError("a one-sided collar-sweep needs strictly decreasing widths")
    _reject_unread(config, f"in {p['mode']} mode",
                   ("k_max", "target_h") if one_sided else ("n_eigs", "elements_across"))
    tol = tol["final_rel_err"]
    points = []
    finals = []
    if one_sided:
        # Steklov-Neumann collars of shrinking width eta, rescaled by 1/eta,
        # against the Laplacian spectrum of the steklov circle
        n_eigs = p["n_eigs"]
        reference = deformations.circle_laplacian_eigenvalues(length, n_eigs)
        for eta in widths:
            mesh = geometry.make_strip_mesh(length, eta, eta / p["elements_across"],
                                            periodic=True, top_tag=NEUMANN)
            sig = fem.steklov_spectrum(mesh, n_eigs).eigenvalues / eta
            step, worst = _sweep_step("eta", eta, range(n_eigs), sig, reference)
            points += step
            finals.append(worst)
    else:
        # both circles steklov; the symmetric family obeys sqrt(l)*tanh(eta*sqrt(l))
        k_max = p["k_max"]
        for width in widths:
            eta = 0.5 * width
            h = min(p["target_h"], width / 8.0)
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
    checks = [_check("final-error", finals[-1] <= tol, finals[-1], tol)]
    if one_sided and len(finals) > 1:
        dec = all(b < a for a, b in zip(finals, finals[1:]))
        checks.append(_check("error-decreasing", dec, finals, "strictly decreasing"))
    if not one_sided:
        checks.append(_check("all-widths", max(finals) <= tol, max(finals), tol))
    return points, checks, {}


def _family_sweep(p, tol, param, family_at, limit):
    """Spectra of family_at(2^-j), j = 1..p["j_max"], against the limit mesh's.

    One point per step and nonzero eigenvalue, keyed by `param`; the checks
    are the final step's max relative error and a non-increasing second half.
    """
    n_eigs = p["n_eigs"]
    ref = fem.steklov_spectrum(limit, n_eigs).eigenvalues
    points = []
    errs = []
    for j in range(1, p["j_max"] + 1):
        t = 2.0 ** -j
        sig = fem.steklov_spectrum(family_at(t), n_eigs).eigenvalues
        step, worst = _sweep_step(param, t, range(1, n_eigs), sig[1:], ref[1:])
        points += step
        errs.append(worst)
    tol = tol["final_rel_err"]
    tail = errs[len(errs) // 2:]
    checks = [
        _check("final-error", errs[-1] <= tol, errs[-1], tol),
        _check("eventually-decreasing",
               all(b <= a for a, b in zip(tail, tail[1:])), errs, "tail non-increasing"),
    ]
    return points, checks, {}


def _run_density_sweep(config, p, tol):
    rng = np.random.default_rng(config.seed)
    mesh = geometry.make_disk_mesh(p["radius"], p["target_h"])
    rho = _apply_random_density(mesh, rng)[0].edge_density
    # dominate the base density rho = 1 edge-wise; every edge of the disk is steklov
    rho_bar = rho / rho.min()
    fam = deformations.DensityFamily(mesh, rho_bar, p["virtual_dim"])
    limit = geometry.replace_mesh(mesh, edge_density=rho_bar)
    return _family_sweep(p, tol, "eps", lambda eps: deformations.density_family_at(fam, eps),
                         limit)


def _run_subdomain_sweep(config, p, tol):
    mesh = geometry.make_disk_mesh(p["radius"], p["target_h"])
    cen = geometry.triangle_coords(mesh).mean(axis=1)
    mask = cen[:, 1] > 0.0  # half-disk touching the boundary
    fam = deformations.SingularWeightFamily(mesh, mask, p["virtual_dim"])
    return _family_sweep(p, tol, "eta", lambda eta: deformations.singular_family_at(fam, eta),
                         deformations.subdomain_limit_mesh(fam))


def _load_or_build_graph(config, p):
    if p["edges"] is None and p["n_vertices"] is None:
        n = p["complete"]
        lengths = np.ones(n * (n - 1) // 2) if p["lengths"] is None else p["lengths"]
        return graphs.MetricGraph(n, graphs.complete_graph_edges(n), lengths)
    if None in (p["edges"], p["n_vertices"], p["lengths"]):
        raise ConfigError("a graph-limit with edges or n_vertices needs all of edges, "
                          "n_vertices and lengths")
    _reject_unread(config, "with edges or n_vertices", ("complete",))
    return graphs.MetricGraph(p["n_vertices"], p["edges"], p["lengths"])


def _run_graph_limit(config, p, tol):
    """Thickened-domain spectra against the graph Laplacian spectrum.

    For each eps the (|V|+1)-st eigenvalue over the |V|-th is the spectral
    gap; at the final eps the first |V| eigenvalues over the graph's give the
    empirical proportionality constant (candidates c and 1/c) and its spread.
    The artifacts are the graph, and the mesh and mode-1 figure of the final eps.
    """
    g = _load_or_build_graph(config, p)
    nv = g.n_vertices
    c = p["c"]
    emb = thickening.embed_graph(g, p["style"], c)
    lam = graphs.graph_laplacian_spectrum(g)
    nz = lam > 1e-12
    nz[0] = False
    points = []
    gaps = []
    for eps in p["eps_values"]:
        mesh = thickening.build_thickened_mesh(emb, eps, c, target_h=p["target_h_factor"] * eps)
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
    spread_tol = tol["ratio_spread"]
    checks = [
        _check("ratio-spread", spread <= spread_tol, spread, spread_tol),
        _check("gap-monotone", all(b > a for a, b in zip(gaps, gaps[1:])),
               gaps, "strictly increasing"),
        _check("constant-recorded", True,
               {"final_ratio": mean, "candidates": candidates, "closest": closest},
               "informational"),
    ]
    return points, checks, {
        f"{config.name}.graph": functools.partial(graphs.save_graph, g),
        f"meshes/{config.name}-thickened.msh": functools.partial(geometry.save_mesh, mesh),
        f"figures/{config.name}-mode1.svg":
            lambda path: nodal.save_nodal_svg(mesh, _mode1_field(res), path)}


def _run_prescriber_audit(config, p, tol):
    if len(p["n_range"]) != 2 or p["n_range"][0] > p["n_range"][1]:
        raise ConfigError("n_range must be two sizes [lo, hi] with lo <= hi")
    lo, hi = p["n_range"]
    tol = tol["prescriber_rel_err"]
    rng = np.random.default_rng(config.seed)
    points = []
    for trial in range(p["trials"]):
        n = int(rng.integers(lo, hi + 1))
        targets = np.sort(rng.uniform(0.5, 5.0, n))
        g = graphs.prescribe_spectrum(targets, seed=int(rng.integers(2 ** 32)))
        got = graphs.graph_laplacian_spectrum(g)[1:]
        rel = float(np.max(np.abs(got - targets) / targets))
        # homogeneity: scaling lengths by 1/s scales the spectrum by s
        s = 2.0
        scaled = graphs.graph_laplacian_spectrum(
            graphs.MetricGraph(g.n_vertices, g.edges, g.lengths / s))[1:]
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
    """One randomized audit run; one argument tuple, as perfbench calls it.

    params holds every key of the audit kind's schema.  An exception from
    mesh build, solve or nodal steps is recorded on the point as its type
    name and message; the point then has no check flags.
    """
    kind, params, tolerances, seed, run_id = args
    if params["domains"]:
        params = dict(params, domain=params["domains"][run_id % len(params["domains"])])
    point = {"run": run_id, "seed": seed, "domain": params["domain"]}
    try:
        point.update(_audit_measurements(kind, params, seed))
    except Exception as exc:
        point.update(error=type(exc).__name__, message=str(exc))
    return point


def _audit_measurements(kind, params, seed):
    rng = np.random.default_rng(seed)
    mesh = _make_domain(params, rng)
    mesh, coeffs = _apply_random_density(mesh, rng)
    res = fem.steklov_spectrum(mesh, params["k_max"] + 1)
    point = {"density": coeffs,
             "eigenvalues": res.eigenvalues.tolist(),
             "clusters": [list(c) for c in res.clusters]}
    point.update(_REGISTRY[kind].measure(mesh, res, params, seed))
    return point


def _measure_nodal(mesh, res, params, seed):
    """Courant counts, boundary contact and zero-set structure of each mode."""
    courant, modes = nodal.courant_check(mesh, res, params["n_rotations"], seed=seed)
    # the Courant stack decomposed each mode as a row: slice the record's rows 1..n-1
    touch = nodal.boundary_touch_check(mesh, modes.rows(1, len(res.extensions)))
    cycle_rank, all_even = nodal.nodal_graph_stats(mesh, res.extensions[1:])
    return {"courant": courant,
            "courant_ok": all(r["ok"] for r in courant),
            "touch_ok": bool(touch.all()),
            "cycle_rank_ok": bool(np.all(cycle_rank == 0)),
            "parity_ok": bool(all_even.all())}


def _measure_multiplicity(mesh, res, params, seed):
    """Cluster multiplicities against the bounds for the mesh's topology."""
    recs = nodal.multiplicity_bound_check(mesh, res)
    return {"bounds": recs, "bounds_ok": all(r["ok"] for r in recs)}


def _run_audit(config, p, tol):
    if p["domains"]:
        _reject_unread(config, "with domains", ("domain",))
    _reject_unread_dims(config, p["domains"] or [p["domain"]])
    seeds = [config.seed + 1000 * i for i in range(p["runs"])]
    args = [(config.kind, p, tol, s, i) for i, s in enumerate(seeds)]
    points = [_audit_point(a) for a in args]
    checks = []
    for flag, name in _REGISTRY[config.kind].flags:
        bad = [pt["run"] for pt in points if not pt.get(flag)]
        checks.append(_check(name, not bad,
                             f"{len(points) - len(bad)}/{len(points)} runs",
                             f"failures: {bad}" if bad else "none"))
    return points, checks, {}


def _check(name, passed, observed, required):
    return {"name": name, "passed": bool(passed), "observed": observed, "required": required}


def run(config, out_dir=None):
    """Execute an experiment and (optionally) persist its artifact tree."""
    start = time.monotonic()
    p, tol = (_filled(config.kind, w, getattr(config, w)) for w in ("params", "tolerances"))
    points, checks, artifacts = _REGISTRY[config.kind].runner(config, p, tol)
    report = ExperimentReport(
        config=asdict(config),
        config_hash=config.content_hash(),
        points=points,
        checks=checks,
        environment=_environment_stamp(),
        wallclock_s=time.monotonic() - start,
    )
    if out_dir is not None:
        _persist(report, artifacts, out_dir)
    return report


def _persist(report, artifacts, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_tables(report, out_dir)
    for relative, write in artifacts.items():
        path = os.path.join(out_dir, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write(path)


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
    with open(os.path.join(tables, "sweep.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for pt in report.points:
            writer.writerow([pt.get(c, "") for c in columns])
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="ascii") as fh:
        fh.write(f"experiment: {report.config['name']} ({kind})\n")
        fh.write(f"config hash: {report.config_hash}\n")
        fh.write(f"report hash: {report.report_hash()}\n\n")
        fh.write("".join(check_line(c) + "\n" for c in report.checks))
        fh.write(f"\noverall: {'PASS' if report.passed else 'FAIL'}\n")


# The registry.  params and tolerances are the schemas of the config's mappings
# and columns are the point fields of tables/sweep.csv.  An audit kind also has
# measure(mesh, spectral_result, params, seed), which returns its fields of one
# randomized run's point, and flags: (point flag, check name) pairs, each flag
# becoming one check over all runs.
_Kind = namedtuple("_Kind", "runner params tolerances columns measure flags", defaults=(None, ()))

_DOMAINS = ("disk", "annulus", "mixed-disk")
_DOMAIN = {"domain": (_DOMAINS, "disk"), "radius": (float, 1.0), "r_inner": (float, 0.5),
           "r_outer": (float, 1.0), "target_h": (float, 0.08)}
_FAMILY = {"radius": _DOMAIN["radius"], "target_h": (float, 0.05), "virtual_dim": ((int, 3), 3)}
_AUDIT = dict(_DOMAIN, domains=([_DOMAINS], None), runs=((int, 1), 50), k_max=((int, 1), 6))
_SWEEP_COLUMNS = ("k", "sigma", "reference", "abs_err", "rel_err")


def _audit_kind(params, measure, flags):
    return _Kind(_run_audit, params, {}, ("run", "seed", "domain") + tuple(f for f, _ in flags),
                 measure, flags)


_REGISTRY = {
    "spectrum": _Kind(_run_spectrum, dict(
        _DOMAIN, n_eigs=((int, 1), 6), reference=([float], None),
        cluster_sizes=([(int, 1)], None), cluster_rel_tol=(float, None)),
        {"rel_err": (float, 0.01)}, ("k", "sigma")),
    "density-sweep": _Kind(_run_density_sweep,
                           dict(_FAMILY, n_eigs=((int, 2), 6), j_max=((int, 1), 7)),
                           {"final_rel_err": (float, 0.02)}, ("eps",) + _SWEEP_COLUMNS),
    "subdomain-sweep": _Kind(_run_subdomain_sweep,
                             dict(_FAMILY, n_eigs=((int, 2), 5), j_max=((int, 1), 8)),
                             {"final_rel_err": (float, 0.05)}, ("eta",) + _SWEEP_COLUMNS),
    "collar-sweep": _Kind(_run_collar_sweep, {
        "mode": (("one-sided", "two-sided"), "one-sided"), "widths": ([float], ...),
        "circle_length": (float, 2 * math.pi), "n_eigs": ((int, 2), 7),
        "elements_across": ((int, 8), 8), "k_max": ((int, 1), 4), "target_h": (float, 0.05)},
        {"final_rel_err": (float, 0.02)}, ("eta",) + _SWEEP_COLUMNS),
    "graph-limit": _Kind(_run_graph_limit, {
        "complete": ((int, 2), 3), "n_vertices": ((int, 2), None),
        "edges": ([[(int, 0)]], None), "lengths": ([float], None),
        "style": (("convex-boundary", "path", "star"), "convex-boundary"),
        "c": (float, 2.0), "eps_values": ([float], ...), "target_h_factor": (float, 0.25)},
        {"ratio_spread": (float, 0.05)}, ("eps", "k", "sigma", "lambda", "ratio")),
    "prescription-pipeline": _Kind(_run_prescriber_audit, {
        "mode": (("audit",), ...), "trials": ((int, 1), 50), "n_range": ([(int, 1)], [2, 6])},
        {"prescriber_rel_err": (float, 1e-8)}, ("trial", "n_targets", "rel_err", "homogeneity_err")),
    "nodal-audit": _audit_kind(dict(_AUDIT, n_rotations=((int, 0), 20)), _measure_nodal, (
        ("courant_ok", "courant-ok"), ("touch_ok", "touch-ok"),
        ("cycle_rank_ok", "cycle-rank-ok"), ("parity_ok", "parity-ok"))),
    "multiplicity-audit": _audit_kind(_AUDIT, _measure_multiplicity,
                                      (("bounds_ok", "multiplicity-bounds"),)),
}

KINDS = tuple(_REGISTRY)
AUDIT_KINDS = tuple(k for k, entry in _REGISTRY.items() if entry.measure is not None)
