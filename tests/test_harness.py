import csv
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy

from steklov_lab import cli, fem, geometry, graphs, harness, nodal, thickening

import oracles

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def small_config(**kw):
    base = dict(kind="spectrum", name="t", seed=0,
                params={"domain": "disk", "radius": 1.0, "target_h": 0.15,
                        "n_eigs": 4})
    base.update(kw)
    return harness.ExperimentConfig(**base)


def test_config_validation(tmp_path):
    with pytest.raises(harness.ConfigError):
        small_config(kind="nope")
    with pytest.raises(harness.ConfigError):
        small_config(seed=-1)
    path = tmp_path / "c.json"
    for data in ({"params": {}}, {"kind": "spectrum", "seed": 1.5},
                 {"kind": "spectrum", "seed": True}, {"kind": "spectrum", "name": ["x"]}, 5):
        path.write_text(json.dumps(data))
        with pytest.raises(harness.ConfigError):
            harness.load_config(str(path))


def test_config_hash_stable():
    a = small_config()
    b = small_config()
    assert a.content_hash() == b.content_hash()
    c = small_config(seed=1)
    assert c.content_hash() != a.content_hash()


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "spectrum", "seed": 3,
                                "params": {"target_h": 0.2}}))
    cfg = harness.load_config(str(path), seed=9)
    assert cfg.name == "c"
    assert cfg.seed == 9
    assert cfg.params["target_h"] == 0.2


def test_run_spectrum_and_report_shape():
    report = harness.run(small_config())
    assert len(report.points) == 4
    assert report.points[0]["sigma"] == pytest.approx(0.0, abs=1e-10)
    assert "python" in report.environment
    assert report.passed  # no checks configured -> vacuous pass


def test_report_hash_deterministic_and_env_independent():
    r1 = harness.run(small_config())
    r2 = harness.run(small_config())
    assert r1.report_hash() == r2.report_hash()
    assert r1.wallclock_s != r2.wallclock_s or True  # wallclock excluded anyway


def _report_hash_in_child(config_path, threads):
    """report_hash of a config run in a fresh interpreter with the given
    number of BLAS/OpenMP threads, importing this checkout's package."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([package_root] + [p for p in
                                        env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys; from steklov_lab import harness; "
            "print(harness.run(harness.load_config(sys.argv[1])).report_hash())")
    out = subprocess.run([sys.executable, "-c", code, config_path], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return out.stdout.strip()


def test_report_hash_independent_of_blas_threads():
    # 01 solves through ARPACK, 08 on the boundary Schur complement: the dense
    # path's bound on the boundary size rests on LAPACK giving the same bits
    # with one and two threads
    for name in ("01-disk-oracle.json", "08-courant-audit.json"):
        path = os.path.join(CONFIG_DIR, name)
        one = _report_hash_in_child(path, 1)
        assert len(one) == 64
        assert _report_hash_in_child(path, 2) == one


def _check_outputs_module():
    """benchmarks/check_outputs.py, loaded by path; it pins the BLAS thread
    count in os.environ on import, which is restored afterwards."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "check_outputs.py")
    spec = importlib.util.spec_from_file_location("check_outputs", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["04-density-family.json", "05-subdomain-family.json"])
def test_reweighted_configs_match_recorded_outputs(name):
    # each re-weights one geometry 7-8 times on the ARPACK path, whose bits
    # do not depend on the BLAS thread count: the report and every written
    # file must equal the record of benchmarks/outputs.json
    check = _check_outputs_module()
    with open(check.OUTPUTS, encoding="ascii") as fh:
        want = json.load(fh)
    if (want["numpy"], want["scipy"]) != (np.__version__, scipy.__version__):
        pytest.skip(f"outputs.json records numpy {want['numpy']} and scipy {want['scipy']}")
    config = harness.load_config(os.path.join(CONFIG_DIR, name))
    got = {config.name: check.record(config.name, config)}
    assert check.differences({config.name: want["runs"][config.name]}, got) == []


@pytest.mark.parametrize("kind, params", [
    pytest.param("density-sweep", {"target_h": 0.3, "j_max": 0}, id="density-no-steps"),
    pytest.param("subdomain-sweep", {"target_h": 0.3, "j_max": 0}, id="subdomain-no-steps"),
    pytest.param("collar-sweep", {"mode": "one-sided", "widths": []},
                 id="collar-one-sided-no-widths"),
    pytest.param("collar-sweep", {"mode": "two-sided", "widths": []},
                 id="collar-two-sided-no-widths"),
    pytest.param("collar-sweep", {"mode": "one-sided", "widths": [0.1, 0.2]},
                 id="collar-one-sided-increasing-widths"),
    pytest.param("collar-sweep", {"mode": "one-sided", "widths": [0.1], "elements_across": 4},
                 id="collar-one-sided-coarse"),
    pytest.param("collar-sweep", {"mode": "one-sided", "widths": [0.1], "n_eigs": 1},
                 id="collar-one-sided-one-eigenvalue"),
    pytest.param("collar-sweep", {"mode": "two-sided", "widths": [0.5], "k_max": 0},
                 id="collar-two-sided-no-modes"),
    pytest.param("density-sweep", {"target_h": 0.3, "n_eigs": 1},
                 id="density-one-eigenvalue"),
    pytest.param("subdomain-sweep", {"target_h": 0.3, "n_eigs": 1},
                 id="subdomain-one-eigenvalue"),
    pytest.param("graph-limit", {"eps_values": []}, id="graph-limit-no-eps"),
    pytest.param("spectrum", {"target_h": 0.3, "n_eigs": 3, "reference": [1.0, 1.0, 2.0]},
                 id="spectrum-reference-too-long"),
    pytest.param("spectrum", {"target_h": 0.3, "n_eigs": 3, "reference": []},
                 id="spectrum-reference-empty"),
    pytest.param("nodal-audit", {"target_h": 0.3, "runs": 0}, id="nodal-audit-no-runs"),
    pytest.param("multiplicity-audit", {"target_h": 0.3, "runs": 0},
                 id="multiplicity-audit-no-runs"),
    pytest.param("nodal-audit", {"target_h": 0.3, "k_max": 0, "n_rotations": -3},
                 id="nodal-audit-no-modes-negative-rotations"),
    pytest.param("nodal-audit", {"target_h": 0.3, "k_max": 0}, id="nodal-audit-no-modes"),
    pytest.param("nodal-audit", {"target_h": 0.3, "n_rotations": -3},
                 id="nodal-audit-negative-rotations"),
    pytest.param("multiplicity-audit", {"target_h": 0.3, "k_max": 0},
                 id="multiplicity-audit-no-modes"),
    pytest.param("prescription-pipeline", {"mode": "audit", "trials": 0},
                 id="prescriber-audit-no-trials"),
    pytest.param("prescription-pipeline", {"targets": [1.0, 2.0], "eps_values": [0.04, 0.02]},
                 id="prescription-targets-no-mode"),
    pytest.param("prescription-pipeline",
                 {"mode": "full", "targets": [1.0, 1.0], "eps_values": [0.04, 0.02]},
                 id="prescription-full-mode"),
    pytest.param("graph-limit", {"edges": [[0, 1], [1, 2], [2, 0]], "lengths": [1.0] * 3,
                                 "eps_values": [0.04]}, id="graph-limit-edges-no-n-vertices"),
    pytest.param("graph-limit", {"n_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]],
                                 "eps_values": [0.04]}, id="graph-limit-edges-no-lengths"),
    pytest.param("graph-limit", {"n_vertices": 3, "eps_values": [0.04]},
                 id="graph-limit-n-vertices-no-edges"),
    pytest.param("prescription-pipeline", {"mode": "audit", "n_range": [2, 3, 4]},
                 id="prescriber-n-range-three-values"),
    pytest.param("prescription-pipeline", {"mode": "audit", "n_range": [4, 2]},
                 id="prescriber-n-range-reversed"),
    pytest.param("collar-sweep", {"widths": 5}, id="collar-widths-number"),
    pytest.param("graph-limit", {"eps_values": None}, id="graph-limit-eps-null"),
    pytest.param("nodal-audit", {"domains": "disk", "runs": 1}, id="nodal-audit-domains-string"),
    pytest.param("nodal-audit", {"runs": True}, id="nodal-audit-runs-bool"),
    pytest.param("prescription-pipeline", {"mode": "audit", "trials": "3"},
                 id="prescriber-trials-string"),
    pytest.param("nodal-audit", {"domians": ["annulus"], "runs": 2, "kmax": 2},
                 id="nodal-audit-misspelled-keys"),
    pytest.param("multiplicity-audit", {"runs": 1, "n_rotations": 2},
                 id="multiplicity-audit-n-rotations"),
    pytest.param("spectrum", {"domain": "square"}, id="spectrum-unknown-domain"),
    pytest.param("collar-sweep", {"mode": "three-sided", "widths": [0.1]},
                 id="collar-unknown-mode"),
    pytest.param("collar-sweep", {"widths": [0.2, 0.1], "k_max": 9},
                 id="collar-one-sided-k-max"),
    pytest.param("collar-sweep", {"mode": "one-sided", "widths": [0.2, 0.1], "target_h": 0.5},
                 id="collar-one-sided-target-h"),
    pytest.param("collar-sweep", {"mode": "two-sided", "widths": [1.0], "n_eigs": 7},
                 id="collar-two-sided-n-eigs"),
    pytest.param("collar-sweep", {"mode": "two-sided", "widths": [1.0], "elements_across": 9},
                 id="collar-two-sided-elements-across"),
    pytest.param("graph-limit", {"complete": 4, "n_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]],
                                 "lengths": [1.0] * 3, "eps_values": [0.04]},
                 id="graph-limit-complete-beside-edges"),
    pytest.param("nodal-audit", {"domain": "annulus", "domains": ["disk"], "runs": 1},
                 id="nodal-audit-domain-beside-domains"),
    pytest.param("multiplicity-audit", {"domain": "disk", "domains": ["annulus"], "runs": 1},
                 id="multiplicity-audit-domain-beside-domains"),
    pytest.param("spectrum", {"domain": "disk", "r_inner": 0.9}, id="spectrum-disk-r-inner"),
    pytest.param("spectrum", {"r_outer": 2.0}, id="spectrum-default-disk-r-outer"),
    pytest.param("spectrum", {"domain": "annulus", "radius": 5.0}, id="spectrum-annulus-radius"),
    pytest.param("spectrum", {"domain": "mixed-disk", "r_inner": 0.2},
                 id="spectrum-mixed-disk-r-inner"),
    pytest.param("nodal-audit", {"domains": ["disk", "mixed-disk"], "r_outer": 1.0, "runs": 1},
                 id="nodal-audit-disks-r-outer"),
    pytest.param("multiplicity-audit", {"domain": "annulus", "radius": 1.0, "runs": 1},
                 id="multiplicity-audit-annulus-radius"),
])
def test_run_rejects_empty_or_inconsistent_config(kind, params, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rejected config must not reach a solve")

    monkeypatch.setattr(fem, "steklov_spectrum", no_solve)
    config = harness.ExperimentConfig(kind=kind, name="bad", seed=0, params=params)
    with pytest.raises(harness.ConfigError):
        harness.run(config)


@pytest.mark.parametrize("kind, params, tolerances, message", [
    ("nodal-audit", {"domians": ["annulus"]}, {},
     "nodal-audit has no params key 'domians'; its params keys are domain, "),
    ("nodal-audit", {}, {"rel_eror": 0.1}, "nodal-audit has no tolerances key 'rel_eror'; "
     "it takes no tolerances"),
    ("spectrum", {}, {"rel_eror": 0.1}, "spectrum has no tolerances key 'rel_eror'; "
     "its tolerances keys are rel_err"),
    ("graph-limit", {"eps_values": [0.1, 0]}, {},
     "graph-limit params 'eps_values'[1] must be a positive number, got 0"),
    ("nodal-audit", {"runs": 2.0}, {}, "nodal-audit params 'runs' must be an integer >= 1"),
    ("collar-sweep", {}, {}, "collar-sweep needs the params key 'widths'"),
    ("spectrum", {}, {"rel_err": "0.1"}, "spectrum tolerances 'rel_err' must be a positive"),
    ("collar-sweep", {"mode": "two-sided", "widths": [1.0], "n_eigs": 7, "elements_across": 9},
     {}, "collar-sweep in two-sided mode does not read the params key 'n_eigs', "
     "'elements_across'"),
    ("graph-limit", {"complete": 4, "n_vertices": 2, "edges": [[0, 1]], "lengths": [1.0],
                     "eps_values": [0.04]}, {},
     "graph-limit with edges or n_vertices does not read the params key 'complete'"),
    ("multiplicity-audit", {"domain": "disk", "domains": ["disk"]}, {},
     "multiplicity-audit with domains does not read the params key 'domain'"),
    ("nodal-audit", {"domains": ["disk", "mixed-disk"], "r_inner": 0.5, "r_outer": 1.0}, {},
     "nodal-audit on disk, mixed-disk does not read the params key 'r_inner', 'r_outer'"),
], ids=["unknown-param", "audit-tolerance", "unknown-tolerance", "list-item", "float-for-int",
        "missing-required", "string-for-number", "collar-mode-only", "graph-limit-source-only",
        "audit-domain-only", "audit-unread-dims"])
def test_schema_error_names_the_key(kind, params, tolerances, message, monkeypatch):
    monkeypatch.setattr(fem, "steklov_spectrum", None)
    config = harness.ExperimentConfig(kind=kind, name="bad", seed=0, params=params,
                                      tolerances=tolerances)
    with pytest.raises(harness.ConfigError) as exc:
        harness.run(config)
    assert str(exc.value).startswith(message)


def test_audit_point_takes_raw_params_with_every_key():
    """The benchmark calls _audit_point with a raw nodal-audit params dict
    plus domain; the point must solve, and an error would only be recorded."""
    params = {"domains": ["disk", "annulus", "mixed-disk"], "radius": 1.0, "r_inner": 0.5,
              "r_outer": 1.0, "target_h": 0.3, "runs": 90, "k_max": 6, "n_rotations": 20,
              "domain": "mixed-disk"}
    assert set(harness._REGISTRY["nodal-audit"].params) == set(params)
    point = harness._audit_point(("nodal-audit", params, {}, 1, 0))
    assert "error" not in point
    assert point["domain"] == "disk" and point["courant_ok"]


def test_readme_lists_every_config_key():
    with open(os.path.join(CONFIG_DIR, os.pardir, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
    blocks = {block.split("\n", 1)[0].strip("` "): block for block in section.split("\n### ")[1:]}
    assert set(blocks) == set(harness.KINDS)
    for kind, entry in harness._REGISTRY.items():
        for key in list(entry.params) + list(entry.tolerances):
            assert f"`{key}`" in blocks[kind], (kind, key)


def test_prescription_pipeline_names_graph_limit_for_a_prescribed_graph():
    config = harness.ExperimentConfig(kind="prescription-pipeline", name="full", seed=0,
                                      params={"targets": [1.0, 2.0], "eps_values": [0.04]})
    with pytest.raises(harness.ConfigError, match="graph-limit"):
        harness.run(config)


def test_audit_determinism():
    cfg = harness.ExperimentConfig(
        kind="nodal-audit", name="mini", seed=5,
        params={"domain": "disk", "target_h": 0.15, "runs": 4, "k_max": 3,
                "n_rotations": 3})
    first = harness.run(cfg)
    assert harness.run(cfg).report_hash() == first.report_hash()
    assert first.passed


def test_persist_writes_the_final_solve(tmp_path, monkeypatch):
    calls = {"build": [], "solve": []}

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[key].append((args[0], out))
            return out
        return wrapped

    monkeypatch.setattr(thickening, "build_thickened_mesh",
                        counted("build", thickening.build_thickened_mesh))
    monkeypatch.setattr(fem, "steklov_spectrum", counted("solve", fem.steklov_spectrum))
    eps_values = [0.08, 0.04]
    cfg = harness.ExperimentConfig(kind="graph-limit", name="k3", seed=0,
                                   params={"complete": 3, "eps_values": eps_values})
    assert harness.run(cfg, out_dir=str(tmp_path)).passed
    assert len(calls["build"]) == len(calls["solve"]) == len(eps_values)
    mesh, res = calls["solve"][-1]
    assert mesh is calls["build"][-1][1]
    text = (tmp_path / "meshes" / "k3-thickened.msh").read_text()
    assert text == "".join(geometry.mesh_to_text(mesh))
    svg = (tmp_path / "figures" / "k3-mode1.svg").read_text()
    assert svg == "".join(nodal.nodal_svg(mesh, harness._mode1_field(res)))


@pytest.mark.parametrize("name", ["k3", "5-cycle"])
def test_mode1_figure_does_not_depend_on_the_solve_size(name):
    if name == "k3":
        g = graphs.MetricGraph(3, graphs.complete_graph_edges(3), np.ones(3))
    else:
        lengths = np.random.default_rng(1).uniform(0.9, 1.1, 5)
        g = graphs.MetricGraph(5, [[i, (i + 1) % 5] for i in range(5)],
                               lengths * 5.0 / lengths.sum())
    mesh = thickening.build_thickened_mesh(thickening.embed_graph(g), 0.04)
    nv = g.n_vertices
    fields = [harness._mode1_field(fem.steklov_spectrum(mesh, n)) for n in (nv + 1, nv + 3)]
    assert "".join(nodal.nodal_svg(mesh, fields[0])) == "".join(nodal.nodal_svg(mesh, fields[1]))
    sigma_1 = fem.steklov_spectrum(mesh, nv + 1).eigenvalues[1]
    for f in fields:
        assert abs(oracles.rayleigh_quotient(mesh, f) - sigma_1) < 1e-10


def test_mixed_disk_audit_point():
    cfg = harness.ExperimentConfig(
        kind="nodal-audit", name="mix", seed=2,
        params={"domain": "mixed-disk", "target_h": 0.15, "runs": 2,
                "k_max": 3, "n_rotations": 2})
    report = harness.run(cfg)
    assert report.passed
    assert all(pt["touch_ok"] for pt in report.points)


@pytest.mark.parametrize("kind", ["nodal-audit", "multiplicity-audit"])
def test_audit_records_point_error(kind, monkeypatch):
    params = {"domains": ["disk", "annulus"], "target_h": 0.15, "runs": 3, "k_max": 3}
    if kind == "nodal-audit":
        params["n_rotations"] = 2
    cfg = harness.ExperimentConfig(kind=kind, name="err", seed=5, params=params)
    clean = harness.run(cfg)
    solve = fem.steklov_spectrum
    calls = []

    def failing_on_second_run(mesh, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise fem.FactorizationError("interior block factorization failed: test")
        return solve(mesh, *args, **kwargs)

    monkeypatch.setattr(fem, "steklov_spectrum", failing_on_second_run)
    report = harness.run(cfg)
    assert not report.passed
    assert report.points[1] == {"run": 1, "seed": 1005, "domain": "annulus",
                                "error": "FactorizationError",
                                "message": "interior block factorization failed: test"}
    assert report.points[0] == clean.points[0]
    assert report.points[2] == clean.points[2]
    assert clean.passed
    assert [c["name"] for c in report.checks] == [c["name"] for c in clean.checks]
    for check in report.checks:
        assert not check["passed"]
        assert check["observed"] == "2/3 runs"
        assert check["required"] == "failures: [1]"


def test_domains_list_alternates():
    cfg = harness.ExperimentConfig(
        kind="multiplicity-audit", name="alt", seed=2,
        params={"domains": ["disk", "annulus"], "target_h": 0.15,
                "runs": 4, "k_max": 3})
    report = harness.run(cfg)
    assert [pt["domain"] for pt in report.points] == ["disk", "annulus"] * 2


def test_audit_points_share_one_base_mesh(monkeypatch):
    harness._base_mesh.cache_clear()
    built = []
    make = geometry.make_disk_mesh
    monkeypatch.setattr(geometry, "make_disk_mesh",
                        lambda *args: built.append(args) or make(*args))
    params = {"domain": "mixed-disk", "radius": 1.0, "r_inner": 0.5, "r_outer": 1.0,
              "target_h": 0.15}
    mixed = [harness._make_domain(params, np.random.default_rng(s)) for s in (1, 2)]
    disk = harness._make_domain(dict(params, domain="disk"), np.random.default_rng(1))
    assert disk is harness._make_domain(dict(params, domain="disk"), np.random.default_rng(2))
    assert built == [(1.0, 0.15)]
    # the arcs are drawn after the cache, one pair per point
    assert list(mixed[0].boundary_tags) != list(mixed[1].boundary_tags)
    assert set(disk.boundary_tags) == {geometry.STEKLOV}
    # sharing is safe: the mesh is frozen and its arrays are read-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        disk.vertices = disk.vertices.copy()
    for f in dataclasses.fields(disk):
        if f.name != "period_x":
            assert not getattr(disk, f.name).flags.writeable, f.name


def test_random_density_positive_and_seeded():
    angles = np.linspace(0, 2 * math.pi, 50)
    rng = np.random.default_rng(7)
    rho1, coeffs = harness.random_boundary_density(angles, rng)
    assert np.all(rho1 > 0)
    rho2, _ = harness.random_boundary_density(angles, np.random.default_rng(7))
    assert np.array_equal(rho1, rho2)
    assert all(abs(v) <= 0.5 for v in coeffs["a"] + coeffs["b"])


def test_emit_tables_and_empty_sweep(tmp_path):
    report = harness.run(small_config())
    empty = harness.ExperimentReport(
        config=report.config, config_hash=report.config_hash, points=[],
        checks=[], environment=report.environment, wallclock_s=0.0)
    harness.emit_tables(empty, str(tmp_path))
    with open(tmp_path / "tables" / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["k", "sigma"]]  # header-only CSV
    assert "overall: PASS" in (tmp_path / "summary.txt").read_text()


def _written(out_dir):
    return {os.path.relpath(os.path.join(d, name), out_dir).replace(os.sep, "/")
            for d, _, names in os.walk(out_dir) for name in names}


def test_runs_write_exactly_their_files(tmp_path, monkeypatch):
    common = {"report.json", "summary.txt", "tables/sweep.csv"}
    harness.run(small_config(), out_dir=str(tmp_path / "spectrum"))
    assert _written(tmp_path / "spectrum") == common | {"meshes/t.msh", "spectrum.json"}
    sweep = harness.ExperimentConfig(kind="collar-sweep", name="collar", seed=0,
                                     params={"widths": [0.4], "n_eigs": 3})
    harness.run(sweep, out_dir=str(tmp_path / "sweep"))
    assert _written(tmp_path / "sweep") == common
    # the mode-1 field is computed only to write the figure
    fields = []
    field = harness._mode1_field

    def counted(res):
        fields.append(res)
        return field(res)

    monkeypatch.setattr(harness, "_mode1_field", counted)
    limit = harness.ExperimentConfig(kind="graph-limit", name="k3", seed=0,
                                     params={"complete": 3, "eps_values": [0.08]})
    harness.run(limit)
    assert not fields
    harness.run(limit, out_dir=str(tmp_path / "limit"))
    assert len(fields) == 1
    assert _written(tmp_path / "limit") == common | {
        "k3.graph", "meshes/k3-thickened.msh", "figures/k3-mode1.svg"}


def test_persisted_tree(tmp_path):
    cfg = small_config()
    harness.run(cfg, out_dir=str(tmp_path))
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "tables" / "sweep.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    assert (tmp_path / "meshes" / "t.msh").exists()
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["format"] == "steklov-report v1"
    assert data["passed"]


def test_cli_mesh_and_spectrum(tmp_path, capsys):
    mesh_path = str(tmp_path / "d.msh")
    assert cli.main(["mesh", "--kind", "disk", "--target-h", "0.2",
                     "--out", mesh_path]) == 0
    spec_path = tmp_path / "spectrum.json"
    assert cli.main(["spectrum", "--mesh", mesh_path, "--n-eigs", "3",
                     "--out", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "sigma_1" in out
    spec = json.loads(spec_path.read_text())
    assert spec["format"] == "steklov-spectrum v1"
    assert len(spec["eigenvalues"]) == 3


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.json", "--tol", "0.1"],
    ["audit", "--config", "c.json", "--tol", "0.1"],
    ["run", "--config", "c.json", "--jobs", "2"],
    ["audit", "--config", "c.json", "--jobs", "2"],
    ["thicken", "--graph", "g.graph", "--eps", "0.05", "--seed", "1"],
])
def test_cli_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--mesh", "d.msh", "--tol", "0"],
    ["prescribe", "--targets", "1,2", "--tol", "-1"],
    ["spectrum", "--mesh", "d.msh", "--tol", "nan"],
    ["prescribe", "--targets", "1,2", "--tol", "0"],
    ["spectrum", "--mesh", "d.msh", "--tol", "-0.5"],
    ["prescribe", "--targets", "1,2", "--tol", "inf"],
])
def test_cli_rejects_nonpositive_tol(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be a positive number" in capsys.readouterr().err


@pytest.mark.parametrize("n_eigs", [0, -1])
def test_n_eigs_must_be_positive(n_eigs, capsys):
    with pytest.raises(ValueError, match="must be at least 1"):
        fem.steklov_spectrum(geometry.make_disk_mesh(1.0, 0.3), n_eigs)
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--mesh", "d.msh", "--n-eigs", str(n_eigs)])
    assert exc.value.code == 2
    assert "argument --n-eigs: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("run", {"name": "no-kind", "params": {}}),
    ("run", {"kind": "spectrum", "seed": 1.5, "params": {"target_h": 0.3}}),
    ("run", {"kind": "prescription-pipeline", "params": {"trials": 2}}),
    ("audit", {"kind": "nodal-audit", "params": {"target_h": 0.3, "k_max": 0}}),
    ("audit", {"kind": "spectrum", "params": {"target_h": 0.3}}),
], ids=["no-kind", "fractional-seed", "prescription-no-mode", "audit-no-modes",
        "audit-of-a-spectrum"])
def test_cli_reports_config_errors(command, config, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("steklov-lab: error: ")
    assert out.err.count("\n") == 1


def test_cli_prescribe_thicken_roundtrip(tmp_path, capsys):
    graph_path = str(tmp_path / "g.graph")
    assert cli.main(["prescribe", "--targets", "1,1", "--out", graph_path]) == 0
    mesh_path = str(tmp_path / "t.msh")
    assert cli.main(["thicken", "--graph", graph_path, "--eps", "0.05",
                     "--out", mesh_path]) == 0
    mesh = geometry.load_mesh(mesh_path)
    geometry.validate_mesh(mesh)


def test_cli_run_config(tmp_path, capsys):
    cfg = {"kind": "collar-sweep", "name": "mini-collar", "seed": 0,
           "params": {"mode": "one-sided", "widths": [0.2, 0.1], "n_eigs": 5},
           "tolerances": {"final_rel_err": 0.05}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_shipped_configs_parse():
    names = sorted(os.listdir(CONFIG_DIR))
    assert len(names) == 11
    kinds = set()
    for name in names:
        cfg = harness.load_config(os.path.join(CONFIG_DIR, name))
        kinds.add(cfg.kind)
    assert kinds <= set(harness.KINDS)
