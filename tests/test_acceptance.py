"""Acceptance suite: one test per shipped experiment config.

Each test runs the corresponding named config end to end and prints a single
pass/fail line with the observed margin at the stated tolerance.  Under the
numpy and scipy versions of ``benchmarks/outputs.json``, each report's hash
must also equal the one recorded there for its config.
"""

import json
import os

import numpy as np
import scipy

from steklov_lab import harness

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
OUTPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "outputs.json")

with open(OUTPUTS, encoding="ascii") as _fh:
    RECORD = json.load(_fh)
RECORDED_VERSIONS = (RECORD["numpy"], RECORD["scipy"]) == (np.__version__, scipy.__version__)


def run_config(filename):
    config = harness.load_config(os.path.join(CONFIG_DIR, filename))
    return config, harness.run(config)


def report_line(criterion, report, detail):
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    for c in report.checks:
        assert c["passed"], f"criterion {criterion} check {c['name']}: " \
                            f"observed={c['observed']} required={c['required']}"
    # the report holds JSON values only: a tuple or a numpy number would not
    # come back as it went in
    assert json.loads(json.dumps(report.to_dict())) == report.to_dict()
    if RECORDED_VERSIONS:
        name = report.config["name"]
        assert report.report_hash() == RECORD["runs"][name]["report_hash"], \
            f"criterion {criterion}: report_hash differs from benchmarks/outputs.json"


def test_criterion_01_disk_spectrum_oracle():
    config, report = run_config("01-disk-oracle.json")
    sigma = [pt["sigma"] for pt in report.points]
    err = max(abs(s - r) / r for s, r in zip(sigma[1:5], (1, 1, 2, 2)))
    report_line(1, report,
                f"disk sigma_1..4 vs (1,1,2,2) max rel err {err:.2e} <= 1e-2, "
                f"clusters (2,2) at rel_tol 1e-2")


def test_criterion_02_cylinder_formula():
    config, report = run_config("02-cylinder-formula.json")
    worst = max(pt["rel_err"] for pt in report.points)
    report_line(2, report,
                f"two-sided cylinder, widths (1,0.5,0.25), k<=4 vs "
                f"k*tanh(eta*k): max rel err {worst:.2e} <= 1e-2")


def test_criterion_03_collar_convergence():
    config, report = run_config("03-collar-convergence.json")
    final = [c for c in report.checks if c["name"] == "final-error"][0]
    report_line(3, report,
                f"sigma_k/eta -> k^2 along eta=(0.2,0.1,0.05), decreasing, "
                f"final {final['observed']:.2e} <= 2e-2")


def test_criterion_04_density_family():
    config, report = run_config("04-density-family.json")
    final = [c for c in report.checks if c["name"] == "final-error"][0]
    report_line(4, report,
                f"density family eps=2^-j, seeded target density, n=3: "
                f"final rel err {final['observed']:.2e} <= 2e-2, tail decreasing")


def test_criterion_05_subdomain_family():
    config, report = run_config("05-subdomain-family.json")
    final = [c for c in report.checks if c["name"] == "final-error"][0]
    report_line(5, report,
                f"singular weights vs half-disk submesh oracle, eta=2^-j "
                f"(j<=8): final rel err {final['observed']:.2e} <= 5e-2")


def test_criterion_06_graph_prescriber():
    config, report = run_config("06-prescriber-audit.json")
    acc = [c for c in report.checks if c["name"] == "prescriber-accuracy"][0]
    hom = [c for c in report.checks if c["name"] == "homogeneity"][0]
    report_line(6, report,
                f"50 seeded targets N in 2..6: max rel err "
                f"{acc['observed']:.2e} <= 1e-8, homogeneity "
                f"{hom['observed']:.2e} <= 1e-12")


def test_criterion_07_thickened_graph_limit():
    config, report = run_config("07-graph-limit.json")
    const = [c for c in report.checks if c["name"] == "constant-recorded"][0]
    spread = [c for c in report.checks if c["name"] == "ratio-spread"][0]
    report_line(7, report,
                f"K_3 thickening eps->0.01: ratio spread "
                f"{spread['observed']:.2e} <= 5e-2, gap monotone, measured "
                f"constant {const['observed']['final_ratio']:.4f} vs "
                f"candidates {const['observed']['candidates']} "
                f"(closest: {const['observed']['closest']})")


def test_criterion_08_courant_audit():
    config, report = run_config("08-courant-audit.json")
    ok = [c for c in report.checks if c["name"] == "courant-ok"][0]
    report_line(8, report,
                f"Courant bound k+1 on disk+annulus, k<=6, 20 cluster "
                f"rotations: {ok['observed']}")


def test_criterion_09_boundary_touch_audit():
    config, report = run_config("09-boundary-touch.json")
    ok = [c for c in report.checks if c["name"] == "touch-ok"][0]
    report_line(9, report,
                f"every nodal domain touches the steklov arc on mixed disks "
                f"(random arc fraction in [0.25,0.75]): {ok['observed']}")


def test_criterion_10_multiplicity_audits():
    config, report = run_config("10-multiplicity-audit.json")
    ok = report.checks[0]
    report_line(10, report,
                f"cluster sizes within bounds (disk 2/3 at sigma_1/2, mixed "
                f"disk k+1, annulus 2k+1): {ok['observed']}")


def test_criterion_11_nodal_graph_structure():
    config, report = run_config("11-nodal-graph.json")
    rank = [c for c in report.checks if c["name"] == "cycle-rank-ok"][0]
    parity = [c for c in report.checks if c["name"] == "parity-ok"][0]
    report_line(11, report,
                f"nodal graphs on disks: cycle rank 0 in {rank['observed']}, "
                f"even boundary endpoints in {parity['observed']}")
