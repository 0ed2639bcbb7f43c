"""Bad input to every subcommand ends in one error line and exit code 2.

Most cases call ``cli.main`` in-process, where an uncaught exception fails
the test and a warning, which would print to stderr, is caught by
``recwarn``.  One case runs ``python -m steklov_lab.cli`` in a fresh
interpreter, as a user would, so that the module entry point is covered too.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from steklov_lab import cli, geometry, graphs


def _complete_graph(n):
    edges = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
    return graphs.MetricGraph(n, edges, np.ones(len(edges)))


def _run_in_fresh_interpreter(argv, cwd):
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([package_root] + [p for p in
                                        env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-m", "steklov_lab.cli"] + argv, cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=120)
    return out.returncode, out.stderr


@pytest.mark.parametrize("argv, fresh", [
    (["mesh", "--target-h", "2"], False),
    (["spectrum", "--mesh", "not-a-mesh.msh"], False),
    (["spectrum", "--mesh", "disk.msh", "--n-eigs", "5000"], False),
    (["prescribe", "--targets", "3,1"], False),
    (["thicken", "--graph", "k4.graph", "--eps", "0.05"], False),
    (["thicken", "--graph", "k3.graph", "--eps", "2"], False),
    (["run", "--config", "missing.json"], True),
    (["audit", "--config", "not-json.json"], False),
    (["spectrum", "--mesh", "header-only.msh"], False),
    (["thicken", "--graph", "empty.graph", "--eps", "0.05"], False),
    (["thicken", "--graph", "header-only.graph", "--eps", "0.05"], False),
    (["thicken", "--graph", "short.graph", "--eps", "0.05"], False),
    (["run", "--config", "params-list.json"], False),
    (["run", "--config", "tolerances-list.json"], False),
    (["audit", "--config", "no-domains.json"], False),
    (["audit", "--config", "misspelled-audit.json"], False),
    (["run", "--config", "widths-number.json"], False),
    (["audit", "--config", "domains-string.json"], False),
    (["audit", "--config", "runs-bool.json"], False),
    (["run", "--config", "trials-string.json"], False),
    (["run", "--config", "top-level-number.json"], False),
    (["run", "--config", "collar-mode-only-key.json"], False),
    (["spectrum", "--mesh", "bad-tag.msh"], False),
    (["run", "--config", "spectrum-unread-r-inner.json"], False),
    (["prescribe", "--targets", "nan"], False),
    (["mesh", "--radius", "inf"], False),
    (["mesh", "--kind", "strip", "--length", "inf"], False),
], ids=["mesh-target-h", "spectrum-bad-file", "spectrum-n-eigs", "prescribe-unsorted",
        "thicken-k4", "thicken-wide-eps", "run-missing-config", "audit-bad-json",
        "spectrum-header-only-mesh", "thicken-empty-graph", "thicken-header-only-graph",
        "thicken-short-graph", "run-params-list", "run-tolerances-list",
        "audit-empty-domains", "audit-misspelled-keys", "run-widths-number",
        "audit-domains-string", "audit-runs-bool", "run-trials-string",
        "run-top-level-number", "run-collar-mode-only-key", "spectrum-bad-tag",
        "run-spectrum-unread-r-inner", "prescribe-nan", "mesh-radius-inf",
        "mesh-strip-length-inf"])
def test_cli_input_errors_exit_2_without_traceback(argv, fresh, tmp_path, monkeypatch,
                                                   capsys, recwarn):
    (tmp_path / "not-a-mesh.msh").write_text("garbage\n")
    (tmp_path / "header-only.msh").write_text("steklov-mesh v1\n")
    (tmp_path / "not-json.json").write_text("{kind: nodal-audit\n")
    (tmp_path / "empty.graph").write_text("")
    (tmp_path / "header-only.graph").write_text("steklov-graph v1\n")
    (tmp_path / "short.graph").write_text("steklov-graph v1\n3 3\n0 1 1.0\n")
    configs = {
        "params-list": {"kind": "spectrum", "params": [0.3, 3]},
        "tolerances-list": {"kind": "spectrum", "tolerances": [0.1],
                            "params": {"target_h": 0.3, "n_eigs": 3, "reference": [1.0]}},
        "no-domains": {"kind": "nodal-audit", "params": {"domains": [], "runs": 1}},
        "misspelled-audit": {"kind": "nodal-audit", "tolerances": {"rel_eror": 0.01},
                             "params": {"run": 2, "kmax": 2, "domians": ["annulus"]}},
        "widths-number": {"kind": "collar-sweep", "params": {"widths": 5}},
        "domains-string": {"kind": "nodal-audit",
                           "params": {"domains": "disk", "target_h": 0.3, "runs": 4}},
        "runs-bool": {"kind": "nodal-audit", "params": {"target_h": 0.3, "runs": True}},
        "trials-string": {"kind": "prescription-pipeline",
                          "params": {"mode": "audit", "trials": "3"}},
        "top-level-number": 5,
        "collar-mode-only-key": {"kind": "collar-sweep",
                                 "params": {"widths": [0.2, 0.1], "k_max": 9, "target_h": 0.5}},
        "spectrum-unread-r-inner": {"kind": "spectrum",
                                    "params": {"domain": "disk", "r_inner": 0.9, "target_h": 0.3}},
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    geometry.save_mesh(geometry.make_disk_mesh(1.0, 0.3), str(tmp_path / "disk.msh"))
    (tmp_path / "bad-tag.msh").write_text(
        (tmp_path / "disk.msh").read_text().replace(" steklov ", " stekolv ", 5))
    graphs.save_graph(_complete_graph(4), str(tmp_path / "k4.graph"))
    graphs.save_graph(_complete_graph(3), str(tmp_path / "k3.graph"))
    if fresh:
        code, err = _run_in_fresh_interpreter(argv, tmp_path)
    else:
        monkeypatch.chdir(tmp_path)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert not recwarn.list
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("steklov-lab: error: ")
    assert err.count("\n") == 1
