"""Bad input to every subcommand ends in one error line and exit code 2.

Each case runs the command line in a fresh interpreter, as a user would, so
that an uncaught exception shows up as a traceback on stderr.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from steklov_lab import geometry, graphs


def _complete_graph(n):
    edges = np.array([(a, b) for a in range(n) for b in range(a + 1, n)])
    return graphs.MetricGraph(n, edges, np.ones(len(edges)))


@pytest.mark.parametrize("argv", [
    ["mesh", "--target-h", "2"],
    ["spectrum", "--mesh", "not-a-mesh.msh"],
    ["spectrum", "--mesh", "disk.msh", "--n-eigs", "5000"],
    ["prescribe", "--targets", "3,1"],
    ["thicken", "--graph", "k4.graph", "--eps", "0.05"],
    ["thicken", "--graph", "k3.graph", "--eps", "2"],
    ["run", "--config", "missing.json"],
    ["audit", "--config", "not-json.json"],
], ids=["mesh-target-h", "spectrum-bad-file", "spectrum-n-eigs", "prescribe-unsorted",
        "thicken-k4", "thicken-wide-eps", "run-missing-config", "audit-bad-json"])
def test_cli_input_errors_exit_2_without_traceback(argv, tmp_path):
    (tmp_path / "not-a-mesh.msh").write_text("garbage\n")
    (tmp_path / "not-json.json").write_text("{kind: nodal-audit\n")
    geometry.save_mesh(geometry.make_disk_mesh(1.0, 0.3), str(tmp_path / "disk.msh"))
    graphs.save_graph(_complete_graph(4), str(tmp_path / "k4.graph"))
    graphs.save_graph(_complete_graph(3), str(tmp_path / "k3.graph"))
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([package_root] + [p for p in
                                        env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-m", "steklov_lab.cli"] + argv, cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("steklov-lab: error: ")
    assert out.stderr.count("\n") == 1
