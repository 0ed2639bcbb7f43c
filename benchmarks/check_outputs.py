"""Output identity of the program: the report hash and the bytes of every
written file, for a fixed set of runs.

Run from the repository root:

    PYTHONPATH=src python benchmarks/check_outputs.py           # write the record
    PYTHONPATH=src python benchmarks/check_outputs.py --check   # compare with it

It makes 25 runs of ``harness.run`` in this process, with one BLAS thread,
each writing its files into a temporary directory:

- the 11 shipped configs in ``configs/``, named by their config name;
- the five configs of perfbench's family_sweep at seeds 1 and 501, and
  perfbench's nodal audit at seeds 1, 7, 21 and 33, named ``<kind>-s<seed>``.
  Their configs come from ``FamilySweep(seed).configs`` and
  ``NodalAudit(seed).configs`` of ``perfbench/workloads.py``, which this
  script imports and does not change.

For each run it records the ``report_hash`` and the sha256 of every written
file except ``report.json``, which holds the wall clock.  Without
``--check`` the record, with the numpy and scipy versions, goes to ``--out``.
With ``--check`` the script compares the runs with that file, names each run
or file that differs, and exits 1 if any does.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import importlib.util
import json
import sys
import tempfile

import numpy as np
import scipy

from steklov_lab import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = os.path.join(ROOT, "benchmarks", "outputs.json")
FAMILY_SEEDS = (1, 501)
NODAL_SEEDS = (1, 7, 21, 33)


def _workloads():
    """perfbench/workloads.py, loaded by path; it imports perfbench's gates."""
    perfbench = os.path.join(ROOT, "perfbench")
    sys.path.insert(0, perfbench)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(perfbench, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs():
    """(run name, config) of every run, in a fixed order."""
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        config = harness.load_config(path)
        out.append((config.name, config))
    workloads = _workloads()
    for seeds, workload in ((FAMILY_SEEDS, workloads.FamilySweep),
                            (NODAL_SEEDS, workloads.NodalAudit)):
        for seed in seeds:
            out += [(f"{c.kind}-s{seed}", c) for c in workload(seed).configs]
    return out


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def record(name, config):
    """The report hash and the digests of the files of one run."""
    with tempfile.TemporaryDirectory() as out_dir:
        report = harness.run(config, out_dir=out_dir)
        files = {}
        for dirpath, _, names in os.walk(out_dir):
            for file_name in names:
                path = os.path.join(dirpath, file_name)
                relative = os.path.relpath(path, out_dir).replace(os.sep, "/")
                if relative != "report.json":
                    files[relative] = _sha256(path)
    print(f"{name}: {'PASS' if report.passed else 'FAIL'} {report.report_hash()[:12]}, "
          f"{len(files)} files", file=sys.stderr)
    return {"report_hash": report.report_hash(), "files": dict(sorted(files.items()))}


def differences(want, got):
    """One line per run or file of the two records that differs."""
    lines = []
    for name in sorted(set(want) | set(got)):
        if name not in got or name not in want:
            lines.append(f"{name}: run only in the {'record' if name in want else 'checkout'}")
            continue
        if want[name]["report_hash"] != got[name]["report_hash"]:
            lines.append(f"{name}: report_hash {want[name]['report_hash'][:12]} -> "
                         f"{got[name]['report_hash'][:12]}")
        wf, gf = want[name]["files"], got[name]["files"]
        for path in sorted(set(wf) | set(gf)):
            if wf.get(path) != gf.get(path):
                state = ("missing" if path not in gf else "new" if path not in wf
                         else "differs")
                lines.append(f"{name}: {path} {state}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with --out instead of writing it")
    parser.add_argument("--out", default=OUTPUTS, help="the record (JSON)")
    args = parser.parse_args(argv)
    got = {name: record(name, config) for name, config in runs()}
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if not args.check:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(dict(versions, runs=got), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}: {len(got)} runs, "
              f"{sum(len(r['files']) for r in got.values())} files", file=sys.stderr)
        return 0
    with open(args.out, encoding="ascii") as fh:
        want = json.load(fh)
    for lib, version in versions.items():
        if want[lib] != version:
            print(f"note: the record has {lib} {want[lib]}, this process {version}")
    lines = differences(want["runs"], got)
    for line in lines:
        print(line)
    print(f"{len(got)} runs: {'identical' if not lines else f'{len(lines)} differences'}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
