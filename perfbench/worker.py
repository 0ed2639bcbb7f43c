"""One benchmark process: set up one workload, then run timed passes.

Started by ``run.py`` from the repository root; prints one JSON line.  With
``--setup-only`` it stops once the inputs are ready.  With ``--trace 1``
untraced and traced passes alternate, so the tracing overhead is measured in
the same process.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import sys
import time

# the program under test is the checkout's source tree, never an installed copy
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, PassRecord, item_timer  # noqa: E402


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
    }


def run_pass(workload, traced):
    tracer = spans.Tracer() if traced else spans.NullTracer()
    rec = PassRecord(tracer)
    restore_trace, absent = tracer.install() if traced else (None, [])
    restore_items = None
    if workload.item_target is not None:
        restore_items = spans.patch(*workload.item_target, item_timer(rec, workload.check))
    t0 = time.perf_counter()
    try:
        workload.run_pass(rec)
    finally:
        wall = time.perf_counter() - t0
        if restore_items is not None:
            restore_items()
        if restore_trace is not None:
            restore_trace()
    workload.after_pass(rec)
    out = {"wall_s": wall, "traced": traced, "items": rec.items}
    if traced:
        out["layers"], out["regions"] = tracer.snapshot()
        out["absent"] = absent
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    passes = []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workload, traced))
            # start no pass that would end past --seconds, so a run lasts about
            # --seconds whatever the length of a pass
            elapsed = time.monotonic() - start
            done = elapsed * (len(passes) + 1) / len(passes) > args.seconds
            if args.trace:
                done = done and len(passes) >= 2
            else:
                done = done and len(passes) >= workload.min_passes
            if done:
                break
    finally:
        out_root = os.path.join(os.getcwd(), ".perfbench_out")
        shutil.rmtree(os.path.join(out_root, str(os.getpid())), ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass
    print(json.dumps({
        "ready": ready,
        "item": workload.item,
        "tail_pct": workload.tail_pct,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
