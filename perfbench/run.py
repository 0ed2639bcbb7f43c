"""Pipeline benchmark for steklov-lab.

Run from the repository root:

    python3 perfbench/run.py --workload nodal_audit --seed 1 --seconds 55 --trace 0

Workloads: ``nodal_audit``, ``fine_mesh`` and ``family_sweep`` (see
``workloads.py`` and ``perfbench/workloads.json``).  The seed makes the
inputs; the program receives only the generated configs and meshes.
``BENCHMARK.json`` lists nodal_audit and family_sweep only: on a shared
machine whose speed drifts by 10-20% over minutes, two workloads with runs
of 55 s were the most its time limit allows, and every layer runs in one of
them.  fine_mesh (the dense DtN on fine meshes, the 2.5 GB density
deformation) is run by hand, e.g. with ``--seconds 36``.

Each run starts fresh processes from the checkout's ``src``: the workload is
set up ``SETUP_REPEATS`` times, each in its own process, and ``setup_s`` is
the median time from process start until the inputs are ready.  The last of
those processes then runs timed passes over the same inputs while another
pass of the mean length fits in ``--seconds``, and at least the workload's
``min_passes``.  Every item is checked for correctness.

``--trace 0`` reports the end-to-end metrics: setup_s, wall_s (median pass),
item_p50_ms, item_tail_ms and peak_rss_mb of the measuring process.  Every
pass runs the same items in the same order, so item_p50_ms is the median over
the items of each item's median latency across passes: the spread of the
inputs, without the passes another tenant of the machine slowed.  (Pooled
over passes, the median of family_sweep's mixed item sizes moved twice as
much from run to run.)  The tail percentile is fixed per workload
(``tail_pct`` in ``workloads.py``) with at least ten items beyond it in the
passes every run makes; item_tail_ms is that percentile of each pass, median
over passes, so a pass slowed by another tenant of the machine does not set
it.  Failed items count in ``failed``.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``spans.py`` (median over
traced passes) and the tracing overhead.

The last line of standard output is the JSON result; the line before it
holds sample counts, the tail percentile, the error rate and the software
environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nodal_audit", "fine_mesh", "family_sweep")
SETUP_REPEATS = 3
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
                    "item_tail_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def child_env():
    """One BLAS/OpenMP thread.  On a 2-vCPU shared machine two threads gave the
    same mean times but spread family_sweep item latencies over +-22% against
    +-9% with one: the idle threads of a small eigh wait on a descheduled CPU.

    A fixed glibc mmap threshold returns every large array to the system when
    it is freed.  With the default, adaptive threshold, the heap fragments in
    an order that depends on the run, and family_sweep's peak RSS varied by
    4% between runs of the same work."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    return env


def run_worker(args, deadline, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError(f"{args.workload} did not finish within {DEADLINE_S:.0f} s")
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def latencies(p):
    return [lat for lat, _ in p["items"] if lat is not None]


def end_to_end(passes, pct, setups, peak_rss_mb):
    timed = [p for p in passes if not p["traced"]]
    per_pass = len(latencies(timed[0]))
    if per_pass == 0:
        raise BenchError("a pass produced no timed items")
    pooled = [lat for p in timed for lat in latencies(p)]
    per_item = [statistics.median(lats) for lats in zip(*(latencies(p) for p in timed))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "item_p50_ms": 1e3 * statistics.median(per_item),
        "item_tail_ms": 1e3 * statistics.median(nearest_rank(latencies(p), pct)
                                                for p in timed),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"passes": len(timed), "items": len(pooled), "items_per_pass": per_pass,
              "tail_percentile": pct}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, counts


def per_layer(passes):
    import spans

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    units = {}
    for name, _, _ in spans.LAYER_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.total_s": "s"})
    units.update({name: unit for name, (unit, _) in spans.COUNTERS.items()})
    metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                      "unit": unit} for name, unit in units.items()}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    shares = {}
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + m["value"] / traced_wall
    info = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "self_share_of_traced_wall": {k: round(v, 4) for k, v in shares.items()},
            "absent": traced[0]["absent"],
            "benchmark_regions_s": traced[0]["regions"]}
    return metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join("src", "steklov_lab", "__init__.py")):
        print("perfbench: src/steklov_lab not found; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        result = run_worker(args, deadline, setup_only=False)
        setups.append(result["setup_s"])
        passes = result["passes"]
        items = [ok for p in passes for _, ok in p["items"]]
        attempted, failed = len(items), items.count(False)
        if args.trace:
            metrics, info = per_layer(passes)
        else:
            metrics, info = end_to_end(passes, result["tail_pct"], setups,
                                       result["peak_rss_mb"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "item": result["item"], "error_rate": failed / max(attempted, 1),
               "setup_runs_s": setups, **info, "env": result["env"]}
    if args.trace:
        print(f"{args.workload} tracing overhead {metrics['trace.overhead_s']['value']:.3f} s "
              f"on an untraced pass of {info['untraced_wall_s']:.3f} s")
    else:
        for name, m in metrics.items():
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} {info['items']} items over {info['passes']} passes, "
              f"tail at p{info['tail_percentile']}, error_rate {details['error_rate']:.3g}")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
