"""Command-line interface: mesh generation, spectra, prescription, thickening,
and full experiment runs."""

import argparse
import json
import math
import sys

import numpy as np

from . import fem, geometry, graphs, harness, thickening


def positive_float(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


_FLAGS = {
    "--out": dict(help="output directory (or file for single artifacts)"),
    "--seed": dict(type=int, help="random seed override"),
}


def _add_flags(parser, *names):
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _cmd_mesh(args):
    if args.kind == "disk":
        mesh = geometry.make_disk_mesh(args.radius, args.target_h)
    elif args.kind == "annulus":
        mesh = geometry.make_annulus_mesh(args.r_inner, args.radius, args.target_h)
    else:  # strip; argparse allows no other kind
        mesh = geometry.make_strip_mesh(args.length, args.width, args.target_h,
                                        periodic=args.periodic)
    out = args.out or f"{args.kind}.msh"
    geometry.save_mesh(mesh, out)
    print(f"wrote {out}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")
    return 0


def _cmd_spectrum(args):
    mesh = geometry.load_mesh(args.mesh)
    res = fem.steklov_spectrum(mesh, args.n_eigs, args.tol)
    for k, val in enumerate(res.eigenvalues):
        print(f"sigma_{k} = {val:.12g}")
    print(f"clusters: {res.clusters}")
    if args.out:
        fem.save_spectral_result(mesh, res, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_prescribe(args):
    targets = np.asarray([float(t) for t in args.targets.split(",")])
    g = graphs.prescribe_spectrum(targets, tol=1e-8 if args.tol is None else args.tol,
                                  seed=0 if args.seed is None else args.seed)
    spec = graphs.graph_laplacian_spectrum(g)
    print(f"K_{g.n_vertices} edge lengths:")
    for (a, b), l in zip(g.edges, g.lengths):
        print(f"  {a} -- {b}: {l:.12g}")
    print(f"spectrum: {np.array2string(spec, precision=12)}")
    if args.out:
        graphs.save_graph(g, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_thicken(args):
    g = graphs.load_graph(args.graph)
    emb = thickening.embed_graph(g, args.style, args.c)
    mesh = thickening.build_thickened_mesh(emb, args.eps, args.c, target_h=args.target_h)
    out = args.out or "thickened.msh"
    geometry.save_mesh(mesh, out)
    print(f"wrote {out}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")
    return 0


def _cmd_run(args):
    config = harness.load_config(args.config, args.seed)
    if args.command == "audit" and config.kind not in harness.AUDIT_KINDS:
        raise harness.ConfigError(
            f"audit requires a config of kind {' or '.join(harness.AUDIT_KINDS)}")
    report = harness.run(config, out_dir=args.out)
    for c in report.checks:
        print(harness.check_line(c))
    print(f"overall: {'PASS' if report.passed else 'FAIL'} "
          f"({report.wallclock_s:.1f}s, report hash {report.report_hash()[:16]})")
    if args.out is None and args.print_report:
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if report.passed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="steklov-lab",
        description="Steklov / Steklov-Neumann spectra of planar domains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a mesh file")
    p.add_argument("--kind", default="disk", choices=["disk", "annulus", "strip"])
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--r-inner", type=float, default=0.5)
    p.add_argument("--length", type=float, default=2 * np.pi)
    p.add_argument("--width", type=float, default=0.5)
    p.add_argument("--target-h", type=float, default=0.05)
    p.add_argument("--periodic", action="store_true")
    _add_flags(p, "--out")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("spectrum", help="solve the Steklov eigenproblem on a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--n-eigs", type=positive_int, default=6)
    p.add_argument("--tol", type=positive_float,
                   help="relative tolerance for grouping eigenvalues into clusters")
    _add_flags(p, "--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("prescribe", help="fit complete-graph edge lengths to a spectrum")
    p.add_argument("--targets", required=True,
                   help="comma-separated target eigenvalues a_1,...,a_N")
    p.add_argument("--tol", type=positive_float,
                   help="relative eigenvalue tolerance of the fit (default 1e-8)")
    _add_flags(p, "--out", "--seed")
    p.set_defaults(func=_cmd_prescribe)

    p = sub.add_parser("thicken", help="thicken a metric graph into a domain mesh")
    p.add_argument("--graph", required=True)
    p.add_argument("--style", default="convex-boundary",
                   choices=["convex-boundary", "path", "star"])
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--target-h", type=float)
    _add_flags(p, "--out")
    p.set_defaults(func=_cmd_thicken)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--print-report", action="store_true")
    _add_flags(p, "--out", "--seed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("audit", help="run a randomized audit config")
    p.add_argument("--config", required=True)
    _add_flags(p, "--out", "--seed")
    p.set_defaults(func=_cmd_run, print_report=False)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # the package's input errors, and OSError for a missing or unreadable file
    except (ValueError, graphs.PrescriptionError, OSError) as exc:
        print(f"steklov-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
