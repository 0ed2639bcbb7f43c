"""Spans and size counters installed from outside the program.

Every binding of a listed function across the loaded ``steklov_lab.*``
modules is replaced by a wrapper: a name imported into another module
(``fem.stiffness_local`` is ``kernels.stiffness_local``), a scipy function
imported into a module (``fem.splu``), a function reached through a module
alias (``fem.sla.eigh``, patched on a view of ``scipy.linalg`` so other
callers of scipy are untouched) and a class attribute
(``fem.DtNMatrix.extend``).  A listed name the program no longer has is
reported as absent, not as an error.
"""

import importlib
import sys
import time
import types

import numpy as np

# (metric prefix, module under steklov_lab, attribute path in that module)
LAYER_FUNCTIONS = (
    ("geometry.make_disk_mesh", "geometry", "make_disk_mesh"),
    ("geometry.make_annulus_mesh", "geometry", "make_annulus_mesh"),
    ("geometry.build_mesh", "geometry", "build_mesh"),
    ("geometry.validate_mesh", "geometry", "validate_mesh"),
    ("geometry.interior_edges_with_triangles", "geometry", "interior_edges_with_triangles"),
    ("geometry.mesh_to_text", "geometry", "mesh_to_text"),
    ("kernels.stiffness_local", "kernels", "stiffness_local"),
    ("kernels.union_sign_pieces", "kernels", "union_sign_pieces"),
    ("kernels.resolve_roots", "kernels", "resolve_roots"),
    ("fem.steklov_spectrum", "fem", "steklov_spectrum"),
    ("fem.assemble_stiffness", "fem", "assemble_stiffness"),
    ("fem.assemble_boundary_mass", "fem", "assemble_boundary_mass"),
    ("fem.dtn_matrix", "fem", "dtn_matrix"),
    ("fem.splu", "fem", "splu"),
    ("fem.eigh", "fem", "sla.eigh"),
    ("fem.DtNMatrix.extend", "fem", "DtNMatrix.extend"),
    ("deformations.density_family_at", "deformations", "density_family_at"),
    ("deformations.singular_family_at", "deformations", "singular_family_at"),
    ("deformations.collar_convergence_run", "deformations", "collar_convergence_run"),
    ("graphs.prescribe_spectrum", "graphs", "prescribe_spectrum"),
    ("graphs.graph_laplacian_spectrum", "graphs", "graph_laplacian_spectrum"),
    ("thickening.build_thickened_mesh", "thickening", "build_thickened_mesh"),
    ("thickening.verify_graph_limit", "thickening", "verify_graph_limit"),
    ("nodal.decompose_nodal", "nodal", "decompose_nodal"),
    ("nodal.courant_check", "nodal", "courant_check"),
    ("nodal.boundary_touch_check", "nodal", "boundary_touch_check"),
    ("nodal.nodal_graph", "nodal", "nodal_graph"),
    ("nodal.nodal_graph_stats", "nodal", "nodal_graph_stats"),
    ("nodal.save_nodal_svg", "nodal", "save_nodal_svg"),
    ("harness.run", "harness", "run"),
    ("harness._audit_point", "harness", "_audit_point"),
    ("harness.emit_tables", "harness", "emit_tables"),
)

# name -> (unit, how the values of one pass combine)
COUNTERS = {
    "fem.nv": ("count", max),
    "fem.ns": ("count", max),
    "fem.n_interior": ("count", max),
    "fem.lu_nnz": ("count", max),
    "fem.dtn_dense_mb": ("MB", max),          # computed: n_interior * ns * 8 B
    "deformations.distance_mb": ("MB", max),  # computed: n_tri * n_steklov_edges * 16 B
    "harness.bytes_written": ("bytes", lambda a, b: a + b),
}


class _ModuleView:
    """Stands in for a foreign module inside one program module, so a patched
    attribute reaches only that module's callers."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def patch(module_name, attr_path, make_wrapper):
    """Replace every binding of ``steklov_lab.<module_name>.<attr_path>``.

    Returns a callable that restores the originals, or None when the module or
    the attribute does not exist.
    """
    try:
        module = importlib.import_module(f"steklov_lab.{module_name}")
    except ImportError:
        return None
    *owner_path, attr = attr_path.split(".")
    holder = module
    for part in owner_path:
        holder = getattr(holder, part, None)
        if holder is None:
            return None
    original = holder.__dict__.get(attr) if isinstance(holder, type) else getattr(holder, attr, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    undo = []
    if holder is module:
        for name in _program_modules():
            mod_dict = vars(importlib.import_module(name))
            for key, value in list(mod_dict.items()):
                if value is original:
                    undo.append((mod_dict, key, value))
                    mod_dict[key] = wrapper
    elif isinstance(holder, (types.ModuleType, _ModuleView)):
        if len(owner_path) != 1:
            return None
        view = holder if isinstance(holder, _ModuleView) else _ModuleView(holder)
        undo.append((vars(module), owner_path[0], holder))
        vars(module)[owner_path[0]] = view
        setattr(view, attr, wrapper)
        undo.append((vars(view), attr, None))
    else:
        undo.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def restore():
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                if value is None:
                    target.pop(key, None)
                else:
                    target[key] = value
            else:
                setattr(target, key, value)

    return restore


def _program_modules():
    return sorted(n for n in sys.modules if n == "steklov_lab" or n.startswith("steklov_lab."))


class Tracer:
    """In-memory spans with parent attribution, aggregated per span name.

    A span's self time is its duration minus the time its direct child spans
    cover.  Benchmark code that must not be charged to the program (the
    correctness gates) runs in ``region(..., paused=True)``: the program calls
    it makes are not traced and its time is removed from the enclosing span.
    """

    def __init__(self):
        self.stats = {}      # name -> [calls, self_s, total_s]
        self.counters = {}
        self._stack = []     # per open span: time covered by its children
        self._active = {}
        self.paused = False

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt - children
        if self._active.get(name, 0) == 0:  # a recursive call is inside its outer one
            st[2] += dt

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            t0 = self._enter()
            self._active[name] = self._active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._active[name] -= 1
                self._exit(name, t0)
            if hook is not None:
                with self.region("perfbench.counters", paused=True):
                    hook(self, args, kwargs, result)
            return result

        return traced

    def region(self, name, paused=False):
        return _Region(self, name, paused)

    def count(self, name, value):
        combine = COUNTERS[name][1]
        old = self.counters.get(name)
        self.counters[name] = value if old is None else combine(old, value)

    def install(self):
        """Wrap every listed function; returns (restore, absent names)."""
        restores, absent = [], []
        for name, module, path in LAYER_FUNCTIONS:
            hook = _HOOKS.get(name)
            undo = patch(module, path, lambda fn, n=name, h=hook: self.wrap(n, fn, h))
            if undo is None:
                absent.append(name)
            else:
                restores.append(undo)

        def restore():
            for undo in reversed(restores):
                undo()

        return restore, absent

    def snapshot(self):
        """Per-layer metrics of everything recorded since the last snapshot."""
        out = {}
        for name, _, _ in LAYER_FUNCTIONS:
            calls, self_s, total_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        regions = {k: v[1] for k, v in self.stats.items() if k.startswith("perfbench.")}
        self.stats, self.counters = {}, {}
        return out, regions


class _Region:
    def __init__(self, tracer, name, paused):
        self.tracer, self.name, self.pause = tracer, name, paused

    def __enter__(self):
        self.was_paused = self.tracer.paused
        self.t0 = self.tracer._enter()
        self.tracer.paused = self.pause or self.was_paused

    def __exit__(self, *exc):
        self.tracer.paused = self.was_paused
        self.tracer._exit(self.name, self.t0)
        return False


class NullTracer:
    """Tracing off: regions cost nothing and record nothing."""

    paused = False

    def region(self, name, paused=False):
        return _NULL_REGION

    def count(self, name, value):
        pass


class _NullRegion:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_REGION = _NullRegion()


# ---------------------------------------------------------------------------
# size counters, read from the arguments and results of the wrapped calls
# ---------------------------------------------------------------------------

def _spectrum_sizes(tracer, args, kwargs, result):
    from steklov_lab import geometry
    mesh = args[0] if args else kwargs["mesh"]
    steklov = np.unique(mesh.boundary_edges[mesh.boundary_tags == geometry.STEKLOV])
    dirichlet = np.setdiff1d(mesh.boundary_edges[mesh.boundary_tags == geometry.DIRICHLET],
                             steklov)
    nv, ns = mesh.n_vertices, steklov.size
    n_interior = nv - ns - dirichlet.size
    tracer.count("fem.nv", nv)
    tracer.count("fem.ns", ns)
    tracer.count("fem.n_interior", n_interior)
    tracer.count("fem.dtn_dense_mb", n_interior * ns * 8 / 1e6)


def _lu_nnz(tracer, args, kwargs, result):
    tracer.count("fem.lu_nnz", result.L.nnz + result.U.nnz)


def _distance_bytes(tracer, args, kwargs, result):
    from steklov_lab import geometry
    mesh = (args[0] if args else kwargs["family"]).mesh
    n_edges = int(np.count_nonzero(mesh.boundary_tags == geometry.STEKLOV))
    tracer.count("deformations.distance_mb", mesh.n_triangles * n_edges * 16 / 1e6)


_HOOKS = {
    "fem.steklov_spectrum": _spectrum_sizes,
    "fem.splu": _lu_nnz,
    "deformations.density_family_at": _distance_bytes,
}
