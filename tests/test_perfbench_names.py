"""The benchmark's per-layer spans against the program's names.

perfbench/spans.py times program functions by their dotted names and reports
a name the program no longer has as absent, with metrics that read 0.  A
rename in the program would silently zero a metric; this test catches it.
spans.py is loaded by path and read only.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "spans.py")

# listed in spans.py for functions the program has since removed
ABSENT = {
    "kernels.stiffness_local", "kernels.union_sign_pieces", "kernels.resolve_roots",
    "fem.dtn_matrix", "fem.DtNMatrix.extend",
    "deformations.collar_convergence_run", "thickening.verify_graph_limit",
    "geometry.interior_edges_with_triangles",
}


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_FUNCTIONS


def _resolve(module_name, attr_path):
    """steklov_lab.<module_name>.<attr_path>, or None when it does not exist."""
    try:
        obj = importlib.import_module(f"steklov_lab.{module_name}")
    except ImportError:
        return None
    for part in attr_path.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_name_resolves_to_a_program_callable():
    missing = {name for name, module_name, attr_path in _layer_functions()
               if not callable(_resolve(module_name, attr_path))}
    assert missing == ABSENT
