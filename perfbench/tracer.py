"""Span tracing of the mixedform public functions, from outside the library.

``Tracer.install()`` replaces each function in ``TARGETS`` on its module, and
on every other mixedform module that re-exports the same object, with a
timing wrapper.  The source tree is not modified.  Spans are kept in memory
as ``[name, start, end, parent, info]`` (``parent`` is the index of the
enclosing span, -1 at top level; ``info`` holds counters read from the
arguments and result after the span has ended) and written once at the end
by ``dump``.  ``summarize`` turns span sets from one or more processes into
the per-layer metrics.
"""

import importlib
import json
import math
import time

import numpy as np

MODULES = ("cli", "forms", "polygon", "surface", "polytope", "fuchsian")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _build_fan_info(args, kwargs, fan):
    return {"m": int(fan.m), "vertices": len(fan.vertex_cells)}


def _volume_form_info(args, kwargs, result):
    return {"m": int(_arg(args, kwargs, 0, "fan").m)}


def _sphere_leaves_info(args, kwargs, result):
    fan = _arg(args, kwargs, 0, "fan")
    depth = int(_arg(args, kwargs, 2, "depth"))
    base = sum(len(cell.faces) - 2 for cell in fan.vertex_cells)
    return {"leaves": base * 4 ** depth}


def _jacobi_info(args, kwargs, result):
    return {"n": int(np.shape(_arg(args, kwargs, 0, "matrix"))[0])}


def _polytope_fallback_info(args, kwargs, result):
    reference = np.asarray(_arg(args, kwargs, 1, "reference"), dtype=float)
    return {"fallback": bool(np.array_equal(result, reference))}


def _polygon_fallback_info(args, kwargs, result):
    n = _arg(args, kwargs, 0, "fan").n
    return {"fallback": bool(np.array_equal(result, np.ones(n)))}


# (module, attribute path, counter hook or None)
TARGETS = (
    ("polytope", "build_fan", _build_fan_info),
    ("polytope", "volume_form", _volume_form_info),
    ("polytope", "boundary_area_form", None),
    ("polytope", "area_via_sphere_integral", _sphere_leaves_info),
    ("polytope", "boundary_metric", None),
    ("polytope", "cone_membership", None),
    ("polytope", "sample_interior", _polytope_fallback_info),
    ("polytope", "alexandrov_fenchel_check", None),
    ("forms", "TrilinearForm.v", None),
    ("forms", "jacobi_eigenvalues", _jacobi_info),
    ("fuchsian", "cone_membership", None),
    ("fuchsian", "covolume_hessian", None),
    ("fuchsian", "spherical_distance", None),
    ("fuchsian", "covolume_form", None),
    ("fuchsian", "fan_from_json_dict", None),
    ("fuchsian", "fuchsian_area_form", None),
    ("polygon", "minkowski_check", None),
    ("polygon", "sample_interior", _polygon_fallback_info),
    ("polygon", "double_chart_embedding", None),
    ("surface", "cone_data", None),
    ("surface", "total_area", None),
    ("surface", "mesh_from_indexed_triangles", None),
)

SPAN_NAMES = ("cli.main",) + tuple(f"{module}.{attr}" for module, attr, _ in TARGETS)


class Tracer:
    """Collects spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target in place, before any caller keeps a reference to one."""
        package = importlib.import_module("mixedform")
        modules = {name: importlib.import_module(f"mixedform.{name}") for name in MODULES}
        for module_name, path, info in TARGETS:
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(f"{module_name}.{path}", original, info)
            setattr(owner, attr, traced)
            if outer:
                continue
            for other in (package, *modules.values()):
                if getattr(other, attr, None) is original:
                    setattr(other, attr, traced)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def summarize(span_sets):
    """Per-layer metrics from the span lists of one or more processes.

    Self time is a span's duration minus the durations of its direct
    children (spans of one process never overlap their siblings).
    """
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    triples = vertices = leaves = tensor_bytes = max_n = 0
    draws = attempts = 0
    fallbacks = {"polytope.sample_interior": 0, "polygon.sample_interior": 0}
    for spans in span_sets:
        child_time = [0.0] * len(spans)
        membership_children = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "polytope.cone_membership":
                    membership_children[parent] += 1
        for index, (name, start, end, _, info) in enumerate(spans):
            self_s[name] += end - start - child_time[index]
            calls[name] += 1
            if info is None:
                continue
            if name == "polytope.build_fan":
                triples += math.comb(info["m"], 3)
                vertices += info["vertices"]
            elif name == "polytope.volume_form":
                tensor_bytes = max(tensor_bytes, 8 * info["m"] ** 3)
            elif name == "polytope.area_via_sphere_integral":
                leaves += info["leaves"]
            elif name == "forms.jacobi_eigenvalues":
                max_n = max(max_n, info["n"])
            else:
                fallbacks[name] += info["fallback"]
                if name == "polytope.sample_interior":
                    # the first membership test checks the reference itself
                    draws += 1
                    attempts += membership_children[index] - 1
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    metrics.update({
        "polytope.build_fan.triples": triples,
        "polytope.build_fan.vertex_yield": vertices / triples if triples else 0.0,
        "polytope.volume_form.tensor_bytes": tensor_bytes,
        "polytope.area_via_sphere_integral.leaves": leaves,
        "polytope.sample_interior.attempts": attempts / draws if draws else 0.0,
        "polytope.sample_interior.fallbacks": fallbacks["polytope.sample_interior"],
        "polygon.sample_interior.fallbacks": fallbacks["polygon.sample_interior"],
        "forms.jacobi_eigenvalues.max_n": max_n,
    })
    return metrics
