"""The benchmark tracer (``perfbench/tracer.py``) wraps library functions by name.

Deleting or renaming a traced function breaks the benchmark's per-layer
metrics, so this test installs the tracer in a child interpreter and checks
that every target is wrapped and records spans when called.
"""

import json
import os
import subprocess
import sys

import geomfix

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

CHILD = """
import json, sys
import numpy as np
import geomfix, tracer
from mixedform import forms, fuchsian, polygon, polytope, surface

t = tracer.Tracer()
t.install()
modules = {"forms": forms, "fuchsian": fuchsian, "polygon": polygon,
           "polytope": polytope, "surface": surface}
unwrapped = []
for module, path, _ in tracer.TARGETS:
    owner = modules[module]
    for part in path.split("."):
        owner = getattr(owner, part)
    if owner.__name__ != "traced":
        unwrapped.append(f"{module}.{path}")
# one traced function per module
forms.TrilinearForm(np.ones((2, 2, 2))).v(np.ones(2), np.ones(2), np.ones(2))
polygon.sample_interior(polygon.NormalFan2D.regular(5), np.random.default_rng(0))
fan = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
surface.cone_data(polytope.boundary_metric(fan, np.ones(6)))
fuchsian.fan_from_json_dict(fuchsian.regular_genus2_fan().to_json_dict(h=[1.0]))
print(json.dumps({"targets": len(tracer.TARGETS), "unwrapped": unwrapped,
                  "spans": sorted({span[0] for span in t.spans})}))
"""


def test_tracer_wraps_every_target():
    env = geomfix.child_env()
    env["PYTHONPATH"] = os.pathsep.join([PERFBENCH, env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["targets"] == 22
    assert report["unwrapped"] == []
    assert {"forms.TrilinearForm.v", "polygon.sample_interior", "polytope.build_fan",
            "polytope.boundary_metric", "surface.cone_data",
            "surface.mesh_from_indexed_triangles",
            "fuchsian.fan_from_json_dict"} <= set(report["spans"])
