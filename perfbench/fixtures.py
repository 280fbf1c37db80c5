"""Pinned, seeded inputs for the mixedform benchmark.

``write_fixtures(workload, seed, out_dir)`` writes every input of one
workload as the JSON document the ``mixedform`` CLI reads and returns a
manifest: each file's path and sha256, the values the oracle compares
against, and (for the CLI workloads) the list of calls to make.  The same
seed gives byte-identical files.

Reference values come from routes that do not go through the library:
volumes and boundary areas from Qhull's halfspace intersection, polygon
areas from the same 2D construction.  ``tests/geomfix.py`` supplies the
random fans.  Nothing here runs inside a timed region.  To write and hash
one seed's inputs without running the benchmark:

    PYTHONPATH=src:tests python3 perfbench/fixtures.py --workload cli-large --seed 3 --out DIR
"""

import hashlib
import json
import os

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection

import geomfix
from mixedform import fuchsian, polytope

# Normals of the Fibonacci-sphere polytopes are jittered by this much (then
# renormalized): enough to make every vertex simple, far from merging any.
FIB_JITTER = 0.05
# Interior support vectors drawn per quotient fan for the sampling loop.
FUCHSIAN_POOL = 64


def _qhull_measures(normals, h):
    """(volume, boundary measure) of {x : <x, u_i> <= h_i}, h > 0, by Qhull."""
    U = np.asarray(normals, dtype=float)
    hs = HalfspaceIntersection(np.column_stack([U, -np.asarray(h, dtype=float)]),
                               np.zeros(U.shape[1]))
    hull = ConvexHull(hs.intersections)
    return float(hull.volume), float(hull.area)


def _polygon(n, rng):
    fan = geomfix.perturbed_polygon_fan(n, rng)
    degrees = np.degrees(fan.angles)
    if np.any(np.deg2rad(degrees) >= 2.0 * np.pi):
        raise RuntimeError("polygon normal angle rounds up to 2 pi")
    h = np.ones(n)
    area, _ = _qhull_measures(fan.normals, h)
    return {"normals_deg": degrees.tolist(), "h": h.tolist()}, {"n": n, "area": area}


def _polytope(normals, h):
    volume, area = _qhull_measures(normals, h)
    doc = {"normals": np.asarray(normals).tolist(), "h": np.asarray(h).tolist()}
    return doc, {"m": len(h), "volume": volume, "area": area}


def _fibonacci(m, rng):
    return _polytope(geomfix.fibonacci_sphere(m, rng, jitter=FIB_JITTER), np.ones(m))


def _box(rng):
    return _polytope(geomfix.CUBE_NORMALS, rng.uniform(0.5, 1.5, 6))


def _box_mesh(box_doc, box_expected):
    fan = polytope.build_fan(box_doc["normals"], box_doc["h"])
    mesh = polytope.boundary_metric(fan, box_doc["h"])
    return mesh.to_json_dict(), {"triangles": mesh.num_triangles,
                                 "area": box_expected["area"]}


def _genus2_regular(rng):
    h = [float(rng.uniform(0.5, 2.0))]
    return fuchsian.regular_genus2_fan().to_json_dict(h=h), {"m": 1, "k": [2.0 * h[0]],
                                                             "homothety": True}


def _genus2_subdivided(rng, pool=0):
    fan, h = geomfix.random_fuchsian_fan(rng, subdivide=True)
    k = geomfix.sample_fuchsian_interior(fan, h, rng)
    vectors = [geomfix.sample_fuchsian_interior(fan, h, rng).tolist() for _ in range(pool)]
    return fan.to_json_dict(h=h), {"m": fan.m, "k": k.tolist(), "homothety": False}, vectors


def _cli_small(rng, seed):
    fixtures = {"polygon12": _polygon(12, rng), "box": _box(rng)}
    fixtures["box_mesh"] = _box_mesh(*fixtures["box"])
    fixtures["genus2_regular"] = _genus2_regular(rng)
    fixtures["genus2_m14"] = _genus2_subdivided(rng)[:2]
    samples = ["--samples", "200", "--seed", str(seed)]
    calls = [("version", None, [])]
    calls += [(f"polygon {op}", "polygon12", extra) for op, extra in
              (("area-form", []), ("signature", []), ("minkowski", samples), ("embed", []))]
    calls += [(f"polytope {op}", "box", extra) for op, extra in
              (("build", []), ("volume", []), ("area-form", []), ("signature", []),
               ("af-check", ["--samples", "20", "--seed", str(seed)]), ("measure", []),
               ("sphere-area", ["--depth", "3"]), ("boundary-metric", []))]
    calls += [("surface check", "box_mesh", []),
              ("surface flip", "box_mesh", ["--triangle", "0", "--edge", "2"])]
    for name in ("genus2_regular", "genus2_m14"):
        calls += [(f"fuchsian {op}", name, []) for op in ("hessian", "area-form", "check-pd")]
        calls.append(("fuchsian distance", name, ["--k", "{k}"]))
    return fixtures, calls


def _cli_large(rng, seed):
    fixtures = {"fib96": _fibonacci(96, rng), "fib48": _fibonacci(48, rng),
                "polygon48": _polygon(48, rng)}
    calls = [("polytope signature", "fib96", []),
             ("polytope volume", "fib96", []),
             ("polytope sphere-area", "fib48", ["--depth", "5"]),
             ("polytope boundary-metric", "fib48", []),
             ("polytope af-check", "fib48", ["--samples", "50", "--seed", str(seed)]),
             ("polygon embed", "polygon48", []),
             ("polygon signature", "polygon48", []),
             ("polygon minkowski", "polygon48", ["--samples", "4000", "--seed", str(seed)])]
    return fixtures, calls


def _sampling(rng, seed):
    fixtures = {"polygon12": _polygon(12, rng), "fib48": _fibonacci(48, rng)}
    doc, expected, pool = _genus2_subdivided(rng, pool=FUCHSIAN_POOL)
    fixtures["genus2_m14"] = (doc, expected)
    fixtures["genus2_m14_pool"] = ({"vectors": pool}, {"count": len(pool)})
    return fixtures, []


GENERATORS = {"cli-small": _cli_small, "cli-large": _cli_large, "sampling": _sampling}


def write_fixtures(workload, seed, out_dir):
    """Write the inputs of ``workload`` for ``seed`` under ``out_dir``."""
    fixtures, calls = GENERATORS[workload](np.random.default_rng(seed), seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "fixtures": {}, "calls": []}
    for name, (doc, expected) in fixtures.items():
        raw = json.dumps(doc, sort_keys=True).encode("utf-8")
        path = os.path.join(out_dir, name + ".json")
        with open(path, "wb") as fh:
            fh.write(raw)
        manifest["fixtures"][name] = {"path": path,
                                      "sha256": hashlib.sha256(raw).hexdigest(),
                                      "expected": expected}
    for command, fixture, extra in calls:
        argv = ["--version"]
        if fixture is not None:
            k = ",".join(repr(float(x)) for x in fixtures[fixture][1].get("k", []))
            argv = [*command.split(), manifest["fixtures"][fixture]["path"], "--json",
                    *(a.replace("{k}", k) for a in extra)]
        manifest["calls"].append({"command": command, "fixture": fixture, "argv": argv})
    return manifest


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = write_fixtures(args.workload, args.seed, args.out)
    print(json.dumps({n: f["sha256"] for n, f in result["fixtures"].items()}, indent=2))
