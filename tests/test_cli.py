"""CLI behaviour: exit codes, per-command reports and golden reports.

The golden reports in ``cli_golden.json`` hold the ``--json`` results,
tolerances and seed echo and the human lines (without the wall-time line)
of every command on the small fixtures below.  To rewrite them from the
current code:

    PYTHONPATH=src:tests python tests/test_cli.py
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import geomfix
from mixedform import cli, forms, fuchsian, polygon, polytope

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

SQUARE = {"normals_deg": [0, 90, 180, 270], "h": [1, 1, 1, 1]}
CUBE = {"normals": geomfix.CUBE_NORMALS.tolist(), "h": [0.5] * 6}
# doubled equilateral triangle: the flip across the seam is admissible
MESH = {"triangles": [{"lengths": [1, 1, 1]}, {"lengths": [1, 1, 1]}],
        "gluing": [[0, 0, 1, 0], [0, 1, 1, 2], [0, 2, 1, 1]]}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture()
def square_file(tmp_path):
    return write_json(tmp_path, "square.json", SQUARE)


@pytest.fixture()
def cube_file(tmp_path):
    return write_json(tmp_path, "cube.json", CUBE)


@pytest.fixture()
def mesh_file(tmp_path):
    return write_json(tmp_path, "mesh.json", MESH)


def genus2_base_fan_and_h():
    fan = geomfix.fan_from_triangulation(geomfix.genus2_base_mesh())
    return fan, geomfix.find_interior_h(fan)


@pytest.fixture(scope="module")
def base_fan_and_h():
    return genus2_base_fan_and_h()


@pytest.fixture()
def fuchsian_file(tmp_path, base_fan_and_h):
    fan, h = base_fan_and_h
    return write_json(tmp_path, "fuchsian.json", fan.to_json_dict(h=h))


# =============================================================================
# ARGUMENT HANDLING
# =============================================================================

def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("mixedform ")


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys, )[0] == 64


def test_unknown_family(capsys):
    code, _, err = run(capsys, "frobnicate", "x.json")
    assert code == 64
    assert "usage" in err.lower()


def test_unknown_op(capsys):
    assert run(capsys, "polygon", "frobnicate", "x.json")[0] == 64


def test_missing_required_option(capsys, fuchsian_file):
    # fuchsian distance needs --k
    assert run(capsys, "fuchsian", "distance", fuchsian_file)[0] == 64


def test_bad_flag_value(capsys, square_file):
    assert run(capsys, "polygon", "signature", square_file, "--tol", "lots")[0] == 64


# =============================================================================
# EXIT 2: BAD INPUT
# =============================================================================

def test_missing_file(capsys):
    code, _, err = run(capsys, "polygon", "area-form", "/no/such/file.json")
    assert code == 2
    assert "mixedform:" in err


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, "polygon", "area-form", str(path))[0] == 2


def test_invalid_geometry(capsys, tmp_path):
    # all normals in a half circle: one gap exceeds pi
    path = write_json(tmp_path, "bad.json",
                      {"normals_deg": [0, 10, 20, 30], "h": [1, 1, 1, 1]})
    assert run(capsys, "polygon", "area-form", path)[0] == 2


def test_unbounded_polytope(capsys, tmp_path):
    up = np.array([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], float)
    up /= np.linalg.norm(up, axis=1)[:, None]
    path = write_json(tmp_path, "open.json", {"normals": up.tolist(), "h": [1, 1, 1, 1]})
    assert run(capsys, "polytope", "build", path)[0] == 2


def test_wrong_vector_length(capsys, square_file):
    assert run(capsys, "polygon", "minkowski", square_file, "--k", "1,2")[0] == 2


def _fuchsian_doc(**changes):
    doc = fuchsian.regular_genus2_fan().to_json_dict(h=[1.0])
    doc.update(changes)
    return doc


def _with_adjacency(key, value):
    doc = _fuchsian_doc()
    doc["faces"][0]["adjacencies"][3][key] = value
    return doc


def _with_numeric_strings(key):
    """Every adjacency's ``key`` as the string of its exact value."""
    doc = _fuchsian_doc()
    for entry in doc["faces"][0]["adjacencies"]:
        entry[key] = repr(entry[key])
    return doc


@pytest.mark.parametrize("family, doc", [
    ("polygon", {**SQUARE, "h": 5}),
    ("polygon", {**SQUARE, "normals_deg": "abc"}),
    ("polytope", {**CUBE, "normals": "abc"}),
    ("surface", {**MESH, "triangles": [{"lengths": ["a", 1, 1]}, {"lengths": [1, 1, 1]}]}),
    ("surface", {**MESH, "gluing": [[0, 0, 1], [0, 1, 1, 2], [0, 2, 1, 1]]}),
    ("fuchsian", _fuchsian_doc(genus="two")),
    ("fuchsian", _fuchsian_doc(genus=2.7)),
    ("fuchsian", _fuchsian_doc(genus=2.0)),
    ("fuchsian", _fuchsian_doc(vertices="six")),
    ("fuchsian", _with_adjacency("to", "x")),
    # numeric strings and booleans where the schema says number
    ("polygon", {"normals_deg": ["0", "90", "180", "270"], "h": ["1", "1", "1", "1"]}),
    ("polygon", {**SQUARE, "h": [1, 1, True, 1]}),
    ("polytope", {**CUBE, "h": ["0.5"] * 6}),
    ("polytope", {**CUBE, "normals": [[str(x) for x in row] for row in CUBE["normals"]]}),
    ("surface", {**MESH, "triangles": [{"lengths": ["1", 1, 1]}, {"lengths": [1, 1, 1]}]}),
    ("fuchsian", _with_numeric_strings("phi")),
    ("fuchsian", _with_numeric_strings("omega")),
    ("fuchsian", _fuchsian_doc(h=["1.0"])),
], ids=["polygon-h-scalar", "polygon-normals-string", "polytope-normals-string",
        "surface-length-string", "surface-short-gluing-row", "fuchsian-genus-string",
        "fuchsian-genus-fraction", "fuchsian-genus-float", "fuchsian-vertices-string",
        "fuchsian-target-string", "polygon-numeric-strings", "polygon-h-boolean",
        "polytope-h-numeric-string", "polytope-normals-numeric-string",
        "surface-length-numeric-string", "fuchsian-phi-numeric-string",
        "fuchsian-omega-numeric-string", "fuchsian-h-numeric-string"])
def test_wrongly_typed_json_value_is_bad_input(capsys, tmp_path, family, doc):
    op = {"polygon": "area-form", "surface": "check", "polytope": "build",
          "fuchsian": "area-form"}[family]
    code, out, err = run(capsys, family, op, write_json(tmp_path, "typed.json", doc))
    assert (code, out) == (2, "")
    assert err.startswith("mixedform:") and "Traceback" not in err


@pytest.mark.parametrize("family, doc", [
    ("surface", {**MESH, "gluing": [[0.5, 0, 1, 0], [0, 1, 1, 2], [0, 2, 1, 1]]}),
    ("surface", {**MESH, "gluing": [[0, 0, 1, 0], [0, 1, True, 2], [0, 2, 1, 1]]}),
    ("fuchsian", _with_adjacency("to", 0.7)),
    ("fuchsian", _with_adjacency("to", 0.0)),
    ("fuchsian", _with_adjacency("to", False)),
], ids=["surface-gluing-fraction", "surface-gluing-boolean", "fuchsian-target-fraction",
        "fuchsian-target-float", "fuchsian-target-boolean"])
def test_non_integer_index_is_bad_input(capsys, tmp_path, family, doc):
    # an index is a JSON integer: 0.5, 0.0 or false is rejected, not read as 0
    op = {"surface": "check", "fuchsian": "area-form"}[family]
    code, out, err = run(capsys, family, op, write_json(tmp_path, "index.json", doc))
    assert (code, out) == (2, "")
    assert "expected an integer index" in err and "Traceback" not in err


# =============================================================================
# POLYGON
# =============================================================================

def test_polygon_area_form_human(capsys, square_file):
    code, out, _ = run(capsys, "polygon", "area-form", square_file)
    assert code == 0
    assert "area(h) = 4" in out
    assert "wall time" in out


def test_polygon_signature_json(capsys, square_file):
    code, out, _ = run(capsys, "polygon", "signature", square_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["command"] == "polygon signature"
    assert len(report["input"]["sha256"]) == 64
    assert report["results"]["signature"] == [1, 2, 1]
    assert "wall" not in out


def test_polygon_minkowski_equality(capsys, square_file):
    code, out, _ = run(capsys, "polygon", "minkowski", square_file, "--json",
                       "--k", "2,2,2,2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["equality"] is True
    assert report["results"]["witness"]["lambda"] == pytest.approx(0.5, abs=1e-7)


def test_polygon_minkowski_sampled_seed(capsys, square_file):
    code, out, _ = run(capsys, "polygon", "minkowski", square_file, "--json",
                       "--samples", "5", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["results"]["samples"] == 5
    assert report["results"]["min_relative_residual"] >= -1e-12


def test_polygon_minkowski_near_homothetic_pairs_are_strict(capsys, square_file):
    # at seed 0, pair 763 is two rectangles about 1e-5 from homothetic: its
    # relative residual 9.0e-11 is inside EQUALITY_TOL, its witness fit of
    # 2.3e-5 misses WITNESS_TOL, and it is a strict inequality
    code, out, err = run(capsys, "polygon", "minkowski", square_file, "--json",
                         "--samples", "4000", "--seed", "0")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert res["equality_cases"] == 0
    assert 0.0 < res["min_relative_residual"] < forms.EQUALITY_TOL


def test_polygon_minkowski_exact_equality_without_witness_exits_3(capsys, monkeypatch,
                                                                 square_file):
    # a rank-one form gives b(h,k)^2 = q(h)q(k) exactly, and the square and the
    # 1 x 2 rectangle are no translate + homothety pair
    monkeypatch.setattr(polygon, "area_form",
                        lambda fan: forms.SymmetricForm(np.full((4, 4), 0.25)))
    code, _, err = run(capsys, "polygon", "minkowski", square_file, "--k", "1,2,1,2")
    assert code == 3
    assert "equality case without translate+homothety witness" in err


def test_polygon_embed(capsys, square_file):
    code, out, _ = run(capsys, "polygon", "embed", square_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["area"] == pytest.approx(4.0, abs=1e-12)
    verts = np.array(report["results"]["vertices"])
    assert verts.shape == (4, 2)


def test_polygon_embed_at_tiny_scale(capsys, tmp_path, square_file):
    # at h = 2^-700 the squares of the edge vectors underflow: the closure defect
    # is measured on the edge vectors scaled to unit size, and the chart scales with h
    square = dict(SQUARE, h=[2.0 ** -700] * 4)
    code, out, err = run(capsys, "polygon", "embed", write_json(tmp_path, "tiny.json", square),
                         "--json")
    assert (code, err) == (0, "")
    unscaled = json.loads(run(capsys, "polygon", "embed", square_file, "--json")[1])
    assert json.loads(out)["results"]["vertices"] == [
        [2.0 ** -700 * x for x in vertex] for vertex in unscaled["results"]["vertices"]]


# =============================================================================
# SURFACE
# =============================================================================

def test_surface_check(capsys, mesh_file):
    code, out, _ = run(capsys, "surface", "check", mesh_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["genus"] == 0
    assert report["results"]["triangles"] == 2
    assert report["results"]["total_area"] == pytest.approx(math.sqrt(3.0) / 2.0)


def test_surface_flip(capsys, mesh_file):
    code, out, _ = run(capsys, "surface", "flip", mesh_file, "--json",
                       "--triangle", "0", "--edge", "0")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["total_area"] == pytest.approx(math.sqrt(3.0) / 2.0)


def test_surface_flip_rejected(capsys, tmp_path):
    path = write_json(tmp_path, "thin.json",
                      {"triangles": [{"lengths": [1.0, 1.2, 0.3]},
                                     {"lengths": [1.0, 0.3, 1.2]}],
                       "gluing": [[0, 0, 1, 0], [0, 1, 1, 2], [0, 2, 1, 1]]})
    code, _, err = run(capsys, "surface", "flip", path, "--triangle", "0", "--edge", "0")
    assert code == 2
    assert "mixedform:" in err


# =============================================================================
# POLYTOPE
# =============================================================================

def test_polytope_build(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "build", cube_file, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["faces"] == 6
    assert report["results"]["vertices"] == 8
    assert report["results"]["simple"] is True


def test_polytope_volume_both_routes(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "volume", cube_file, "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["volume"] == pytest.approx(1.0, abs=1e-12)
    assert res["volume_from_form"] == pytest.approx(1.0, abs=1e-12)
    assert res["route_difference"] < 1e-12


def test_polytope_signature(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "signature", cube_file, "--json")
    assert code == 0
    assert json.loads(out)["results"]["signature"] == [1, 3, 2]


def test_polytope_area_form(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "area-form", cube_file, "--json")
    assert code == 0
    assert json.loads(out)["results"]["boundary_area"] == pytest.approx(6.0, abs=1e-12)


def test_polytope_af_check_explicit(capsys, cube_file):
    k = ",".join(["1"] * 6)
    code, out, _ = run(capsys, "polytope", "af-check", cube_file, "--json", "--k", k)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["residual"] >= -1e-12 * res["scale"]


def test_polytope_af_check_k_outside_the_cone_is_bad_input(capsys, cube_file):
    code, out, err = run(capsys, "polytope", "af-check", cube_file, "--k", "0,0,1,1,-1,-1")
    assert (code, out) == (2, "")
    assert err == "mixedform: alexandrov_fenchel_check: k lies outside the closed cone\n"


def test_polytope_af_check_sampled(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "af-check", cube_file, "--json",
                       "--samples", "10", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 3
    assert report["results"]["min_relative_residual"] >= -1e-12


def test_polytope_measure(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "measure", cube_file, "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["total_weighted_length"] == pytest.approx(6 * math.pi, abs=1e-10)


def test_polytope_sphere_area_depth(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "sphere-area", cube_file, "--json",
                       "--depth", "5")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["quadrature"] == pytest.approx(6.0, abs=1e-4)
    assert res["depth"] == 5


def test_polytope_boundary_metric(capsys, cube_file):
    code, out, _ = run(capsys, "polytope", "boundary-metric", cube_file, "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["genus"] == 0


def test_polytope_boundary_metric_at_tiny_scale(capsys, tmp_path):
    # at h = 1e-200 (1, 1, 2, 2, 3, 3) every squared length underflows unless
    # the lengths are measured on the points scaled by a power of two
    box = {"normals": geomfix.CUBE_NORMALS.tolist(), "h": [1e-200 * x for x in (1, 1, 2, 2, 3, 3)]}
    code, out, _ = run(capsys, "polytope", "boundary-metric",
                       write_json(tmp_path, "tiny_box.json", box), "--json")
    assert code == 0
    assert json.loads(out)["results"]["genus"] == 0


def test_polytope_boundary_metric_where_the_square_of_h_overflows(capsys, tmp_path):
    # at h = 2^502 (2000, 2000, 1, 1, 2, 2) |h|^2 overflows but the long box's area
    # fits: h is interior (the wall bound measures h scaled to unit size), and the
    # lengths, angles and area scale with h
    results = []
    for exponent in (0, 502):
        box = {"normals": geomfix.CUBE_NORMALS.tolist(),
               "h": [2.0 ** exponent * x for x in (2000, 2000, 1, 1, 2, 2)]}
        code, out, err = run(capsys, "polytope", "boundary-metric",
                             write_json(tmp_path, "long_box.json", box), "--json")
        assert (code, err) == (0, "")
        results.append(json.loads(out)["results"])
    unscaled, scaled = results
    assert scaled["cone_angles"] == unscaled["cone_angles"]
    assert scaled["total_area"] == 2.0 ** 1004 * unscaled["total_area"]
    assert [t["lengths"] for t in scaled["mesh"]["triangles"]] == [
        [2.0 ** 502 * x for x in t["lengths"]] for t in unscaled["mesh"]["triangles"]]
    # the box at 1e200 (1, 1, 2, 2, 3, 3) is interior too; its total area, about
    # 1e402, is what leaves the float range
    box = {"normals": geomfix.CUBE_NORMALS.tolist(), "h": [1e200 * x for x in (1, 1, 2, 2, 3, 3)]}
    code, out, err = run(capsys, "polytope", "boundary-metric",
                         write_json(tmp_path, "huge_box.json", box), "--json")
    assert (code, out) == (2, "")
    assert err == "mixedform: triangle 0: the area overflows the floating-point range\n"


@pytest.mark.parametrize("op", ["build", "sphere-area"])
def test_non_finite_report_is_bad_input(tmp_path, op):
    # at h = 1e200 (1, 1, 2, 2, 3, 3) the box's volume and its sphere quadrature
    # overflow, which each reports itself with no numpy warning; a child
    # interpreter shows the CLI as run, where numpy's warnings go to stderr
    box = {"normals": geomfix.CUBE_NORMALS.tolist(), "h": [1e200 * x for x in (1, 1, 2, 2, 3, 3)]}
    path = write_json(tmp_path, "huge_box.json", box)
    for mode in ([], ["--json"]):
        proc = subprocess.run([sys.executable, "-m", "mixedform", "polytope", op, path, *mode],
                              capture_output=True, text=True, env=geomfix.child_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        what = {"build": "volume", "sphere-area": "area_via_sphere_integral"}[op]
        assert proc.stderr == f"mixedform: {what}: the value overflows the floating-point range\n"


@pytest.mark.parametrize("op, what", [
    (["boundary-metric"], "boundary_metric"),
    (["measure"], "first_area_measure"),
    (["af-check", "--k", "1,1,1,1,1,1"], "alexandrov_fenchel_check"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_edge_lengths_beyond_the_float_range_are_bad_input(tmp_path, op, what):
    # the cube at 1.5e308 builds, but its edges, 3e308 long, overflow: one line
    # and no numpy warning (|h| overflows too, its wall bound does not)
    cube = {"normals": geomfix.CUBE_NORMALS.tolist(), "h": [1.5e308] * 6}
    path = write_json(tmp_path, "huge_cube.json", cube)
    for mode in ([], ["--json"]):
        proc = subprocess.run([sys.executable, "-m", "mixedform", "polytope", op[0], path,
                               *op[1:], *mode],
                              capture_output=True, text=True, env=geomfix.child_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"mixedform: {what}: the value overflows the floating-point range\n"


@pytest.mark.parametrize("side", [1e100, 1e-100, 1e-170])
def test_surface_check_at_extreme_scales(capsys, tmp_path, side):
    mesh = dict(MESH, triangles=[{"lengths": [side] * 3}] * 2)
    code, out, _ = run(capsys, "surface", "check", write_json(tmp_path, "m.json", mesh), "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["total_area"] == pytest.approx(math.sqrt(3.0) / 2.0 * side * side, rel=1e-15, abs=0.0)
    _, unit, _ = run(capsys, "surface", "check", write_json(tmp_path, "u.json", MESH), "--json")
    assert res["cone_angles"] == json.loads(unit)["results"]["cone_angles"]


# =============================================================================
# FUCHSIAN
# =============================================================================

def test_fuchsian_hessian(capsys, fuchsian_file):
    code, out, _ = run(capsys, "fuchsian", "hessian", fuchsian_file, "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert min(res["eigenvalues"]) > 0.0
    assert res["min_dominance_margin"] > 0.0


def test_fuchsian_area_form(capsys, fuchsian_file):
    code, out, _ = run(capsys, "fuchsian", "area-form", fuchsian_file, "--json")
    assert code == 0
    res = json.loads(out)["results"]
    assert np.asarray(res["entries"]).shape == (2, 2)


def test_fuchsian_check_pd_passes(capsys, fuchsian_file):
    code, out, _ = run(capsys, "fuchsian", "check-pd", fuchsian_file, "--json")
    assert code == 0
    assert json.loads(out)["results"]["positive_definite"] is True


def test_fuchsian_check_pd_falsified_at_coarse_tol(capsys, fuchsian_file,
                                                   base_fan_and_h):
    # at a zero threshold above lambda_min / lambda_max the smallest
    # eigenvalue classifies as zero and the PD claim genuinely fails
    fan, _ = base_fan_and_h
    eigs = fuchsian.fuchsian_area_form(fan).eigenvalues()
    ratio = eigs[0] / eigs[-1]
    assert ratio < 1.0
    tol = 0.5 * (ratio + 1.0)
    code, _, err = run(capsys, "fuchsian", "check-pd", fuchsian_file,
                       "--tol", f"{tol:.12g}")
    assert code == 3
    assert "invariant falsified" in err


@pytest.mark.parametrize("phi, expected", [(400.0, 0), (800.0, 2)])
def test_fuchsian_phi_with_overflowing_cosh_is_bad_input(capsys, tmp_path, phi, expected):
    # the regular octagon pattern; cosh(800) overflows a float, cosh(400) does not
    faces = [{"adjacencies": [{"to": 0, "phi": phi, "omega": math.pi / 4.0}] * 8}]
    path = write_json(tmp_path, "octagon.json", {"genus": 2, "faces": faces, "h": [1.0]})
    code, out, err = run(capsys, "fuchsian", "area-form", path)
    assert code == expected
    if expected:
        assert out == ""
        assert "face 0: phi must be positive with a finite cosh" in err


def test_fuchsian_distance(capsys, fuchsian_file, base_fan_and_h):
    fan, h = base_fan_and_h
    k = ",".join(f"{2.0 * x:.17g}" for x in h)
    code, out, _ = run(capsys, "fuchsian", "distance", fuchsian_file, "--json",
                       "--k", k)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["homothety"] is True
    assert res["distance"] < 1e-7


# =============================================================================
# REPORT DETERMINISM
# =============================================================================

def test_json_reports_byte_identical(capsys, cube_file):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "polytope", "af-check", cube_file, "--json",
                           "--samples", "25", "--seed", "11")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# =============================================================================
# USAGE ERRORS AND LIBRARY LOOKUP
# =============================================================================

@pytest.mark.parametrize("command", [("polygon", "minkowski", "square_file"),
                                     ("polytope", "af-check", "cube_file")])
def test_negative_samples_is_usage_error(capsys, request, command):
    family, op, fixture = command
    path = request.getfixturevalue(fixture)
    code, out, err = run(capsys, family, op, path, "--samples", "-5", "--json")
    assert code == 64
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("command", [("polygon", "minkowski", "square_file"),
                                     ("polytope", "af-check", "cube_file")])
def test_negative_seed_is_usage_error(capsys, request, command):
    family, op, fixture = command
    path = request.getfixturevalue(fixture)
    code, out, err = run(capsys, family, op, path, "--samples", "2", "--seed", "-1", "--json")
    assert code == 64
    assert out == ""
    assert "argument --seed: must not be negative, got -1" in err


@pytest.mark.parametrize("command", [("polygon", "minkowski", "square_file", "2,2,2,2"),
                                     ("polytope", "af-check", "cube_file", "1,1,1,1,1,2")])
def test_seed_echoed_only_when_pairs_are_drawn(capsys, request, command):
    family, op, fixture, k = command
    path = request.getfixturevalue(fixture)
    code, out, _ = run(capsys, family, op, path, "--samples", "3", "--seed", "5", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 5
    # --k replaces the sampled pairs: no random numbers, so no seed
    code, out, _ = run(capsys, family, op, path, "--samples", "3", "--seed", "5",
                       "--k", k, "--json")
    assert code == 0
    assert "seed" not in json.loads(out)


def test_af_check_p_without_k_is_usage_error(capsys, cube_file):
    code, out, err = run(capsys, "polytope", "af-check", cube_file, "--samples", "5",
                         "--seed", "2", "--p", "1,1,1,1,1,3", "--json")
    assert code == 64
    assert out == ""
    assert "--p" in err


def test_commands_look_up_library_functions_at_call_time(capsys, monkeypatch, cube_file):
    # per-layer tracing wraps library functions after the CLI is imported;
    # a command bound to the original function object would bypass it
    calls = []
    original = polytope.boundary_area_form

    def counting(fan):
        calls.append(fan.m)
        return original(fan)

    monkeypatch.setattr(polytope, "boundary_area_form", counting)
    code, _, _ = run(capsys, "polytope", "signature", cube_file, "--json")
    assert code == 0
    assert calls == [6]


@pytest.mark.parametrize("command", [("polygon", "minkowski", "square_file", 4),
                                     ("polytope", "af-check", "cube_file", 6)])
def test_sampled_report_does_not_depend_on_the_chunk_size(capsys, monkeypatch, request, command):
    family, op, fixture, n = command
    argv = (family, op, request.getfixturevalue(fixture), "--samples", "23", "--seed", "4",
            "--json")
    code, one_chunk, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(cli, "SAMPLE_BATCH_ELEMENTS", 3 * 2 * n)      # 3 pairs a chunk
    code, chunked, _ = run(capsys, *argv)
    assert code == 0
    assert chunked == one_chunk


@pytest.mark.parametrize("budget, chunks", [(None, None), (96 * 1000, 4), (96 * 999, 5)])
def test_sampled_pairs_are_drawn_and_checked_once_per_chunk(capsys, monkeypatch, tmp_path,
                                                           budget, chunks):
    # a per-pair loop over the library would call each function 4000 times
    path = write_json(tmp_path, "48-gon.json",
                      {"normals_deg": [7.5 * i for i in range(48)], "h": [1] * 48})
    if budget is None:
        chunks = -(-4000 // (cli.SAMPLE_BATCH_ELEMENTS // 96))
    else:
        monkeypatch.setattr(cli, "SAMPLE_BATCH_ELEMENTS", budget)
    calls = {"sample_interior": [], "minkowski_check": []}
    for name, rows in (("sample_interior", len), ("minkowski_check", lambda r: len(r.residual))):
        def counting(*args, original=getattr(polygon, name), sizes=calls[name], rows=rows):
            result = original(*args)
            sizes.append(rows(result))
            return result
        monkeypatch.setattr(polygon, name, counting)
    code, out, _ = run(capsys, "polygon", "minkowski", path, "--samples", "4000", "--json")
    assert code == 0
    assert json.loads(out)["results"]["samples"] == 4000
    assert len(calls["sample_interior"]) == len(calls["minkowski_check"]) == chunks
    assert sum(calls["sample_interior"]) == 8000
    assert sum(calls["minkowski_check"]) == 4000


@pytest.mark.parametrize("budget, chunks", [(None, None), (12 * 100, 4), (12 * 99, 5)])
def test_sampled_af_pairs_are_drawn_and_checked_once_per_chunk(capsys, monkeypatch, cube_file,
                                                              budget, chunks):
    # a per-pair loop would call the sampler 800 times and the check 400 times
    if budget is None:
        chunks = -(-400 // (cli.SAMPLE_BATCH_ELEMENTS // 12))
    else:
        monkeypatch.setattr(cli, "SAMPLE_BATCH_ELEMENTS", budget)
    calls = {"sample_interior": [], "alexandrov_fenchel_check": []}
    for name, rows in (("sample_interior", len),
                       ("alexandrov_fenchel_check", lambda r: len(r.residual))):
        def counting(*args, original=getattr(polytope, name), sizes=calls[name], rows=rows):
            result = original(*args)
            sizes.append(rows(result))
            return result
        monkeypatch.setattr(polytope, name, counting)
    code, out, _ = run(capsys, "polytope", "af-check", cube_file, "--samples", "400", "--json")
    assert code == 0
    assert json.loads(out)["results"]["samples"] == 400
    assert len(calls["sample_interior"]) == len(calls["alexandrov_fenchel_check"]) == chunks
    assert sum(calls["sample_interior"]) == 800
    assert sum(calls["alexandrov_fenchel_check"]) == 400


def test_no_command_loads_scipy(square_file, mesh_file, fuchsian_file, cube_file):
    calls = [["--version"], ["polygon", "signature", square_file, "--json"],
             ["surface", "check", mesh_file, "--json"],
             ["fuchsian", "hessian", fuchsian_file, "--json"],
             ["polytope", "build", cube_file], ["polytope", "signature", cube_file, "--json"]]
    code = (
        "import contextlib, io, sys\n"
        "from mixedform import cli\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
        "assert not loaded, loaded[:5]\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=geomfix.child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


# the geometry modules each family's commands import, besides cli, errors and forms
FAMILY_MODULES = {"polygon": {"polygon"}, "surface": {"surface"},
                  "polytope": {"faces", "polygon", "polytope"},
                  "fuchsian": {"faces", "fuchsian", "polygon"}}


def test_each_command_loads_only_its_family(golden_inputs):
    # one fresh interpreter per family runs each of its commands once and
    # lists the mixedform modules loaded after each call
    code = (
        "import contextlib, io, json, sys\n"
        "from mixedform import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = cli.main(argv)\n"
        "    loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'mixedform')\n"
        "    print(json.dumps([argv[:2], status, loaded]))\n")
    common = {"mixedform", "mixedform.cli", "mixedform.errors", "mixedform.forms"}
    runs = {"--version": [["--version"]]}
    for case in GOLDEN_CASES:
        if case[:2] not in [tuple(argv[:2]) for argv in runs.get(case[0], [])]:
            runs.setdefault(case[0], []).append(golden_argv(golden_inputs, case))
    # the one command that reads a second family runs last in its interpreter
    runs["polytope"].sort(key=lambda argv: argv[1] == "boundary-metric")
    for family, calls in runs.items():
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)],
                              capture_output=True, text=True, env=geomfix.child_env(),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(lines) == len(calls)
        for command, status, loaded in lines:
            expected = common | {f"mixedform.{name}" for name in FAMILY_MODULES.get(family, ())}
            if command == ["polytope", "boundary-metric"]:
                expected.add("mixedform.surface")
            assert status == 0, command
            assert set(loaded) == expected, command


# usage, help and error command lines; a golden fixture name stands for its file
USAGE_ARGV = [
    ["--help"],
    ["polygon", "--help"],
    ["polytope", "af-check", "--help"],
    ["frobnicate", "square"],
    ["polygon"],
    ["polygon", "signature", "square", "--frobnicate"],
    ["polytope", "af-check", "cube", "--samples", "5", "--p", "1,1,1,1,1,3"],
    ["polygon", "minkowski", "square", "--samples", "-1"],
    ["surface", "check", "polygon"],
]


def usage_argv(inputs, argv):
    return [inputs.get(word, word) for word in argv]


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=" ".join)
def test_parser_scoped_to_argv_matches_the_whole_parser(capsys, monkeypatch, golden_inputs,
                                                        argv):
    # main adds the operations of the families named in argv only; argparse
    # enters no other family, so every text and exit code stays the same
    argv = usage_argv(golden_inputs, argv)
    scoped = run(capsys, *argv)
    whole, named = cli.build_parser, []

    def every_family(families):
        named.append(list(families))
        return whole(cli.LOADERS)

    monkeypatch.setattr(cli, "build_parser", every_family)
    assert run(capsys, *argv) == scoped
    assert named == [[family for family in cli.LOADERS if family in argv]]


# =============================================================================
# GOLDEN REPORTS
# =============================================================================

# (family, op, fixture, extra arguments); "@2h" stands for twice the
# quotient fan's support vector
GOLDEN_CASES = [
    ("polygon", "area-form", "square", []),
    ("polygon", "signature", "square", []),
    ("polygon", "signature", "square", ["--tol", "1e-3"]),
    ("polygon", "minkowski", "square", ["--k", "2,2,2,2"]),
    ("polygon", "minkowski", "square", ["--k", "1,2,1,2"]),
    ("polygon", "minkowski", "square", ["--samples", "5", "--seed", "7"]),
    ("polygon", "minkowski", "square", ["--samples", "0", "--seed", "7"]),
    ("polygon", "embed", "square", []),
    ("surface", "check", "mesh", []),
    ("surface", "flip", "mesh", ["--triangle", "0", "--edge", "0"]),
    ("polytope", "build", "cube", []),
    ("polytope", "volume", "cube", []),
    ("polytope", "area-form", "cube", []),
    ("polytope", "signature", "cube", []),
    ("polytope", "signature", "cube", ["--tol", "1e-6"]),
    ("polytope", "af-check", "cube", ["--k", "1,1,1,1,1,1"]),
    ("polytope", "af-check", "cube", ["--k", "1,1,1,1,1,2", "--p", "1,1,1,1,1,1"]),
    ("polytope", "af-check", "cube", ["--samples", "10", "--seed", "3"]),
    ("polytope", "measure", "cube", []),
    ("polytope", "sphere-area", "cube", ["--depth", "3"]),
    ("polytope", "boundary-metric", "cube", []),
    ("fuchsian", "hessian", "fuchsian", []),
    ("fuchsian", "area-form", "fuchsian", []),
    ("fuchsian", "check-pd", "fuchsian", []),
    ("fuchsian", "distance", "fuchsian", ["--k", "@2h"]),
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _case_id(case):
    family, op, fixture, extra = case
    return " ".join([family, op, fixture, *extra])


def write_golden_inputs(directory, exponent=0):
    """Write the golden fixtures, every support vector and mesh length times
    2^exponent; map fixture names (and "@2h") to arguments."""
    fan, h = genus2_base_fan_and_h()
    s = 2.0 ** exponent
    h = s * h
    docs = {"square": {**SQUARE, "h": [s * x for x in SQUARE["h"]]},
            "cube": {**CUBE, "h": [s * x for x in CUBE["h"]]},
            "mesh": {**MESH, "triangles": [{"lengths": [s * x for x in t["lengths"]]}
                                           for t in MESH["triangles"]]},
            "fuchsian": fan.to_json_dict(h=h)}
    inputs = {"@2h": ",".join(f"{2.0 * x:.17g}" for x in h)}
    for name, doc in docs.items():
        inputs[name] = os.path.join(directory, name + ".json")
        with open(inputs[name], "w") as fh:
            json.dump(doc, fh)
    return inputs


def golden_argv(inputs, case, exponent=0):
    """The case's command line on ``inputs``, its --k and --p vectors times 2^exponent."""
    family, op, fixture, extra = case
    argv = [family, op, inputs[fixture]]
    for flag, value in zip([None, *extra], extra):
        if flag in ("--k", "--p") and value not in inputs:
            value = ",".join(repr(2.0 ** exponent * float(x)) for x in value.split(","))
        argv.append(inputs.get(value, value))
    return argv


def golden_report(inputs, case):
    """results, tolerances and seed of the --json run, and the human lines."""
    argv = golden_argv(inputs, case)
    outputs = []
    for flags in (["--json"], []):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + flags) == 0
        outputs.append(out.getvalue())
    report = json.loads(outputs[0])
    lines = outputs[1].splitlines()
    assert lines[-1].startswith("wall time: ")
    golden = {key: report[key] for key in ("results", "tolerances", "seed") if key in report}
    golden["lines"] = lines[:-1]
    return golden


def _assert_close(actual, expected, where):
    # rel 1e-12; the absolute floor only admits rounding noise around zero
    assert type(actual) is type(expected), where
    if isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-15), where
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, where


def _assert_line_close(actual, expected, where):
    assert _NUMBER.split(actual) == _NUMBER.split(expected), where
    _assert_close([float(x) for x in _NUMBER.findall(actual)],
                  [float(x) for x in _NUMBER.findall(expected)], where)


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    return write_golden_inputs(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_command(golden):
    assert set(golden) == {_case_id(case) for case in GOLDEN_CASES}
    assert {(family, op) for family, op, _, _ in GOLDEN_CASES} == set(cli.COMMANDS)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=_case_id)
def test_golden_report(golden, golden_inputs, case):
    expected = golden[_case_id(case)]
    actual = golden_report(golden_inputs, case)
    assert actual.keys() == expected.keys()
    for key in ("results", "tolerances", "seed"):
        if key in expected:
            _assert_close(actual[key], expected[key], key)
    assert len(actual["lines"]) == len(expected["lines"])
    for i, (a, e) in enumerate(zip(actual["lines"], expected["lines"])):
        _assert_line_close(a, e, f"line {i}")


# =============================================================================
# GOLDEN CASES UNDER SCALING
# =============================================================================

def _json_run(argv):
    """Exit code and --json report (None unless the exit code is 0) of ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--json"])
    return code, json.loads(out.getvalue()) if code == 0 else None


def _assert_scaled(actual, expected, exponent, where):
    """Each number of ``actual`` is the one of ``expected`` times 2^(d exponent), for an
    integer d in 0..6, within rel 1e-9; zeros stay zero, other values stay equal."""
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            _assert_scaled(actual[key], expected[key], exponent, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_scaled(a, e, exponent, f"{where}[{i}]")
    elif isinstance(expected, float) and expected != 0.0:
        assert any(math.isclose(actual, expected * 2.0 ** (d * exponent), rel_tol=1e-9)
                   for d in range(7)), (where, actual, expected)
    else:
        assert actual == expected, where


@pytest.fixture(scope="module")
def unscaled_golden_runs(golden_inputs):
    return {_case_id(case): _json_run(golden_argv(golden_inputs, case)) for case in GOLDEN_CASES}


@pytest.mark.parametrize("exponent", [40, -40, 150, -150])
def test_golden_cases_scale_with_the_input(unscaled_golden_runs, tmp_path, exponent):
    # h (with --k and --p), or the mesh lengths, times 2^exponent: the same
    # exit code and tolerances, and each result a power of the scale times the
    # unscaled one
    inputs = write_golden_inputs(str(tmp_path), exponent)
    for case in GOLDEN_CASES:
        code, report = _json_run(golden_argv(inputs, case, exponent))
        expected_code, expected = unscaled_golden_runs[_case_id(case)]
        assert code == expected_code == 0, _case_id(case)
        assert report["tolerances"] == expected["tolerances"], _case_id(case)
        _assert_scaled(report["results"], expected["results"], exponent, _case_id(case))


@pytest.mark.parametrize("exponent", [700, -700])
def test_golden_cases_at_extreme_scales_exit_0_or_2(capsys, tmp_path, exponent):
    # results may leave the floating-point range here: that is bad input, never
    # a traceback (exit 1) or a falsified theorem (exit 3), and no numpy warning
    # (the test configuration turns any RuntimeWarning into an error)
    inputs = write_golden_inputs(str(tmp_path), exponent)
    for case in GOLDEN_CASES:
        code, _, err = run(capsys, *golden_argv(inputs, case, exponent), "--json")
        assert code in (0, 2), (_case_id(case), err)
        if code == 2:
            assert len(err.splitlines()) == 1, (_case_id(case), err)
            assert err.startswith("mixedform: "), _case_id(case)


@pytest.mark.parametrize("sign", [1, -1], ids=["large", "small"])
@pytest.mark.parametrize("case, exponent", [
    (("polytope", "af-check", "cube", ["--samples", "10", "--seed", "3"]), 200),
    (("polytope", "af-check", "cube", ["--k", "1,1,1,1,1,2", "--p", "1,1,1,1,1,1"]), 200),
    (("polygon", "minkowski", "square", ["--k", "1,2,1,2"]), 500),
], ids=lambda value: f"2^{value}" if isinstance(value, int) else _case_id(value))
def test_pair_beyond_the_float_range_is_bad_input(capsys, tmp_path, case, exponent, sign):
    # b^2 and q(h)q(k) overflow to inf or underflow to 0, so the residual reads
    # as an equality without a witness: not a counterexample, but exit 2
    exponent *= sign
    inputs = write_golden_inputs(str(tmp_path), exponent)
    code, out, err = run(capsys, *golden_argv(inputs, case, exponent))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("mixedform: ")
    assert "the pair's values leave the floating-point range" in err


@pytest.mark.parametrize("k", ["2,2,2,2", "1,2,1,2"])
def test_minkowski_areas_that_underflow_are_bad_input(capsys, tmp_path, k):
    # at 2^-700 the square's areas underflow to 0: the range error that af-check
    # gives, not "needs positive areas"
    inputs = write_golden_inputs(str(tmp_path), -700)
    code, out, err = run(capsys, *golden_argv(inputs, ("polygon", "minkowski", "square",
                                                       ["--k", k]), -700))
    assert (code, out) == (2, "")
    assert err == ("mixedform: minkowski_check: the pair's values leave the floating-point "
                   "range, got 0.000e+00, 0.000e+00\n")


def test_fuchsian_distance_at_any_scale(capsys, tmp_path):
    # the pair (h, 2h) is at distance 0 at every scale
    case = ("fuchsian", "distance", "fuchsian", ["--k", "@2h"])
    for exponent in (0, 266, -266, -500):
        inputs = write_golden_inputs(str(tmp_path), exponent)
        code, out, err = run(capsys, *golden_argv(inputs, case, exponent), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"] == {"distance": 0.0, "homothety": True}


@pytest.mark.parametrize("op", [["check"], ["flip", "--triangle", "0", "--edge", "0"]])
def test_surface_area_overflow_is_bad_input(capsys, tmp_path, op):
    inputs = write_golden_inputs(str(tmp_path), 700)
    code, out, err = run(capsys, "surface", op[0], inputs["mesh"], *op[1:])
    assert (code, out) == (2, "")
    assert err == "mixedform: triangle 0: the area overflows the floating-point range\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        inputs = write_golden_inputs(directory)
        reports = {_case_id(case): golden_report(inputs, case) for case in GOLDEN_CASES}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
