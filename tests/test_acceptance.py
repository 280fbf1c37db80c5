"""End-to-end acceptance checks.

Each test covers one numbered claim about the library at pinned tolerances
and prints a single PASS/FAIL verdict line (visible with ``pytest -s`` or on
failure).  Tolerances here are contractual: do not loosen them to make a
failing check green.
"""
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import geomfix
import oracles
from mixedform import errors, fuchsian, polygon, polytope, surface


@contextmanager
def criterion(num, name):
    record = {"ok": False, "detail": ""}
    try:
        yield record
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL (exception)", flush=True)
        raise
    tag = "PASS" if record["ok"] else "FAIL"
    detail = f" ({record['detail']})" if record["detail"] else ""
    print(f"criterion {num:02d} {name}: {tag}{detail}", flush=True)
    assert record["ok"], f"criterion {num:02d} {name}{detail}"


# -----------------------------------------------------------------------------
# 1. polygon area-form signatures (1, 2, n-3), 20 fans per n, under a second
# -----------------------------------------------------------------------------

def test_criterion_01_polygon_signatures():
    with criterion(1, "polygon signatures (1,2,n-3)") as c:
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        ok = True
        for n in range(3, 13):
            for rep in range(20):
                fan = (polygon.NormalFan2D.regular(n) if rep == 0
                       else geomfix.perturbed_polygon_fan(n, rng))
                sig = polygon.area_form(fan).signature(zero_threshold=1e-9)
                ok = ok and sig == (1, 2, n - 3)
        elapsed = time.perf_counter() - t0
        c["ok"] = ok and elapsed < 1.0
        c["detail"] = f"200 fans in {elapsed:.2f}s"


# -----------------------------------------------------------------------------
# 2. Minkowski inequality plus equality-witness recovery
# -----------------------------------------------------------------------------

def test_criterion_02_minkowski_inequality():
    with criterion(2, "Minkowski inequality and witnesses") as c:
        rng = np.random.default_rng(102)
        worst = 0.0
        for n in (4, 5, 7, 10):
            fan = geomfix.perturbed_polygon_fan(n, rng)
            # pair i is rows 2i and 2i+1: the draws of 1000 (h, k) calls in a row
            rows = polygon.sample_interior(fan, rng, size=2000)
            res = polygon.minkowski_check(fan, rows[0::2], rows[1::2])
            worst = min(worst, float(np.min(res.residual / res.scale)))
        witness_err = 0.0
        residual_ok = True
        for _ in range(100):
            n = int(rng.integers(4, 9))
            fan = geomfix.perturbed_polygon_fan(n, rng)
            k = polygon.sample_interior(fan, rng)
            x = 0.5 * rng.standard_normal(2)
            lam = float(rng.uniform(0.4, 2.5))
            h = polygon.point_support_vector(fan, x) + lam * k
            res = polygon.minkowski_check(fan, h, k)
            residual_ok = residual_ok and abs(res.residual) < 1e-10 * res.scale
            if res.witness_x is None:
                residual_ok = False
            else:
                witness_err = max(witness_err,
                                  float(np.linalg.norm(res.witness_x - x)),
                                  abs(res.witness_lambda - lam))
        c["ok"] = worst >= -1e-12 and residual_ok and witness_err < 1e-7
        c["detail"] = (f"min rel residual {worst:.1e}, "
                       f"max witness error {witness_err:.1e}")


# -----------------------------------------------------------------------------
# 3. square/rectangle mixed area 3/2 by two independent routes
# -----------------------------------------------------------------------------

def test_criterion_03_mixed_area_oracle():
    with criterion(3, "square/rectangle mixed area 3/2") as c:
        fan = polygon.NormalFan2D.from_degrees([0, 90, 180, 270])
        h = np.array([1.0, 1.0, 0.0, 0.0])      # unit square [0,1]^2
        k = np.array([2.0, 1.0, 0.0, 0.0])      # rectangle [0,2]x[0,1]
        via_form = polygon.area_form(fan).b(h, k)

        def shoelace(v):
            V = polygon.vertices(fan, v)
            x, y = V[:, 0], V[:, 1]
            return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

        via_sum = 0.5 * (shoelace(h + k) - shoelace(h) - shoelace(k))
        c["ok"] = (abs(via_form - 1.5) < 1e-12 and abs(via_sum - 1.5) < 1e-12
                   and abs(via_form - via_sum) < 1e-12)
        c["detail"] = f"form {via_form:.15g}, Minkowski sum {via_sum:.15g}"


# -----------------------------------------------------------------------------
# 4. polytope volume/area oracles, signatures, and area = 3 v(1,.,.)
# -----------------------------------------------------------------------------

def test_criterion_04_polytope_volume_area():
    with criterion(4, "polytope volume/area/signature") as c:
        cube = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
        h = np.full(6, 0.5)
        ok = abs(polytope.volume(cube, h) - 1.0) < 1e-12
        ok = ok and abs(polytope.boundary_area_form(cube).q(h) - 6.0) < 1e-12
        ok = ok and polytope.boundary_area_form(cube).signature(
            zero_threshold=1e-9) == (1, 3, 2)
        rng = np.random.default_rng(104)
        identity_defect = 0.0
        for fan in [cube] + [geomfix.random_simple_polytope(
                int(rng.integers(8, 15)), rng)[0] for _ in range(20)]:
            if fan is not cube:
                sig = polytope.boundary_area_form(fan).signature(zero_threshold=1e-9)
                ok = ok and sig == (1, 3, fan.m - 4)
            lhs = polytope.boundary_area_form(fan).entries
            rhs = 3.0 * polytope.volume_form(fan).contract(np.ones(fan.m)).entries
            identity_defect = max(identity_defect, float(np.max(np.abs(lhs - rhs))))
        c["ok"] = ok and identity_defect < 1e-10
        c["detail"] = f"max |area - 3v(1,.,.)| = {identity_defect:.1e}"


# -----------------------------------------------------------------------------
# 5. Alexandrov-Fenchel inequality, discriminant bound, equality recovery
# -----------------------------------------------------------------------------

def test_criterion_05_alexandrov_fenchel():
    with criterion(5, "Alexandrov-Fenchel with witnesses") as c:
        rng = np.random.default_rng(105)
        cube = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
        fans = [cube,
                geomfix.random_simple_polytope(9, rng)[0],
                geomfix.random_simple_polytope(12, rng)[0]]
        worst = 0.0
        lemma_worst = 0.0
        for fan in fans:
            base = fan.reference_h
            T = polytope.volume_form(fan)
            for _ in range(1000):
                h = polytope.sample_interior(fan, base, rng)
                k = polytope.sample_interior(fan, base, rng)
                p = polytope.sample_interior(fan, base, rng)
                res = polytope.alexandrov_fenchel_check(fan, h, k, p)
                worst = min(worst, res.residual / res.scale)
                W = T.contract(p)
                A, B, C = oracles.abc_lemma_residuals(
                    W, h, k, polytope.sample_interior(fan, base, rng))
                scale = max(1.0, B * B, abs(A * C))
                lemma_worst = max(lemma_worst, (B * B - A * C) / scale)
        witness_err = 0.0
        equality_ok = True
        for _ in range(20):
            fan = fans[int(rng.integers(0, len(fans)))]
            k = polytope.sample_interior(fan, fan.reference_h, rng)
            p = polytope.sample_interior(fan, fan.reference_h, rng)
            x = 0.4 * rng.standard_normal(3)
            lam = float(rng.uniform(0.5, 2.0))
            h = polytope.point_support_vector(fan, x) + lam * k
            res = polytope.alexandrov_fenchel_check(fan, h, k, p)
            equality_ok = equality_ok and res.equality and res.witness_x is not None
            if res.witness_x is not None:
                witness_err = max(witness_err,
                                  float(np.linalg.norm(res.witness_x - x)),
                                  abs(res.witness_lambda - lam))
        c["ok"] = (worst >= -1e-12 and lemma_worst <= 1e-9
                   and equality_ok and witness_err < 1e-7)
        c["detail"] = (f"min rel residual {worst:.1e}, max B^2-AC {lemma_worst:.1e}, "
                       f"max witness error {witness_err:.1e}")


# -----------------------------------------------------------------------------
# 6. spherical quadrature accuracy and convergence order
# -----------------------------------------------------------------------------

def test_criterion_06_sphere_quadrature():
    with criterion(6, "sphere quadrature accuracy/order") as c:
        cube = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
        h = np.full(6, 0.5)
        err6 = abs(polytope.area_via_sphere_integral(cube, h, depth=6) - 6.0)
        rng = np.random.default_rng(106)
        min_order = np.inf
        for _ in range(3):
            fan, rh = geomfix.random_simple_polytope(int(rng.integers(8, 13)), rng)
            exact = polytope.boundary_area_form(fan).q(rh)
            e4 = abs(polytope.area_via_sphere_integral(fan, rh, depth=4) - exact)
            e8 = abs(polytope.area_via_sphere_integral(fan, rh, depth=8) - exact)
            order = math.log2(e4 / max(e8, 1e-14)) / 4.0
            min_order = min(min_order, order)
        c["ok"] = err6 < 1e-5 and min_order >= 2.0
        c["detail"] = f"cube depth-6 error {err6:.1e}, min observed order {min_order:.2f}"


# -----------------------------------------------------------------------------
# 7. Gauss-Bonnet: boundary cone angles against Gauss-cell areas
# -----------------------------------------------------------------------------

def test_criterion_07_gauss_bonnet():
    with criterion(7, "curvatures and Gauss images") as c:
        cube = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
        cone = surface.cone_data(polytope.boundary_metric(cube, np.full(6, 0.5)))
        ok = (len(cone.curvatures) == 8
              and float(np.max(np.abs(cone.curvatures - math.pi / 2.0))) < 1e-12)

        octa = polytope.build_fan(geomfix.OCTAHEDRON_NORMALS,
                                  np.full(8, 1.0 / math.sqrt(3.0)))
        ocone = surface.cone_data(polytope.boundary_metric(
            octa, np.full(8, 1.0 / math.sqrt(3.0))))
        ok = ok and (len(ocone.curvatures) == 6 and
                     float(np.max(np.abs(ocone.curvatures - 2.0 * math.pi / 3.0))) < 1e-9)

        # per-vertex curvature against the spherical cell area
        cell_defect = 0.0
        rng = np.random.default_rng(107)
        rfan, rh = geomfix.random_simple_polytope(10, rng)
        for fan, h in ((cube, np.full(6, 0.5)),
                       (octa, np.full(8, 1.0 / math.sqrt(3.0))),
                       (rfan, rh)):
            mesh = polytope.boundary_metric(fan, h)
            data = surface.cone_data(mesh)
            for orbit_idx, label_set in enumerate(mesh.orbit_labels()):
                vid = next(iter(label_set))
                cell_defect = max(cell_defect, abs(
                    data.curvatures[orbit_idx] - fan.vertex_cells[vid].area))
        ok = ok and cell_defect < 1e-9

        gcone = surface.cone_data(geomfix.genus2_octagon_mesh())
        ok = ok and (len(gcone.curvatures) == 1
                     and abs(gcone.curvatures[0] + 4.0 * math.pi) < 1e-9)
        c["ok"] = ok
        c["detail"] = f"max curvature/cell-area defect {cell_defect:.1e}"


# -----------------------------------------------------------------------------
# 8. flips preserve the metric; double flips restore it
# -----------------------------------------------------------------------------

def _flip_pool(rng):
    pool = [geomfix.cube_boundary_mesh(), geomfix.genus2_octagon_mesh()]
    for n in (5, 6, 8, 10):
        fan = geomfix.perturbed_polygon_fan(n, rng)
        pool.append(geomfix.doubled_polygon_mesh(fan, polygon.sample_interior(fan, rng)))
    for m in (8, 11):
        fan, h = geomfix.random_simple_polytope(m, rng)
        pool.append(polytope.boundary_metric(fan, h))
    return pool


def _cyclic_mismatch(row, target):
    return min(float(np.max(np.abs(np.roll(row, k) - target))) for k in range(3))


def test_criterion_08_flips():
    with criterion(8, "flip invariants and double flip") as c:
        rng = np.random.default_rng(108)
        pool = _flip_pool(rng)
        done = 0
        metric_defect = 0.0
        restore_defect = 0.0
        mesh_idx = 0
        while done < 200:
            mesh = pool[mesh_idx % len(pool)]
            mesh_idx += 1
            slots = [(t, e) for t in range(mesh.num_triangles) for e in range(3)]
            rng.shuffle(slots)
            area0 = surface.total_area(mesh)
            angles0 = np.sort(surface.cone_data(mesh).cone_angles)
            for slot in slots:
                if done >= 200:
                    break
                try:
                    flipped = surface.flip(mesh, slot)
                except errors.FlipNotAdmissible:
                    continue
                except errors.StructuralError:
                    continue
                done += 1
                area1 = surface.total_area(flipped)
                angles1 = np.sort(surface.cone_data(flipped).cone_angles)
                metric_defect = max(
                    metric_defect,
                    abs(area1 - area0) / area0,
                    float(np.max(np.abs(angles1 - angles0)) / np.max(angles0)))
                # flipping the new diagonal restores every triangle's length
                # triple; the two quad triangles come back with their indices
                # swapped and rows cyclically rotated (an orientation-forced
                # relabeling), so compare up to exactly that
                t, t2 = slot[0], mesh.sigma[slot][0]
                back = surface.flip(flipped, (t, 1))
                others = [i for i in range(mesh.num_triangles) if i not in (t, t2)]
                if others:
                    restore_defect = max(restore_defect, float(np.max(
                        np.abs(back.lengths[others] - mesh.lengths[others]))))
                restore_defect = max(
                    restore_defect,
                    _cyclic_mismatch(back.lengths[t], mesh.lengths[t2]),
                    _cyclic_mismatch(back.lengths[t2], mesh.lengths[t]))
        c["ok"] = metric_defect < 1e-12 and restore_defect < 1e-12
        c["detail"] = (f"{done} flips, metric defect {metric_defect:.1e}, "
                       f"restore defect {restore_defect:.1e}")


# -----------------------------------------------------------------------------
# 9. Fuchsian covolume Hessians: dominance, positivity, finite differences
# -----------------------------------------------------------------------------

def test_criterion_09_fuchsian_hessian():
    with criterion(9, "Fuchsian Hessian dominance/PD/FD") as c:
        rng = np.random.default_rng(109)
        jobs = [(fuchsian.regular_genus2_fan(), np.array([1.0]))]
        for i in range(50):
            jobs.append(geomfix.random_fuchsian_fan(rng, subdivide=(i % 6 == 5)))
        ok = True
        fd_worst = 0.0
        for fan, h0 in jobs:
            for _ in range(100):
                if fan.m == 1:
                    h = np.array([float(rng.uniform(0.5, 2.0))])
                else:
                    h = geomfix.sample_fuchsian_interior(fan, h0, rng)
                H = fuchsian.covolume_hessian(fan, h).entries
                diag = np.diag(H)
                ok = ok and bool(np.all(diag > 0.0))
                ok = ok and bool(np.all(2.0 * diag - np.sum(np.abs(H), axis=1) > 0.0))
                ok = ok and float(np.linalg.eigvalsh(H)[0]) > 0.0
                F = geomfix.fd_hessian_batch(fan, h)
                fd_worst = max(fd_worst,
                               float(np.max(np.abs(H - F))) / float(np.max(np.abs(H))))
        c["ok"] = ok and fd_worst < 1e-6
        c["detail"] = (f"{len(jobs)} fans x 100 points, "
                       f"max FD mismatch {fd_worst:.1e} rel")


# -----------------------------------------------------------------------------
# 10. Fuchsian area form: positive definite, Cauchy-Schwarz, homothety equality
# -----------------------------------------------------------------------------

def test_criterion_10_fuchsian_area_form():
    with criterion(10, "Fuchsian area form PD and Cauchy-Schwarz") as c:
        rng = np.random.default_rng(110)
        base = geomfix.fan_from_triangulation(geomfix.genus2_base_mesh())
        fixtures = [fuchsian.regular_genus2_fan(), base,
                    geomfix.random_fuchsian_fan(rng)[0],
                    geomfix.random_fuchsian_fan(rng, subdivide=True)[0]]
        ok = all(fuchsian.fuchsian_area_form(f).signature() == (f.m, 0, 0)
                 for f in fixtures)

        h0 = geomfix.find_interior_h(base)
        form = fuchsian.fuchsian_area_form(base)
        cs_worst = -np.inf
        classify_ok = True
        for i in range(1000):
            h = geomfix.sample_fuchsian_interior(base, h0, rng)
            if i % 10 == 0:
                k = float(rng.uniform(0.3, 3.0)) * h       # forced homothety
            else:
                k = geomfix.sample_fuchsian_interior(base, h0, rng)
            qq = form.q(h) * form.q(k)
            residual = form.b(h, k) ** 2 - qq
            cs_worst = max(cs_worst, residual / max(1.0, qq))
            lam = form.b(h, k) / form.q(h)
            is_homothety = float(np.linalg.norm(k - lam * h)) <= 1e-7 * float(
                np.linalg.norm(k))
            dist = fuchsian.spherical_distance(base, h, k)
            classify_ok = classify_ok and ((dist < 1e-7) == is_homothety)
            classify_ok = classify_ok and (
                fuchsian.is_homothety_pair(base, h, k) == is_homothety)
        c["ok"] = ok and cs_worst <= 1e-12 and classify_ok
        c["detail"] = f"max CS residual {cs_worst:.1e} rel"


# -----------------------------------------------------------------------------
# 11. complex chart: area agreement, closure, n=3 restricted signature
# -----------------------------------------------------------------------------

def test_criterion_11_chart_embedding():
    with criterion(11, "chart embedding area/closure") as c:
        rng = np.random.default_rng(111)
        area_defect = 0.0
        closure_defect = 0.0
        for n in range(3, 13):
            fan = geomfix.perturbed_polygon_fan(n, rng)
            aform = polygon.area_form(fan)
            for _ in range(100):
                h = polygon.sample_interior(fan, rng)
                z, herm = polygon.double_chart_embedding(fan, h)
                a_ref = aform.q(h)
                area_defect = max(area_defect, abs(herm.q(z) - a_ref) / a_ref)
                closure_defect = max(closure_defect, abs(complex(np.sum(z))))
        herm3 = polygon.shoelace_hermitian_form(3)
        basis = np.array([[1.0, 1.0],
                          [-1.0, 1.0],
                          [0.0, -2.0]], dtype=complex)
        basis[:, 0] /= math.sqrt(2.0)
        basis[:, 1] /= math.sqrt(6.0)
        sig3 = tuple(herm3.restrict(basis).signature())
        c["ok"] = (area_defect < 1e-12 and closure_defect < 1e-10
                   and sig3 == (1, 0, 1))
        c["detail"] = (f"area defect {area_defect:.1e} rel, "
                       f"closure {closure_defect:.1e}, n=3 signature {sig3}")


# -----------------------------------------------------------------------------
# 12. CLI determinism and the exit-code taxonomy
# -----------------------------------------------------------------------------

def _run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "mixedform", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=geomfix.child_env())


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "CLI determinism and exit codes") as c:
        cube_path = tmp_path / "cube.json"
        cube_path.write_text(json.dumps(
            {"normals": geomfix.CUBE_NORMALS.tolist(), "h": [0.5] * 6}))
        args = ("polytope", "af-check", str(cube_path), "--json",
                "--samples", "25", "--seed", "11")
        first = _run_cli(*args)
        second = _run_cli(*args)
        ok = (first.returncode == 0 and second.returncode == 0
              and first.stdout == second.stdout and len(first.stdout) > 0)

        bad_path = tmp_path / "broken.json"
        bad_path.write_text("{not json")
        ok = ok and _run_cli("polytope", "build", str(bad_path)).returncode == 2

        fan = geomfix.fan_from_triangulation(geomfix.genus2_base_mesh())
        h = geomfix.find_interior_h(fan)
        eigs = fuchsian.fuchsian_area_form(fan).eigenvalues()
        coarse = 0.5 * (eigs[0] / eigs[-1] + 1.0)
        fuchs_path = tmp_path / "fuchsian.json"
        fuchs_path.write_text(json.dumps(fan.to_json_dict(h=h)))
        falsify = _run_cli("fuchsian", "check-pd", str(fuchs_path),
                           "--tol", f"{coarse:.12g}")
        ok = ok and falsify.returncode == 3

        ok = ok and _run_cli("polygon", "frobnicate", str(cube_path)).returncode == 64
        c["ok"] = ok
        c["detail"] = "exit codes 0/2/3/64, byte-identical reports"
