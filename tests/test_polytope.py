import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, HalfspaceIntersection

import geomfix
import oracles
from mixedform import cli, errors, forms, polytope, surface

CUBE = geomfix.CUBE_NORMALS
OCTA = geomfix.OCTAHEDRON_NORMALS


@pytest.fixture(scope="module")
def cube_fan():
    return polytope.build_fan(CUBE, np.ones(6))


@pytest.fixture(scope="module")
def octa_fan():
    return polytope.build_fan(OCTA, np.full(8, 1.0 / math.sqrt(3.0)))


# =============================================================================
# FAN CONSTRUCTION
# =============================================================================

def test_cube_combinatorics(cube_fan):
    md = cube_fan.metadata
    assert md["faces"] == 6
    assert md["vertices"] == 8
    assert md["edges"] == 12
    assert md["simple"] is True
    assert md["cone_dim"] == 3
    for cyc in cube_fan.face_cycles:
        assert len(cyc) == 4


def test_octahedron_combinatorics(octa_fan):
    md = octa_fan.metadata
    assert md["faces"] == 8
    assert md["vertices"] == 6
    assert md["edges"] == 12
    assert md["simple"] is False        # 4 faces meet at every vertex


def test_gauss_cells_tile_sphere(cube_fan, octa_fan):
    for fan in (cube_fan, octa_fan):
        total = sum(cell.area for cell in fan.vertex_cells)
        assert abs(total - 4 * math.pi) < 1e-9


def test_cube_vertex_positions(cube_fan):
    pos = cube_fan.vertex_positions(np.ones(6))
    assert sorted(map(tuple, np.round(pos, 12).tolist())) == sorted(
        (x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0))


def test_unbounded_raises():
    # all normals in the upper halfspace: nothing caps the region below
    up = np.array([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]], float)
    up /= np.linalg.norm(up, axis=1)[:, None]
    with pytest.raises(errors.UnboundedRegionError):
        polytope.build_fan(up, np.ones(4))


def test_coplanar_normals_raise_with_flat_hull_message():
    # the hull of the normals is flat; the reason is kept in the error
    angles = np.radians([0.0, 80.0, 170.0, 260.0])
    flat = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(4)])
    with pytest.raises(errors.UnboundedRegionError) as err:
        polytope.build_fan(flat, np.ones(4))
    assert str(err.value) == ("normals do not span 3-space; halfspace intersection is "
                              "unbounded (flat input: the 4 points span 2 of 3 dimensions)")


def test_cube_builds_at_extreme_scales(cube_fan, tmp_path, capsys):
    # the hulls see h / max|h|: at h = 1e200 the lifted dual points used to be
    # about 1e-200 (a flat initial simplex), and from 1e-105 down they were
    # NaN, which escaped as a bare ValueError
    for s in (1e-120, 1e-105, 1e85, 1e200):
        fan = polytope.build_fan(CUBE, np.full(6, s))
        assert fan.metadata == cube_fan.metadata
        assert fan.face_cycles == cube_fan.face_cycles
    path = tmp_path / "tiny_cube.json"
    path.write_text(json.dumps({"normals": CUBE.tolist(), "h": [1e-120] * 6}))
    assert cli.main(["polytope", "build", str(path), "--json"]) == 0
    capsys.readouterr()
    # the slab 1 <= x <= 1 at the largest finite scale: a typed error
    with pytest.raises(errors.StructuralError, match="region has no interior"):
        polytope.build_fan(CUBE, [1e308, -1e308, 1.0, 1.0, 1.0, 1.0])


def test_cube_builds_at_the_top_of_the_float_range(cube_fan, tmp_path, capsys):
    # the faces are ordered at unit scale: at 1.5e308 the face centres of the
    # scaled positions overflowed, and the build failed on a misordered face
    fan = polytope.build_fan(CUBE, np.full(6, 1.5e308))
    assert fan.face_cycles == cube_fan.face_cycles
    assert fan.face_vertices == cube_fan.face_vertices
    path = tmp_path / "huge_cube.json"
    path.write_text(json.dumps({"normals": CUBE.tolist(), "h": [1.5e308] * 6}))
    assert cli.main(["polytope", "build", str(path)]) == 2
    assert capsys.readouterr() == ("", "mixedform: volume: the value overflows the "
                                       "floating-point range\n")


def test_wall_bound_is_finite_where_h_is_not(cube_fan):
    # |h| of the cube at 0.75e308 and at 1.5e308 exceeds the float range, tol |h|
    # does not: the bound is finite, with no numpy warning, and both cubes are
    # interior (at the parent the bound was inf, so every edge sat on a wall);
    # the edges of the larger cube, 3e308 long, overflow themselves
    for s in (0.75e308, 1.5e308):
        h = np.full(6, s)
        bound = forms.wall_bound(h, forms.MEMBERSHIP_TOL)
        assert bound.tolist() == [pytest.approx(forms.MEMBERSHIP_TOL * s * math.sqrt(6.0),
                                                rel=1e-15)]
        with np.errstate(over="ignore" if s > 1e308 else "raise"):
            assert polytope.cone_membership(cube_fan, h).status == "interior"
    with pytest.raises(errors.DomainError,
                       match="^boundary_metric: the value overflows the floating-point range$"):
        polytope.boundary_metric(cube_fan, h)


def test_redundant_halfspace_lists_faces():
    # a seventh plane far outside the unit cube touches nothing
    normals = np.vstack([CUBE, [[0, 0, 1]]])
    normals[6] = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    h = np.append(np.ones(6), 10.0)
    with pytest.raises(errors.RedundancyError) as err:
        polytope.build_fan(normals, h)
    assert err.value.faces == [6]


def test_rejects_non_unit_normals():
    bad = CUBE.copy()
    bad[0] = [2.0, 0.0, 0.0]
    with pytest.raises(errors.InvalidInput):
        polytope.build_fan(bad, np.ones(6))


def test_rejects_duplicate_normals():
    bad = np.vstack([CUBE, [[1.0, 0.0, 0.0]]])
    with pytest.raises(errors.InvalidInput):
        polytope.build_fan(bad, np.ones(7))


def test_rejects_complex_support_vector():
    # build_fan checks h with forms.support_vector, as every other h is checked
    with pytest.raises(errors.InvalidInput, match="build_fan: support vector must be real"):
        polytope.build_fan(CUBE, np.ones(6) + 0.5j)


def test_empty_region_lists_every_face():
    # x <= 1 and x >= 2 cannot both hold
    with pytest.raises(errors.RedundancyError) as err:
        polytope.build_fan(CUBE, np.array([1.0, -2.0, 1.0, 1.0, 1.0, 1.0]))
    assert err.value.faces == list(range(6))


def test_plane_touching_one_vertex_is_redundant():
    normals = np.vstack([CUBE, np.ones((1, 3)) / math.sqrt(3.0)])
    h = np.append(np.ones(6), math.sqrt(3.0))      # touches the corner (1, 1, 1)
    with pytest.raises(errors.RedundancyError) as err:
        polytope.build_fan(normals, h)
    assert err.value.faces == [6]


def test_flat_region_raises():
    with pytest.raises(errors.MixedFormError):
        polytope.build_fan(CUBE, np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]))


def test_scipy_optimize_not_imported():
    code = ("import sys; import numpy as np; from mixedform import polytope; "
            "polytope.build_fan(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)); "
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=geomfix.child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def _hexagonal_bipyramid():
    """12 triangle faces: two apexes where 6 faces meet, six equator vertices with 4."""
    theta = np.radians(60.0 * np.arange(6) + 30.0)
    alpha = math.radians(40.0)
    ring = np.column_stack([np.cos(theta), np.sin(theta)]) * math.cos(alpha)
    return np.vstack([np.column_stack([ring, np.full(6, z)])
                      for z in (math.sin(alpha), -math.sin(alpha))])


def _oracle_fans():
    """(name, normals, h): every fan the array passes must rebuild bit for bit."""
    yield "cube", CUBE, np.ones(6)
    yield "octahedron", OCTA, np.full(8, 1.0 / math.sqrt(3.0))
    yield "box", CUBE, np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    yield "hexagonal bipyramid", _hexagonal_bipyramid(), np.ones(12)
    for m in (48, 96, 200):
        yield f"fibonacci {m}", geomfix.fibonacci_sphere(m), np.ones(m)
        rng = np.random.default_rng(m)
        yield f"jittered fibonacci {m}", geomfix.fibonacci_sphere(m, rng, jitter=0.05), np.ones(m)
    yield "cut cube 1e-4", *geomfix.cut_cube(1e-4, 1e-5)
    rng = np.random.default_rng(14)
    for k in range(20):
        fan, h = geomfix.random_simple_polytope(int(rng.integers(6, 31)), rng)
        yield f"random simple {k}", fan.normals, h


@pytest.mark.parametrize("name, normals, h", list(_oracle_fans()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_build_fan_matches_the_loop_oracle(name, normals, h):
    # each stage of build_fan is one array pass; the fan must equal, bit for bit,
    # the one the per-face and per-cell loop derives
    fan, ref = polytope.build_fan(normals, h), oracles.loop_build_fan(normals, h)
    assert fan.face_vertices == ref.face_vertices
    assert fan.face_cycles == ref.face_cycles
    assert list(fan.phi.items()) == list(ref.phi.items())
    F = fan.assembly
    for i, (ours, theirs) in enumerate(zip(geomfix.face_fans(fan), ref.face_fans, strict=True)):
        assert np.array_equal(ours.angles, theirs.angles)
        # the closed-form coefficients as NormalFan2D computed them with np.roll,
        # in the face's fan and in the assembly's flat arrays
        a = theirs.angles
        gaps = np.mod(np.roll(a, -1) - a, 2.0 * math.pi)
        cot = np.cos(gaps) / np.sin(gaps)
        edges = slice(F.offsets[i], F.offsets[i + 1])
        for got, want in ((ours.gaps, gaps), (ours.c_next, 1.0 / np.sin(gaps)),
                          (ours.c_prev, np.roll(1.0 / np.sin(gaps), 1)),
                          (ours.c_self, -cot - np.roll(cot, 1)),
                          (ours.normals, np.column_stack([np.cos(a), np.sin(a)])),
                          (F.c_next[edges], ours.c_next), (F.c_prev[edges], ours.c_prev),
                          (F.c_self[edges], ours.c_self)):
            assert np.array_equal(got, want)
    for ours, theirs in zip(fan.vertex_cells, ref.vertex_cells, strict=True):
        assert ours.faces == theirs.faces
        assert np.array_equal(ours.position, theirs.position)
        assert ours.area == theirs.area
    edges = [(i, j) for i, cycle in enumerate(ref.face_cycles) for j in cycle]
    assert fan.assembly.a.tolist() == [-math.cos(ref.phi[e]) / math.sin(ref.phi[e])
                                       for e in edges]
    assert fan.assembly.b.tolist() == [1.0 / math.sin(ref.phi[e]) for e in edges]
    for k in (h, 1.0 + 0.2 * np.sin(np.arange(len(h)))):
        assert np.array_equal(fan.vertex_positions(k), oracles.loop_vertex_positions(fan, k))


def test_build_fan_errors_match_the_loop_oracle():
    # error classes and messages come from the same checks in the same order
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(60):
        m = int(rng.integers(4, 9))
        eps = 10.0 ** rng.uniform(-9, -2)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        normals = np.column_stack([np.cos(angles), np.sin(angles),
                                   eps * (-1.0) ** np.arange(m)])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        h = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, m)
        outcome = []
        for build in (polytope.build_fan, oracles.loop_build_fan):
            try:
                built = build(normals, h)
                outcome.append(("ok", built.face_cycles))
            except errors.MixedFormError as exc:
                outcome.append((type(exc).__name__, str(exc)))
        assert outcome[0] == outcome[1]
        seen.add(outcome[0][0])
    assert len(seen) >= 2


@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5])
def test_cut_cube_with_near_parallel_normals(delta):
    # the cut face's normal is delta from the top face's: phi by atan2 keeps its
    # digits (acos lost them, and the slices failed their symmetry check by 1.2e-6
    # at delta = 1e-4 and 6.9e-4 at 1e-5)
    normals, h = geomfix.cut_cube(delta, 0.1 * delta)
    fan = polytope.build_fan(normals, h)
    exact = 8.0 - 0.01 * delta
    assert fan.simple
    assert tuple(polytope.boundary_area_form(fan).signature()) == (1, 3, 3)
    assert polytope.volume(fan, h) == pytest.approx(exact, rel=2e-12)
    assert polytope.volume_form(fan).v(h, h, h) == pytest.approx(exact, rel=2e-12)


@pytest.mark.parametrize("delta", [1e-4, 1e-5])
def test_deep_cut_cube_is_named_near_degenerate(delta):
    # cut 0.5 delta^2 deep, two vertices lie about 5e-9 apart, within the merge
    # tolerance: they join, and the error says why
    normals, h = geomfix.cut_cube(delta, 0.5 * delta * delta)
    message = ("edge of face 0 between vertices 0,2 is shared by 2 other faces (expected 1); "
               "near-degenerate input: vertices within the merge tolerance were joined")
    for build in (polytope.build_fan, oracles.loop_build_fan):
        with pytest.raises(errors.StructuralError) as info:
            build(normals, h)
        assert str(info.value) == message


# =============================================================================
# CONVEX HULL
# =============================================================================

def _distinct_planes(equations, tol=1e-9):
    """The facet planes with coplanar facets (equal equations within tol) merged."""
    planes = []
    for row in equations:
        if not any(np.max(np.abs(row - q)) <= tol for q in planes):
            planes.append(row)
    return np.array(planes)


def _lift(normals):
    """The 4-D dual points of the lifted region at h = 1, as ``build_fan`` forms them.

    All but the last lie on the hyperplane of the top facet.
    """
    return np.vstack([np.column_stack([normals, np.ones(len(normals))]), [0.0, 0.0, 0.0, -1.0]])


# the dual points u / h of the cube (an octahedron) and of the octahedron at
# h = 1 / sqrt(3) (a cube, 4 coplanar points per facet), lifts, and seeded sets
HULL_CASES = {
    "cube-dual": lambda rng: CUBE.copy(),
    "octahedron-dual": lambda rng: OCTA * math.sqrt(3.0),
    "cube-lift": lambda rng: _lift(CUBE),
    "tesseract": lambda rng: np.array(list(itertools.product((-1.0, 1.0), repeat=4))),
    "grid-3d": lambda rng: rng.integers(-2, 3, size=(120, 3)).astype(float),
    "grid-4d": lambda rng: rng.integers(-2, 3, size=(200, 4)).astype(float),
    "gaussian-3d": lambda rng: rng.normal(size=(150, 3)),
    "gaussian-4d": lambda rng: rng.normal(size=(150, 4)),
    "fibonacci-96": lambda rng: geomfix.fibonacci_sphere(96),
    "fibonacci-96-lift": lambda rng: _lift(geomfix.fibonacci_sphere(96)),
}


@pytest.mark.parametrize("name", sorted(HULL_CASES))
def test_hull_matches_qhull(name):
    rng = np.random.default_rng(sorted(HULL_CASES).index(name))
    base = HULL_CASES[name](rng)
    reference = _distinct_planes(ConvexHull(base).equations)
    for points in (base, base[rng.permutation(len(base))], base[rng.permutation(len(base))]):
        facets, equations = polytope._hull(points, errors.StructuralError, "hull")
        planes = _distinct_planes(equations)
        gap = np.max(np.abs(planes[:, None, :] - reference[None, :, :]), axis=2)
        assert len(planes) == len(reference)
        assert np.all(gap.min(axis=0) <= 1e-9) and np.all(gap.min(axis=1) <= 1e-9)
        # a closed simplicial surface: every ridge in exactly two facets
        d = points.shape[1]
        assert facets.shape == (len(equations), d)
        ridges = {}
        for facet in facets.tolist():
            for ridge in itertools.combinations(sorted(facet), d - 1):
                ridges[ridge] = ridges.get(ridge, 0) + 1
        assert set(ridges.values()) == {2}
        # unit normals, each facet's vertices on its plane, every point beneath
        normals, offsets = equations[:, :-1], equations[:, -1]
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-14)
        on_plane = np.einsum("fkj,fj->fk", points[facets], normals) + offsets[:, None]
        assert np.max(np.abs(on_plane)) <= 1e-12 * np.max(np.abs(points))
        assert np.max(points @ normals.T + offsets) <= 1e-12 * np.max(np.abs(points))


@pytest.mark.parametrize("points, span", [
    (np.column_stack([np.random.default_rng(7).normal(size=(20, 2)), np.zeros(20)]), 2),
    (np.outer(np.arange(6.0), [1.0, 2.0, -1.0, 0.5]), 1),
    (np.ones((5, 4)), 0),
], ids=["plane-in-3d", "line-in-4d", "point-in-4d"])
def test_hull_of_flat_points_raises_typed_error(points, span):
    d = points.shape[1]
    with pytest.raises(errors.UnboundedRegionError) as err:
        polytope._hull(points, errors.UnboundedRegionError, "flat")
    assert str(err.value) == (f"flat (flat input: the {len(points)} points span "
                              f"{span} of {d} dimensions)")


def _pierced(equations, direction):
    """The planes through which the ray from the origin along ``direction`` leaves
    (with those that tie within 1e-9)."""
    rate = equations[:, :-1] @ direction
    t = np.full(len(rate), np.inf)
    t[rate > 0.0] = -equations[rate > 0.0, -1] / rate[rate > 0.0]
    return equations[t <= np.min(t) * (1.0 + 1e-9)]


@pytest.mark.parametrize("name", sorted(HULL_CASES))
def test_walk_matches_qhull(name):
    # the walk grows only toward the one facet a question needs: the facet the ray
    # from the origin leaves through must be Qhull's, and so must the verdict
    # whether the origin is 1e-9 beneath every facet
    rng = np.random.default_rng(100 + sorted(HULL_CASES).index(name))
    base = HULL_CASES[name](rng)
    reference = ConvexHull(base).equations
    assert np.max(reference[:, -1]) < -0.1         # the origin is inside every case
    for points in (base, base[rng.permutation(len(base))]):
        for direction in rng.normal(size=(8, base.shape[1])):
            plane = polytope._walk(points, errors.StructuralError, "walk", direction=direction)
            assert np.min(np.max(np.abs(_pierced(reference, direction) - plane), axis=1)) <= 1e-9
    # the origin moved to a given offset from one of Qhull's facets: well inside,
    # just past the margin, within it, and outside
    for plane in reference[rng.choice(len(reference), 3, replace=False)]:
        for offset in (-0.3, -2e-9, -0.5e-9, 1e-3):
            shifted = base + (plane[-1] - offset) * plane[:-1]
            qhull = np.max(ConvexHull(shifted).equations[:, -1]) <= -1e-9
            walk = polytope._walk(shifted, errors.StructuralError, "walk", margin=1e-9)
            assert (walk is None) == qhull
            assert walk is None or walk[-1] > -1e-9
    # a ray from outside has no exit facet
    with pytest.raises(errors.ConsistencyError, match="the origin is not"):
        polytope._walk(shifted, errors.StructuralError, "walk", direction=plane[:-1])


def _near_flat_normals(seed):
    """4 to 79 normals about the equator whose z entries have a size of 1e-12 to 1e-1,
    alternating in sign, of mixed sign, or all but one positive (by seed % 3)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 80))
    eps = 10.0 ** rng.uniform(-12.0, -1.0)
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
    if seed % 3 == 0:
        z = eps * (-1.0) ** np.arange(m)
    elif seed % 3 == 1:
        z = eps * rng.uniform(-1.0, 1.0, m)
    else:
        z = eps * rng.uniform(0.0, 1.0, m)
        z[int(rng.integers(m))] *= -1.0
    normals = np.column_stack([np.cos(angles), np.sin(angles), z])
    return normals / np.linalg.norm(normals, axis=1)[:, None]


def test_boundedness_of_near_flat_normals_matches_qhull():
    # the full hull of the normals raised ConsistencyError ("not closed" or "a point
    # lies above a facet") on 28 of these 200 sets (421 of the first 3 000 seeds);
    # the walk gives Qhull's verdict on every one
    verdicts = []
    for seed in range(200):
        normals = _near_flat_normals(seed)
        try:
            polytope._check_bounded(normals)
            verdicts.append(True)
        except errors.UnboundedRegionError:
            verdicts.append(False)
        assert verdicts[-1] == (np.max(ConvexHull(normals).equations[:, -1]) <= -1e-9), seed
    assert 0 < sum(verdicts) < len(verdicts)


def test_near_flat_fans_match_qhull():
    # bounded near-flat fans at h = 1 (|z| 2e-9 to 2e-8, vertices about 1 / |z| away)
    # on which the vertex hull in Quickhull order raised ConsistencyError
    for seed in (299, 506, 1654, 1753, 2119):
        normals = _near_flat_normals(seed)
        h = np.ones(len(normals))
        fan = polytope.build_fan(normals, h)
        qhull = HalfspaceIntersection(np.column_stack([normals, -h]), np.zeros(3))
        assert len(fan.vertex_cells) == len(qhull.intersections), seed
        assert polytope.volume(fan, h) == pytest.approx(ConvexHull(qhull.intersections).volume,
                                                        rel=1e-6), seed


def test_nearly_coplanar_normals_build_or_raise_typed_errors():
    # 4 to 11 normals about the equator with z = +-eps alternating, eps 1e-9 to 1e-6,
    # every other set with one h entry near eps, each at h = 1 and at its own h: no
    # numpy warning (a zero facet offset once divided by zero) and no Gauss tiling
    # ConsistencyError (thin lune cells once lost digits)
    rng = np.random.default_rng(13)
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(200):
            m = int(rng.integers(4, 12))
            eps = 10.0 ** rng.uniform(-9.0, -6.0)
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
            normals = np.column_stack([np.cos(angles), np.sin(angles),
                                       eps * (-1.0) ** np.arange(m)])
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            h = rng.uniform(0.5, 2.0, m)
            if k % 2:
                h[int(rng.integers(m))] = eps * rng.uniform(0.5, 2.0)
            for support in (np.ones(m), h):
                try:
                    polytope.build_fan(normals, support)
                    outcomes.append("fan")
                except (errors.UnboundedRegionError, errors.RedundancyError) as err:
                    outcomes.append(type(err).__name__)
    assert set(outcomes) == {"fan", "UnboundedRegionError", "RedundancyError"}


def _lift_cases():
    """(kind, unit normals, unit-scale h) for the interior point: random simple fans,
    h = 1 Fibonacci fans, random simple fans translated so that h has negative
    entries, and boxes."""
    rng = np.random.default_rng(22)
    for _ in range(25):
        fan, h = geomfix.random_simple_polytope(int(rng.integers(6, 31)), rng)
        yield "random simple", fan.normals, h / np.max(np.abs(h))
        m = int(rng.integers(8, 61))
        yield "fibonacci", geomfix.fibonacci_sphere(m, rng, jitter=0.05), np.ones(m)
        direction = rng.normal(size=3)
        h = h + fan.normals @ (rng.uniform(1.5, 4.0) * direction / np.linalg.norm(direction))
        assert np.min(h) < 0.0
        yield "shifted", fan.normals, h / np.max(np.abs(h))
        h = np.repeat(rng.uniform(0.1, 2.0, 3), 2) + CUBE @ rng.normal(size=3)
        yield "box", CUBE, h / np.max(np.abs(h))


def test_interior_point_matches_the_full_hull():
    # the walk reaches the top vertex of the lifted region that the full 4D hull
    # of its dual points gives; a box's top vertex can tie, so there r alone
    for kind, normals, hn in _lift_cases():
        x0, r = polytope._interior_point(normals, hn, 1.0)
        ref_x0, ref_r = oracles.hull_interior_point(normals, hn)
        assert r == pytest.approx(ref_r, rel=1e-13, abs=0.0)
        if kind != "box":
            assert np.max(np.abs(x0 - ref_x0)) <= 2e-15


def test_interior_point_at_h_one_inserts_at_most_one_point(monkeypatch):
    # at h = 1 every lifted plane touches the top vertex; the full 4D hull spent
    # its time triangulating that flat face, the walk stops on it at once (after
    # at most one point that brings the origin inside)
    steps = []
    step = polytope._step
    monkeypatch.setattr(polytope, "_step", lambda *args: steps.append(args[3]) or step(*args))
    for m in (48, 96, 200, 1000):
        steps.clear()
        normals = geomfix.fibonacci_sphere(m, np.random.default_rng(m), jitter=0.05)
        assert polytope._interior_point(normals, np.ones(m), 1.0)[1] == pytest.approx(1.0)
        assert len(steps) <= 1


def test_hull_inserts_far_points_first(monkeypatch):
    # a cube with 994 redundant planes listed first: in input order the vertex hull
    # inserted 337 of their dual points, farthest from the start simplex first only
    # the two cube points that the simplex lacks
    rng = np.random.default_rng(23)
    extra = rng.normal(size=(994, 3))
    normals = np.vstack([extra / np.linalg.norm(extra, axis=1)[:, None], CUBE])
    h = np.append(np.full(994, 1.8), np.ones(6))
    steps = []
    step, hull = polytope._step, polytope._hull
    monkeypatch.setattr(polytope, "_step", lambda *args: steps.append(args[3]) or step(*args))
    monkeypatch.setattr(polytope, "_hull", lambda *args: steps.clear() or hull(*args))
    message = f"redundant halfspaces: {list(range(994))}"
    with pytest.raises(errors.RedundancyError, match=f"^{re.escape(message)}$"):
        polytope.build_fan(normals, h)
    assert len(steps) <= 2


def _triple_vertices(normals, h, tol=1e-9):
    """Brute-force oracle: feasible triple-plane intersections, deduplicated."""
    found = {}
    for triple in itertools.combinations(range(len(h)), 3):
        A = normals[list(triple)]
        if abs(np.linalg.det(A)) <= 1e-10:
            continue
        x = np.linalg.solve(A, h[list(triple)])
        gap = normals @ x - h
        if np.max(gap) <= tol:
            found.setdefault(tuple(np.flatnonzero(gap >= -10 * tol)), x)
    return found


def test_vertices_match_triple_intersection_oracle():
    rng = np.random.default_rng(59)
    cases = [(OCTA, np.full(8, 1.0 / math.sqrt(3.0)))]
    for m in (6, 9, 13, 17, 20):
        fan, h = geomfix.random_simple_polytope(m, rng)
        cases.append((fan.normals, h))
    for normals, h in cases:
        fan = polytope.build_fan(normals, h)
        oracle = _triple_vertices(fan.normals, h)
        ours = {tuple(sorted(cell.faces)): cell.position for cell in fan.vertex_cells}
        assert sorted(ours) == sorted(oracle)
        for key, x in oracle.items():
            assert np.max(np.abs(ours[key] - x)) < 1e-12


def test_tiny_scale_polytope_builds():
    # tolerances follow the inradius, not max(1, max|h|)
    rng = np.random.default_rng(0)
    normals = geomfix.fibonacci_sphere(12, rng, jitter=0.15)
    h = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, 12)
    fan = polytope.build_fan(normals, h)
    tiny = polytope.build_fan(normals, 1e-9 * h)
    assert fan.simple and tiny.metadata == fan.metadata
    assert tiny.face_cycles == fan.face_cycles
    assert abs(polytope.volume(tiny, 1e-9 * h) / polytope.volume(fan, h) - 1e-27) < 1e-36


def _rotation(rng):
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _same_cycle(a, b):
    return len(a) == len(b) and any(a[k:] + a[:k] == b for k in range(len(a)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=6, max_value=30), st.floats(min_value=-100.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=3.0), st.integers(min_value=0, max_value=2**31))
def test_build_fan_invariance(m, log_scale, shift, seed):
    # scale, translate (shift > 1 puts the origin outside), permute, rotate
    rng = np.random.default_rng(seed)
    fan, h = geomfix.random_simple_polytope(m, rng)
    s = 10.0 ** log_scale
    direction = rng.standard_normal(3)
    t = shift * direction / np.linalg.norm(direction)
    perm = rng.permutation(m)
    R = _rotation(rng)
    moved_h = s * (h + fan.normals @ t)[perm]
    moved = polytope.build_fan(fan.normals[perm] @ R.T, moved_h)
    assert moved.metadata == fan.metadata
    for i in range(m):
        assert _same_cycle([int(perm[j]) for j in moved.face_cycles[i]],
                           fan.face_cycles[perm[i]])
    expected = s ** 3 * polytope.volume(fan, h)
    assert abs(polytope.volume(moved, moved_h) - expected) <= 1e-9 * expected


def test_in_plane_support_numbers_match_geometry(cube_fan):
    # face +x of the unit cube: the in-plane polygon is the unit square,
    # all in-plane support numbers 1
    h = np.ones(6)
    for i in range(6):
        hi = cube_fan.assembly.support_map(i) @ h
        assert np.allclose(hi, 1.0)


# =============================================================================
# VOLUME AND AREA -- oracles, then the convex-hull referee
# =============================================================================

def test_cube_volume_and_area(cube_fan):
    h = np.full(6, 0.5)
    assert abs(polytope.volume(cube_fan, h) - 1.0) < 1e-12
    assert abs(polytope.boundary_area_form(cube_fan).q(h) - 6.0) < 1e-12


def test_octahedron_volume_and_area(octa_fan):
    h = np.full(8, 1.0 / math.sqrt(3.0))
    # vertices at distance 1 on the axes: volume 4/3, area 4 sqrt 3
    assert abs(polytope.volume(octa_fan, h) - 4.0 / 3.0) < 1e-12
    assert abs(polytope.boundary_area_form(octa_fan).q(h) - 4.0 * math.sqrt(3.0)) < 1e-12


def test_octahedron_volume_tensor_refused(octa_fan):
    # around a non-simple vertex the volume is only piecewise cubic
    with pytest.raises(errors.DomainError):
        polytope.volume_form(octa_fan)


def test_form_and_quadrature_overflow_is_domain_error(cube_fan):
    # the cube at 2^700 has volume 2^2103, and the box at 1e200 (1, 1, 2, 2, 3, 3)
    # a quadrature integrand beyond the float range: DomainError, no numpy warning;
    # on the cube at 3e153 every cell's integral fits but their sum does not
    h = np.full(6, 2.0 ** 699)
    with pytest.raises(errors.DomainError, match="^v: the value overflows"):
        polytope.volume_form(cube_fan).v(h, h, h)
    for box in (1e200 * np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), np.full(6, 3e153)):
        with pytest.raises(errors.DomainError,
                           match="^area_via_sphere_integral: the value overflows"):
            polytope.area_via_sphere_integral(polytope.build_fan(CUBE, box), box, 2)


def test_volume_form_diagonal_matches_direct(cube_fan):
    rng = np.random.default_rng(5)
    T = polytope.volume_form(cube_fan)
    for _ in range(20):
        h = polytope.sample_interior(cube_fan, np.ones(6), rng)
        assert abs(T.diagonal(h) - polytope.volume(cube_fan, h)) < 1e-12 * max(
            1.0, abs(polytope.volume(cube_fan, h)))


def test_volume_against_qhull_referee():
    rng = np.random.default_rng(11)
    for m in (8, 10, 13):
        fan, h = geomfix.random_simple_polytope(m, rng)
        hull = ConvexHull(fan.vertex_positions(h))
        vol = polytope.volume(fan, h)
        area = polytope.boundary_area_form(fan).q(h)
        assert abs(vol - hull.volume) < 1e-9 * max(1.0, hull.volume)
        assert abs(area - hull.area) < 1e-9 * max(1.0, hull.area)


def test_translation_invariance(cube_fan):
    h = np.full(6, 0.5)
    shift = polytope.point_support_vector(cube_fan, np.array([0.2, -0.4, 0.1]))
    assert abs(polytope.volume(cube_fan, h + shift) - 1.0) < 1e-12
    area = polytope.boundary_area_form(cube_fan)
    assert abs(area.q(h + shift) - area.q(h)) < 1e-12


@pytest.mark.parametrize("x", [[0.2, -0.4], 0.2, [[0.2, -0.4, 0.1]]], ids=["2d", "scalar", "row"])
def test_point_support_vector_rejects_non_space_point(cube_fan, x):
    with pytest.raises(errors.InvalidInput,
                       match=r"^point_support_vector: x must be a point in 3-space$"):
        polytope.point_support_vector(cube_fan, x)


def test_area_form_signature_cube(cube_fan):
    assert polytope.boundary_area_form(cube_fan).signature() == (1, 3, 2)


def test_area_form_kernel_is_translations(cube_fan):
    K = polytope.boundary_area_form(cube_fan).kernel()
    assert K.shape[1] == 3
    # every kernel vector is a point-support vector
    U = cube_fan.normals
    resid = K - U @ np.linalg.lstsq(U, K, rcond=None)[0]
    assert np.max(np.abs(resid)) < 1e-9


def test_random_simple_signatures():
    rng = np.random.default_rng(29)
    for m in (8, 11, 14):
        fan, _ = geomfix.random_simple_polytope(m, rng)
        sig = polytope.boundary_area_form(fan).signature()
        assert sig == (1, 3, m - 4)


def test_area_form_signature_margin_m96():
    # LAPACK rounding is far from moving any eigenvalue across the threshold
    normals = geomfix.fibonacci_sphere(96, np.random.default_rng(3), jitter=0.05)
    form = polytope.boundary_area_form(polytope.build_fan(normals, np.ones(96)))
    vals = np.abs(form.eigenvalues())
    tau = forms.DEFAULT_ZERO_THRESHOLD * np.max(vals)
    assert form.signature() == (1, 3, 92)
    zero = vals <= tau
    assert np.max(vals[zero]) <= 1e-3 * tau
    assert np.min(vals[~zero]) >= 1e3 * tau


def test_edge_lengths_cube(cube_fan):
    lengths = cube_fan.assembly.lengths(np.full(6, 0.5))
    assert len(lengths) == len(cube_fan.phi) == 24
    assert np.max(np.abs(lengths - 1.0)) < 1e-12


# =============================================================================
# CONE MEMBERSHIP
# =============================================================================

def test_membership_cube(cube_fan):
    assert polytope.cone_membership(cube_fan, np.ones(6)).status == "interior"
    # octahedron support numbers inside the cube fan: cube edges all shrink
    # to zero when the +z plane passes through the top edge ring
    h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -0.999])
    assert polytope.cone_membership(cube_fan, h).status == "interior"
    h[5] = -1.0
    assert polytope.cone_membership(cube_fan, h, tol=1e-9).status == "boundary"
    h[5] = -1.001
    assert polytope.cone_membership(cube_fan, h).status == "outside"


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600, 1e200, 1e-200])
def test_membership_and_sampling_at_any_scale(cube_fan, scale):
    # the wall bound tol |h| scales with h: |h|^2 overflowed above |h| ~ 1e154
    # (every h read "boundary") and underflowed below 1e-154 (no margin left)
    box = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    assert polytope.cone_membership(cube_fan, scale * box).status == "interior"
    wall = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 1e-14])
    for h, status in ((wall, "boundary"), (wall - [0, 0, 0, 0, 0, 1e-6], "outside")):
        unscaled = polytope.cone_membership(cube_fan, h)
        assert unscaled.status == status
        assert polytope.cone_membership(cube_fan, scale * h) == unscaled
    assert np.allclose(polytope.boundary_metric(cube_fan, scale * box).lengths,
                       scale * polytope.boundary_metric(cube_fan, box).lengths,
                       rtol=1e-15, atol=0.0)
    if math.frexp(scale)[0] == 0.5:      # a power of two: every draw scales exactly
        draws = [polytope.sample_interior(cube_fan, s * box, np.random.default_rng(5), size=20)
                 for s in (1.0, scale)]
        assert np.array_equal(draws[1], scale * draws[0])


# =============================================================================
# ALEXANDROV-FENCHEL
# =============================================================================

def test_af_random_triples():
    rng = np.random.default_rng(37)
    fan, h0 = geomfix.random_simple_polytope(10, rng)
    for _ in range(50):
        h = polytope.sample_interior(fan, h0, rng)
        k = polytope.sample_interior(fan, h0, rng)
        p = polytope.sample_interior(fan, h0, rng)
        res = polytope.alexandrov_fenchel_check(fan, h, k, p)
        assert res.residual >= -1e-12 * res.scale


def test_af_equality_translate_homothety(cube_fan):
    rng = np.random.default_rng(41)
    k = polytope.sample_interior(cube_fan, np.ones(6), rng)
    p = polytope.sample_interior(cube_fan, np.ones(6), rng)
    x = np.array([0.3, -0.1, 0.25])
    lam = 2.2
    h = polytope.point_support_vector(cube_fan, x) + lam * k
    res = polytope.alexandrov_fenchel_check(cube_fan, h, k, p)
    assert res.equality
    assert np.linalg.norm(res.witness_x - x) < 1e-7
    assert abs(res.witness_lambda - lam) < 1e-7


@pytest.mark.parametrize("exponent", [40, -40, 60, -60, 150, -150])
def test_af_witness_at_any_scale(cube_fan, exponent):
    # the fit sees h and k at unit size, so the witness scales with them
    s = 2.0 ** exponent
    rng = np.random.default_rng(10)
    fan, h0 = geomfix.random_simple_polytope(10, rng)
    for fan, x, lam, k, p in (
            (cube_fan, np.array([0.3, -0.1, 0.2]), 3.0, np.ones(6), np.ones(6)),
            (fan, np.array([0.1, 0.2, -0.3]), 0.7, *polytope.sample_interior(fan, h0, rng, 2))):
        h = polytope.point_support_vector(fan, x) + lam * k
        res = polytope.alexandrov_fenchel_check(fan, s * h, s * k, s * p)
        assert res.equality
        assert np.allclose(res.witness_x / s, x, rtol=1e-9, atol=1e-9)
        assert res.witness_lambda == pytest.approx(lam, rel=1e-9)


def test_volume_overflow_is_a_domain_error():
    # 1e200 (1, 1, 2, 2, 3, 3) builds, but its volume is beyond the float range;
    # a numpy overflow warning would fail this test as a RuntimeWarning
    box = polytope.build_fan(CUBE, 1e200 * np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))
    with pytest.raises(errors.DomainError, match="volume: the value overflows"):
        polytope.volume(box, box.reference_h)


def test_af_stack_matches_pairs(cube_fan):
    rng = np.random.default_rng(47)
    p = polytope.sample_interior(cube_fan, np.ones(6), rng)
    H = np.array([polytope.sample_interior(cube_fan, np.ones(6), rng) for _ in range(12)])
    K = np.array([polytope.sample_interior(cube_fan, np.ones(6), rng) for _ in range(12)])
    x, lam = np.array([0.3, -0.1, 0.25]), 2.2
    H[5] = polytope.point_support_vector(cube_fan, x) + lam * K[5]
    stacked = polytope.alexandrov_fenchel_check(cube_fan, H, K, p)
    for i, (h, k) in enumerate(zip(H, K)):
        res = polytope.alexandrov_fenchel_check(cube_fan, h, k, p)
        assert stacked.residual[i] == pytest.approx(res.residual, rel=1e-12)
        assert stacked.scale[i] == pytest.approx(res.scale, rel=1e-12)
        assert stacked.equality[i] == res.equality
        if res.witness_x is None:
            assert np.all(np.isnan(stacked.witness_x[i])) and np.isnan(stacked.witness_lambda[i])
        else:
            assert np.array_equal(stacked.witness_x[i], res.witness_x)
            assert stacked.witness_lambda[i] == res.witness_lambda
    assert np.flatnonzero(stacked.equality).tolist() == [5]
    assert np.linalg.norm(stacked.witness_x[5] - x) < 1e-7


def test_af_stacked_volume_form_matches_rows(cube_fan):
    rng = np.random.default_rng(49)
    T = polytope.volume_form(cube_fan)
    H, K, P = (np.array([polytope.sample_interior(cube_fan, np.ones(6), rng) for _ in range(8)])
               for _ in range(3))
    # a column slice: rows that are not contiguous in memory
    wide = np.repeat(H, 2, axis=1)[:, ::2]
    assert np.array_equal(T.v(wide, K, P[0]), [T.v(h, k, P[0]) for h, k in zip(H, K)])
    assert np.array_equal(T.v(H, K, P), [T.v(h, k, p) for h, k, p in zip(H, K, P)])


def test_af_mixed_point_body_vanishes(cube_fan):
    # v(h^x, k, p) = 0: a point contributes nothing to the mixed volume
    T = polytope.volume_form(cube_fan)
    rng = np.random.default_rng(43)
    for _ in range(10):
        hx = polytope.point_support_vector(cube_fan, rng.standard_normal(3))
        k = polytope.sample_interior(cube_fan, np.ones(6), rng)
        p = polytope.sample_interior(cube_fan, np.ones(6), rng)
        assert abs(T.v(hx, k, p)) < 1e-12


class _PushCutOutward:
    """An rng whose perturbation raises only the support number of face 6."""

    def standard_normal(self, size):
        return np.broadcast_to(np.eye(7)[6], size).copy()


def test_sampler_raises_when_no_draw_clears_the_margin():
    # a cube with one corner cut: at cut support sqrt(3) - 1e-10 the cut
    # triangle's sides are about 1e-10, interior at the membership tolerance
    # 1e-12 but not at the sampler's margin 1e-9; pushing the cut outward
    # only shrinks them, so no draw is accepted
    normals = np.vstack([CUBE, np.ones(3) / math.sqrt(3.0)])
    fan = polytope.build_fan(normals, np.append(np.ones(6), math.sqrt(3.0) - 1e-3))
    reference = np.append(np.ones(6), math.sqrt(3.0) - 1e-10)
    assert polytope.cone_membership(fan, reference).status == "interior"
    with pytest.raises(errors.DomainError, match="margin 1e-09 after 60 shrinks"):
        polytope.sample_interior(fan, reference, _PushCutOutward())


def _halving_draw(fan, reference, rng):
    """Reference sampler: halve one perturbation of ``reference`` until it is interior
    at the margin."""
    delta = rng.standard_normal(fan.m)
    s = polytope.SAMPLE_SPREAD
    for _ in range(polytope.SAMPLE_SHRINKS):
        h = reference * (1.0 + s * delta)
        if polytope.cone_membership(fan, h, tol=polytope.SAMPLE_MARGIN).status == "interior":
            return h
        s *= 0.5
    raise AssertionError("no size clears the margin")


@pytest.fixture(scope="module")
def fibonacci_fan():
    normals = geomfix.fibonacci_sphere(48)
    return polytope.build_fan(normals, np.ones(48))


@pytest.mark.parametrize("name", ["cube_fan", "fibonacci_fan"])
def test_sampled_stack_equals_sequential_draws(request, name):
    fan = request.getfixturevalue(name)
    reference = fan.reference_h
    rng = np.random.default_rng(7)
    expected = np.array([_halving_draw(fan, reference, rng) for _ in range(100)])
    after = rng.standard_normal()
    rng = np.random.default_rng(7)
    sequential = np.array([polytope.sample_interior(fan, reference, rng) for _ in range(100)])
    assert np.array_equal(sequential, expected)
    rng = np.random.default_rng(7)
    stack = polytope.sample_interior(fan, reference, rng, size=100)
    assert stack.shape == (100, fan.m)
    assert np.array_equal(stack, expected)
    assert rng.standard_normal() == after          # the stream is left where draws left it
    assert polytope.sample_interior(fan, reference, rng, size=0).shape == (0, fan.m)


@pytest.mark.parametrize("name", ["cube_fan", "fibonacci_fan"])
def test_sampled_draws_scale_with_the_reference(request, name):
    fan = request.getfixturevalue(name)
    draws = polytope.sample_interior(fan, fan.reference_h, np.random.default_rng(11), size=50)
    for c in 10.0 ** np.arange(-100, 101, 25):
        scaled = polytope.sample_interior(fan, c * fan.reference_h, np.random.default_rng(11),
                                          size=50)
        assert np.allclose(scaled / c, draws, rtol=1e-13, atol=0.0)


def test_single_draws_near_the_float_maximum(cube_fan):
    # one draw is a one-row stack placed at unit scale: about 1e308 x 6 it keeps the
    # pass loop's bits without the pass loop's overflow warnings, and about
    # 1.3e308 x 6 a draw that leaves the float range raises one DomainError
    def pass_loop(top, seed):
        with np.errstate(over="ignore", invalid="ignore"):
            return oracles.stacked_pass_sample(
                cube_fan._edge_lengths, np.full(6, top), np.random.default_rng(seed), None,
                polytope.SAMPLE_SPREAD, polytope.SAMPLE_MARGIN, polytope.SAMPLE_SHRINKS, "cone")

    def draw(top, seed, size=None):
        try:
            return polytope.sample_interior(cube_fan, np.full(6, top),
                                            np.random.default_rng(seed), size)
        except errors.DomainError as exc:
            return str(exc)

    raised = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(200):
            assert np.array_equal(draw(1e308, seed), pass_loop(1e308, seed))
            single, stack = draw(1.3e308, seed), draw(1.3e308, seed, size=1)
            if isinstance(single, str):
                assert single == stack == ("sample_interior: the value overflows the "
                                           "floating-point range")
                raised += 1
            else:
                assert np.array_equal(single, stack[0])
                assert np.array_equal(single, pass_loop(1.3e308, seed))
    assert 0 < raised < 200


def test_af_rejects_outside_reference(cube_fan):
    bad = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.5])
    with pytest.raises(errors.DomainError):
        polytope.alexandrov_fenchel_check(cube_fan, np.ones(6), np.ones(6), bad)


def test_af_rejects_h_or_k_outside_the_closed_cone(cube_fan):
    # both outside the cone, with v(h,h,p) = v(k,k,p) = -8/3: not a counterexample
    # to the inequality, but a pair outside its domain
    h = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0])
    k = np.array([0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
    for pair, side in (((h, k), "h"), ((np.ones(6), k), "k"), ((h, np.ones(6)), "h")):
        message = f"^alexandrov_fenchel_check: {side} lies outside the closed cone$"
        with pytest.raises(errors.DomainError, match=message):
            polytope.alexandrov_fenchel_check(cube_fan, *pair, np.ones(6))
    # in a stack the first failing pair raises: pair 3's k, not pair 4's h
    H, K = np.ones((5, 6)), np.full((5, 6), 2.0)
    K[3], H[4] = k, h
    with pytest.raises(errors.DomainError, match="k lies outside"):
        polytope.alexandrov_fenchel_check(cube_fan, H, K, np.ones(6))
    H[3] = h
    with pytest.raises(errors.DomainError, match="h lies outside"):
        polytope.alexandrov_fenchel_check(cube_fan, H, K, np.ones(6))


_AF_ONE, _AF_OUT = np.ones(6), np.array([1.0, 1.0, 1.0, 1.0, 1.0, -3.0])
_AF_HUGE, _AF_V_HUGE = np.full(6, 1.5e308), np.full(6, 1e155)
_AF_OVER = "the value overflows the floating-point range"
#: (h, k, p) of one pair on the cube and what it raises alone, in the order of the stages:
#: overflowing lengths (p, h or k), p outside, h outside, k outside, an overflowing v
_AF_FAILING_PAIRS = [
    ((_AF_ONE, _AF_ONE, _AF_HUGE), "alexandrov_fenchel_check: " + _AF_OVER),
    ((_AF_HUGE, _AF_ONE, _AF_ONE), "alexandrov_fenchel_check: " + _AF_OVER),
    ((_AF_OUT, _AF_HUGE, _AF_ONE), "alexandrov_fenchel_check: " + _AF_OVER),
    ((_AF_ONE, _AF_ONE, _AF_OUT), "alexandrov_fenchel_check: p lies outside the closed cone"),
    ((_AF_OUT, _AF_ONE, _AF_OUT), "alexandrov_fenchel_check: p lies outside the closed cone"),
    ((_AF_OUT, _AF_ONE, _AF_ONE), "alexandrov_fenchel_check: h lies outside the closed cone"),
    ((_AF_OUT, _AF_OUT, _AF_ONE), "alexandrov_fenchel_check: h lies outside the closed cone"),
    ((_AF_ONE, _AF_OUT, _AF_ONE), "alexandrov_fenchel_check: k lies outside the closed cone"),
    ((_AF_V_HUGE, _AF_OUT, _AF_ONE), "alexandrov_fenchel_check: k lies outside the closed cone"),
    ((_AF_V_HUGE, _AF_V_HUGE, _AF_ONE), "v: " + _AF_OVER),
]
_AF_FAILING_IDS = ["p lengths overflow", "h lengths overflow", "h outside, k lengths overflow",
                   "p outside", "h and p outside", "h outside", "h and k outside",
                   "k outside", "k outside, v overflow", "v overflow"]


@pytest.mark.parametrize("first", range(len(_AF_FAILING_PAIRS) + 1),
                         ids=_AF_FAILING_IDS + ["valid"])
def test_af_mixed_stacks_raise_as_their_first_failing_pair(cube_fan, first):
    # a stack whose pairs fail at different stages raises the class and message of
    # its first failing pair alone, not the earliest stage of any pair, as
    # minkowski_check does; a stack's one p is the p of its pairs
    pairs = [case for case, _ in _AF_FAILING_PAIRS] + [(_AF_ONE, 2.0 * _AF_ONE, _AF_ONE)]
    alone = [message for _, message in _AF_FAILING_PAIRS] + [None]
    if alone[first] is not None:
        with pytest.raises(errors.DomainError) as info:
            polytope.alexandrov_fenchel_check(cube_fan, *pairs[first])
        assert str(info.value) == alone[first]
    for second in range(len(pairs)):
        (h0, k0, p0), (h1, k1, p1) = pairs[first], pairs[second]
        if p0 is not p1:
            continue
        expected = alone[first] or alone[second]
        if expected is None:
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(errors.MixedFormError) as info:
                polytope.alexandrov_fenchel_check(cube_fan, np.stack([h0, h1]),
                                                  np.stack([k0, k1]), p0)
        assert caught == []
        assert (type(info.value), str(info.value)) == (errors.DomainError, expected)


def test_minkowski_sum_volume_polynomial(cube_fan):
    # V(h + t k) is cubic in t with coefficients given by mixed volumes
    rng = np.random.default_rng(47)
    h = polytope.sample_interior(cube_fan, np.ones(6), rng)
    k = polytope.sample_interior(cube_fan, np.ones(6), rng)
    T = polytope.volume_form(cube_fan)
    for t in (0.3, 1.0, 1.7):
        direct = polytope.volume(cube_fan, h + t * k)
        poly = (T.v(h, h, h) + 3 * t * T.v(h, h, k)
                + 3 * t * t * T.v(h, k, k) + t ** 3 * T.v(k, k, k))
        assert abs(direct - poly) < 1e-11 * max(1.0, abs(direct))


# =============================================================================
# FIRST AREA MEASURE
# =============================================================================

def test_first_area_measure_cube(cube_fan):
    measure = polytope.first_area_measure(cube_fan, np.full(6, 0.5))
    assert len(measure.arcs) == 12
    for arc in measure.arcs:
        assert abs(arc.arc_length - math.pi / 2.0) < 1e-12
        assert abs(arc.weight - 1.0) < 1e-12
    assert abs(measure.total_weighted_length - 12 * math.pi / 2.0) < 1e-10


def test_first_area_measure_rejects_h_outside(cube_fan):
    with pytest.raises(errors.DomainError) as info:
        polytope.first_area_measure(cube_fan, [1, 1, 1, 1, 1, -3])
    assert str(info.value) == "first_area_measure: h lies outside the closed cone"


def test_fib48_single_draws_match_the_stacked_pass_reference():
    # one draw a pass, with lengths taken on the i < j edges only, gives the draws
    # of a one-row stacked pass over every directed edge, bit for bit
    normals = geomfix.fibonacci_sphere(48, np.random.default_rng(48), jitter=0.05)
    fan = polytope.build_fan(normals, np.ones(48))
    F = fan.assembly
    edges = np.flatnonzero(F.src < F.dst)

    def every_edge_then_kept(rows):
        return F.lengths(rows)[..., edges]

    for seed in range(100):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        h = polytope.sample_interior(fan, fan.reference_h, rng)
        assert np.array_equal(h, oracles.stacked_pass_sample(
            every_edge_then_kept, fan.reference_h, ref_rng, None, polytope.SAMPLE_SPREAD,
            polytope.SAMPLE_MARGIN, polytope.SAMPLE_SHRINKS, "cone"))
        assert rng.standard_normal() == ref_rng.standard_normal()
    rows = polytope.sample_interior(fan, fan.reference_h, rng, size=6)
    for x in (rows, rows[0], rows.reshape(2, 3, 48)):
        assert np.array_equal(fan._edge_lengths(x), every_edge_then_kept(x))


def _spy_measurements(monkeypatch, fan):
    """Lists that record every support_vector call (by the name it reports) and
    every edge-length evaluation of ``fan`` made while the spies are in place."""
    validated, measured = [], []

    def support_vector(*args, support_vector=forms.support_vector, **kwargs):
        validated.append(args[2])
        return support_vector(*args, **kwargs)

    def spy(lengths):
        def measure(h):
            measured.append(h.shape)
            return lengths(h)
        return measure

    for module in (forms, polytope):
        monkeypatch.setattr(module, "support_vector", support_vector)
    # all directed edges; ``fan._edge_lengths`` keeps the i < j edges of these
    monkeypatch.setattr(fan.assembly, "lengths", spy(fan.assembly.lengths))
    return validated, measured


def test_first_area_measure_validates_and_measures_once(monkeypatch):
    fan = polytope.build_fan(CUBE, np.ones(6))
    validated, measured = _spy_measurements(monkeypatch, fan)
    measure = polytope.first_area_measure(fan, np.full(6, 0.5))
    with pytest.raises(errors.DomainError):
        polytope.first_area_measure(fan, [1, 1, 1, 1, 1, -3])
    monkeypatch.undo()
    assert len(measure.arcs) == 12
    assert validated == ["first_area_measure"] * 2
    assert measured == [(6,)] * 2


def test_boundary_metric_and_quadrature_validate_once(monkeypatch):
    # boundary_metric measures its edges once for the interior test and solves the
    # positions of the vector it checked; the quadrature measures none
    fan = polytope.build_fan(CUBE, np.ones(6))
    h = np.full(6, 0.5)
    expected_mesh = polytope.boundary_metric(fan, h).to_json_dict()
    expected_area = polytope.area_via_sphere_integral(fan, h, 2)
    validated, measured = _spy_measurements(monkeypatch, fan)
    mesh = polytope.boundary_metric(fan, h).to_json_dict()
    assert validated == ["boundary_metric"]
    assert measured == [(6,)]
    del validated[:], measured[:]
    area = polytope.area_via_sphere_integral(fan, h, 2)
    monkeypatch.undo()
    assert validated == ["area_via_sphere_integral"]
    assert measured == []
    assert (mesh, area) == (expected_mesh, expected_area)


def test_first_area_measure_scales_linearly(cube_fan):
    m1 = polytope.first_area_measure(cube_fan, np.ones(6))
    m2 = polytope.first_area_measure(cube_fan, 2.0 * np.ones(6))
    for a1, a2 in zip(m1.arcs, m2.arcs):
        assert a1.faces == a2.faces
        assert abs(a2.weight - 2.0 * a1.weight) < 1e-12
        assert abs(a2.arc_length - a1.arc_length) < 1e-15


# =============================================================================
# SPHERICAL QUADRATURE
# =============================================================================

def test_sphere_integral_cube_accuracy(cube_fan):
    h = np.full(6, 0.5)
    exact = 6.0
    assert abs(polytope.area_via_sphere_integral(cube_fan, h, depth=6) - exact) < 1e-5


def test_sphere_integral_convergence_order(cube_fan):
    h = np.ones(6)
    exact = polytope.boundary_area_form(cube_fan).q(h)
    errs = [abs(polytope.area_via_sphere_integral(cube_fan, h, depth=d) - exact)
            for d in (2, 4)]
    order = math.log2(errs[0] / errs[1]) / 2.0
    assert order >= 2.0


def test_sphere_integral_translation_invariance(cube_fan):
    h = np.full(6, 0.5)
    shift = polytope.point_support_vector(cube_fan, np.array([0.15, 0.1, -0.2]))
    a0 = polytope.area_via_sphere_integral(cube_fan, h, depth=5)
    a1 = polytope.area_via_sphere_integral(cube_fan, h + shift, depth=5)
    assert abs(a0 - a1) < 1e-9


def test_sphere_integral_depth_validation(cube_fan):
    with pytest.raises(errors.InvalidInput):
        polytope.area_via_sphere_integral(cube_fan, np.ones(6), depth=99)
    for depth in (2.5, True, "2"):
        with pytest.raises(errors.InvalidInput, match="integer"):
            polytope.area_via_sphere_integral(cube_fan, np.ones(6), depth=depth)
    assert polytope.area_via_sphere_integral(cube_fan, np.ones(6), depth=np.int64(2)) == \
        polytope.area_via_sphere_integral(cube_fan, np.ones(6), depth=2)


def _triangulation_oracle_fans():
    yield "cube", CUBE, np.ones(6)
    yield "box", CUBE, np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    yield "octahedron", OCTA, np.full(8, 1.0 / math.sqrt(3.0))
    fan, h = geomfix.random_simple_polytope(10, np.random.default_rng(17))
    yield "random simple 10", fan.normals, h
    yield "fibonacci 48", geomfix.fibonacci_sphere(48), np.ones(48)


@pytest.mark.parametrize("name, normals, h", list(_triangulation_oracle_fans()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_quadrature_and_boundary_metric_match_the_loop_oracle(name, normals, h):
    # one fan_triangles call and one midpoint rule give, bit for bit, what the
    # per-cell and per-face loops with the four stacked children give
    fan = polytope.build_fan(normals, h)
    for depth in range(6 if name == "box" else 5):
        assert polytope.area_via_sphere_integral(fan, h, depth) == \
            oracles.loop_sphere_integral(fan, h, depth)
    assert polytope.boundary_metric(fan, h).to_json_dict() == \
        oracles.loop_boundary_metric(fan, h).to_json_dict()


def _jittered_fibonacci_fan(m, seed):
    normals = geomfix.fibonacci_sphere(m, np.random.default_rng(seed), jitter=0.05)
    return polytope.build_fan(normals, np.ones(m)), np.ones(m)


@pytest.mark.parametrize("name, depths", [("fibonacci 48", [5]), ("fibonacci 96", [1, 2, 3, 4]),
                                          ("box", [6, 7, 8])])
def test_quadrature_matches_the_loop_oracle_at_block_edges(name, depths):
    # the benchmark's fib48 shape; 188 base triangles, a multiple of no block (64
    # at depth 3, 16 at depth 4); one box triangle filling (depth 6) or exceeding a block
    if name == "box":
        h = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        fan = polytope.build_fan(CUBE, h)
    else:
        fan, h = _jittered_fibonacci_fan(int(name.split()[1]), 5)
    base = sum(len(cell.faces) - 2 for cell in fan.vertex_cells)
    assert base == {"fibonacci 48": 92, "fibonacci 96": 188, "box": 8}[name]
    for depth in depths:
        assert polytope.area_via_sphere_integral(fan, h, depth) == \
            oracles.loop_sphere_integral(fan, h, depth)


def test_quadrature_holds_a_bounded_block():
    # a block of all 188 base triangles at depth 6 would hold about 770 000 leaves,
    # about 55 MiB for each (leaves, 3, 3) array
    fan, h = _jittered_fibonacci_fan(96, 5)
    polytope.area_via_sphere_integral(fan, h, 0)
    tracemalloc.start()
    try:
        polytope.area_via_sphere_integral(fan, h, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_subdivided_leaves_match_the_loop_oracle():
    # filling the template's vertices level by level gives each base triangle the
    # leaves, child-major, and the leaf edge midpoints of the recursive split
    rough = np.random.default_rng(3).standard_normal((2, 3, 3))
    rough /= np.linalg.norm(rough, axis=2)[:, :, None]
    for depth in range(5):
        levels, corners, mids = polytope._split_template(depth)
        for tri in [*CUBE[[[0, 2, 4], [1, 3, 5]]], *rough]:
            V = tri
            for pairs in levels:
                M = V[pairs[:, 0]] + V[pairs[:, 1]]
                M /= np.linalg.norm(M, axis=1)[:, None]
                V = np.concatenate([V, M])
            leaves = oracles.loop_subdivided(tri[None], depth)
            assert np.array_equal(V[corners], leaves)
            mid = leaves + leaves[:, [1, 2, 0]]
            assert np.array_equal(M[mids], mid / np.linalg.norm(mid, axis=2)[:, :, None])


# =============================================================================
# BOUNDARY METRIC
# =============================================================================

def test_boundary_metric_cube_curvatures(cube_fan):
    mesh = polytope.boundary_metric(cube_fan, np.full(6, 0.5))
    cone = surface.cone_data(mesh)
    assert cone.genus == 0
    assert len(cone.cone_angles) == 8
    assert np.max(np.abs(cone.curvatures - math.pi / 2.0)) < 1e-12
    assert abs(surface.total_area(mesh) - 6.0) < 1e-12


def test_boundary_curvature_equals_gauss_cell_area(octa_fan):
    h = np.full(8, 1.0 / math.sqrt(3.0))
    mesh = polytope.boundary_metric(octa_fan, h)
    cone = surface.cone_data(mesh)
    labels = mesh.orbit_labels()
    cell_area = {vid: cell.area for vid, cell in enumerate(octa_fan.vertex_cells)}
    for orbit_idx, label_set in enumerate(labels):
        assert len(label_set) == 1
        vid = next(iter(label_set))
        assert abs(cone.curvatures[orbit_idx] - cell_area[vid]) < 1e-9


def test_boundary_metric_random_polytope_genus0():
    rng = np.random.default_rng(53)
    fan, h = geomfix.random_simple_polytope(9, rng)
    mesh = polytope.boundary_metric(fan, h)
    cone = surface.cone_data(mesh)
    assert cone.genus == 0
    assert abs(cone.curvatures.sum() - 4 * math.pi) < 1e-9


# =============================================================================
# JSON
# =============================================================================

def test_fan_from_json_roundtrip():
    data = {"normals": CUBE.tolist(), "h": [0.5] * 6}
    fan, h = polytope.fan_from_json_dict(data)
    assert fan.m == 6
    assert abs(polytope.volume(fan, h) - 1.0) < 1e-12


def test_sample_interior_rejects_a_reference_off_the_open_cone(cube_fan):
    with pytest.raises(errors.DomainError) as info:
        polytope.sample_interior(cube_fan, [1, 1, 1, 1, 1, -1], np.random.default_rng(0))
    assert str(info.value) == "sample_interior: reference must be interior"


def test_boundary_metric_rejects_h_off_the_open_cone(cube_fan):
    with pytest.raises(errors.DomainError) as info:
        polytope.boundary_metric(cube_fan, [1, 1, 1, 1, 1, -1])
    assert str(info.value) == "boundary_metric: h is not interior"


def test_af_check_rejects_stacks_of_different_shapes(cube_fan):
    with pytest.raises(errors.InvalidInput) as info:
        polytope.alexandrov_fenchel_check(cube_fan, np.ones((2, 6)), np.ones((3, 6)), np.ones(6))
    assert str(info.value) == ("alexandrov_fenchel_check: h and k differ in shape, "
                               "(2, 6) vs (3, 6)")


def _nan_normal():
    normals = np.array(CUBE, dtype=float)
    normals[0, 0] = np.nan
    return normals


@pytest.mark.parametrize("normals, h, error, message", [
    (CUBE, np.zeros(6), errors.StructuralError, "h = 0: the region is a single point"),
    (_nan_normal(), np.ones(6), errors.InvalidInput, "build_fan: normals must be finite"),
    (np.eye(3), np.ones(3), errors.InvalidInput,
     "build_fan: need at least 4 normals of shape (m, 3), got (3, 3)"),
], ids=["h-zero", "nan-normal", "three-normals"])
def test_build_fan_error_messages(normals, h, error, message):
    with pytest.raises(error) as info:
        polytope.build_fan(normals, h)
    assert str(info.value) == message


def test_fan_json_missing_key():
    with pytest.raises(errors.InvalidInput):
        polytope.fan_from_json_dict({"normals": CUBE.tolist()})
