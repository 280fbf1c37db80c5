import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

import geomfix
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


def test_area_form_signature_cube(cube_fan):
    assert polytope.boundary_area_form(cube_fan).signature().as_tuple == (1, 3, 2)


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
        assert sig.as_tuple == (1, 3, m - 4)


def test_area_form_signature_margin_m96():
    # LAPACK rounding is far from moving any eigenvalue across the threshold
    normals = geomfix.fibonacci_sphere(96, np.random.default_rng(3), jitter=0.05)
    form = polytope.boundary_area_form(polytope.build_fan(normals, np.ones(96)))
    vals = np.abs(form.eigenvalues())
    tau = forms.DEFAULT_ZERO_THRESHOLD * np.max(vals)
    assert form.signature().as_tuple == (1, 3, 92)
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
        return np.eye(size)[6]


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


def test_af_rejects_outside_reference(cube_fan):
    bad = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.5])
    with pytest.raises(errors.DomainError):
        polytope.alexandrov_fenchel_check(cube_fan, np.ones(6), np.ones(6), bad)


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


def test_fan_json_missing_key():
    with pytest.raises(errors.InvalidInput):
        polytope.fan_from_json_dict({"normals": CUBE.tolist()})
