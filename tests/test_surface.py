import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geomfix
from mixedform import errors, polygon, polytope, surface
from oracles import loop_corner_angles


def tetrahedron_mesh():
    """Regular tetrahedron boundary: 4 equilateral triangles, side 1."""
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
                   dtype=float) / math.sqrt(8.0)
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    return surface.mesh_from_indexed_triangles(pts, tris)


# =============================================================================
# CONSTRUCTION AND VALIDATION
# =============================================================================

def test_rejects_degenerate_triangle():
    with pytest.raises(errors.InvalidInput):
        surface.TriangleMesh([[1.0, 1.0, 2.0]], [(0, 0, 0, 1), (0, 2, 0, 1)])


def test_rejects_self_glued_side():
    with pytest.raises(errors.StructuralError):
        surface.TriangleMesh([[1.0, 1.0, 1.0]], [(0, 0, 0, 0)])


def test_rejects_double_gluing():
    lengths = [[1, 1, 1], [1, 1, 1]]
    gluing = [(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, 2), (0, 2, 1, 2)]
    with pytest.raises(errors.StructuralError):
        surface.TriangleMesh(lengths, gluing)


def test_rejects_length_mismatch():
    lengths = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.2]]
    gluing = [(0, 0, 1, 0), (0, 1, 1, 1), (0, 2, 1, 2)]
    with pytest.raises(errors.ConsistencyError):
        surface.TriangleMesh(lengths, gluing)


@pytest.mark.parametrize("index", [0.5, 1.0, True, np.float64(1.0)])
def test_rejects_non_integer_gluing_index(index):
    # a fractional index used to be truncated to a valid slot
    gluing = [(index, 0, 1, 0), (0, 1, 1, 2), (0, 2, 1, 1)]
    with pytest.raises(errors.InvalidInput, match="expected an integer index"):
        surface.TriangleMesh([[1, 1, 1], [1, 1, 1]], gluing)


def test_accepts_numpy_integer_gluing_index():
    gluing = [(np.int64(0), 0, 1, 0), (0, 1, 1, 2), (0, 2, 1, 1)]
    assert surface.TriangleMesh([[1, 1, 1], [1, 1, 1]], gluing).sigma[(0, 0)] == (1, 0)


@pytest.mark.parametrize("lengths, gluing, message", [
    ([[1.0, 1.0]], [], "TriangleMesh: lengths must be (T, 3), got (1, 2)"),
    ([[1.0, 1.0, 0.0]], [], "TriangleMesh: side lengths must be finite and positive"),
    ([[1, 1, 1], [1, 1, 1]], [(0, 0, 5, 0)], "TriangleMesh: gluing refers to missing slot (5,0)"),
], ids=["shape", "zero-side", "missing-slot"])
def test_rejects_bad_lengths_and_slots(lengths, gluing, message):
    with pytest.raises(errors.InvalidInput) as info:
        surface.TriangleMesh(lengths, gluing)
    assert str(info.value) == message


def test_mesh_json_names_the_missing_key():
    with pytest.raises(errors.InvalidInput) as info:
        surface.TriangleMesh.from_json_dict({"gluing": []})
    assert str(info.value) == "mesh JSON needs 'triangles' and 'gluing': 'triangles'"
    with pytest.raises(errors.InvalidInput) as info:
        surface.TriangleMesh.from_json_dict({"triangles": [{"lengths": [1, 1, 1]}]})
    assert str(info.value) == "mesh JSON needs 'triangles' and 'gluing': 'gluing'"


def test_rejects_boundary():
    with pytest.raises(errors.StructuralError):
        surface.TriangleMesh([[1, 1, 1], [1, 1, 1]], [(0, 0, 1, 0)])


def test_rejects_disconnected():
    lengths = [[1, 1, 1]] * 4
    # two doubled triangles, mutually unconnected
    gluing = [(0, 0, 1, 0), (0, 1, 1, 2), (0, 2, 1, 1),
              (2, 0, 3, 0), (2, 1, 3, 2), (2, 2, 3, 1)]
    with pytest.raises(errors.StructuralError):
        surface.TriangleMesh(lengths, gluing)


def test_indexed_triangles_rejects_inconsistent_orientation():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    with pytest.raises(errors.StructuralError):
        surface.mesh_from_indexed_triangles(pts, [(0, 1, 2), (0, 1, 3), (0, 3, 2), (1, 2, 3)])


def test_indexed_triangles_rejects_an_open_triangle():
    with pytest.raises(errors.StructuralError) as info:
        surface.mesh_from_indexed_triangles(np.eye(3), [(0, 1, 2)])
    assert str(info.value) == "edge (0, 1) has no partner (boundary edge)"


# =============================================================================
# CONE DATA -- oracles
# =============================================================================

def test_tetrahedron_cone_data():
    mesh = tetrahedron_mesh()
    cone = surface.cone_data(mesh)
    assert cone.genus == 0
    assert len(cone.cone_angles) == 4
    assert np.allclose(cone.cone_angles, np.pi)         # 3 x pi/3
    assert np.allclose(cone.curvatures, np.pi)
    assert cone.n_singular == 4
    assert cone.gauss_bonnet_defect < 1e-12
    # four unit-side equilateral triangles
    assert abs(surface.total_area(mesh) - math.sqrt(3)) < 1e-12


def test_doubled_square_cone_data():
    fan = polygon.NormalFan2D.from_degrees([0, 90, 180, 270])
    mesh = geomfix.doubled_polygon_mesh(fan, np.array([0.5] * 4))
    cone = surface.cone_data(mesh)
    assert cone.genus == 0
    assert len(cone.cone_angles) == 4
    assert np.allclose(cone.cone_angles, np.pi)          # two pi/2 corners
    assert abs(surface.total_area(mesh) - 2.0) < 1e-12


def test_genus2_octagon_cone_data():
    mesh = geomfix.genus2_octagon_mesh()
    cone = surface.cone_data(mesh)
    assert cone.genus == 2
    assert len(cone.cone_angles) == 1
    assert abs(cone.cone_angles[0] - 6 * np.pi) < 1e-9
    assert abs(cone.curvatures[0] + 4 * np.pi) < 1e-9
    # area of the regular octagon with unit circumradius: 2 sqrt(2)
    assert abs(surface.total_area(mesh) - 2 * math.sqrt(2)) < 1e-12


def test_orbit_labels_track_point_indices():
    mesh = tetrahedron_mesh()
    labels = mesh.orbit_labels()
    assert sorted(next(iter(s)) for s in labels) == [0, 1, 2, 3]
    assert all(len(s) == 1 for s in labels)


def test_gauss_bonnet_defect_small_on_valid_meshes():
    # the defect reduces to |pi T - sum of all corner angles|, an identity
    # for consistently glued data; it should sit at rounding level
    for mesh in (tetrahedron_mesh(), geomfix.genus2_octagon_mesh(),
                 geomfix.cube_boundary_mesh()):
        assert surface.cone_data(mesh).gauss_bonnet_defect < 1e-12


def _doubled_triangle(a, b, c):
    """Two copies of the triangle (a, b, c) glued along every side (a flat sphere)."""
    return surface.TriangleMesh([[a, b, c], [a, c, b]], [(0, 0, 1, 0), (0, 1, 1, 2), (0, 2, 1, 1)])


def _within_ulps(value, exact, ulps):
    return abs(value - float(exact)) <= ulps * math.ulp(float(exact))


@pytest.mark.parametrize("sides", [(1.0, 1.0, 10.0 ** -k) for k in range(3, 10)]
                         + [(1.0, 1.0, 2.0 ** -60)]
                         + [(1.0, 0.5 + 2.0 ** -k, 0.5 + 2.0 ** -k) for k in (10, 20, 30, 40, 50)],
                         ids=str)
def test_area_of_needles_and_flat_triangles(sides):
    # Kahan's Heron formula keeps needles and nearly flat triangles to a few
    # ulps, where the s - a of naive Heron cancels (8.3e-8 relative at 1e-9)
    with mpmath.workdps(50):
        a, b, c = (mpmath.mpf(x) for x in sides)
        s = (a + b + c) / 2
        exact = 2 * mpmath.sqrt(s * (s - a) * (s - b) * (s - c))
    assert _within_ulps(surface.total_area(_doubled_triangle(*sides)), exact, 4)


@pytest.mark.parametrize("sides", [(1.0, 1.0, 2.0), (1.0, 0.5, 0.5)], ids=str)
def test_flat_rows_still_violate_the_triangle_inequality(sides):
    with pytest.raises(errors.InvalidInput) as info:
        _doubled_triangle(*sides)
    assert str(info.value) == ("TriangleMesh: triangle 0 violates the strict triangle "
                               f"inequality: {list(sides)}")


CORNER_ORACLE_MESHES = {
    "cube": geomfix.cube_boundary_mesh,
    "genus2 octagon": geomfix.genus2_octagon_mesh,
    "doubled 5-gon": lambda: geomfix.doubled_polygon_mesh(polygon.NormalFan2D.regular(5),
                                                          np.ones(5)),
    "doubled 12-gon": lambda: geomfix.doubled_polygon_mesh(polygon.NormalFan2D.regular(12),
                                                           np.ones(12)),
    "doubled perturbed 7-gon": lambda: geomfix.doubled_polygon_mesh(
        geomfix.perturbed_polygon_fan(7, np.random.default_rng(7)), np.ones(7)),
    "cube 2^600": lambda: _scaled_mesh(geomfix.cube_boundary_mesh(), 600),
    "cube 2^-600": lambda: _scaled_mesh(geomfix.cube_boundary_mesh(), -600),
    "fibonacci 200": lambda: polytope.boundary_metric(
        polytope.build_fan(geomfix.fibonacci_sphere(200), np.ones(200)), np.ones(200)),
}


@pytest.mark.parametrize("name", list(CORNER_ORACLE_MESHES))
def test_corner_angles_match_the_loop_oracle(name):
    # the (T, 3) array and the cone angles summed from it keep every bit of
    # the corner-by-corner law of cosines
    mesh = CORNER_ORACLE_MESHES[name]()
    expected = loop_corner_angles(mesh).tolist()
    assert mesh.corner_angles.tolist() == expected
    assert surface.cone_data(mesh).cone_angles.tolist() == [
        sum(expected[t][c] for t, c in orbit) for orbit in mesh.vertex_orbits]


def test_json_roundtrip_preserves_structure():
    mesh = geomfix.genus2_octagon_mesh()
    again = surface.TriangleMesh.from_json_dict(mesh.to_json_dict())
    assert again.num_triangles == mesh.num_triangles
    assert again.sigma == mesh.sigma
    assert np.allclose(again.lengths, mesh.lengths)


# =============================================================================
# FLIPS
# =============================================================================

def admissible_slots(mesh):
    out = []
    for (t, e), (t2, e2) in mesh.sigma.items():
        if t == t2:
            continue
        try:
            surface.flip(mesh, (t, e))
        except errors.FlipNotAdmissible:
            continue
        out.append((t, e))
    return out


def test_flip_preserves_metric_invariants():
    mesh = geomfix.doubled_polygon_mesh(polygon.NormalFan2D.regular(6), np.ones(6))
    base_area = surface.total_area(mesh)
    base_angles = np.sort(surface.cone_data(mesh).cone_angles)
    for slot in admissible_slots(mesh):
        flipped = surface.flip(mesh, slot)
        assert abs(surface.total_area(flipped) - base_area) < 1e-12 * base_area
        angles = np.sort(surface.cone_data(flipped).cone_angles)
        assert np.max(np.abs(angles - base_angles)) < 1e-12 * np.max(base_angles)


def test_flip_changes_edge_multiset():
    # at least one admissible flip must replace a diagonal by a
    # non-congruent one (symmetric slots may map the multiset to itself)
    mesh = geomfix.genus2_octagon_mesh()
    slots = admissible_slots(mesh)
    assert slots, "expected at least one admissible flip"
    before = np.sort(mesh.lengths.ravel())
    changed = any(
        not np.allclose(before, np.sort(surface.flip(mesh, s).lengths.ravel()))
        for s in slots)
    assert changed


def test_double_flip_restores_lengths():
    # flipping back the new diagonal restores every length triple; the two
    # quad triangles return with swapped indices and cyclically rotated rows
    # (no orientation-preserving flip rule can avoid that relabeling)
    def cyclic_mismatch(row, target):
        return min(float(np.max(np.abs(np.roll(row, k) - target))) for k in range(3))

    mesh = geomfix.genus2_octagon_mesh()
    for slot in admissible_slots(mesh):
        once = surface.flip(mesh, slot)
        t, t2 = slot[0], mesh.sigma[slot][0]
        twice = surface.flip(once, (t, 1))   # the new diagonal lives at (t, 1)
        for i in range(mesh.num_triangles):
            if i not in (t, t2):
                assert np.max(np.abs(twice.lengths[i] - mesh.lengths[i])) < 1e-12
        assert cyclic_mismatch(twice.lengths[t], mesh.lengths[t2]) < 1e-12
        assert cyclic_mismatch(twice.lengths[t2], mesh.lengths[t]) < 1e-12


def test_flip_rejects_missing_edge():
    mesh = tetrahedron_mesh()
    with pytest.raises(errors.InvalidInput):
        surface.flip(mesh, (9, 0))


def test_flip_rejects_fractional_slots():
    mesh = geomfix.cube_boundary_mesh()
    for slot in ((0.5, 1), (0, 1.0), (True, 1)):
        with pytest.raises(errors.InvalidInput, match="integer"):
            surface.flip(mesh, slot)
    flipped = surface.flip(mesh, (np.int64(0), np.int64(1)))
    assert np.array_equal(flipped.lengths, surface.flip(mesh, (0, 1)).lengths)


def test_flip_rejects_nonconvex_quad():
    # both triangles are obtuse at the same endpoint of the shared edge
    # (apex x-coordinate < 0), so the developed quad folds back at that
    # corner and the diagonal exchange is refused
    lengths = [[1.0, 1.2, 0.3], [1.0, 0.3, 1.2]]
    gluing = [(0, 0, 1, 0), (0, 1, 1, 2), (0, 2, 1, 1)]
    mesh = surface.TriangleMesh(lengths, gluing)
    with pytest.raises(errors.FlipNotAdmissible):
        surface.flip(mesh, (0, 0))


def test_flip_rejects_crossing_on_an_endpoint():
    # two 3-4-5 triangles, right-angled at the same end of the shared edge:
    # the other diagonal passes through that endpoint
    lengths = [[4.0, 5.0, 3.0], [4.0, 3.0, 5.0]]
    gluing = [(0, 0, 1, 0), (0, 1, 1, 2), (0, 2, 1, 1)]
    with pytest.raises(errors.FlipNotAdmissible) as info:
        surface.flip(surface.TriangleMesh(lengths, gluing), (0, 0))
    assert str(info.value) == "flip: the other diagonal does not cross the edge strictly inside it"


def _doubled_kite(eps):
    # a = (0, 0), b = (1, 0), apexes (eps, +-1), doubled; slot (0, 0) is the diagonal ab
    s, r = math.hypot(1.0 - eps, 1.0), math.hypot(eps, 1.0)
    lengths = [[1.0, s, r], [1.0, r, s], [1.0, r, s], [1.0, s, r]]
    gluing = [(0, 0, 1, 0), (2, 0, 3, 0), (0, 1, 2, 2), (0, 2, 2, 1), (1, 1, 3, 2), (1, 2, 3, 1)]
    return surface.TriangleMesh(lengths, gluing)


@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11])
def test_flip_rejects_a_new_triangle_flat_to_rounding(eps):
    # the crossing lies eps from a, past the crossing bound, but the new triangle at a
    # rounds to (1, 2, 1): refused as a flip, not built into an invalid mesh
    with pytest.raises(errors.FlipNotAdmissible) as info:
        surface.flip(_doubled_kite(eps), (0, 0))
    assert str(info.value) == "flip: a new triangle violates the strict triangle inequality"


def test_flip_of_a_kite_near_an_endpoint():
    assert surface.flip(_doubled_kite(1e-6), (0, 0)).lengths[0].tolist() == \
        [1.0000000000005, 2.0, 1.0000000000005]
    with pytest.raises(errors.FlipNotAdmissible) as info:
        surface.flip(_doubled_kite(1e-13), (0, 0))
    assert str(info.value) == "flip: the other diagonal does not cross the edge strictly inside it"


@pytest.mark.parametrize("H", [1e5, 1e6, 1e7, 1e12])
def test_flip_of_an_elongated_kite(H):
    # a doubled kite: apexes H and 1 off a unit edge, at its midpoint; the
    # new diagonal is H + 1, however small the short triangle is next to the long one
    s, r = math.hypot(0.5, H), math.hypot(0.5, 1.0)
    lengths = [[1.0, s, s], [1.0, r, r], [1.0, s, s], [1.0, r, r]]
    gluing = [(0, 0, 1, 0), (0, 1, 2, 2), (0, 2, 2, 1), (1, 1, 3, 2), (1, 2, 3, 1), (2, 0, 3, 0)]
    flipped = surface.flip(surface.TriangleMesh(lengths, gluing), (0, 0))
    assert _within_ulps(flipped.lengths[0, 1], H + 1.0, 1)


@pytest.mark.parametrize("k", range(20, 51))
def test_flip_of_a_flat_rhombus(k):
    # two triangles (1, s, s) with s = 1/2 + 2^-k: the new diagonal 2 sqrt(s^2 - 1/4),
    # where a height sqrt(s^2 - x^2) would cancel (4.7e-10 relative at k = 30)
    s = 0.5 + 2.0 ** -k
    flipped = surface.flip(_doubled_triangle(1.0, s, s), (0, 0))
    with mpmath.workdps(50):
        exact = 2 * mpmath.sqrt(mpmath.mpf(s) ** 2 - mpmath.mpf(0.25))
    assert _within_ulps(flipped.lengths[0, 1], exact, 4)


def test_flip_rejects_edge_inside_one_triangle():
    # side (0, 0) is glued to side (0, 1): both sides of that edge lie in triangle 0
    mesh = surface.TriangleMesh([[1, 1, 1], [1, 1, 1]], [(0, 0, 0, 1), (0, 2, 1, 0), (1, 1, 1, 2)])
    with pytest.raises(errors.FlipNotAdmissible) as info:
        surface.flip(mesh, (0, 0))
    assert str(info.value) == ("flip: both sides of the edge lie in triangle 0; "
                               "no quadrilateral to flip")


def test_flip_doubled_equilateral_is_admissible():
    # two equilateral triangles glued along every side develop onto a
    # rhombus; the flip goes through and stays a valid mesh
    mesh = surface.TriangleMesh([[1, 1, 1], [1, 1, 1]],
                                [(0, 0, 1, 0), (0, 1, 1, 2), (0, 2, 1, 1)])
    flipped = surface.flip(mesh, (0, 0))
    assert abs(surface.total_area(flipped) - surface.total_area(mesh)) < 1e-12


def _scaled_mesh(mesh, j):
    """``mesh`` with every length times 2**j (exact)."""
    return surface.TriangleMesh(np.ldexp(mesh.lengths, j), mesh.to_json_dict()["gluing"])


@pytest.mark.parametrize("j", [-600, -500, -170, -1, 1, 170, 500, 600])
def test_geometry_is_exact_under_power_of_two_scaling(j):
    # lengths are scaled by a power of two before they are squared, so cone
    # angles, flips and areas keep every bit at scales whose squares would
    # overflow or underflow
    base = geomfix.cube_boundary_mesh()
    mesh = _scaled_mesh(base, j)
    assert (surface.cone_data(mesh).cone_angles.tolist()
            == surface.cone_data(base).cone_angles.tolist())
    assert (surface.flip(mesh, (0, 1)).lengths.tolist()
            == np.ldexp(surface.flip(base, (0, 1)).lengths, j).tolist())
    if abs(j) <= 500:       # beyond, the area itself leaves the float range
        assert surface.total_area(mesh) == math.ldexp(surface.total_area(base), 2 * j)


@pytest.mark.parametrize("j", [-600, -520, 520, 600])
def test_indexed_triangles_are_exact_under_power_of_two_scaling(j):
    pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    base = surface.mesh_from_indexed_triangles(pts, tris)
    mesh = surface.mesh_from_indexed_triangles(np.ldexp(pts, j), tris)
    assert mesh.lengths.tolist() == np.ldexp(base.lengths, j).tolist()


def test_random_flips_on_genus2(subtests=None):
    rng = np.random.default_rng(77)
    mesh = geomfix.genus2_octagon_mesh()
    base_area = surface.total_area(mesh)
    base_angles = np.sort(surface.cone_data(mesh).cone_angles)
    current = mesh
    performed = 0
    attempts = 0
    while performed < 40 and attempts < 400:
        attempts += 1
        t = int(rng.integers(current.num_triangles))
        e = int(rng.integers(3))
        try:
            current = surface.flip(current, (t, e))
        except (errors.FlipNotAdmissible, errors.InvalidInput):
            continue
        performed += 1
        assert abs(surface.total_area(current) - base_area) < 1e-11 * base_area
        angles = np.sort(surface.cone_data(current).cone_angles)
        assert np.max(np.abs(angles - base_angles)) < 1e-11 * np.max(base_angles)
    assert performed == 40


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=2**31))
def test_doubled_polygon_is_flat_sphere(n, seed):
    rng = np.random.default_rng(seed)
    fan = geomfix.perturbed_polygon_fan(n, rng)
    h = polygon.sample_interior(fan, rng)
    mesh = geomfix.doubled_polygon_mesh(fan, h)
    cone = surface.cone_data(mesh)
    assert cone.genus == 0
    assert len(cone.cone_angles) == n
    # doubling duplicates each polygon corner angle
    area = polygon.area_form(fan).q(h)
    assert abs(surface.total_area(mesh) - 2 * area) < 1e-10 * max(1.0, area)
    assert abs(cone.curvatures.sum() - 4 * np.pi) < 1e-9
