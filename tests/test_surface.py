import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geomfix
from mixedform import errors, polygon, surface


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
