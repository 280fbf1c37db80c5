import itertools
import math

import numpy as np
import pytest

import geomfix
from mixedform import errors, fuchsian

# closed forms for the one-class regular-octagon pattern at h = 1:
# cosh(phi/2) = cot(pi/8) = 1 + sqrt 2, so tanh^2(phi/2) = 2 sqrt 2 - 2,
# and the face is a regular octagon with all in-face supports tanh(phi/2)
OCT_AREA = 16.0 * (3.0 - 2.0 * math.sqrt(2.0))


@pytest.fixture(scope="module")
def one_class():
    return fuchsian.regular_genus2_fan()


@pytest.fixture(scope="module")
def base_fan():
    # octagon-with-center triangulation: two classes, genus 2
    return geomfix.fan_from_triangulation(geomfix.genus2_base_mesh())


@pytest.fixture(scope="module")
def base_interior(base_fan):
    return geomfix.find_interior_h(base_fan)


# =============================================================================
# FACTORY AND CLOSED FORMS
# =============================================================================

def test_factory_combinatorics(one_class):
    assert one_class.m == 1
    assert one_class.genus == 2
    assert one_class.num_edges == 4
    assert len(one_class.faces[0]) == 8


def test_factory_covolume_closed_form(one_class):
    assert abs(fuchsian.covolume(one_class, [1.0]) - OCT_AREA / 3.0) < 1e-13


def test_factory_hessian_closed_form(one_class):
    H = fuchsian.covolume_hessian(one_class, [1.0])
    assert abs(H.entries[0, 0] - 2.0 * OCT_AREA) < 1e-12


def test_factory_area_form_closed_form(one_class):
    form = fuchsian.fuchsian_area_form(one_class)
    assert abs(form.entries[0, 0] - OCT_AREA) < 1e-12
    assert form.signature().as_tuple == (1, 0, 0)


def test_covolume_cubic_homogeneity(one_class):
    c1 = fuchsian.covolume(one_class, [1.0])
    for t in (0.5, 1.7, 3.0):
        assert abs(fuchsian.covolume(one_class, [t]) - t ** 3 * c1) < 1e-12 * t ** 3


def test_in_face_supports_are_tanh_half(one_class):
    hi = one_class.assembly.support_map(0) @ np.ones(1)
    t = math.tanh(math.acosh(1.0 / math.tan(math.pi / 8.0)))
    assert np.allclose(hi, t, atol=1e-14)


# =============================================================================
# VALIDATION
# =============================================================================

def _octagon_entries(to=0, phi=1.0):
    return [(to, phi, math.pi / 4.0)] * 8


def test_rejects_small_genus():
    with pytest.raises(errors.InvalidInput):
        fuchsian.QuotientFan([_octagon_entries()], genus=1)


@pytest.mark.parametrize("to", [0.7, 0.0, False])
def test_rejects_non_integer_target(to):
    # int(0.7) used to read the target as class 0
    entries = [(to, 1.0, math.pi / 4.0)] + _octagon_entries()[1:]
    with pytest.raises(errors.InvalidInput, match="expected an integer index"):
        fuchsian.QuotientFan([entries], genus=2)


def test_rejects_short_face():
    with pytest.raises(errors.InvalidInput):
        fuchsian.QuotientFan([[(0, 1.0, math.pi)] * 2], genus=2)


def test_rejects_bad_angle_sum():
    entries = [(0, 1.0, math.pi / 4.0)] * 7    # sums to 7 pi / 4
    with pytest.raises(errors.InvalidInput):
        fuchsian.QuotientFan([entries], genus=2)


def test_rejects_nonpositive_phi():
    entries = _octagon_entries()
    entries[3] = (0, -1.0, math.pi / 4.0)
    with pytest.raises(errors.InvalidInput):
        fuchsian.QuotientFan([entries], genus=2)


def test_rejects_missing_class_reference():
    entries = _octagon_entries(to=1)
    with pytest.raises(errors.InvalidInput):
        fuchsian.QuotientFan([entries], genus=2)


def test_rejects_phi_multiset_mismatch():
    # 0 -> 1 uses phi = 1.0 eight times, 1 -> 0 answers with phi = 1.1
    with pytest.raises(errors.ConsistencyError):
        fuchsian.QuotientFan([_octagon_entries(to=1, phi=1.0),
                              _octagon_entries(to=0, phi=1.1)], genus=2)


def test_rejects_odd_self_adjacency():
    entries = [(0, 1.0, 2.0 * math.pi / 3.0)] * 3
    with pytest.raises(errors.ConsistencyError):
        fuchsian.QuotientFan([entries], genus=2)


def _one_sided_faces():
    # class 1 lists two gluings to class 0 that class 0 never lists back;
    # every self-adjacency pairs up, and the total count of entries is even
    q = math.pi / 2.0
    return [[(0, phi, q) for phi in (2.0, 2.0, 2.5, 2.5)],
            [(0, 1.5, q), (1, 3.0, q), (0, 1.5, q), (1, 3.0, q)]]


def _relabeled(faces, perm):
    """``faces`` with class i renamed perm[i]."""
    out = [None] * len(faces)
    for i, face in enumerate(faces):
        out[perm[i]] = [(perm[to], phi, omega) for to, phi, omega in face]
    return out


@pytest.mark.parametrize("perm", [(0, 1), (1, 0)])
def test_rejects_one_sided_gluing_under_every_labeling(perm):
    with pytest.raises(errors.ConsistencyError, match="phi multisets"):
        fuchsian.QuotientFan(_relabeled(_one_sided_faces(), perm), genus=2)


def test_relabeled_fans_keep_the_permuted_area_form():
    fans = [fuchsian.regular_genus2_fan()]
    fans += [geomfix.random_fuchsian_fan(np.random.default_rng(seed))[0] for seed in (5, 6)]
    for fan in fans:
        M = fuchsian.fuchsian_area_form(fan).entries
        for perm in itertools.permutations(range(fan.m)):
            relabeled = fuchsian.QuotientFan(_relabeled(fan.faces, perm), genus=fan.genus)
            P = np.zeros((fan.m, fan.m))
            P[list(perm), range(fan.m)] = 1.0
            defect = fuchsian.fuchsian_area_form(relabeled).entries - P @ M @ P.T
            assert np.max(np.abs(defect)) <= 1e-12 * np.max(np.abs(M))


def test_phi_must_have_a_finite_cosh():
    fuchsian.QuotientFan([_octagon_entries(phi=fuchsian.MAX_PHI)], genus=2)
    with pytest.raises(errors.InvalidInput, match="face 0: phi"):
        fuchsian.QuotientFan([_octagon_entries(phi=math.nextafter(fuchsian.MAX_PHI, 800.0))],
                             genus=2)


def test_rejects_euler_mismatch():
    with pytest.raises(errors.ConsistencyError):
        fuchsian.QuotientFan([_octagon_entries()], genus=2, vertices=4)


def _unrealizable_fan():
    # pairing-consistent but geometrically fake: face 1 redistributes its
    # turnings, so the two faces disagree about their shared edge lengths
    face0 = [(1, 1.0, math.pi / 4.0)] * 8
    dl = 0.3
    face1 = [(0, 1.0, math.pi / 4.0 + dl), (0, 1.0, math.pi / 4.0 - dl)] * 4
    return fuchsian.QuotientFan([face0, face1], genus=2)


def test_hessian_detects_unrealizable_data():
    with pytest.raises(errors.ConsistencyError):
        fuchsian.covolume_hessian(_unrealizable_fan(), np.ones(2))


def test_forms_detect_unrealizable_data():
    # the raw covolume slices fail the entrywise total-symmetry check
    for build in (fuchsian.covolume_form, fuchsian.fuchsian_area_form):
        with pytest.raises(errors.ConsistencyError, match="tensor is not symmetric"):
            build(_unrealizable_fan())


# =============================================================================
# TRIANGULATION-DERIVED FANS
# =============================================================================

def test_base_fan_shape(base_fan):
    assert base_fan.m == 2
    assert base_fan.genus == 2
    assert base_fan.declared_vertices == 8
    # 8 spokes + 4 glued sides on the surface, each edge twice by ends
    assert base_fan.num_edges == 12


def test_base_fan_ones_is_boundary(base_fan):
    # the all-ones vector supports the surface itself: every in-face edge
    # collapses, landing exactly on the cone boundary
    loc = fuchsian.cone_membership(base_fan, np.ones(2))
    assert loc.status == "boundary"
    assert len(loc.edges) > 0


def test_base_fan_interior_point(base_fan, base_interior):
    assert fuchsian.cone_membership(base_fan, base_interior).status == "interior"


def test_support_outside_cone(base_fan, base_interior):
    lo, hi = 1.0, 8.0
    bad = base_interior.copy()
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        bad[0] = base_interior[0] * mid
        if fuchsian.cone_membership(base_fan, bad).status == "outside":
            hi = mid
        else:
            lo = mid
    bad[0] = base_interior[0] * (hi + 0.5)
    assert fuchsian.cone_membership(base_fan, bad).status == "outside"


def test_subdivided_fan_shape():
    rng = np.random.default_rng(3)
    fan, h = geomfix.random_fuchsian_fan(rng, subdivide=True)
    assert fan.m == 14
    assert fan.genus == 2
    assert fan.declared_vertices == 32
    assert fan.num_edges == 48
    assert fuchsian.cone_membership(fan, h).status == "interior"


# =============================================================================
# HESSIAN AND AREA FORM
# =============================================================================

def test_hessian_matches_finite_differences(base_fan, base_interior):
    H = fuchsian.covolume_hessian(base_fan, base_interior).entries
    F = geomfix.fd_hessian_batch(base_fan, base_interior)
    assert np.max(np.abs(H - F)) < 1e-8 * max(1.0, np.max(np.abs(H)))


def test_hessian_matches_fd_on_random_fans():
    rng = np.random.default_rng(17)
    for subdivide in (False, True):
        fan, h0 = geomfix.random_fuchsian_fan(rng, subdivide=subdivide)
        h = geomfix.sample_fuchsian_interior(fan, h0, rng)
        H = fuchsian.covolume_hessian(fan, h).entries
        F = geomfix.fd_hessian_batch(fan, h)
        assert np.max(np.abs(H - F)) < 1e-7 * max(1.0, np.max(np.abs(H)))


def test_hessian_diagonally_dominant_and_pd(base_fan, base_interior):
    rng = np.random.default_rng(19)
    for _ in range(20):
        h = geomfix.sample_fuchsian_interior(base_fan, base_interior, rng)
        H = fuchsian.covolume_hessian(base_fan, h).entries
        diag = np.diag(H)
        assert np.all(diag > 0.0)
        assert np.all(2.0 * diag - np.sum(np.abs(H), axis=1) > 0.0)
        assert np.linalg.eigvalsh(H)[0] > 0.0


def test_hessian_rejects_boundary_point(base_fan):
    with pytest.raises(errors.DomainError):
        fuchsian.covolume_hessian(base_fan, np.ones(2))


def test_area_form_positive_definite(base_fan):
    form = fuchsian.fuchsian_area_form(base_fan)
    assert form.signature().as_tuple == (base_fan.m, 0, 0)
    # in-house eigenvalues against the library solver
    assert np.allclose(form.eigenvalues(), np.linalg.eigvalsh(form.entries),
                       atol=1e-10)


def test_area_form_pd_on_subdivided():
    rng = np.random.default_rng(23)
    fan, _ = geomfix.random_fuchsian_fan(rng, subdivide=True)
    form = fuchsian.fuchsian_area_form(fan)
    assert form.signature().as_tuple == (14, 0, 0)


def test_covolume_form_diagonal(base_fan, base_interior):
    T = fuchsian.covolume_form(base_fan)
    rng = np.random.default_rng(29)
    for _ in range(10):
        h = geomfix.sample_fuchsian_interior(base_fan, base_interior, rng)
        direct = fuchsian.covolume(base_fan, h)
        assert abs(T.diagonal(h) - direct) < 1e-12 * max(1.0, abs(direct))


def test_batched_covolume_matches_scalar(base_fan, base_interior):
    rng = np.random.default_rng(31)
    H = np.stack([geomfix.sample_fuchsian_interior(base_fan, base_interior, rng)
                  for _ in range(7)])
    batch = geomfix.batched_covolume(base_fan, H)
    for row, val in zip(H, batch):
        assert abs(fuchsian.covolume(base_fan, row) - val) < 1e-13


# =============================================================================
# SPHERICAL STRUCTURE
# =============================================================================

def test_distance_zero_iff_homothety(base_fan, base_interior):
    h = base_interior
    # rounding in the normalized pairing is amplified by acos near 1
    assert fuchsian.spherical_distance(base_fan, h, 2.5 * h) < 1e-7
    assert fuchsian.is_homothety_pair(base_fan, h, 2.5 * h)
    rng = np.random.default_rng(37)
    k = geomfix.sample_fuchsian_interior(base_fan, h, rng)
    if not fuchsian.is_homothety_pair(base_fan, h, k):
        assert fuchsian.spherical_distance(base_fan, h, k) > 1e-7


def test_distance_at_any_scale(base_fan, base_interior):
    h = base_interior
    k = geomfix.sample_fuchsian_interior(base_fan, h, np.random.default_rng(41))
    d = fuchsian.spherical_distance(base_fan, h, k)
    for s in (1e80, 1e-80, 2.0 ** 500, 2.0 ** -500):
        assert fuchsian.spherical_distance(base_fan, s * h, 2.0 * s * h) == 0.0
        assert fuchsian.is_homothety_pair(base_fan, s * h, 2.0 * s * h)
        assert fuchsian.spherical_distance(base_fan, s * h, s * k) == pytest.approx(d, rel=1e-12)
    with pytest.raises(errors.DomainError, match="covolume: the value overflows"):
        fuchsian.covolume(base_fan, 1e120 * h)


def test_distance_symmetry(base_fan, base_interior):
    rng = np.random.default_rng(41)
    h = base_interior
    k = geomfix.sample_fuchsian_interior(base_fan, h, rng)
    d1 = fuchsian.spherical_distance(base_fan, h, k)
    d2 = fuchsian.spherical_distance(base_fan, k, h)
    assert abs(d1 - d2) < 1e-12


def test_distance_requires_interior(base_fan):
    with pytest.raises(errors.DomainError):
        fuchsian.spherical_distance(base_fan, np.ones(2), np.ones(2))


def test_rejects_nonpositive_support(one_class):
    with pytest.raises(errors.DomainError):
        fuchsian.covolume(one_class, [0.0])
    with pytest.raises(errors.DomainError):
        fuchsian.covolume(one_class, [-1.0])


# =============================================================================
# JSON
# =============================================================================

def test_json_roundtrip(base_fan, base_interior):
    data = base_fan.to_json_dict(h=base_interior)
    fan2, h2 = fuchsian.fan_from_json_dict(data)
    assert fan2.m == base_fan.m
    assert fan2.num_edges == base_fan.num_edges
    assert np.allclose(h2, base_interior)
    assert abs(fuchsian.covolume(fan2, h2) - fuchsian.covolume(base_fan, base_interior)) < 1e-14


def test_json_missing_h(one_class):
    data = one_class.to_json_dict()
    with pytest.raises(errors.InvalidInput):
        fuchsian.fan_from_json_dict(data)


def test_json_missing_faces():
    with pytest.raises(errors.InvalidInput):
        fuchsian.QuotientFan.from_json_dict({"genus": 2})
