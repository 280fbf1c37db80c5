"""The face-local assembly against independent references.

``oracles.polarize_cubic`` rebuilds the dense symmetric tensor from a cubic
evaluator alone, by inclusion-exclusion on basis vectors, so it shares no
code with the face-local trilinear form or its contraction.  Edge lengths
and cone membership are compared with the per-face loop over the polygon
length matrices.
"""

import tracemalloc

import numpy as np
import pytest

import geomfix
import oracles
from mixedform import errors, faces, forms, fuchsian, polygon, polytope

REL_TOL = 1e-10


def _assert_matches_polarization(form, cubic, dim, vectors):
    dense = oracles.polarize_cubic(cubic, dim)
    for h, k, p in vectors:
        ref = dense.v(h, k, p)
        assert abs(form.v(h, k, p) - ref) <= REL_TOL * abs(ref)
        W = dense.contract(p).entries
        assert np.max(np.abs(form.contract(p).entries - W)) <= REL_TOL * np.max(np.abs(W))


@pytest.mark.parametrize("m", [6, 8, 12])
def test_volume_form_matches_polarized_volume(m):
    rng = np.random.default_rng(61 + m)
    fan = (polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6)) if m == 6
           else geomfix.random_simple_polytope(m, rng)[0])
    triples = [[polytope.sample_interior(fan, fan.reference_h, rng) for _ in range(3)]
               for _ in range(3)]
    _assert_matches_polarization(polytope.volume_form(fan),
                                 lambda h: polytope.volume(fan, h), fan.m, triples)


def test_covolume_form_matches_polarized_covolume():
    rng = np.random.default_rng(3)
    fan, h0 = geomfix.random_fuchsian_fan(rng, subdivide=True)
    assert fan.m == 14
    triples = [[geomfix.sample_fuchsian_interior(fan, h0, rng) for _ in range(3)]
               for _ in range(3)]
    # fuchsian.covolume only accepts positive support vectors, and the
    # polarization evaluates the cubic at basis vectors; batched_covolume is
    # the same per-face sum without that domain check (and is tied to
    # fuchsian.covolume by test_batched_covolume_matches_scalar)
    _assert_matches_polarization(fuchsian.covolume_form(fan),
                                 lambda h: geomfix.batched_covolume(fan, h[None])[0],
                                 fan.m, triples)
    for h, _, _ in triples:
        assert abs(geomfix.batched_covolume(fan, h[None])[0]
                   - fuchsian.covolume(fan, h)) <= REL_TOL * fuchsian.covolume(fan, h)


def test_sparse_symmetry_check_reports_the_dense_defect():
    # the unrealizable two-face fan of test_fuchsian: pairing-consistent,
    # but the two faces disagree about their shared edges
    face0 = [(1, 1.0, np.pi / 4.0)] * 8
    face1 = [(0, 1.0, np.pi / 4.0 + 0.3), (0, 1.0, np.pi / 4.0 - 0.3)] * 4
    fan = fuchsian.QuotientFan([face0, face1], genus=2)
    slices = [fan.assembly.support_map(i).T @ polygon.area_form(fan.face_fans[i]).entries
              @ fan.assembly.support_map(i) for i in range(fan.m)]
    with pytest.raises(errors.ConsistencyError) as dense:
        forms.TrilinearForm(np.stack(slices) / 3.0, symmetry_tol=1e-10)
    with pytest.raises(errors.ConsistencyError) as sparse:
        fan.assembly.trilinear_form
    assert str(sparse.value) == str(dense.value)


def test_agreeing_form_bound_is_relative_to_max_one_and_the_matrix():
    M = np.array([[2.0e3, 1.0], [1.0, -5.0]])
    assert np.array_equal(faces.agreeing_form(M, M + 1.9e-7, "M and R").entries, M)
    with pytest.raises(errors.ConsistencyError, match="M and R disagree"):
        faces.agreeing_form(M, M + 2.1e-7, "M and R")
    small = 1e-4 * M
    faces.agreeing_form(small, small + 0.9e-10, "m and r")
    with pytest.raises(errors.ConsistencyError, match="m and r disagree"):
        faces.agreeing_form(small, small + 1.1e-10, "m and r")


@pytest.mark.parametrize("build", [
    lambda: polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6)),
    lambda: polytope.build_fan(geomfix.fibonacci_sphere(48), np.ones(48)),
    lambda: geomfix.random_fuchsian_fan(np.random.default_rng(5), subdivide=True)[0],
], ids=["cube", "fibonacci-48", "genus-2"])
def test_assembly_coefficients_are_the_length_matrix_diagonals(build):
    # both consumers of NormalFan2D's closed-form tridiagonal read the same numbers
    fan = build()
    F = fan.assembly
    for i, face in enumerate(fan.face_fans):
        L = face.length_matrix
        k = np.arange(face.n)
        edges = slice(F.offsets[i], F.offsets[i + 1])
        assert np.array_equal(F.c_self[edges], L[k, k])
        assert np.array_equal(F.c_next[edges], L[k, (k + 1) % face.n])
        assert np.array_equal(F.c_prev[edges], L[k, (k - 1) % face.n])


def _loop_lengths(fan, h):
    return np.concatenate([polygon.edge_lengths(fan.face_fans[i], fan.assembly.support_map(i) @ h)
                           for i in range(fan.m)])


def test_lengths_and_membership_match_per_face_loop():
    rng = np.random.default_rng(67)
    pfan, ph = geomfix.random_simple_polytope(12, rng)
    qfan, qh = geomfix.random_fuchsian_fan(rng, subdivide=True)
    for fan, h0 in ((pfan, ph), (qfan, qh)):
        for spread in (0.01, 0.3):
            h = h0 * (1.0 + spread * rng.uniform(-1.0, 1.0, fan.m))
            ref = _loop_lengths(fan, h)
            assert np.max(np.abs(fan.assembly.lengths(h) - ref)) <= 1e-13 * np.max(np.abs(ref))
    # membership lists each violated edge once, faces in order, cycles in order
    h = ph * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, pfan.m))
    ref = _loop_lengths(pfan, h)
    tau = polytope.MEMBERSHIP_TOL * np.linalg.norm(h)
    pairs = [(i, j) for i in range(pfan.m) for j in pfan.face_cycles[i]]
    outside = [pair for pair, ell in zip(pairs, ref) if pair[0] < pair[1] and ell < -tau]
    assert outside
    assert polytope.cone_membership(pfan, h) == forms.ConeLocation("outside", outside)


def test_forms_scale_without_cubic_memory_m200():
    m = 200
    fan = polytope.build_fan(geomfix.fibonacci_sphere(m), np.ones(m))
    tracemalloc.start()
    try:
        T = polytope.volume_form(fan)
        area = polytope.boundary_area_form(fan)
        T.contract(np.ones(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense m^3 tensor alone would take 8 m^3 bytes = 61 MiB
    assert peak <= 16 * 2**20
    assert area.signature().as_tuple == (1, 3, m - 4)


def test_forms_at_m1000():
    m = 1000
    fan = polytope.build_fan(geomfix.fibonacci_sphere(m), np.ones(m))
    h = np.ones(m)
    vol = polytope.volume(fan, h)
    assert abs(polytope.volume_form(fan).v(h, h, h) - vol) <= 1e-12 * vol
    # boundary_area_form raises unless area = 3 v(1, ., .) entrywise; with
    # h = 1 every face touches the unit sphere, so area(h) = 3 v(h)
    assert abs(polytope.boundary_area_form(fan).q(h) - 3.0 * vol) <= 1e-10 * vol
