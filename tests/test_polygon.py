import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geomfix
from mixedform import errors, polygon


def shoelace_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@st.composite
def fan_and_interior_h(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    fan = geomfix.perturbed_polygon_fan(n, rng)
    h = polygon.sample_interior(fan, rng)
    return fan, h


# =============================================================================
# FAN VALIDATION
# =============================================================================

def test_fan_rejects_short_list():
    with pytest.raises(errors.InvalidInput):
        polygon.NormalFan2D([0.0, 1.0])


def test_fan_rejects_out_of_range_angles():
    with pytest.raises(errors.InvalidInput):
        polygon.NormalFan2D([0.0, 2.0, 7.0])


def test_fan_rejects_unsorted():
    with pytest.raises(errors.InvalidInput):
        polygon.NormalFan2D([0.0, 3.0, 1.5])


def test_fan_rejects_wide_gap():
    # three normals in a halfplane: one gap >= pi
    with pytest.raises(errors.InvalidInput):
        polygon.NormalFan2D([0.0, 1.0, 2.0])


def test_regular_fan_basics():
    fan = polygon.NormalFan2D.regular(5)
    assert fan.n == 5
    assert np.allclose(fan.gaps, 2 * np.pi / 5)
    assert np.allclose(np.linalg.norm(fan.normals, axis=1), 1.0)


# =============================================================================
# EDGE LENGTHS AND AREA -- closed-form oracles
# =============================================================================

def test_square_lengths_and_area():
    fan = polygon.NormalFan2D.from_degrees([0, 90, 180, 270])
    h = np.array([0.5, 0.5, 0.5, 0.5])      # unit square about the origin
    assert np.allclose(polygon.edge_lengths(fan, h), 1.0)
    assert abs(polygon.area_form(fan).q(h) - 1.0) < 1e-14


def test_rectangle_mixed_area_oracle():
    # unit square and a 1 x 2 rectangle: mixed area (a + b)/2 = 3/2
    fan = polygon.NormalFan2D.from_degrees([0, 90, 180, 270])
    h = np.array([0.5, 0.5, 0.5, 0.5])
    k = np.array([0.5, 1.0, 0.5, 1.0])
    assert abs(polygon.area_form(fan).b(h, k) - 1.5) < 1e-14


def test_regular_ngon_area_formula():
    for n in range(3, 12):
        fan = polygon.NormalFan2D.regular(n)
        area = polygon.area_form(fan).q(np.ones(n))
        assert abs(area - n * math.tan(math.pi / n)) < 1e-12 * n


def test_area_matches_vertex_shoelace():
    rng = np.random.default_rng(17)
    for _ in range(25):
        fan = geomfix.perturbed_polygon_fan(int(rng.integers(3, 11)), rng)
        h = polygon.sample_interior(fan, rng)
        via_form = polygon.area_form(fan).q(h)
        via_vertices = shoelace_area(polygon.vertices(fan, h))
        assert abs(via_form - via_vertices) < 1e-10 * max(1.0, via_form)


def test_edge_lengths_match_vertex_distances():
    rng = np.random.default_rng(23)
    fan = geomfix.perturbed_polygon_fan(7, rng)
    h = polygon.sample_interior(fan, rng)
    V = polygon.vertices(fan, h)
    # edge i runs from vertex i-1 to vertex i (vertex i = lines i, i+1 meet)
    gaps = np.linalg.norm(V - np.roll(V, 1, axis=0), axis=1)
    assert np.allclose(gaps, polygon.edge_lengths(fan, h), atol=1e-10)


def test_translation_invariance_of_area():
    fan = polygon.NormalFan2D.regular(6)
    h = np.ones(6)
    shift = polygon.point_support_vector(fan, np.array([0.3, -1.1]))
    a0 = polygon.area_form(fan).q(h)
    a1 = polygon.area_form(fan).q(h + shift)
    assert abs(a0 - a1) < 1e-12


def test_signature_and_kernel():
    for n in (4, 6, 9):
        fan = polygon.NormalFan2D.regular(n, offset=0.21)
        form = polygon.area_form(fan)
        assert form.signature().as_tuple == (1, 2, n - 3)
        K = form.kernel()
        assert K.shape[1] == 2
        # the kernel is exactly the span of the two point-support vectors
        P = np.column_stack([fan.normals[:, 0], fan.normals[:, 1]])
        resid = K - P @ np.linalg.lstsq(P, K, rcond=None)[0]
        assert np.max(np.abs(resid)) < 1e-9


# =============================================================================
# CONE MEMBERSHIP
# =============================================================================

def test_membership_interior_boundary_outside():
    fan = geomfix.perturbed_polygon_fan(5, np.random.default_rng(5))
    h = np.ones(5)
    assert polygon.cone_membership(fan, h).status == "interior"

    # push support line 2 until exactly its edge degenerates; lengths are
    # linear in h, so the root along the e2 ray is exact
    L = fan.length_matrix
    t_star = -polygon.edge_lengths(fan, h)[2] / L[2, 2]
    boundary_h = h.copy()
    boundary_h[2] += t_star
    loc = polygon.cone_membership(fan, boundary_h, tol=1e-9)
    assert loc.status == "boundary"
    assert loc.edges == [2]

    outside = h.copy()
    outside[2] += 2.5 * t_star
    assert polygon.cone_membership(fan, outside).status == "outside"


def test_polygon_support_rejects_outside():
    fan = polygon.NormalFan2D.regular(4)
    with pytest.raises(errors.DomainError):
        polygon.PolygonSupport(fan, [1.0, -5.0, 1.0, 1.0])


def test_sampler_raises_when_no_draw_clears_the_margin():
    # two sides of about 1e-7 even at h = 1, below the 1e-6 side margin
    fan = polygon.NormalFan2D([0.0, 1e-7, 2e-7, 2.1, 4.2])
    with pytest.raises(errors.DomainError, match="margin 1e-06 after 80 shrinks"):
        polygon.sample_interior(fan, np.random.default_rng(1))


def _halving_draw(fan, rng):
    """Reference sampler: halve one perturbation of h = 1 until it is interior at the margin."""
    delta = rng.standard_normal(fan.n)
    s = polygon.SAMPLE_SPREAD
    for _ in range(polygon.SAMPLE_SHRINKS):
        h = np.ones(fan.n) * (1.0 + s * delta)
        if polygon.cone_membership(fan, h, tol=polygon.SAMPLE_MARGIN).status == "interior":
            return h
        s *= 0.5
    raise AssertionError("no size clears the margin")


@pytest.mark.parametrize("n", [4, 12, 48])
def test_sampled_stack_equals_sequential_draws(n):
    fan = geomfix.perturbed_polygon_fan(n, np.random.default_rng(n))
    rng = np.random.default_rng(7)
    reference = np.array([_halving_draw(fan, rng) for _ in range(300)])
    after = rng.standard_normal()
    rng = np.random.default_rng(7)
    sequential = np.array([polygon.sample_interior(fan, rng) for _ in range(300)])
    assert np.array_equal(sequential, reference)
    rng = np.random.default_rng(7)
    stack = polygon.sample_interior(fan, rng, size=300)
    assert stack.shape == (300, n)
    assert np.array_equal(stack, reference)
    assert rng.standard_normal() == after          # the stream is left where draws left it
    assert polygon.sample_interior(fan, rng, size=0).shape == (0, n)


def test_sampler_stack_raises_when_no_draw_clears_the_margin():
    fan = polygon.NormalFan2D([0.0, 1e-7, 2e-7, 2.1, 4.2])
    with pytest.raises(errors.DomainError, match="margin 1e-06 after 80 shrinks"):
        polygon.sample_interior(fan, np.random.default_rng(1), size=3)


@settings(max_examples=50, deadline=None)
@given(fan_and_interior_h())
def test_sampled_vectors_are_interior(pair):
    fan, h = pair
    assert polygon.cone_membership(fan, h).status == "interior"
    assert np.all(polygon.edge_lengths(fan, h) > 0)


# =============================================================================
# MINKOWSKI INEQUALITY
# =============================================================================

@settings(max_examples=60, deadline=None)
@given(fan_and_interior_h(), st.integers(min_value=0, max_value=2**31))
def test_minkowski_inequality_random_pairs(pair, seed):
    fan, h = pair
    k = polygon.sample_interior(fan, np.random.default_rng(seed))
    res = polygon.minkowski_check(fan, h, k)
    assert res.residual >= -1e-12 * res.scale


def test_minkowski_equality_translate_homothety():
    rng = np.random.default_rng(31)
    fan = geomfix.perturbed_polygon_fan(8, rng)
    k = polygon.sample_interior(fan, rng)
    x = np.array([0.4, -0.2])
    lam = 1.7
    h = polygon.point_support_vector(fan, x) + lam * k
    res = polygon.minkowski_check(fan, h, k)
    assert res.equality
    assert abs(res.residual) < 1e-10 * res.scale
    assert np.linalg.norm(res.witness_x - x) < 1e-7
    assert abs(res.witness_lambda - lam) < 1e-7


@pytest.mark.parametrize("exponent", [40, -40, 60, -60, 150, -150])
def test_minkowski_witness_at_any_scale(exponent):
    # the fit sees h and k at unit size, so the witness scales with them
    s = 2.0 ** exponent
    rng = np.random.default_rng(12)
    fan = geomfix.perturbed_polygon_fan(12, rng)
    for fan, x, lam, k in ((polygon.NormalFan2D.from_degrees([0, 90, 180, 270]),
                            np.array([0.3, -0.1]), 2.0, np.ones(4)),
                           (fan, np.array([-0.2, 0.5]), 1.3, polygon.sample_interior(fan, rng))):
        h = polygon.point_support_vector(fan, x) + lam * k
        res = polygon.minkowski_check(fan, s * h, s * k)
        assert res.equality
        assert np.allclose(res.witness_x / s, x, rtol=1e-9, atol=1e-9)
        assert res.witness_lambda == pytest.approx(lam, rel=1e-9)


def test_minkowski_generic_pair_is_strict():
    fan = polygon.NormalFan2D.regular(5)
    h = np.ones(5)
    k = np.array([1.0, 1.4, 0.9, 1.2, 1.1])
    res = polygon.minkowski_check(fan, h, k)
    assert not res.equality
    assert res.residual > 0


def test_minkowski_rejects_outside():
    fan = polygon.NormalFan2D.regular(4)
    with pytest.raises(errors.DomainError):
        polygon.minkowski_check(fan, np.array([1, 1, 1, -4.0]), np.ones(4))


def _stacked_pairs(fan, rng, pairs):
    """(H, K, x, lambda): sampled pairs, with pair 3 made an equality pair."""
    rows = polygon.sample_interior(fan, rng, size=2 * pairs)
    H, K = rows[0::2].copy(), rows[1::2]
    x, lam = np.array([0.3, -0.2]), 1.6
    H[3] = polygon.point_support_vector(fan, x) + lam * K[3]
    return H, K, x, lam


def test_minkowski_stack_matches_pairs():
    rng = np.random.default_rng(53)
    fan = geomfix.perturbed_polygon_fan(9, rng)
    H, K, x, lam = _stacked_pairs(fan, rng, 40)
    stacked = polygon.minkowski_check(fan, H, K)
    assert stacked.residual.shape == stacked.scale.shape == stacked.equality.shape == (40,)
    for i, (h, k) in enumerate(zip(H, K)):
        res = polygon.minkowski_check(fan, h, k)
        assert stacked.residual[i] == pytest.approx(res.residual, rel=1e-12)
        assert stacked.scale[i] == pytest.approx(res.scale, rel=1e-12)
        assert stacked.equality[i] == res.equality
        if res.witness_x is None:
            assert np.all(np.isnan(stacked.witness_x[i])) and np.isnan(stacked.witness_lambda[i])
        else:
            assert np.array_equal(stacked.witness_x[i], res.witness_x)
            assert stacked.witness_lambda[i] == res.witness_lambda
    assert np.flatnonzero(stacked.equality).tolist() == [3]
    assert np.linalg.norm(stacked.witness_x[3] - x) < 1e-7
    assert abs(stacked.witness_lambda[3] - lam) < 1e-7


@pytest.mark.parametrize("side", ["h", "k"])
def test_minkowski_stack_with_an_outside_row_raises_its_pair_error(side):
    fan = polygon.NormalFan2D.regular(4)
    H, K = np.ones((5, 4)), np.ones((5, 4))
    (H if side == "h" else K)[2] = [1, 1, 1, -4.0]
    (K if side == "h" else H)[4] = [1, 1, 1, -4.0]      # a later pair fails on the other side
    with pytest.raises(errors.DomainError) as alone:
        polygon.minkowski_check(fan, H[2], K[2])
    with pytest.raises(errors.DomainError) as stacked:
        polygon.minkowski_check(fan, H, K)
    assert str(stacked.value) == str(alone.value) == \
        f"minkowski_check: {side} lies outside the closed cone"


def test_minkowski_rejects_misaligned_stacks():
    fan = polygon.NormalFan2D.regular(4)
    with pytest.raises(errors.InvalidInput, match="differ in shape"):
        polygon.minkowski_check(fan, np.ones((3, 4)), np.ones(4))
    with pytest.raises(errors.InvalidInput):
        polygon.minkowski_check(fan, np.ones((2, 3, 4)), np.ones((2, 3, 4)))


# =============================================================================
# HYPERBOLIC DISTANCE
# =============================================================================

def test_distance_zero_on_homothety():
    # arccosh near 1 turns eps-level rounding into sqrt(eps), hence 1e-7
    fan = polygon.NormalFan2D.regular(7)
    h = np.ones(7)
    assert polygon.hyperbolic_distance(fan, h, 2.5 * h) < 1e-7


def test_distance_at_any_scale():
    rng = np.random.default_rng(41)
    fan = geomfix.perturbed_polygon_fan(6, rng)
    h, k = polygon.sample_interior(fan, rng, 2)
    d = polygon.hyperbolic_distance(fan, h, k)
    for s in (1e80, 1e-80):
        assert polygon.hyperbolic_distance(fan, s * h, s * k) == pytest.approx(d, rel=1e-12)
    for s in (2.0 ** 500, 2.0 ** -500):
        assert polygon.hyperbolic_distance(fan, s * h, s * k) == d


def test_distance_symmetry_and_positivity():
    rng = np.random.default_rng(41)
    fan = geomfix.perturbed_polygon_fan(6, rng)
    h = polygon.sample_interior(fan, rng)
    k = polygon.sample_interior(fan, rng)
    d1 = polygon.hyperbolic_distance(fan, h, k)
    d2 = polygon.hyperbolic_distance(fan, k, h)
    assert abs(d1 - d2) < 1e-12
    assert d1 >= 0.0


def test_distance_scale_invariance():
    rng = np.random.default_rng(43)
    fan = geomfix.perturbed_polygon_fan(5, rng)
    h = polygon.sample_interior(fan, rng)
    k = polygon.sample_interior(fan, rng)
    d = polygon.hyperbolic_distance(fan, h, k)
    d_scaled = polygon.hyperbolic_distance(fan, 3.0 * h, 0.25 * k)
    assert abs(d - d_scaled) < 1e-10


def test_distance_requires_interior():
    # h = (0,1,0,1) on the square fan is a degenerate 2 x 0 "rectangle"
    fan = polygon.NormalFan2D.regular(4)
    with pytest.raises(errors.DomainError):
        polygon.hyperbolic_distance(fan, np.array([0.0, 1.0, 0.0, 1.0]), np.ones(4))


# =============================================================================
# CHART EMBEDDING
# =============================================================================

def test_unit_square_chart_oracle():
    fan = polygon.NormalFan2D.from_degrees([0, 90, 180, 270])
    h = np.array([0.5, 0.5, 0.5, 0.5])
    z, form = polygon.double_chart_embedding(fan, h)
    # edges rotate counterclockwise starting at direction +pi/2
    assert np.allclose(z, [1j, -1.0, -1j, 1.0], atol=1e-14)
    assert abs(form.q(z) - 1.0) < 1e-14


def test_shoelace_matrix_values():
    for n in (3, 4, 12, 48):
        M = polygon.shoelace_hermitian_form(n).entries
        j, k = np.triu_indices(n, 1)
        assert np.all(M[j, k] == -0.25j) and np.all(M[k, j] == 0.25j)
        assert np.all(np.diag(M) == 0)


def test_shoelace_restricted_signature_triangle():
    # on the closure plane {sum z = 0} the n=3 form has signature (1, 1):
    # the restricted 2x2 matrix is [[0, -i/4], [i/4, 0]], eigenvalues -+1/4
    form = polygon.shoelace_hermitian_form(3)
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    sub = form.restrict(basis)
    assert sub.signature().as_tuple == (1, 0, 1)
    assert np.allclose(sub.eigenvalues(), [-0.25, 0.25], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(fan_and_interior_h())
def test_embedding_closure_and_area(pair):
    fan, h = pair
    z, form = polygon.double_chart_embedding(fan, h)
    assert abs(np.sum(z)) < 1e-10 * np.linalg.norm(z)
    area = polygon.area_form(fan).q(h)
    assert abs(form.q(z) - area) < 1e-12 * max(1.0, area)


def test_embedding_requires_interior():
    fan = polygon.NormalFan2D.regular(4)
    with pytest.raises(errors.DomainError):
        polygon.double_chart_embedding(fan, np.array([1.0, 0.0, 1.0, 0.0]))


# =============================================================================
# JSON
# =============================================================================

def test_polygon_json_roundtrip():
    data = {"normals_deg": [0, 90, 180, 270], "h": [0.5, 0.5, 0.5, 0.5]}
    support = polygon.PolygonSupport.from_json_dict(data)
    assert support.interior
    assert support.fan.n == 4
    assert abs(polygon.area_form(support.fan).q(support.h) - 1.0) < 1e-14


def test_polygon_json_rejects_mismatch():
    with pytest.raises(errors.InvalidInput):
        polygon.PolygonSupport.from_json_dict({"normals_deg": [0, 90, 180, 270],
                                               "h": [1, 1, 1]})
