import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geomfix
import oracles
from mixedform import errors, forms, polygon


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


@pytest.mark.parametrize("x", [[0.3, -1.1, 0.0], 0.3, [[0.3, -1.1]]], ids=["3d", "scalar", "row"])
def test_point_support_vector_rejects_non_plane_point(x):
    with pytest.raises(errors.InvalidInput,
                       match=r"^point_support_vector: x must be a point in the plane$"):
        polygon.point_support_vector(polygon.NormalFan2D.regular(6), x)


def test_signature_and_kernel():
    for n in (4, 6, 9):
        fan = polygon.NormalFan2D.regular(n, offset=0.21)
        form = polygon.area_form(fan)
        assert form.signature() == (1, 2, n - 3)
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


def test_minkowski_areas_that_underflow_leave_the_float_range():
    # at 2^-700 the square's areas underflow to 0 although both bodies have area:
    # a range error, as af-check reports it; a segment has no area at any scale
    fan = polygon.NormalFan2D.regular(4)
    h, k = np.ldexp(np.ones(4), -700), np.ldexp(np.array([1.0, 2.0, 1.0, 2.0]), -700)
    with pytest.raises(errors.DomainError) as info:
        polygon.minkowski_check(fan, h, k)
    assert str(info.value) == ("minkowski_check: the pair's values leave the floating-point "
                               "range, got 0.000e+00, 0.000e+00")
    with pytest.raises(errors.DomainError) as info:
        polygon.minkowski_check(fan, np.array([1.0, 0.0, 1.0, 0.0]), np.ones(4))
    assert str(info.value).startswith("minkowski_check: needs positive areas, got ")


def test_minkowski_pair_validates_twice_and_guards_three_times(monkeypatch):
    # each vector is validated once, where the caller passed it, and the check
    # enters numpy's error state once for q, once for the wall bound and once for b
    rng = np.random.default_rng(5)
    fan = geomfix.perturbed_polygon_fan(12, rng)
    h, k = polygon.sample_interior(fan, rng), polygon.sample_interior(fan, rng)
    validated, entered = [], []

    def support_vector(*args, support_vector=forms.support_vector, **kwargs):
        validated.append(args[2])
        return support_vector(*args, **kwargs)

    def errstate(errstate=np.errstate, **kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    for module in (forms, polygon):
        monkeypatch.setattr(module, "support_vector", support_vector)
    monkeypatch.setattr(np, "errstate", errstate)
    res = polygon.minkowski_check(fan, h, k)
    monkeypatch.undo()
    assert not res.equality and res.residual > 0.0
    assert validated == ["minkowski_check", "minkowski_check"]
    assert 1 <= len(entered) <= 3


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


# a side of about 2.3e-6 at h = 1, which clears the margin 1e-6 |h| = 2.24e-6 by 3 %:
# most draws settle only after dozens of halvings, many passes
BARELY_CLEAR_DEGREES = np.rad2deg([0.0, 2.3e-6, 4.6e-6, 2.1, 4.2])


# the ill-conditioned fan of defect E (length-map entries about 4e5), and a fan with a
# side of 1e-7 at h = 1, where for about half the deltas no size clears the margin
DEFECT_E_ANGLES = [0.0, 2.3e-6, 4.6e-6, 2.1, 4.2]
SHORT_SIDE_ANGLES = [0.0, 1e-7, 2e-7, 2.1, 4.2]


def _reference_fans():
    return {"12-gon": geomfix.perturbed_polygon_fan(12, np.random.default_rng(12)),
            "48-gon": geomfix.perturbed_polygon_fan(48, np.random.default_rng(48)),
            "barely clear": polygon.NormalFan2D.from_degrees(BARELY_CLEAR_DEGREES),
            "defect E": polygon.NormalFan2D(DEFECT_E_ANGLES),
            "short side": polygon.NormalFan2D(SHORT_SIDE_ANGLES)}


def _stacked_pass_draw(fan, rng):
    return oracles.stacked_pass_sample(lambda rows: polygon._row_lengths(fan, rows),
                                       np.ones(fan.n), rng, None, polygon.SAMPLE_SPREAD,
                                       polygon.SAMPLE_MARGIN, polygon.SAMPLE_SHRINKS, "side")


def _assert_same_outcome(fan, h, k):
    """minkowski_check and its three-product reference raise the same error, or give
    InequalityResults whose fields are equal bit for bit."""
    outcomes = []
    for check in (polygon.minkowski_check, oracles.three_product_minkowski_check):
        try:
            outcomes.append(check(fan, h, k))
        except errors.MixedFormError as exc:
            outcomes.append((type(exc), str(exc)))
    res, ref = outcomes
    if not isinstance(ref, forms.InequalityResult):
        assert res == ref
        return None
    for new, old in zip(res, ref):
        assert type(new) is type(old)
        assert (new is None and old is None) or np.array_equal(new, old, equal_nan=True)
    return res


def test_barely_clear_fan_clears_the_margin_by_three_percent():
    fan = _reference_fans()["barely clear"]
    ones = np.ones(fan.n)
    ratio = polygon.edge_lengths(fan, ones).min() / (polygon.SAMPLE_MARGIN * np.linalg.norm(ones))
    assert 1.0 < ratio < 1.05


@pytest.mark.parametrize("name", ["12-gon", "48-gon", "barely clear"])
def test_single_draws_and_checks_match_the_stacked_pass_references(name):
    # the one-draw pass and the one-product check give the draws, the stream
    # position and the InequalityResult of the pre-fusion code, bit for bit
    fan = _reference_fans()[name]
    results = 0
    for seed in range(150):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        h, k = polygon.sample_interior(fan, rng), polygon.sample_interior(fan, rng)
        assert np.array_equal(h, _stacked_pass_draw(fan, ref_rng)) and h.shape == (fan.n,)
        assert np.array_equal(k, _stacked_pass_draw(fan, ref_rng))
        assert rng.standard_normal() == ref_rng.standard_normal()
        if seed % 5 == 0:       # an equality pair, whose witness is fitted
            h = polygon.point_support_vector(fan, [0.1, -0.2]) + 1.5 * k
        results += _assert_same_outcome(fan, h, k) is not None
    # on the barely clear fan some pairs falsify the inequality by rounding, both ways
    assert results >= 120
    H, K = polygon.sample_interior(fan, rng, size=200).reshape(2, 100, fan.n)
    H[7] = polygon.point_support_vector(fan, [0.3, 0.1]) + 0.5 * K[7]
    stacked = _assert_same_outcome(fan, H, K)
    if name != "barely clear":      # there a pair falsified by rounding raises, both ways
        assert stacked.equality[7]


@pytest.mark.parametrize("name", ["12-gon", "48-gon", "barely clear", "defect E",
                                  "short side"])
def test_single_draws_keep_the_guarded_pass_bits_and_stream(name):
    # the single draw tests margin |h| with no overflow guard: about base 1 it keeps the
    # draws, the pass and size each clears at, the stream position and the DomainError
    # of the guarded one-row pass
    fan = _reference_fans()[name]
    levels = polygon.SAMPLE_SPREAD * 0.5 ** np.arange(polygon.SAMPLE_SHRINKS)
    passes, failed = set(), 0
    for seed in range(60):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        delta = np.random.default_rng(seed).standard_normal(fan.n)
        for draw in range(4):
            outcomes = []
            for sample, stream in ((polygon.sample_interior, rng), (_stacked_pass_draw, ref_rng)):
                try:
                    outcomes.append(sample(fan, stream))
                except errors.DomainError as exc:
                    outcomes.append(str(exc))
            new, old = outcomes
            if isinstance(old, str):
                assert new == old == ("sample_interior: no draw clears the side margin 1e-06 "
                                      "after 80 shrinks")
                failed += 1
                continue
            assert new.shape == (fan.n,) and np.array_equal(new, old)
            if draw == 0:       # its level j, size spread / 2^j, from the seed's first delta
                j = next(j for j, s in enumerate(levels) if np.array_equal(new, 1.0 + s * delta))
                passes.add(j // polygon.SAMPLE_LEVELS_PER_PASS)
        assert rng.standard_normal() == ref_rng.standard_normal()
    # the passes that first draws clear in: on the thin fans most need several
    assert passes == {"12-gon": {0}, "48-gon": {1}, "barely clear": {2, 3, 6, 7},
                      "defect E": {2, 3, 6, 7}, "short side": {3, 4}}[name]
    assert failed > 50 if name == "short side" else failed == 0


def test_no_clearing_size_raises_as_the_stacked_pass_did():
    fan = _reference_fans()["short side"]
    messages = []
    for draw in (polygon.sample_interior, _stacked_pass_draw):
        with pytest.raises(errors.DomainError) as info:
            draw(fan, np.random.default_rng(1))
        messages.append(str(info.value))
    assert messages == 2 * ["sample_interior: no draw clears the side margin 1e-06 "
                            "after 80 shrinks"]


_OUTSIDE = np.array([1.0, 1.0, 1.0, -4.0])
# on the square, q(h) = q(k) = 4.8e294 but b(h, k) = 2.9e308 overflows
_B_OVERFLOW_H = np.array([1.2e154, 1e140, 1.2e154, 1e140])
_B_OVERFLOW_K = _B_OVERFLOW_H[[1, 0, 3, 2]]


_FAILING_PAIRS = [
    (np.full(4, 2.0 ** 700), np.ones(4), "q: the value overflows the floating-point range"),
    (np.full(4, 2.0 ** 700), _OUTSIDE, "q: the value overflows the floating-point range"),
    (_OUTSIDE, _OUTSIDE, "minkowski_check: h lies outside the closed cone"),
    (_OUTSIDE, np.ones(4), "minkowski_check: h lies outside the closed cone"),
    (np.ones(4), _OUTSIDE, "minkowski_check: k lies outside the closed cone"),
    (np.ones(4), -np.ones(4), "minkowski_check: k lies outside the closed cone"),
    (np.array([1.0, 0.0, 1.0, 0.0]), np.ones(4),
     "minkowski_check: needs positive areas, got -1.225e-16, 4.000e+00"),
    (np.ones(4), np.zeros(4), "minkowski_check: needs positive areas, got 4.000e+00, 0.000e+00"),
    (np.full(4, 2.0 ** -700), 2.0 ** -700 * np.array([1.0, 2.0, 1.0, 2.0]),
     "minkowski_check: the pair's values leave the floating-point range, got 0.000e+00, "
     "0.000e+00"),
    (_B_OVERFLOW_H, _B_OVERFLOW_K, "b: the value overflows the floating-point range"),
    (np.array([1.2e154, 1e140, 1.2e154, -1e150]), _B_OVERFLOW_K,
     "minkowski_check: h lies outside the closed cone"),
]
_FAILING_IDS = ["q overflow", "q overflow, k outside", "h and k outside", "h outside",
                "k outside", "k outside, positive area", "no area", "zero area", "area lost",
                "b overflow", "b overflow, h outside"]
_FAILURE_STAGES = pytest.mark.parametrize("h, k, message", _FAILING_PAIRS, ids=_FAILING_IDS)


@_FAILURE_STAGES
def test_minkowski_failure_stages_keep_their_messages_and_order(h, k, message):
    # the fused product reports an overflowing q first, and an overflowing b only
    # after membership and areas, alone and as pair 1 of a stack, as the three
    # separate products did
    fan = polygon.NormalFan2D.regular(4)
    for pair in ((h, k), (np.stack([np.ones(4), h]), np.stack([np.ones(4), k]))):
        for check in (polygon.minkowski_check, oracles.three_product_minkowski_check):
            with pytest.raises(errors.DomainError) as info:
                check(fan, *pair)
            assert str(info.value) == message


@_FAILURE_STAGES
def test_one_pair_raises_as_its_one_row_stack_without_warnings(h, k, message):
    # one pair reads its values as Python floats and, failing a check, raises the class
    # and message of the same pair as a one-row stack, and prints no numpy warning
    fan = polygon.NormalFan2D.regular(4)
    raised = []
    for pair in ((h, k), (h[None], k[None])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(errors.MixedFormError) as info:
                polygon.minkowski_check(fan, *pair)
        assert caught == []
        raised.append((type(info.value), str(info.value)))
    assert raised == 2 * [(errors.DomainError, message)]


@pytest.mark.parametrize("first", range(len(_FAILING_PAIRS) + 1),
                         ids=_FAILING_IDS + ["valid"])
def test_mixed_stacks_raise_as_their_first_failing_pair(first):
    # a stack whose pairs fail at different stages raises the class and message of
    # its first failing pair alone, not the earliest stage of any pair; the by-kind
    # order of the stacked reference does not hold for mixed stacks
    fan = polygon.NormalFan2D.regular(4)
    pairs = [(h, k) for h, k, _ in _FAILING_PAIRS] + [(np.ones(4), 2.0 * np.ones(4))]
    alone = [message for _, _, message in _FAILING_PAIRS] + [None]
    for second in range(len(pairs)):
        expected = alone[first] or alone[second]
        if expected is None:
            continue
        (h0, k0), (h1, k1) = pairs[first], pairs[second]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(errors.MixedFormError) as info:
                polygon.minkowski_check(fan, np.stack([h0, h1]), np.stack([k0, k1]))
        assert caught == []
        assert (type(info.value), str(info.value)) == (errors.DomainError, expected)


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


def test_distance_on_a_triangle_is_zero():
    # a triangle's area form is semidefinite (signature (1, 2, 0)) and every
    # interior h is a translate of a homothety of any other: distance about 0
    # whichever branch the computed smallest eigenvalue picks
    rng = np.random.default_rng(47)
    fan = polygon.NormalFan2D.from_degrees([10.0, 130.0, 235.0])
    assert polygon.area_form(fan).signature() == (1, 2, 0)
    for h, k in polygon.sample_interior(fan, rng, 10).reshape(5, 2, 3):
        assert polygon.hyperbolic_distance(fan, h, k) < 1e-7


def test_area_form_overflow_is_domain_error():
    # the unit square at 2^700: its area 2^1400 leaves the float range
    fan = polygon.NormalFan2D.regular(4)
    with pytest.raises(errors.DomainError, match="^q: the value overflows"):
        polygon.area_form(fan).q(np.full(4, 2.0 ** 699))


def test_distance_requires_interior():
    # h = (0,1,0,1) on the square fan is a degenerate 2 x 0 "rectangle"
    fan = polygon.NormalFan2D.regular(4)
    flat = np.array([0.0, 1.0, 0.0, 1.0])
    for h, k, name in ((flat, np.ones(4), "h"), (np.ones(4), flat, "k"), (flat, -flat, "h")):
        with pytest.raises(errors.DomainError) as info:
            polygon.hyperbolic_distance(fan, h, k)
        assert str(info.value) == f"hyperbolic_distance: {name} is not interior"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="defect E: q, b and the pairing lose more than ROUNDING_TOL x scale "
                          "to cancellation among the area form's entries of about 4e5")
@pytest.mark.parametrize("check", [polygon.minkowski_check, polygon.hyperbolic_distance])
def test_exact_pairs_on_an_ill_conditioned_fan_are_not_falsified(check):
    # h = h^x + 1.5 k is an equality pair of the Minkowski inequality, at distance 0
    fan = polygon.NormalFan2D([0.0, 2.3e-6, 4.6e-6, 2.1, 4.2])
    rng = np.random.default_rng(0)
    K = polygon.sample_interior(fan, rng, size=200)
    falsified = 0
    for x, k in zip(rng.standard_normal((200, 2)), K):
        try:
            check(fan, polygon.point_support_vector(fan, x) + 1.5 * k, k)
        except errors.InvariantFalsified:
            falsified += 1
    assert falsified == 0


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


def test_shoelace_matrix_needs_three_vertices():
    with pytest.raises(errors.InvalidInput, match=r"^shoelace_hermitian_form: need n >= 3$"):
        polygon.shoelace_hermitian_form(2)


def test_shoelace_restricted_signature_triangle():
    # on the closure plane {sum z = 0} the n=3 form has signature (1, 1):
    # the restricted 2x2 matrix is [[0, -i/4], [i/4, 0]], eigenvalues -+1/4
    form = polygon.shoelace_hermitian_form(3)
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    sub = form.restrict(basis)
    assert sub.signature() == (1, 0, 1)
    assert np.allclose(sub.eigenvalues(), [-0.25, 0.25], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(fan_and_interior_h())
def test_embedding_closure_and_area(pair):
    fan, h = pair
    z, form = polygon.double_chart_embedding(fan, h)
    assert abs(np.sum(z)) < 1e-10 * np.linalg.norm(z)
    area = polygon.area_form(fan).q(h)
    assert abs(form.q(z) - area) < 1e-12 * max(1.0, area)


def test_embedding_validates_and_measures_once(monkeypatch):
    # one support_vector call and one length evaluation per call, accepted or not
    fan = polygon.NormalFan2D.regular(6)
    validated, located = [], []

    def support_vector(*args, support_vector=forms.support_vector, **kwargs):
        validated.append(args[2])
        return support_vector(*args, **kwargs)

    def locate(lengths, *args, locate=forms.locate):
        located.append(lengths.shape)
        return locate(lengths, *args)

    for module in (forms, polygon):
        monkeypatch.setattr(module, "support_vector", support_vector)
    monkeypatch.setattr(polygon, "locate", locate)
    z, _ = polygon.double_chart_embedding(fan, np.ones(6))
    with pytest.raises(errors.DomainError):
        polygon.double_chart_embedding(fan, np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
    monkeypatch.undo()
    assert abs(np.sum(z)) < 1e-12
    assert validated == ["double_chart_embedding"] * 2
    assert located == [(6,)] * 2


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
    assert support.membership.status == "interior"
    assert support.fan.n == 4
    assert abs(polygon.area_form(support.fan).q(support.h) - 1.0) < 1e-14


@pytest.mark.parametrize("data, key", [({"normals_deg": [0, 90, 180, 270]}, "'h'"),
                                       ({"h": [1, 1, 1, 1]}, "'normals_deg'")])
def test_polygon_json_names_the_missing_key(data, key):
    with pytest.raises(errors.InvalidInput) as info:
        polygon.PolygonSupport.from_json_dict(data)
    assert str(info.value) == f"polygon JSON needs 'normals_deg' and 'h': {key}"


def test_fan_rejects_a_matrix_of_angles():
    with pytest.raises(errors.InvalidInput) as info:
        polygon.NormalFan2D(np.zeros((2, 2)))
    assert str(info.value) == "NormalFan2D: need at least 3 normal angles"


def test_polygon_json_rejects_mismatch():
    with pytest.raises(errors.InvalidInput):
        polygon.PolygonSupport.from_json_dict({"normals_deg": [0, 90, 180, 270],
                                               "h": [1, 1, 1]})
