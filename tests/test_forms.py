import json
import math
import os
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geomfix
import oracles
from mixedform import errors, forms, fuchsian, polygon, polytope
from test_polygon import DEFECT_E_ANGLES

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


# =============================================================================
# JACOBI EIGENVALUES -- closed-form oracles first, then mpmath as referee
# =============================================================================

def _mp_eigenvalues(M, solver):
    """Ascending eigenvalues from an mpmath solver at 30 significant digits."""
    with mpmath.workdps(30):
        vals = solver(mpmath.matrix(M.tolist()), eigvals_only=True)
        return np.sort([float(mpmath.re(vals[i])) for i in range(vals.rows)])


def test_jacobi_2x2_closed_form():
    # [[a, b], [b, c]] has eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2)
    a, b, c = 3.0, 1.5, -2.0
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    vals = forms.jacobi_eigenvalues([[a, b], [b, c]])
    assert np.allclose(vals, [mid - rad, mid + rad], rtol=0, atol=1e-14)


def test_jacobi_diagonal_matrix_is_fixed_point():
    vals = forms.jacobi_eigenvalues(np.diag([3.0, -1.0, 0.0, 7.5]))
    assert np.array_equal(vals, [-1.0, 0.0, 3.0, 7.5])


def test_jacobi_known_tridiagonal():
    # second-difference matrix on n points: eigenvalues 2 - 2 cos(k pi / (n+1))
    n = 7
    M = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    expected = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    vals = forms.jacobi_eigenvalues(M)
    assert np.allclose(vals, np.sort(expected), atol=1e-13)


def test_jacobi_eigenvectors_reconstruct():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((9, 9))
    M = A + A.T
    vals, vecs = forms.jacobi_eigenvalues(M, want_vectors=True)
    assert np.max(np.abs(M @ vecs - vecs * vals)) < 1e-12 * np.max(np.abs(M))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(9))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_jacobi_matches_high_precision(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    M = 0.5 * (A + A.T)
    ours = forms.jacobi_eigenvalues(M)
    ref = _mp_eigenvalues(M, mpmath.eigsy)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(ours - ref)) < 1e-12 * scale


def test_jacobi_rejects_nonsquare():
    with pytest.raises(errors.InvalidInput):
        forms.jacobi_eigenvalues(np.ones((2, 3)))


# =============================================================================
# SIGNATURE
# =============================================================================

def test_signature_counts_and_threshold():
    form = forms.SymmetricForm(np.diag([5.0, 1e-12, -2.0]))
    sig = form.signature()
    assert sig == (1, 1, 1)
    # the threshold is relative: shrinking the whole matrix changes nothing
    small = forms.SymmetricForm(1e-8 * np.diag([5.0, 1e-12, -2.0]))
    assert small.signature() == (1, 1, 1)


def test_signature_zero_form():
    assert forms.SymmetricForm(np.zeros((4, 4))).signature() == (0, 4, 0)


def test_signature_threshold_validation():
    form = forms.SymmetricForm(np.eye(2))
    with pytest.raises(errors.InvalidInput):
        form.signature(zero_threshold=0.0)
    with pytest.raises(errors.InvalidInput):
        form.signature(zero_threshold=1.5)


def test_kernel_threshold_validation():
    form = forms.SymmetricForm(np.diag([1.0, -2.0, 0.0]))
    for bad in (0.0, 1.0, 5.0):
        with pytest.raises(errors.InvalidInput):
            form.kernel(zero_threshold=bad)


# =============================================================================
# SYMMETRIC FORM BASICS
# =============================================================================

def test_symmetric_form_rejects_asymmetry():
    with pytest.raises(errors.ConsistencyError):
        forms.SymmetricForm([[0.0, 1.0], [0.5, 0.0]])


def test_symmetric_form_accepts_roundoff_asymmetry():
    M = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    form = forms.SymmetricForm(M)
    assert form.entries[0, 1] == form.entries[1, 0]


def test_q_b_polarization_identity():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5))
    form = forms.SymmetricForm(A + A.T)
    h = rng.standard_normal(5)
    k = rng.standard_normal(5)
    lhs = form.b(h, k)
    rhs = 0.5 * (form.q(h + k) - form.q(h) - form.q(k))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("h", [np.array([1 + 1j, 0.0]), [1 + 1j, 0.0]])
def test_real_form_rejects_complex_vectors(h):
    # a complex array used to lose its imaginary part (q = 1.0), and a complex
    # list raised a bare TypeError
    with pytest.raises(errors.InvalidInput, match="must be real"):
        forms.SymmetricForm(np.eye(2)).q(h)
    with pytest.raises(errors.InvalidInput, match="must be real"):
        polygon.cone_membership(polygon.NormalFan2D.regular(4), np.array([1 - 5j, 1, 1, 1]))


@pytest.mark.parametrize("h, stack, message", [
    (np.array([1 + 1j, 0.0, 0.0]), False, "support vector must be real, got complex entries"),
    ([1 + 1j, 0.0, 0.0], True, "support vector must be real, got complex entries"),
    (np.ones(4), False, "expected a support vector of length 3"),
    ([1.0, 2.0], True, "expected a support vector of length 3"),
    (np.array([1.0, np.nan, 0.0]), False, "support vector must be finite"),
    ([[1.0, 0.0, 0.0], [1.0, np.inf, 0.0]], True, "support vector must be finite"),
    (np.ones((2, 3)), False, "expected a support vector of length 3"),
    (np.ones((2, 2, 3)), True, "expected a support vector of length 3"),
])
def test_support_vector_errors(h, stack, message):
    with pytest.raises(errors.InvalidInput) as info:
        forms.support_vector(h, 3, "x", stack=stack)
    assert str(info.value) == f"x: {message}"


def test_support_vector_passes_a_checked_array_through():
    v = np.arange(3.0)
    assert forms.support_vector(v, 3, "x") is v
    assert forms.support_vector(np.ones((2, 3)), 3, "x", stack=True).shape == (2, 3)
    assert forms.support_vector([1, 2, 3], 3, "x").dtype == np.float64
    z = forms.support_vector([1j, 0.0, 1], 3, "x", dtype=complex)
    assert z.dtype == np.complex128 and z.tolist() == [1j, 0, 1]


def test_kernel_of_rank_deficient_form():
    # x'My = (x0+x1)(y0+y1): kernel spanned by (1,-1)/sqrt(2)
    form = forms.SymmetricForm([[1.0, 1.0], [1.0, 1.0]])
    K = form.kernel()
    assert K.shape == (2, 1)
    assert abs(abs(K[0, 0]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(K[0, 0] + K[1, 0]) < 1e-12


def test_restrict_diag():
    form = forms.SymmetricForm(np.diag([1.0, 2.0, 3.0]))
    sub = form.restrict(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(sub.entries, np.diag([1.0, 3.0]))


@pytest.mark.parametrize("basis", [np.ones((2, 2)), np.ones(3)], ids=["wrong-rows", "vector"])
def test_restrict_rejects_basis_of_wrong_shape(basis):
    with pytest.raises(errors.InvalidInput, match=r"^restrict: basis must be dim x r$"):
        forms.SymmetricForm(np.eye(3)).restrict(basis)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_symmetric_form_rejects_non_finite_entries(bad):
    with pytest.raises(errors.InvalidInput, match=r"^SymmetricForm: entries must be finite$"):
        forms.SymmetricForm([[1.0, bad], [bad, 1.0]])


# =============================================================================
# TRILINEAR FORMS
# =============================================================================

def _product_tensor(w):
    w = np.asarray(w, dtype=float)
    return np.einsum("i,j,k->ijk", w, w, w)


def test_trilinear_rank_one_oracle():
    # T = w (x) w (x) w  evaluates to <w,h><w,k><w,p>
    w = np.array([1.0, -2.0, 0.5])
    T = forms.TrilinearForm(_product_tensor(w))
    rng = np.random.default_rng(11)
    h, k, p = rng.standard_normal((3, 3))
    expected = np.dot(w, h) * np.dot(w, k) * np.dot(w, p)
    assert abs(T.v(h, k, p) - expected) < 1e-12 * max(1.0, abs(expected))
    assert abs(T.diagonal(h) - np.dot(w, h) ** 3) < 1e-12 * max(1.0, abs(np.dot(w, h)) ** 3)


def test_trilinear_contract_matches_direct():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((4, 4, 4))
    sym = np.zeros((4, 4, 4))
    for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym += np.transpose(raw, p)
    T = forms.TrilinearForm(sym / 6.0)
    h, k, p = rng.standard_normal((3, 4))
    assert abs(T.contract(p).b(h, k) - T.v(h, k, p)) < 1e-12


def test_trilinear_rejects_asymmetric_tensor():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = 1.0
    with pytest.raises(errors.ConsistencyError):
        forms.TrilinearForm(bad)


# =============================================================================
# HERMITIAN FORMS
# =============================================================================

def test_hermitian_pauli_y_oracle():
    # [[0, -i], [i, 0]] has eigenvalues -1, 1
    H = forms.HermitianForm([[0.0, -1j], [1j, 0.0]])
    assert np.allclose(H.eigenvalues(), [-1.0, 1.0], atol=1e-13)
    assert H.signature() == (1, 0, 1)
    z = np.array([1.0, 1j])
    assert abs(H.q(z) - 2.0) < 1e-13     # z*Hz = 2 Im(conj(z0) z1)


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(errors.ConsistencyError):
        forms.HermitianForm([[0.0, 1j], [1j, 0.0]])


def test_hermitian_b_polarizes_q():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = forms.HermitianForm(A + A.conj().T)
    for _ in range(8):
        z, w = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        lhs = H.b(z, w)
        rhs = 0.5 * (H.q(z + w) - H.q(z) - H.q(w))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_hermitian_kernel_and_restrict():
    H = forms.HermitianForm([[1.0, 1j], [-1j, 1.0]])
    K = H.kernel()
    assert K.shape == (2, 1)
    # spanned by (1, i)/sqrt(2): a unit vector that differs from it by a phase
    assert abs(abs(np.vdot(np.array([1.0, 1j]) / np.sqrt(2.0), K[:, 0])) - 1.0) < 1e-12
    # on the complementary line (1, -i)/sqrt(2) the form is 2
    sub = H.restrict(np.array([[1.0], [-1j]]) / np.sqrt(2.0))
    assert isinstance(sub, forms.HermitianForm)
    assert np.allclose(sub.entries, [[2.0]], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_hermitian_eigenvalues_match_high_precision(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = 0.5 * (A + A.conj().T)
    H = forms.HermitianForm(M)
    ref = _mp_eigenvalues(M, mpmath.eighe)
    assert H.eigenvalues().shape == (n,)
    assert np.max(np.abs(H.eigenvalues() - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


# =============================================================================
# POLARIZATION FROM EVALUATORS
# =============================================================================

def test_polarize_cubic_recovers_tensor():
    w = np.array([0.7, -1.1, 0.4, 0.9])
    T0 = _product_tensor(w)
    form = oracles.polarize_cubic(lambda h: np.dot(w, h) ** 3, 4)
    assert np.max(np.abs(form.entries - T0)) < 1e-9


def test_polarize_rejects_inhomogeneous():
    with pytest.raises(oracles.ContractViolation):
        oracles.polarize_cubic(lambda h: float(h @ h), 3)


# =============================================================================
# WALL BOUND AND SEGMENT SUMS
# =============================================================================

@pytest.mark.parametrize("exponent", [0, 300, -300, 600, -600, 1000, -900])
def test_wall_bound_scales_exactly(exponent):
    # tol |h| at h 2^j is 2^j times tol |h|, bit for bit, for one h and row by
    # row for stacks, also where |h|^2 overflows or underflows (no numpy warning),
    # as long as the bound itself is a normal number
    rng = np.random.default_rng(8)
    stack = rng.uniform(0.5, 3.0, (6, 2, 12))
    mixed = stack * 2.0 ** rng.integers(-2, 3, (6, 2, 1))
    for h in (stack[0, 0], stack, mixed):
        assert np.array_equal(forms.wall_bound(np.ldexp(h, exponent), 1e-9),
                              np.ldexp(forms.wall_bound(h, 1e-9), exponent))
    assert forms.wall_bound(np.zeros(4), 1e-9).tolist() == [0.0]


def test_base_one_draws_keep_wall_bound_on_its_plain_branch():
    # an entry of h = 1 + s delta is 0, at least 2^-53 in magnitude (Sterbenz: exact for
    # s delta in [-2, -1/2]) or at least 1/2, and a few units at most: no square
    # underflows or overflows, so the single draw's unguarded margin |h| has the bits of
    # wall_bound, which would take its plain branch
    extremes = 1.0 + np.array([-1.0, -(1.0 - 2.0 ** -53), -(1.0 + 2.0 ** -52), -0.5, 4.5, -5.5])
    assert extremes.tolist() == [0.0, 2.0 ** -53, -2.0 ** -52, 0.5, 5.5, -4.5]
    delta = np.random.default_rng(5).standard_normal((200, 6))
    draws = 1.0 + 0.5 ** np.arange(1, 81)[:, None, None] * delta
    h = np.vstack([extremes, draws.reshape(-1, 6)])
    with np.errstate(all="raise"):
        plain = 1e-6 * np.sqrt(forms.row_dot(h, h))[:, None]
    assert np.array_equal(plain, forms.wall_bound(h, 1e-6))


def test_segment_sums_keep_the_bits_of_np_sum():
    # one reduction per run length, each run summed as np.sum sums it alone
    # (pairwise from 8 entries on, so the run lengths straddle that)
    rng = np.random.default_rng(9)
    sizes = rng.integers(1, 40, 60)
    starts = np.cumsum(sizes) - sizes
    for shape in ((), (3,)):
        values = rng.standard_normal((sizes.sum(),) + shape) * 10.0 ** rng.integers(
            -5, 5, (sizes.sum(),) + shape)
        expected = [np.sum(values[a:a + k], axis=0) for a, k in zip(starts, sizes)]
        assert np.array_equal(forms.segment_sums(values, sizes), expected)


# =============================================================================
# STACKED DRAWS
# =============================================================================

def _polygon_sampler(fan, base=None):
    """(lengths, base, spread, margin, shrinks, what) of ``polygon.sample_interior``,
    optionally about another base."""
    return (lambda rows: polygon._row_lengths(fan, rows),
            np.ones(fan.n) if base is None else np.asarray(base, dtype=float),
            polygon.SAMPLE_SPREAD, polygon.SAMPLE_MARGIN, polygon.SAMPLE_SHRINKS, "side")


def _polytope_sampler(fan, reference):
    """(lengths, base, spread, margin, shrinks, what) of ``polytope.sample_interior``."""
    return (fan._edge_lengths, np.asarray(reference, dtype=float), polytope.SAMPLE_SPREAD,
            polytope.SAMPLE_MARGIN, polytope.SAMPLE_SHRINKS, "cone")


@pytest.fixture(scope="module")
def samplers():
    cube = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
    fib = polytope.build_fan(geomfix.fibonacci_sphere(48), np.ones(48))
    fib_refs = [polytope.sample_interior(fib, fib.reference_h, np.random.default_rng(seed))
                for seed in (1, 2)]
    cases = {f"{n}-gon": _polygon_sampler(geomfix.perturbed_polygon_fan(
        n, np.random.default_rng(n))) for n in (4, 12, 48, 100)}
    cases.update({
        "cube": _polytope_sampler(cube, cube.reference_h),
        "box": _polytope_sampler(cube, [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
        "cube near a wall": _polytope_sampler(cube, [1.0, 1.0, 1.0, 1.0, 1.0, -0.999]),
        "fib48": _polytope_sampler(fib, fib.reference_h),
        "fib48 drawn 1": _polytope_sampler(fib, fib_refs[0]),
        "fib48 drawn 2": _polytope_sampler(fib, fib_refs[1]),
        # a slab 6e-9 high: its vertical edges clear the margin 1e-9 |h| = 2.4e-9 at
        # s = 0, but at a size well below their zero, so a row whose vertical
        # edges fall misses its predicted level
        "slab": _polytope_sampler(cube, [1.0, 1.0, 1.0, 1.0, 1.0, -1.0 + 6e-9]),
        # a 1e-6 wide rectangle, under the margin 1e-6 |h| = 2e-6 at s = 0: a row
        # clears only at sizes away from 0, where its short sides grow
        "thin rectangle": _polygon_sampler(polygon.NormalFan2D.from_degrees([0, 90, 180, 270]),
                                           [1.0, 1.0, -1.0 + 1e-6, 1.0]),
    })
    return cases


def _assert_same_draws(sampler, seed, size):
    """sample_cone and its pass-loop reference on the same seed give the same draws (or
    DomainError text, which is returned) and leave the stream at the same place."""
    lengths, base, spread, margin, shrinks, what = sampler
    outcomes = []
    for draw in (forms.sample_cone, oracles.stacked_pass_sample):
        rng = np.random.default_rng(seed)
        try:
            drawn = draw(lengths, base, rng, size, spread, margin, shrinks, what)
        except errors.DomainError as exc:
            drawn = str(exc)
        outcomes.append((drawn, rng.standard_normal()))
    (new, new_next), (old, old_next) = outcomes
    assert type(new) is type(old) and new_next == old_next
    if isinstance(old, str):
        assert new == old
    else:
        assert new.shape == old.shape == (size, len(base))
        assert np.array_equal(new, old)
    return old


def _levels_of(sampler, seed, draws):
    """The level j (size spread / 2^j) of each row of ``draws`` drawn at ``seed``, and the
    level that the row's largest all-positive size predicts (shrinks where none)."""
    lengths, base, spread, _, shrinks, _ = sampler
    delta = np.random.default_rng(seed).standard_normal(draws.shape)
    levels = spread * 0.5 ** np.arange(shrinks)
    at = [base * (1.0 + s * delta) for s in levels]
    drawn = np.array([np.flatnonzero([np.array_equal(row, h[i]) for h in at])[0]
                      for i, row in enumerate(draws)])
    b = forms.unit_scaled(base)[0]
    l0, D = lengths(b), lengths(b * delta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reach = np.where(D < 0.0, l0 / -D, np.inf).min(axis=1)
    return drawn, (levels[None, :] >= reach[:, None]).sum(axis=1)


@pytest.mark.parametrize("name", ["4-gon", "12-gon", "48-gon", "100-gon", "cube", "box",
                                  "cube near a wall", "fib48", "fib48 drawn 1", "fib48 drawn 2"])
def test_stacked_draws_match_the_pass_loop(samplers, name):
    # placed by linearity, every row keeps the level, bits and stream position that
    # the pass loop gives it (the draws of as many single calls)
    for seed in range(8):
        for size in (0, 1, 7, 300):
            _assert_same_draws(samplers[name], seed, size)


def test_a_missed_prediction_reaches_the_scan(samplers):
    sampler = samplers["slab"]
    missed = placed = 0
    for seed in range(4):
        draws = _assert_same_draws(sampler, seed, 200)
        drawn, predicted = _levels_of(sampler, seed, draws)
        missed += int((drawn != predicted).sum())
        placed += int((drawn == predicted).sum())
    # a row drawn off its predicted level failed there and went on to a later level
    assert missed > 100 and placed > 100


def test_clearing_sizes_away_from_zero(samplers):
    sampler = samplers["thin rectangle"]
    lengths, base, spread, margin, shrinks, _ = sampler

    def clear(h):
        return ~(lengths(h) <= forms.wall_bound(h, margin)).any(axis=-1)

    assert not clear(base)      # the base fails the margin at s = 0
    cleared = 0
    for seed in range(40):
        draws = _assert_same_draws(sampler, seed, 1 + seed % 2)
        if isinstance(draws, str):      # a row whose short sides fall clears at no size
            assert draws == ("sample_interior: no draw clears the side margin 1e-06 "
                             "after 80 shrinks")
            continue
        cleared += 1
        drawn, _ = _levels_of(sampler, seed, draws)
        delta = np.random.default_rng(seed).standard_normal(draws.shape)
        # each row clears at its drawn level, and fails at the last one, nearest 0
        assert clear(base * (1.0 + (spread * 0.5 ** drawn)[:, None] * delta)).all()
        assert not clear(base * (1.0 + spread * 0.5 ** (shrinks - 1) * delta)).any()
    assert 5 <= cleared <= 35


def test_no_clearing_level_raises_the_pass_loop_error():
    sampler = _polygon_sampler(polygon.NormalFan2D([0.0, 1e-7, 2e-7, 2.1, 4.2]))
    message = _assert_same_draws(sampler, 1, 3)
    assert message == "sample_interior: no draw clears the side margin 1e-06 after 80 shrinks"


@pytest.mark.parametrize("exponent", [600, -600])
@pytest.mark.parametrize("name", ["48-gon", "box", "fib48"])
def test_stacked_draws_at_extreme_scales(samplers, name, exponent):
    # 2^600 |h| squares past the float range and 2^-600 |h| below it; both
    # implementations give the unscaled draws times 2^exponent, bit for bit
    lengths, base, *rest = samplers[name]
    scaled = (lengths, np.ldexp(base, exponent), *rest)
    for seed in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = _assert_same_draws(scaled, seed, 50)
        assert np.array_equal(draws, np.ldexp(_assert_same_draws(samplers[name], seed, 50),
                                              exponent))


# =============================================================================
# INEQUALITY RESIDUALS
# =============================================================================

def _lorentz_form():
    return forms.SymmetricForm(np.diag([1.0, -1.0, -1.0]))


def test_reversed_cauchy_schwarz_check_paths():
    # square normals: translations span (1,0,-1,0) and (0,1,0,-1)
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    k = np.ones(4)
    check = forms.reversed_cauchy_schwarz_check
    with pytest.raises(errors.InvariantFalsified, match="Minkowski inequality violated"):
        check("Minkowski", 1.0, 2.0, 2.0, k, k, normals)
    assert check("X", 3.0, 2.0, 2.0, k, k, normals) == (5.0, 9.0, False, None, None)
    h = 2.0 * k + normals @ np.array([0.3, -0.1])
    res = check("X", 2.0, 2.0, 2.0, h, k, normals)
    assert res.equality and res.witness_lambda == pytest.approx(2.0)
    assert np.allclose(res.witness_x, [0.3, -0.1])
    with pytest.raises(errors.InvariantFalsified, match="without translate"):
        check("X", 2.0, 2.0, 2.0, np.array([1.0, 0.0, 0.0, 0.0]), k, normals)
    # a residual of 5e-11 x scale passes EQUALITY_TOL, but without a witness
    # it is a strict inequality (a pair near a homothety), not a falsified one
    res = check("X", 2.0, 2.0, 2.0 * (1.0 - 5e-11), np.array([1.0, 0.0, 0.0, 0.0]), k, normals)
    assert res.residual == pytest.approx(5e-11 * res.scale, rel=1e-3)
    assert res == (res.residual, 4.0, False, None, None)


def test_reversed_cauchy_schwarz_check_stacked():
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    k = np.ones(4)
    h = 2.0 * k + normals @ np.array([0.3, -0.1])
    check = forms.reversed_cauchy_schwarz_check
    H, K = np.array([k, h, k]), np.array([k, k, k])
    res = check("X", np.array([3.0, 2.0, 4.0]), np.full(3, 2.0), np.full(3, 2.0), H, K, normals)
    assert res.residual.tolist() == [5.0, 0.0, 12.0]
    assert res.scale.tolist() == [9.0, 4.0, 16.0]
    assert res.equality.tolist() == [False, True, False]
    assert np.isnan(res.witness_x[[0, 2]]).all() and np.isnan(res.witness_lambda[[0, 2]]).all()
    assert np.allclose(res.witness_x[1], [0.3, -0.1]) and res.witness_lambda[1] == pytest.approx(2.0)
    # the first failing pair raises what it raises alone: here pair 1, not pair 2
    bad = np.array([[1.0, 0.0, 0.0, 0.0]] * 3)
    with pytest.raises(errors.InvariantFalsified, match="without translate"):
        check("X", np.array([3.0, 2.0, 1.0]), np.full(3, 2.0), np.full(3, 2.0), bad, K, normals)
    with pytest.raises(errors.InvariantFalsified, match="Minkowski inequality violated"):
        check("Minkowski", np.array([3.0, 1.0, 2.0]), np.full(3, 2.0), np.full(3, 2.0), bad, K,
              normals)
    # a near-equality without a witness is a strict inequality in a stack too
    res = check("X", np.full(2, 2.0), np.full(2, 2.0), np.array([2.0 * (1.0 - 5e-11), 2.0]),
                np.array([bad[0], h]), K[:2], normals)
    assert res.equality.tolist() == [False, True]
    assert np.isnan(res.witness_x[0]).all() and np.isnan(res.witness_lambda[0])
    assert np.allclose(res.witness_x[1], [0.3, -0.1]) and res.witness_lambda[1] == pytest.approx(2.0)


def _same(x, y):
    """Equal values, NaN equal to NaN, None to None."""
    return (x is None and y is None) or np.array_equal(x, y, equal_nan=True)


def test_reversed_cauchy_schwarz_scalar_path_matches_the_stacked_path():
    # one pair runs in Python floats, a stack in numpy: the same residual, scale,
    # equality and witness, also where b^2 and q(h)q(k) overflow (2^700 values)
    # or underflow (2^-700), and the same error where a pair raises
    fan = polygon.NormalFan2D.regular(4)
    form = fan.area_form
    k = np.array([1.0, 2.0, 1.0, 2.0])
    pairs = [(np.array([1.0, 1.5, 2.0, 1.0]), k),               # strict
             (2.5 * k + fan.normals @ np.array([0.3, -0.1]), k)]  # equality, with witness
    check = forms.reversed_cauchy_schwarz_check
    for exponent in (0, 350, -350):
        H, K = np.ldexp([h for h, _ in pairs], exponent), np.ldexp([k for _, k in pairs], exponent)
        b, qh, qk = form.b(H, K), form.q(H), form.q(K)
        for i in range(len(pairs)):
            try:
                alone = check("X", b[i], qh[i], qk[i], H[i], K[i], fan.normals)
            except errors.MixedFormError as exc:
                with pytest.raises(type(exc)) as stacked:
                    check("X", b[i:i + 1], qh[i:i + 1], qk[i:i + 1], H[i:i + 1], K[i:i + 1],
                          fan.normals)
                assert str(stacked.value) == str(exc)
                assert exponent != 0
                continue
            stacked = check("X", b[i:i + 1], qh[i:i + 1], qk[i:i + 1], H[i:i + 1], K[i:i + 1],
                            fan.normals)
            assert type(alone.residual) is type(alone.scale) is float
            assert _same(alone.residual, stacked.residual[0])
            assert _same(alone.scale, stacked.scale[0])
            assert alone.equality == stacked.equality[0] == (i == 1)
            assert _same(alone.witness_x, None if i == 0 else stacked.witness_x[0])
            assert _same(alone.witness_lambda, None if i == 0 else stacked.witness_lambda[0])
    # the equality pair at 2^350: b^2 and q(h)q(k) are inf, the residual NaN
    H = np.ldexp(pairs[1][0], 350), np.ldexp(k, 350)
    res = check("X", form.b(*H), form.q(H[0]), form.q(H[1]), *H, fan.normals)
    assert math.isnan(res.residual) and res.scale == math.inf and res.equality


def test_stacked_forms_round_as_single_vectors():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((7, 7))
    C = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    for form, U in ((forms.SymmetricForm(M + M.T), rng.standard_normal((20, 7))),
                    (forms.HermitianForm(C + C.conj().T),
                     rng.standard_normal((20, 7)) + 1j * rng.standard_normal((20, 7)))):
        V = U[::-1]                      # rows of a reversed view, not contiguous in order
        assert np.array_equal(form.q(U), [form.q(u) for u in U])
        assert np.array_equal(form.b(U, V), [form.b(u, v) for u, v in zip(U, V)])
        assert np.array_equal(form.b(U, V[0]), [form.b(u, V[0]) for u in U])
    with pytest.raises(errors.InvalidInput):
        forms.SymmetricForm(np.eye(3)).q(np.ones((2, 2, 3)))


# =============================================================================
# CELL DISTANCE AND OVERFLOW
# =============================================================================

def test_projective_distance_lorentzian_branch():
    # diag(1, -1) at h = (2, 1), k = (1, 0): q(h) = 3, q(k) = 1, b = 2
    form = forms.SymmetricForm(np.diag([1.0, -1.0]))
    d = forms.projective_distance(form, np.array([2.0, 1.0]), np.array([1.0, 0.0]), "d")
    assert d == pytest.approx(math.acosh(2.0 / math.sqrt(3.0)), rel=1e-14)
    # the same pair at any scale: the vectors are scaled to unit size first
    assert forms.projective_distance(form, 2.0 ** 600 * np.array([2.0, 1.0]),
                                     2.0 ** -600 * np.array([1.0, 0.0]), "d") == d
    with pytest.raises(errors.DomainError, match="^d: needs positive areas$"):
        forms.projective_distance(form, np.array([1.0, 2.0]), np.array([1.0, 0.0]), "d")


def test_projective_distance_overflow_names_the_caller():
    # q(h), q(k) and b(h, k) come from one product under one guard
    form = forms.SymmetricForm(np.full((2, 2), 1.5e308))
    with pytest.raises(errors.DomainError) as info:
        forms.projective_distance(form, np.array([1.5, 1.5]), np.array([1.5, 1.0]), "d")
    assert str(info.value) == "d: the value overflows the floating-point range"


def test_projective_distance_definite_branch():
    # the identity form measures the Euclidean angle between the rays
    rng = np.random.default_rng(23)
    form = forms.SymmetricForm(np.eye(4))
    for _ in range(20):
        h, k = rng.standard_normal((2, 4))
        cos = h @ k / (np.linalg.norm(h) * np.linalg.norm(k))
        assert forms.projective_distance(form, h, k, "d") == pytest.approx(
            math.acos(cos), rel=1e-12, abs=1e-7)
    h = np.array([1.0, 2.0, 0.0, 0.0])
    assert forms.projective_distance(form, h, -h, "d") == pytest.approx(math.pi)
    assert forms.projective_distance(form, h, 3.0 * h, "d") == pytest.approx(0.0, abs=1e-7)


def test_projective_distance_falsified_pairing_is_a_plain_float():
    # h and -h lie in opposite time cones of diag(1, -1): r = -1 < 1
    form = forms.SymmetricForm(np.diag([1.0, -1.0]))
    h = np.array([2.0, 1.0])
    with pytest.raises(errors.InvariantFalsified) as info:
        forms.projective_distance(form, h, -h, "d")
    assert str(info.value) == "normalized pairing -1.0 < 1: Minkowski inequality violated"


def _unit_row_distance(form, h, k, arc):
    """arc(b / sqrt(q q)) from the form's public q and b on h and k scaled to unit size."""
    u, v = forms.unit_rows(np.stack([h, k]))[0]
    return arc(form.b(u, v) / math.sqrt(form.q(u) * form.q(v)))


def test_cell_distances_are_the_public_form_values_on_the_unit_rows(monkeypatch, tmp_path):
    # the distances read q(h), q(k) and b(h, k) from one three-row b: the bits of
    # three separate calls, on the sampling benchmark's fixtures and on defect E's fan
    # (where the call returns)
    monkeypatch.syspath_prepend(PERFBENCH)
    import fixtures     # perfbench's fixture writer

    def arccosh(r):
        return float(np.arccosh(max(r, 1.0)))

    def arccos(r):
        return math.acos(min(1.0, max(-1.0, r)))

    def load(manifest, name):
        with open(manifest["fixtures"][name]["path"]) as fh:
            return json.load(fh)

    rng = np.random.default_rng(0)
    defect_e = polygon.NormalFan2D(DEFECT_E_ANGLES)
    cases = [(defect_e, None)]
    for seed in (1, 2):
        manifest = fixtures.write_fixtures("sampling", seed, str(tmp_path / str(seed)))
        cases.append((polygon.PolygonSupport.from_json_dict(load(manifest, "polygon12")).fan,
                      None))
        qfan, h = fuchsian.fan_from_json_dict(load(manifest, "genus2_m14"))
        pool = np.array(load(manifest, "genus2_m14_pool")["vectors"])
        cases.append((qfan, [h, *pool]))
    for fan, vectors in cases:
        if vectors is None:
            form, arc, distance = polygon.area_form(fan), arccosh, polygon.hyperbolic_distance
            pairs = polygon.sample_interior(fan, rng, size=200).reshape(100, 2, fan.n)
        else:
            form, arc = fuchsian.fuchsian_area_form(fan), arccos
            distance = fuchsian.spherical_distance
            pairs = [(a, b) for a in vectors[:8] for b in vectors]
        for h, k in pairs:
            try:
                d = distance(fan, h, k)
            except errors.InvariantFalsified:
                assert fan is defect_e
                continue
            assert d == _unit_row_distance(form, h, k, arc)


def test_overflow_checked_raises_domain_error():
    assert forms.overflow_checked("x", np.multiply, 2.0, 3.0) == 6.0
    with pytest.raises(errors.DomainError,
                       match="^x: the value overflows the floating-point range$"):
        forms.overflow_checked("x", np.multiply, np.float64(1e200), 1e200)
    with pytest.raises(errors.DomainError, match="^q: the value overflows"):
        forms.SymmetricForm(np.eye(3)).q(np.full((2, 3), 1e200))


def test_overflow_checked_judges_values():
    # a bincount sum overflows to inf without a floating-point flag
    with pytest.raises(errors.DomainError,
                       match="^x: the value overflows the floating-point range$"):
        forms.overflow_checked("x", np.bincount, [0, 0], [1e308, 1e308])
    # a tuple of same-shape arrays is judged as a whole, and inf - inf is NaN
    with pytest.raises(errors.DomainError, match="^x: the value overflows"):
        forms.overflow_checked("x", lambda: (np.ones(2), np.full(2, 1e308) * [10.0, 1.0]))
    with pytest.raises(errors.DomainError, match="^x: the value overflows"):
        forms.overflow_checked("x", lambda x: x * 10.0 - x * 10.0, np.full(2, 1e308))
    assert forms.overflow_checked("x", np.bincount, [0, 0], [1e307, 1e307]).tolist() == [2e307]


def test_symmetrizing_near_the_float_maximum():
    # halved before the sum: entries above 2^1023 symmetrize without leaving the float range
    big = np.array([[1.5e308, -1e308], [-1e308, 1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(forms.SymmetricForm(big).entries, big)
        skew = np.array([[1.5e308, -1e308], [-1.2e308, 1.7e308]])
        form = forms.SymmetricForm(skew, symmetry_tol=1.0)
    assert form.entries[0, 1] == form.entries[1, 0] == 0.5 * -1e308 + 0.5 * -1.2e308


def test_abc_residuals_discriminant_bound():
    # Lorentzian diag(1,-1,-1): pairwise reversed Cauchy-Schwarz holds on the
    # cone, so B^2 <= A C with A, C >= 0
    form = _lorentz_form()
    rng = np.random.default_rng(9)
    for _ in range(200):
        hs = []
        for _ in range(3):
            x = rng.standard_normal(3)
            x[0] = 1.2 + abs(x[0])
            x[1:] *= 0.25
            hs.append(x)
        A, B, C = oracles.abc_lemma_residuals(form, *hs)
        assert A >= -1e-12
        assert C >= -1e-12
        scale = max(1.0, abs(A * C), B * B)
        assert B * B <= A * C + 1e-9 * scale
