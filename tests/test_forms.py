import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mixedform import errors, forms, polygon


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
    assert sig.as_tuple == (1, 1, 1)
    assert sig == (1, 1, 1)
    # the threshold is relative: shrinking the whole matrix changes nothing
    small = forms.SymmetricForm(1e-8 * np.diag([5.0, 1e-12, -2.0]))
    assert small.signature().as_tuple == (1, 1, 1)


def test_signature_zero_form():
    assert forms.SymmetricForm(np.zeros((4, 4))).signature().as_tuple == (0, 4, 0)


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
    assert H.signature().as_tuple == (1, 0, 1)
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
