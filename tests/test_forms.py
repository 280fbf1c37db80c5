import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixedform import errors, forms


# =============================================================================
# JACOBI EIGENVALUES -- closed-form oracles first, then numpy as referee
# =============================================================================

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
def test_jacobi_matches_lapack(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    M = 0.5 * (A + A.T)
    ours = forms.jacobi_eigenvalues(M)
    ref = np.linalg.eigvalsh(M)
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
    assert form(h) == form.q(h)
    assert form(h, k) == form.b(h, k)


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


def test_symmetric_form_json_roundtrip():
    form = forms.SymmetricForm([[2.0, -1.0], [-1.0, 2.0]])
    again = forms.SymmetricForm.from_json_dict(form.to_json_dict())
    assert np.array_equal(form.entries, again.entries)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_hermitian_eigenvalues_match_lapack(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = forms.HermitianForm(0.5 * (A + A.conj().T))
    ref = np.linalg.eigvalsh(H.entries)
    assert H.eigenvalues().shape == (n,)
    assert np.max(np.abs(H.eigenvalues() - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


# =============================================================================
# POLARIZATION FROM EVALUATORS
# =============================================================================

def test_polarize_recovers_matrix():
    M = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, -1.0], [0.0, -1.0, 1.0]])
    form = forms.polarize(lambda h: h @ M @ h, 3)
    assert np.max(np.abs(form.entries - M)) < 1e-10


def test_polarize_cubic_recovers_tensor():
    w = np.array([0.7, -1.1, 0.4, 0.9])
    T0 = _product_tensor(w)
    form = forms.polarize_cubic(lambda h: np.dot(w, h) ** 3, 4)
    assert np.max(np.abs(form.entries - T0)) < 1e-9


def test_polarize_rejects_inhomogeneous():
    with pytest.raises(errors.ContractViolation):
        forms.polarize(lambda h: float(h @ h) + 1.0, 3)
    with pytest.raises(errors.ContractViolation):
        forms.polarize_cubic(lambda h: float(h @ h), 3)


# =============================================================================
# INEQUALITY RESIDUALS
# =============================================================================

def _lorentz_form():
    return forms.SymmetricForm(np.diag([1.0, -1.0, -1.0]))


def test_lorentz_cauchy_schwarz_on_cone():
    form = _lorentz_form()
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        x[0] = 1.5 + abs(x[0])          # keep q(x) > 0
        x[1:] *= 0.3
        r = forms.lorentz_cauchy_schwarz_residual(form, x, y)
        assert r >= -1e-12 * max(1.0, abs(form.q(x) * form.q(y)))


def test_lorentz_residual_zero_on_proportional():
    form = _lorentz_form()
    x = np.array([2.0, 0.5, -0.3])
    assert abs(forms.lorentz_cauchy_schwarz_residual(form, x, 3.0 * x)) < 1e-12


def test_lorentz_rejects_wrong_signature():
    with pytest.raises(errors.DomainError):
        forms.lorentz_cauchy_schwarz_residual(
            forms.SymmetricForm(np.eye(3)), np.ones(3), np.ones(3))


def test_lorentz_rejects_negative_q():
    with pytest.raises(errors.DomainError):
        forms.lorentz_cauchy_schwarz_residual(
            _lorentz_form(), np.array([0.1, 1.0, 0.0]), np.ones(3))


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
        A, B, C = forms.abc_lemma_residuals(form, *hs)
        assert A >= -1e-12
        assert C >= -1e-12
        scale = max(1.0, abs(A * C), B * B)
        assert B * B <= A * C + 1e-9 * scale
