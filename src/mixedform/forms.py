"""Symmetric bilinear, trilinear and Hermitian forms.

Generic machinery shared by the geometry modules:

  * dense real symmetric forms with evaluation q(h) = h'Mh, polarization
    b(h,k) = (q(h+k) - q(h) - q(k))/2, eigenvalues, signature and kernel;
  * fully symmetric trilinear forms (volume-type cubics) with the
    inclusion-exclusion polarization
        6 v(h,k,p) = v(h+k+p) + v(h) + v(k) + v(p)
                     - v(h+k) - v(k+p) - v(h+p);
  * Hermitian forms (area forms in complex unfolding coordinates);
  * residuals for the Lorentzian (reversed) Cauchy-Schwarz inequality and
    for the three-body A,B,C quadratic-in-lambda argument, with the
    discriminant bound B^2 <= A*C.

Eigenvalues come from LAPACK's symmetric/Hermitian solvers (numpy
``eigvalsh``/``eigh``); Hermitian forms use the complex solver directly.
The signature zero-threshold is *relative* to the spectral radius: the
kernels that occur (translation vectors) are exact in theory but the
computed eigenvalues carry O(eps * ||M||) noise.
"""

import numpy as np

from .errors import (
    ConsistencyError,
    ContractViolation,
    DomainError,
    InvalidInput,
)

DEFAULT_ZERO_THRESHOLD = 1e-9
HOMOGENEITY_SAMPLES = 16
HOMOGENEITY_FACTORS = (0.5, 2.0)
HOMOGENEITY_TOL = 1e-8
POLARIZE_CHECK_TOL = 1e-10


def _as_square_matrix(entries, what):
    M = np.asarray(entries, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{what}: expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{what}: entries must be finite")
    return M


def _as_vector(h, dim, what):
    v = np.asarray(h, dtype=float)
    if v.shape != (dim,):
        raise InvalidInput(f"{what}: expected a vector of length {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{what}: vector must be finite")
    return v


# =============================================================================
# EIGENSOLVER
# =============================================================================

def jacobi_eigenvalues(matrix, want_vectors=False):
    """Eigenvalues of a real symmetric matrix, by LAPACK (``eigvalsh``/``eigh``).

    Returns eigenvalues sorted ascending; with ``want_vectors=True`` returns
    ``(values, vectors)`` where column j of ``vectors`` is the eigenvector
    of ``values[j]``.  Only the lower triangle is read.  The name predates
    the switch from cyclic Jacobi rotations and is kept for callers.
    """
    M = _as_square_matrix(matrix, "jacobi_eigenvalues")
    return np.linalg.eigh(M) if want_vectors else np.linalg.eigvalsh(M)


# =============================================================================
# SIGNATURE
# =============================================================================

class Signature:
    """Eigenvalue sign counts (positive, zero, negative) of a form."""

    def __init__(self, positive, zero, negative, zero_threshold):
        self.positive = int(positive)
        self.zero = int(zero)
        self.negative = int(negative)
        self.zero_threshold = float(zero_threshold)

    @property
    def as_tuple(self):
        return (self.positive, self.zero, self.negative)

    def __eq__(self, other):
        if isinstance(other, Signature):
            return self.as_tuple == other.as_tuple
        return self.as_tuple == tuple(other)

    def __repr__(self):
        return (f"Signature(positive={self.positive}, zero={self.zero}, "
                f"negative={self.negative})")


def _signature_from_eigenvalues(vals, zero_threshold, dim):
    if not (0.0 < zero_threshold < 1.0):
        raise InvalidInput("zero_threshold must lie strictly between 0 and 1")
    radius = float(np.max(np.abs(vals))) if len(vals) else 0.0
    tau = zero_threshold * radius if radius > 0.0 else zero_threshold
    pos = int(np.sum(vals > tau))
    neg = int(np.sum(vals < -tau))
    zero = dim - pos - neg
    return Signature(pos, zero, neg, zero_threshold)


def signature(form, zero_threshold=DEFAULT_ZERO_THRESHOLD):
    """Signature (positive, zero, negative) with a relative zero-threshold.

    The threshold is tau = zero_threshold * spectral radius (absolute when
    the form is identically zero).
    """
    return form.signature(zero_threshold)


# =============================================================================
# SYMMETRIC FORMS
# =============================================================================

class SymmetricForm:
    """Dense real symmetric bilinear form q(h) = h' M h."""

    def __init__(self, entries, symmetry_tol=1e-12):
        M = _as_square_matrix(entries, "SymmetricForm")
        scale = float(np.max(np.abs(M))) if M.size else 0.0
        defect = float(np.max(np.abs(M - M.T))) if M.size else 0.0
        if defect > symmetry_tol * max(scale, 1.0):
            raise ConsistencyError(
                f"matrix is not symmetric: max asymmetry {defect:.3e} "
                f"exceeds {symmetry_tol:.1e} x scale {scale:.3e}")
        self._M = 0.5 * (M + M.T)
        self._M.setflags(write=False)
        self._eigen = None

    @property
    def dim(self):
        return self._M.shape[0]

    @property
    def entries(self):
        return self._M

    def q(self, h):
        """Quadratic evaluation q(h)."""
        v = _as_vector(h, self.dim, "q")
        return float(v @ self._M @ v)

    def b(self, h, k):
        """Bilinear evaluation b(h, k)."""
        u = _as_vector(h, self.dim, "b")
        v = _as_vector(k, self.dim, "b")
        return float(u @ self._M @ v)

    def __call__(self, h, k=None):
        return self.q(h) if k is None else self.b(h, k)

    def eigenvalues(self):
        """Eigenvalues (ascending), computed once and cached."""
        if self._eigen is None:
            self._eigen = jacobi_eigenvalues(self._M)
        return self._eigen

    def signature(self, zero_threshold=DEFAULT_ZERO_THRESHOLD):
        return _signature_from_eigenvalues(self.eigenvalues(), zero_threshold, self.dim)

    def kernel(self, zero_threshold=DEFAULT_ZERO_THRESHOLD):
        """Orthonormal basis (columns) of the numerical kernel."""
        vals, vecs = jacobi_eigenvalues(self._M, want_vectors=True)
        radius = float(np.max(np.abs(vals))) if len(vals) else 0.0
        tau = zero_threshold * radius if radius > 0.0 else zero_threshold
        keep = np.abs(vals) <= tau
        return vecs[:, keep]

    def restrict(self, basis):
        """Restriction B' M B to the column span of ``basis``."""
        B = np.asarray(basis, dtype=float)
        if B.ndim != 2 or B.shape[0] != self.dim:
            raise InvalidInput("restrict: basis must be dim x r")
        return SymmetricForm(B.T @ self._M @ B, symmetry_tol=1e-10)

    def to_json_dict(self):
        return {"dim": self.dim, "entries": self._M.tolist()}

    @classmethod
    def from_json_dict(cls, data):
        try:
            dim = int(data["dim"])
            entries = data["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"SymmetricForm JSON: {exc}") from exc
        form = cls(entries)
        if form.dim != dim:
            raise InvalidInput(f"SymmetricForm JSON: dim {dim} != matrix size {form.dim}")
        return form


class TrilinearForm:
    """Fully symmetric trilinear form (entries in units of volume)."""

    def __init__(self, entries, symmetry_tol=1e-12):
        T = np.asarray(entries, dtype=float)
        if T.ndim != 3 or len(set(T.shape)) != 1:
            raise InvalidInput(f"TrilinearForm: expected an n x n x n tensor, got {T.shape}")
        if not np.all(np.isfinite(T)):
            raise InvalidInput("TrilinearForm: entries must be finite")
        scale = float(np.max(np.abs(T))) if T.size else 0.0
        perms = [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        sym = T.copy()
        defect = 0.0
        for p in perms:
            Tp = np.transpose(T, p)
            defect = max(defect, float(np.max(np.abs(T - Tp))))
            sym += Tp
        if defect > symmetry_tol * max(scale, 1.0):
            raise ConsistencyError(
                f"tensor is not symmetric: max defect {defect:.3e} "
                f"exceeds {symmetry_tol:.1e} x scale {scale:.3e}")
        self._T = sym / 6.0
        self._T.setflags(write=False)

    @property
    def dim(self):
        return self._T.shape[0]

    @property
    def entries(self):
        return self._T

    def v(self, h, k, p):
        """Trilinear evaluation v(h, k, p)."""
        a = _as_vector(h, self.dim, "v")
        b = _as_vector(k, self.dim, "v")
        c = _as_vector(p, self.dim, "v")
        return float(np.einsum("ijk,i,j,k->", self._T, a, b, c))

    def diagonal(self, h):
        """Cubic evaluation v(h, h, h)."""
        return self.v(h, h, h)

    def contract(self, p):
        """The symmetric matrix of the bilinear form v(., ., p)."""
        c = _as_vector(p, self.dim, "contract")
        return SymmetricForm(np.einsum("ijk,k->ij", self._T, c), symmetry_tol=1e-10)

    def to_json_dict(self):
        return {"dim": self.dim, "entries": self._T.tolist()}

    @classmethod
    def from_json_dict(cls, data):
        try:
            dim = int(data["dim"])
            entries = data["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"TrilinearForm JSON: {exc}") from exc
        form = cls(entries)
        if form.dim != dim:
            raise InvalidInput(f"TrilinearForm JSON: dim {dim} != tensor size {form.dim}")
        return form


class HermitianForm:
    """Dense Hermitian form q(z) = z* M z (always real-valued)."""

    def __init__(self, entries, symmetry_tol=1e-12):
        M = np.asarray(entries, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InvalidInput(f"HermitianForm: expected a square matrix, got {M.shape}")
        if not np.all(np.isfinite(M)):
            raise InvalidInput("HermitianForm: entries must be finite")
        scale = float(np.max(np.abs(M))) if M.size else 0.0
        defect = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
        if defect > symmetry_tol * max(scale, 1.0):
            raise ConsistencyError(
                f"matrix is not Hermitian: max defect {defect:.3e} "
                f"exceeds {symmetry_tol:.1e} x scale {scale:.3e}")
        self._M = 0.5 * (M + M.conj().T)
        self._M.setflags(write=False)
        self._eigen = None

    @property
    def dim(self):
        return self._M.shape[0]

    @property
    def entries(self):
        return self._M

    def q(self, z):
        """Real value z* M z."""
        v = np.asarray(z, dtype=complex)
        if v.shape != (self.dim,):
            raise InvalidInput(f"q: expected a vector of length {self.dim}")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("q: vector must be finite")
        return float((v.conj() @ self._M @ v).real)

    def eigenvalues(self):
        if self._eigen is None:
            self._eigen = np.linalg.eigvalsh(self._M)
        return self._eigen

    def signature(self, zero_threshold=DEFAULT_ZERO_THRESHOLD):
        return _signature_from_eigenvalues(self.eigenvalues(), zero_threshold, self.dim)

    def restrict(self, basis):
        """Restriction B* M B to the column span of ``basis``."""
        B = np.asarray(basis, dtype=complex)
        if B.ndim != 2 or B.shape[0] != self.dim:
            raise InvalidInput("restrict: basis must be dim x r")
        return HermitianForm(B.conj().T @ self._M @ B, symmetry_tol=1e-10)

    def to_json_dict(self):
        re = self._M.real.tolist()
        im = self._M.imag.tolist()
        n = self.dim
        return {"dim": n,
                "entries": [[[re[i][j], im[i][j]] for j in range(n)] for i in range(n)]}


# =============================================================================
# POLARIZATION
# =============================================================================

def _check_homogeneity(values, dim, degree, rng, tol):
    """Stochastic check |f(t h) - t^degree f(h)| <= tol * scale."""
    for _ in range(HOMOGENEITY_SAMPLES):
        h = rng.standard_normal(dim)
        fh = float(values(h))
        for t in HOMOGENEITY_FACTORS:
            fth = float(values(t * h))
            expected = (t ** degree) * fh
            scale = max(1.0, abs(fh), abs(fth))
            if abs(fth - expected) > tol * scale:
                raise ContractViolation(
                    f"evaluator is not homogeneous of degree {degree}: "
                    f"f({t}*h) = {fth:.6e}, expected {expected:.6e}")


def polarize(q_values, dim, rng=None, homogeneity_tol=HOMOGENEITY_TOL):
    """Symmetric bilinear form of a homogeneous quadratic evaluator.

    b(e_i, e_j) = (q(e_i + e_j) - q(e_i) - q(e_j)) / 2.
    """
    if dim < 1:
        raise InvalidInput("polarize: dim must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    _check_homogeneity(q_values, dim, 2, rng, homogeneity_tol)

    eye = np.eye(dim)
    qe = np.array([float(q_values(eye[i])) for i in range(dim)])
    M = np.zeros((dim, dim))
    for i in range(dim):
        M[i, i] = qe[i]
        for j in range(i + 1, dim):
            bij = 0.5 * (float(q_values(eye[i] + eye[j])) - qe[i] - qe[j])
            M[i, j] = bij
            M[j, i] = bij
    form = SymmetricForm(M)

    for _ in range(HOMOGENEITY_SAMPLES):
        h = rng.standard_normal(dim)
        direct = float(q_values(h))
        through = form.q(h)
        scale = max(abs(direct), abs(through), 1e-300)
        if abs(direct - through) > POLARIZE_CHECK_TOL * max(scale, 1.0):
            raise ContractViolation(
                f"polarized form does not reproduce q: {through:.6e} vs {direct:.6e}")
    return form


def polarize_cubic(v_values, dim, rng=None, homogeneity_tol=HOMOGENEITY_TOL):
    """Symmetric trilinear form of a homogeneous cubic evaluator.

    Inclusion-exclusion:
    6 v(h,k,p) = v(h+k+p) + v(h) + v(k) + v(p) - v(h+k) - v(k+p) - v(h+p),
    evaluated on basis vectors (repeated indices included).
    """
    if dim < 1:
        raise InvalidInput("polarize_cubic: dim must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    _check_homogeneity(v_values, dim, 3, rng, homogeneity_tol)

    eye = np.eye(dim)
    cache = {}

    def vsum(*idx):
        key = tuple(sorted(idx))
        if key not in cache:
            cache[key] = float(v_values(eye[list(key)].sum(axis=0)))
        return cache[key]

    T = np.empty((dim, dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            for k in range(j, dim):
                val = (vsum(i, j, k) + vsum(i) + vsum(j) + vsum(k)
                       - vsum(i, j) - vsum(j, k) - vsum(i, k)) / 6.0
                for a, b, c in ((i, j, k), (i, k, j), (j, i, k),
                                (j, k, i), (k, i, j), (k, j, i)):
                    T[a, b, c] = val
    form = TrilinearForm(T)

    for _ in range(HOMOGENEITY_SAMPLES):
        h = rng.standard_normal(dim)
        direct = float(v_values(h))
        through = form.diagonal(h)
        scale = max(abs(direct), abs(through), 1e-300)
        if abs(direct - through) > POLARIZE_CHECK_TOL * max(scale, 1.0):
            raise ContractViolation(
                f"polarized tensor does not reproduce v: {through:.6e} vs {direct:.6e}")
    return form


# =============================================================================
# INEQUALITY RESIDUALS
# =============================================================================

def lorentz_cauchy_schwarz_residual(form, h, k):
    """b(h,k)^2 - q(h)q(k) for a Lorentzian form; >= 0 on q(h) > 0.

    The sign convention is the reversed Cauchy-Schwarz inequality of
    signature-(1,*,*) spaces: on the positive cone the residual is
    nonnegative, vanishing exactly on proportional pairs.
    """
    u = _as_vector(h, form.dim, "lorentz_cauchy_schwarz_residual")
    v = _as_vector(k, form.dim, "lorentz_cauchy_schwarz_residual")
    if form.signature().positive != 1:
        raise DomainError("form is not Lorentzian: expected exactly one positive eigenvalue")
    qh = form.q(u)
    if qh <= 0.0:
        raise DomainError(f"q(h) = {qh:.6e} must be positive")
    return form.b(u, v) ** 2 - qh * form.q(v)


def abc_lemma_residuals(area, h1, h2, h3):
    """The three scalars of the quadratic-in-lambda three-body argument.

    A = b(h1,h3)^2 - q(h1) q(h3)
    B = b(h2,h3) q(h1) - b(h1,h2) b(h1,h3)
    C = b(h1,h2)^2 - q(h1) q(h2)

    Whenever the pairwise Minkowski-type inequalities hold, the
    discriminant bound B^2 <= A*C follows.
    """
    u1 = _as_vector(h1, area.dim, "abc_lemma_residuals")
    u2 = _as_vector(h2, area.dim, "abc_lemma_residuals")
    u3 = _as_vector(h3, area.dim, "abc_lemma_residuals")
    q1 = area.q(u1)
    q2 = area.q(u2)
    q3 = area.q(u3)
    b12 = area.b(u1, u2)
    b13 = area.b(u1, u3)
    b23 = area.b(u2, u3)
    A = b13 * b13 - q1 * q3
    B = b23 * q1 - b12 * b13
    C = b12 * b12 - q1 * q2
    return (A, B, C)
