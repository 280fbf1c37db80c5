"""Symmetric bilinear, trilinear and Hermitian forms.

Generic machinery shared by the geometry modules:

  * dense real symmetric forms with evaluation q(h) = h'Mh, polarization
    b(h,k) = (q(h+k) - q(h) - q(k))/2, eigenvalues, signature and kernel;
  * dense fully symmetric trilinear forms with the inclusion-exclusion
    polarization of a cubic evaluator
        6 v(h,k,p) = v(h+k+p) + v(h) + v(k) + v(p)
                     - v(h+k) - v(k+p) - v(h+p);
    the geometry modules evaluate their mixed volumes face by face
    (``mixedform.faces``), and the dense n^3 form serves ``polarize_cubic``
    and the tests as an independent reference;
  * Hermitian forms (area forms in complex unfolding coordinates): a
    ``SymmetricForm`` over complex entries, q(z) = z*Mz, b(z,w) = Re z*Mw;
  * residuals for the Lorentzian (reversed) Cauchy-Schwarz inequality, its
    equality witness h = h^x + lambda k (shared by the Minkowski and
    Alexandrov-Fenchel checks, with their tolerances EQUALITY_TOL and
    WITNESS_TOL), and the three-body A,B,C quadratic-in-lambda argument,
    with the discriminant bound B^2 <= A*C;
  * ``support_vector``, the length and finiteness check of a fan's support
    vectors;
  * row-wise evaluation: ``q``, ``b``, ``row_dot`` and the inequality check
    also take (S, n) stacks, and each row rounds exactly as it would alone.

Eigenvalues come from LAPACK's symmetric/Hermitian solvers (numpy
``eigvalsh``/``eigh``); a complex matrix goes to the complex solver.
The signature zero-threshold is *relative* to the spectral radius: the
kernels that occur (translation vectors) are exact in theory but the
computed eigenvalues carry O(eps * ||M||) noise.
"""

import numbers
from collections import namedtuple

import numpy as np

from .errors import (
    ConsistencyError,
    ContractViolation,
    DomainError,
    InvalidInput,
    InvariantFalsified,
)

DEFAULT_ZERO_THRESHOLD = 1e-9
HOMOGENEITY_SAMPLES = 16
HOMOGENEITY_FACTORS = (0.5, 2.0)
HOMOGENEITY_TOL = 1e-8
POLARIZE_CHECK_TOL = 1e-10
# reversed Cauchy-Schwarz: relative equality threshold and witness fit bound
EQUALITY_TOL = 1e-10
WITNESS_TOL = 1e-7


def _as_square_matrix(entries, what, dtype=float):
    M = np.asarray(entries, dtype=dtype)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{what}: expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{what}: entries must be finite")
    return M


def _as_vector(h, dim, what, dtype=float, stack=False):
    """``h`` as a finite vector of length dim; with ``stack``, also an (S, dim) stack."""
    v = np.asarray(h, dtype=dtype)
    if v.shape[-1:] != (dim,) or v.ndim > 1 + stack:
        raise InvalidInput(f"{what}: expected a vector of length {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{what}: vector must be finite")
    return v


def row_dot(x, y):
    """x . y for vectors, or row by row for (S, n) stacks (either side may be one vector).

    Every row is one 1 x n by n x 1 matmul on contiguous rows, so it rounds
    exactly as the vector product ``x @ y`` does, whatever the stack.
    """
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def scalar_or_rows(x):
    """A float for a 0-d result, else the (S,) array of row results."""
    return float(x) if np.ndim(x) == 0 else x


def json_numbers(value, what):
    """``value`` unchanged if it is a JSON number or a (nested) list of numbers.

    Strings and booleans raise TypeError (``float()`` and numpy would read
    ``"1"`` and ``true`` as numbers), as any other wrongly typed value does.
    """
    if isinstance(value, list):
        for x in value:
            json_numbers(x, what)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what}: expected a number, got {value!r}")
    return value


def as_index(x, what):
    """``x`` as an int if it is an integer other than a bool, else InvalidInput."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise InvalidInput(f"{what}: expected an integer index, got {x!r}")
    return int(x)


def support_vector(h, n, what, stack=False):
    """``h`` as a finite float vector of length n (with ``stack``, also an (S, n)
    stack of them); errors name ``what``."""
    v = np.asarray(h, dtype=float)
    if v.shape[-1:] != (n,) or v.ndim > 1 + stack:
        raise InvalidInput(f"{what}: expected a support vector of length {n}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{what}: support vector must be finite")
    return v


# =============================================================================
# EIGENSOLVER
# =============================================================================

def jacobi_eigenvalues(matrix, want_vectors=False):
    """Eigenvalues of a real symmetric or complex Hermitian matrix, by LAPACK.

    Returns eigenvalues sorted ascending; with ``want_vectors=True`` returns
    ``(values, vectors)`` where column j of ``vectors`` is the eigenvector
    of ``values[j]``.  Only the lower triangle is read.  The name predates
    the switch from cyclic Jacobi rotations and is kept for callers.
    """
    M = _as_square_matrix(matrix, "jacobi_eigenvalues",
                          complex if np.iscomplexobj(matrix) else float)
    return np.linalg.eigh(M) if want_vectors else np.linalg.eigvalsh(M)


# =============================================================================
# SIGNATURE
# =============================================================================

class Signature(namedtuple("Signature", ["positive", "zero", "negative"])):
    """Eigenvalue sign counts (positive, zero, negative) of a form."""

    __slots__ = ()

    @property
    def as_tuple(self):
        return tuple(self)


def _zero_tau(vals, zero_threshold):
    """Absolute zero threshold tau: ``zero_threshold`` x the spectral radius of ``vals``."""
    if not (0.0 < zero_threshold < 1.0):
        raise InvalidInput("zero_threshold must lie strictly between 0 and 1")
    radius = float(np.max(np.abs(vals))) if len(vals) else 0.0
    return zero_threshold * radius if radius > 0.0 else zero_threshold


# =============================================================================
# SYMMETRIC FORMS
# =============================================================================

class SymmetricForm:
    """Dense symmetric form q(h) = h* M h (* the conjugate transpose) over ``dtype`` entries."""

    dtype = float

    def __init__(self, entries, symmetry_tol=1e-12):
        M = _as_square_matrix(entries, type(self).__name__, self.dtype)
        scale = float(np.max(np.abs(M))) if M.size else 0.0
        defect = float(np.max(np.abs(M - M.conj().T))) if M.size else 0.0
        if defect > symmetry_tol * max(scale, 1.0):
            raise ConsistencyError(
                f"matrix is not symmetric: max asymmetry {defect:.3e} "
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

    def q(self, h):
        """Quadratic evaluation q(h) (real-valued); a stack h gives one value per row."""
        v = _as_vector(h, self.dim, "q", self.dtype, stack=True)
        return self._b(v, v)

    def b(self, h, k):
        """Bilinear evaluation b(h, k) = Re h* M k, the polarization of q; row-aligned
        stacks (or a stack and a vector) give one value per row."""
        u = _as_vector(h, self.dim, "b", self.dtype, stack=True)
        v = _as_vector(k, self.dim, "b", self.dtype, stack=True)
        return self._b(u, v)

    def _b(self, u, v):
        uM = (np.ascontiguousarray(u.conj())[..., None, :] @ self._M)[..., 0, :]
        return scalar_or_rows(row_dot(uM, v).real)

    def eigenvalues(self):
        """Eigenvalues (ascending), computed once and cached."""
        if self._eigen is None:
            self._eigen = jacobi_eigenvalues(self._M)
        return self._eigen

    def signature(self, zero_threshold=DEFAULT_ZERO_THRESHOLD):
        vals = self.eigenvalues()
        tau = _zero_tau(vals, zero_threshold)
        pos = int(np.sum(vals > tau))
        neg = int(np.sum(vals < -tau))
        return Signature(pos, self.dim - pos - neg, neg)

    def kernel(self, zero_threshold=DEFAULT_ZERO_THRESHOLD):
        """Orthonormal basis (columns) of the numerical kernel."""
        vals, vecs = jacobi_eigenvalues(self._M, want_vectors=True)
        return vecs[:, np.abs(vals) <= _zero_tau(vals, zero_threshold)]

    def restrict(self, basis):
        """Restriction B* M B to the column span of ``basis``, of the same type."""
        B = np.asarray(basis, dtype=self.dtype)
        if B.ndim != 2 or B.shape[0] != self.dim:
            raise InvalidInput("restrict: basis must be dim x r")
        return type(self)(B.conj().T @ self._M @ B, symmetry_tol=1e-10)


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


class HermitianForm(SymmetricForm):
    """Dense Hermitian form q(z) = z* M z (always real-valued)."""

    dtype = complex


# =============================================================================
# POLARIZATION
# =============================================================================

def _check_homogeneity(values, dim, degree, rng):
    """Stochastic check |f(t h) - t^degree f(h)| <= HOMOGENEITY_TOL * scale."""
    for _ in range(HOMOGENEITY_SAMPLES):
        h = rng.standard_normal(dim)
        fh = float(values(h))
        for t in HOMOGENEITY_FACTORS:
            fth = float(values(t * h))
            expected = (t ** degree) * fh
            scale = max(1.0, abs(fh), abs(fth))
            if abs(fth - expected) > HOMOGENEITY_TOL * scale:
                raise ContractViolation(
                    f"evaluator is not homogeneous of degree {degree}: "
                    f"f({t}*h) = {fth:.6e}, expected {expected:.6e}")


def _check_reproduces(values, through_form, dim, rng, what):
    """Stochastic check |values(h) - through_form(h)| <= POLARIZE_CHECK_TOL * scale."""
    for _ in range(HOMOGENEITY_SAMPLES):
        h = rng.standard_normal(dim)
        direct = float(values(h))
        through = through_form(h)
        if abs(direct - through) > POLARIZE_CHECK_TOL * max(abs(direct), abs(through), 1.0):
            raise ContractViolation(f"polarized {what}: {through:.6e} vs {direct:.6e}")


def polarize(q_values, dim):
    """Symmetric bilinear form of a homogeneous quadratic evaluator.

    b(e_i, e_j) = (q(e_i + e_j) - q(e_i) - q(e_j)) / 2.
    """
    if dim < 1:
        raise InvalidInput("polarize: dim must be positive")
    rng = np.random.default_rng(0)
    _check_homogeneity(q_values, dim, 2, rng)

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
    _check_reproduces(q_values, form.q, dim, rng, "form does not reproduce q")
    return form


def polarize_cubic(v_values, dim):
    """Symmetric trilinear form of a homogeneous cubic evaluator.

    Inclusion-exclusion:
    6 v(h,k,p) = v(h+k+p) + v(h) + v(k) + v(p) - v(h+k) - v(k+p) - v(h+p),
    evaluated on basis vectors (repeated indices included).
    """
    if dim < 1:
        raise InvalidInput("polarize_cubic: dim must be positive")
    rng = np.random.default_rng(0)
    _check_homogeneity(v_values, dim, 3, rng)

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
    _check_reproduces(v_values, form.diagonal, dim, rng, "tensor does not reproduce v")
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


InequalityResult = namedtuple("InequalityResult",
                              ["residual", "scale", "equality", "witness_x", "witness_lambda"])


def reversed_cauchy_schwarz_check(name, b, qh, qk, h, k, normals):
    """Check b^2 >= q(h)q(k) and, at equality, find h = h^x + lambda k.

    ``b``, ``qh`` and ``qk`` are the mixed value and the two diagonal
    values of the form under test; ``normals`` (one row per coordinate)
    spans the translations h^x.  A negative residual below -1e-12 x scale
    falsifies the inequality named ``name``; a residual up to EQUALITY_TOL x
    scale is an equality case, and one whose least squares fit over
    (x, lambda) misses h by WITNESS_TOL x |h| or more falsifies the
    equality-case theorem.

    Row-aligned stacks (``b``, ``qh``, ``qk`` of shape (S,), ``h`` and ``k``
    of shape (S, n)) check S pairs at once: the fields of the result are
    then (S,) arrays and an (S, d) ``witness_x``, NaN where a pair has no
    witness, and the first failing pair raises as it would alone.
    """
    bb = np.multiply(b, b)
    qq = np.multiply(qh, qk)
    residual = bb - qq
    scale = np.maximum(bb, abs(qq))
    near = ~(residual > EQUALITY_TOL * np.maximum(scale, 1e-300))
    if residual.ndim == 0:
        if not near:
            return InequalityResult(float(residual), float(scale), False, None, None)
        x, lam = _witness(name, float(residual), float(scale), h, k, normals)
        return InequalityResult(float(residual), float(scale), True, x, lam)
    witness_x = np.full((len(residual), normals.shape[1]), np.nan)
    witness_lambda = np.full(len(residual), np.nan)
    for i in np.flatnonzero(near):
        witness_x[i], witness_lambda[i] = _witness(name, residual[i], scale[i], h[i], k[i],
                                                   normals)
    return InequalityResult(residual, scale, near, witness_x, witness_lambda)


def _witness(name, residual, scale, h, k, normals):
    """(x, lambda) with h = h^x + lambda k for one pair whose residual is within
    EQUALITY_TOL x scale; raises on a violated inequality or a poor fit."""
    if residual < -1e-12 * scale:
        raise InvariantFalsified(
            f"{name} inequality violated: residual {residual:.3e} at scale {scale:.3e}")
    A = np.column_stack([normals, k])
    sol, *_ = np.linalg.lstsq(A, h, rcond=None)
    fit = float(np.linalg.norm(h - A @ sol))
    if fit >= WITNESS_TOL * float(np.linalg.norm(h)):
        raise InvariantFalsified(
            f"equality case without translate+homothety witness (fit residual {fit:.3e})")
    return np.array(sol[:-1]), float(sol[-1])


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
