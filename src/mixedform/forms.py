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
    Alexandrov-Fenchel checks, with their tolerances EQUALITY_TOL,
    WITNESS_TOL and ROUNDING_TOL), and the three-body A,B,C
    quadratic-in-lambda argument, with the discriminant bound B^2 <= A*C;
  * ``support_vector``, the length and finiteness check of support vectors
    and of the forms' (real or complex) arguments;
  * ``locate``, the one cone classifier: polygon, polytope and Fuchsian
    fans place h against their cone by the signs of its edge lengths.
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
    InvalidInput,
    InvariantFalsified,
)

DEFAULT_ZERO_THRESHOLD = 1e-9
HOMOGENEITY_SAMPLES = 16
HOMOGENEITY_FACTORS = (0.5, 2.0)
HOMOGENEITY_TOL = 1e-8
POLARIZE_CHECK_TOL = 1e-10
# reversed Cauchy-Schwarz: relative equality threshold, witness fit bound and
# the rounding bound of a residual that is 0 in exact arithmetic
EQUALITY_TOL = 1e-10
WITNESS_TOL = 1e-7
ROUNDING_TOL = 1e-12


def _as_square_matrix(entries, what, dtype=float):
    M = np.asarray(entries, dtype=dtype)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"{what}: expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{what}: entries must be finite")
    return M


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


def support_vector(h, n, what, stack=False, dtype=float):
    """``h`` as a finite vector of length n with ``dtype`` entries (with ``stack``,
    also an (S, n) stack of them); errors name ``what``."""
    v = np.asarray(h, dtype=dtype)
    if v.shape[-1:] != (n,) or v.ndim > 1 + stack:
        raise InvalidInput(f"{what}: expected a support vector of length {n}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput(f"{what}: support vector must be finite")
    return v


#: where h lies against a cone cut out by edge lengths l_e(h) >= 0: ``status``
#: is "interior", "boundary" or "outside", ``edges`` the labels of the
#: degenerate (boundary) or violated (outside) edges
ConeLocation = namedtuple("ConeLocation", ["status", "edges"])


def locate(lengths, tau, labels):
    """ConeLocation of h from its edge lengths; edge e is reported as ``labels[e]``.

    Any length below -tau puts h outside, else any length within tau puts
    it on the boundary; the listed edges keep the order of ``lengths``.
    """
    for status, hit in (("outside", lengths < -tau), ("boundary", lengths <= tau)):
        edges = np.flatnonzero(hit).tolist()
        if edges:
            return ConeLocation(status, [labels[e] for e in edges])
    return ConeLocation("interior", [])


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
        v = support_vector(h, self.dim, "q", stack=True, dtype=self.dtype)
        return self._b(v, v)

    def b(self, h, k):
        """Bilinear evaluation b(h, k) = Re h* M k, the polarization of q; row-aligned
        stacks (or a stack and a vector) give one value per row."""
        u = support_vector(h, self.dim, "b", stack=True, dtype=self.dtype)
        v = support_vector(k, self.dim, "b", stack=True, dtype=self.dtype)
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
        a = support_vector(h, self.dim, "v")
        b = support_vector(k, self.dim, "v")
        c = support_vector(p, self.dim, "v")
        return float(np.einsum("ijk,i,j,k->", self._T, a, b, c))

    def diagonal(self, h):
        """Cubic evaluation v(h, h, h)."""
        return self.v(h, h, h)

    def contract(self, p):
        """The symmetric matrix of the bilinear form v(., ., p)."""
        c = support_vector(p, self.dim, "contract")
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
    for _ in range(HOMOGENEITY_SAMPLES):
        h = rng.standard_normal(dim)
        direct, through = float(v_values(h)), form.diagonal(h)
        if abs(direct - through) > POLARIZE_CHECK_TOL * max(abs(direct), abs(through), 1.0):
            raise ContractViolation(
                f"polarized tensor does not reproduce v: {through:.6e} vs {direct:.6e}")
    return form


# =============================================================================
# INEQUALITY RESIDUALS
# =============================================================================

InequalityResult = namedtuple("InequalityResult",
                              ["residual", "scale", "equality", "witness_x", "witness_lambda"])


def reversed_cauchy_schwarz_check(name, b, qh, qk, h, k, normals):
    """Check b^2 >= q(h)q(k) and, at equality, find h = h^x + lambda k.

    ``b``, ``qh`` and ``qk`` are the mixed value and the two diagonal
    values of the form under test; ``normals`` (one row per coordinate)
    spans the translations h^x.  A residual below -ROUNDING_TOL x scale
    falsifies the inequality named ``name``.  A residual up to EQUALITY_TOL
    x scale is an equality case when the least squares fit over (x, lambda)
    misses h by less than WITNESS_TOL x |h|.  Otherwise the pair is a strict
    inequality (the residual is quadratic in the distance from a homothety,
    so pairs 1e-5 from one get this far), unless the residual is within
    ROUNDING_TOL x scale: that falsifies the equality-case theorem.

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
        witness = _witness(name, float(residual), float(scale), h, k, normals) if near else None
        if witness is None:
            return InequalityResult(float(residual), float(scale), False, None, None)
        return InequalityResult(float(residual), float(scale), True, *witness)
    witness_x = np.full((len(residual), normals.shape[1]), np.nan)
    witness_lambda = np.full(len(residual), np.nan)
    for i in np.flatnonzero(near):
        witness = _witness(name, residual[i], scale[i], h[i], k[i], normals)
        if witness is None:
            near[i] = False
        else:
            witness_x[i], witness_lambda[i] = witness
    return InequalityResult(residual, scale, near, witness_x, witness_lambda)


def _witness(name, residual, scale, h, k, normals):
    """(x, lambda) with h = h^x + lambda k for one pair whose residual is within
    EQUALITY_TOL x scale, None for a strict inequality, or InvariantFalsified
    (see ``reversed_cauchy_schwarz_check``)."""
    if residual < -ROUNDING_TOL * scale:
        raise InvariantFalsified(
            f"{name} inequality violated: residual {residual:.3e} at scale {scale:.3e}")
    A = np.column_stack([normals, k])
    sol, *_ = np.linalg.lstsq(A, h, rcond=None)
    fit = float(np.linalg.norm(h - A @ sol))
    if fit < WITNESS_TOL * float(np.linalg.norm(h)):
        return np.array(sol[:-1]), float(sol[-1])
    if residual > ROUNDING_TOL * scale:
        return None
    raise InvariantFalsified(
        f"equality case without translate+homothety witness (fit residual {fit:.3e})")


def abc_lemma_residuals(area, h1, h2, h3):
    """The three scalars of the quadratic-in-lambda three-body argument.

    A = b(h1,h3)^2 - q(h1) q(h3)
    B = b(h2,h3) q(h1) - b(h1,h2) b(h1,h3)
    C = b(h1,h2)^2 - q(h1) q(h2)

    Whenever the pairwise Minkowski-type inequalities hold, the
    discriminant bound B^2 <= A*C follows.
    """
    u1 = support_vector(h1, area.dim, "abc_lemma_residuals")
    u2 = support_vector(h2, area.dim, "abc_lemma_residuals")
    u3 = support_vector(h3, area.dim, "abc_lemma_residuals")
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
