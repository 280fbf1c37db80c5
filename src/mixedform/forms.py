"""Symmetric bilinear, trilinear and Hermitian forms.

Generic machinery shared by the geometry modules:

  * dense real symmetric forms with evaluation q(h) = h'Mh, polarization
    b(h,k) = (q(h+k) - q(h) - q(k))/2, eigenvalues, signature and kernel;
  * dense fully symmetric trilinear forms; the geometry modules evaluate
    their mixed volumes face by face (``mixedform.faces``), and the dense
    n^3 form serves the tests as an independent reference;
  * Hermitian forms (area forms in complex unfolding coordinates): a
    ``SymmetricForm`` over complex entries, q(z) = z*Mz, b(z,w) = Re z*Mw;
  * residuals for the Lorentzian (reversed) Cauchy-Schwarz inequality, its
    equality witness h = h^x + lambda k (shared by the Minkowski and
    Alexandrov-Fenchel checks, with their tolerances EQUALITY_TOL,
    WITNESS_TOL and ROUNDING_TOL), and ``projective_distance``, the distance
    of two rays in a spherical (definite) or hyperbolic (Lorentzian) cell;
  * ``overflow_checked``, the one overflow rule (DomainError, no numpy warning),
    which judges a stage by its values: a stage sums and multiplies finite,
    checked arguments, so a value is non-finite only where something
    overflowed, a bincount sum too, which sets no floating-point flag;
  * ``fan_arrays``, the one rule of a polygon's normal fan (angles in
    [0, TWO_PI), cyclic gaps in (0, pi) summing to TWO_PI, and the length
    coefficients), checked and derived for any number of polygons in one
    pass: ``polygon.NormalFan2D`` calls it on one polygon, the face assembly
    of polytope and Fuchsian fans on all faces at once;
  * ``support_vector``, the length and finiteness check of support vectors
    and of the forms' (real or complex) arguments, made once, by the public
    function the caller called: code holding checked arrays evaluates
    ``SymmetricForm._b`` or ``FaceTrilinearForm._v`` under one guard a stage;
  * ``wall_bound``, the one rule that puts an edge length below -tol |h|
    outside a cone and one within tol |h| on its wall, at any scale of h,
    with ``locate`` and ``sample_cone``, the cone classifier and the
    interior sampler that the polygon, polytope and Fuchsian fans share
    (membership at MEMBERSHIP_TOL); the sampler places a stack of draws by
    the linearity of the edge lengths, from two length evaluations at unit
    scale: each row scans its sizes from the first one below its reach, the
    largest size at which all its lengths are positive (``polygon``'s single
    draws about base 1 run their own pass loop); ``no_clear_error`` is the
    one DomainError of a draw that no size clears;
  * row-wise evaluation: ``q``, ``b``, ``row_dot`` and the inequality check
    also take (S, n) stacks, and each row rounds exactly as it would alone;
    ``segment_sums`` sums consecutive runs of rows, each as np.sum sums it
    alone, ``runs`` cuts a flat list into them, ``cyclic_runs`` indexes
    their entries cyclically and ``fan_triangles`` fan-triangulates them.

Eigenvalues come from LAPACK's symmetric/Hermitian solvers (numpy
``eigvalsh``/``eigh``); a complex matrix goes to the complex solver.
The signature zero-threshold is *relative* to the spectral radius: the
kernels that occur (translation vectors) are exact in theory but the
computed eigenvalues carry O(eps * ||M||) noise.
"""

import math
import numbers
from collections import namedtuple

import numpy as np

from .errors import ConsistencyError, DomainError, InvalidInput, InvariantFalsified

DEFAULT_ZERO_THRESHOLD = 1e-9
# reversed Cauchy-Schwarz: relative equality threshold, witness fit bound and
# the rounding bound of a residual that is 0 in exact arithmetic
EQUALITY_TOL = 1e-10
WITNESS_TOL = 1e-7
ROUNDING_TOL = 1e-12
MEMBERSHIP_TOL = 1e-12
TWO_PI = 2.0 * np.pi


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


def unit_scaled(v):
    """(v 2^-e, e) for the e that brings max |v| into [0.5, 1), e = 0 for v = 0.

    Scaling by a power of two is exact, so every scale of v gives the same
    unit-size vector, and products of it neither overflow nor underflow.
    """
    e = math.frexp(float(abs(v).max(initial=0.0)))[1]
    return np.ldexp(v, -e), e


def unit_rows(rows):
    """(rows 2^-e, e): each row of an (..., n) stack scaled as ``unit_scaled`` scales a
    vector, by the power of two of its own (...,) exponent e."""
    e = np.frexp(abs(rows).max(axis=-1, initial=0.0))[1]
    return np.ldexp(rows, -e[..., None]), e


def overflow_checked(what, compute, *args):
    """compute(*args), raising DomainError naming ``what`` (and no numpy warning) when a
    value of the result (an array, a number or a tuple of same-shape arrays) is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute(*args)
    if not np.isfinite(value).all():
        raise overflow_error(what)
    return value


def overflow_error(what):
    """The DomainError of an overflow in the stage named ``what``."""
    return DomainError(f"{what}: the value overflows the floating-point range")


def no_clear_error(what, margin, shrinks):
    """The DomainError of a sampler draw that no size clears at the ``what`` margin."""
    return DomainError(f"sample_interior: no draw clears the {what} margin {margin:g} "
                       f"after {shrinks} shrinks")


def runs(flat, sizes):
    """``flat`` (a list or an array) cut into its consecutive runs of ``sizes[s]`` entries."""
    ends = np.cumsum(sizes).tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def cyclic_runs(sizes):
    """(run, pos, nxt, prv) for the consecutive runs of ``sizes`` entries of a flat
    array: each entry's run, its position in the run, and the flat indices of the
    next and the previous entry of its run, cyclically."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    size = np.repeat(sizes, sizes)
    pos = np.arange(len(run)) - start
    return run, pos, start + (pos + 1) % size, start + (pos - 1) % size


def fan_triangles(flat, sizes):
    """The rows (first, k, k + 1), 0 < k < size - 1, of the consecutive runs of ``sizes``
    entries of the array ``flat``, run by run: each run fan-triangulated from its first."""
    run, pos, _, _ = cyclic_runs(sizes)
    tri = np.flatnonzero((pos > 0) & (pos < np.asarray(sizes)[run] - 1))
    return flat[np.column_stack([tri - pos[tri], tri, tri + 1])]


def segment_sums(values, sizes):
    """The sums of the consecutive runs of ``sizes[s]`` >= 1 rows of ``values``.

    Each run is summed as ``np.sum(run, axis=0)`` sums it alone (rows in
    order; 1-D runs pairwise), so the sums keep their bits: one reduction per
    distinct run length (found by ``bincount``: a plain ``np.unique`` imports
    numpy.ma, about 15 ms of a fresh CLI call).
    """
    starts = np.cumsum(sizes) - sizes
    out = np.empty((len(sizes),) + values.shape[1:])
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
        of_size = np.flatnonzero(sizes == k)
        out[of_size] = values[starts[of_size, None] + np.arange(k)].sum(axis=1)
    return out


def _first_failure(checks):
    """Raise the message of the first failing check of the first run that fails one.

    ``checks`` lists (per-run failure flags, message of a run index) in check order.
    """
    failing = np.array([flags for flags, _ in checks])
    failed = np.flatnonzero(failing.any(axis=0))
    if len(failed):
        run = int(failed[0])
        raise InvalidInput("NormalFan2D: " + checks[int(np.argmax(failing[:, run]))][1](run))


def fan_arrays(a, sizes):
    """Check the cyclic angle lists in runs of ``sizes`` along ``a`` and derive, flat:
    gaps, unit normals, edge angles and the length coefficients c_self, c_next, c_prev
    (all read-only, ``a`` too).  The first run that fails a check raises what
    ``polygon.NormalFan2D`` of that run alone raises; the count and range checks of
    every run come before the order checks of any."""
    run, _, nxt, prv = cyclic_runs(sizes)

    def any_in_run(mask):
        return np.bincount(run, weights=mask, minlength=len(sizes)) > 0

    _first_failure([
        (sizes < 3, lambda r: "need at least 3 normal angles"),
        (any_in_run(~np.isfinite(a)), lambda r: "angles must be finite"),
        (any_in_run((a < 0.0) | (a >= TWO_PI)), lambda r: "angles must lie in [0, 2*pi)")])
    gaps = np.mod(a[nxt] - a, TWO_PI)
    totals = segment_sums(gaps, sizes)
    _first_failure([
        (np.bincount(run, weights=a[nxt] < a, minlength=len(sizes)) != 1,
         lambda r: "angles must be strictly increasing cyclically"),
        (any_in_run((gaps <= 0.0) | (gaps >= np.pi)),
         lambda r: "every gap between consecutive normals must lie in (0, pi)"),
        (np.abs(totals - TWO_PI) > 1e-9,
         lambda r: f"gaps sum to {float(totals[r])!r}, expected 2*pi")])
    sin_g = np.sin(gaps)
    cot_g = np.cos(gaps) / sin_g
    c_next = 1.0 / sin_g
    arrays = (a, gaps, np.column_stack([np.cos(a), np.sin(a)]), np.mod(a + 0.5 * np.pi, TWO_PI),
              -cot_g - cot_g[prv], c_next, c_next[prv])
    for x in arrays:
        x.setflags(write=False)
    return arrays[1:]


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
    v = np.asarray(h)
    if v.dtype != dtype:
        if v.dtype.kind == "c" and not np.issubdtype(dtype, np.complexfloating):
            raise InvalidInput(f"{what}: support vector must be real, got complex entries")
        v = np.asarray(h, dtype=dtype)
    if v.shape[-1:] != (n,) or v.ndim > 1 + stack:
        raise InvalidInput(f"{what}: expected a support vector of length {n}")
    if not np.isfinite(v).all():
        raise InvalidInput(f"{what}: support vector must be finite")
    return v


#: where h lies against a cone cut out by edge lengths l_e(h) >= 0: ``status``
#: is "interior", "boundary" or "outside", ``edges`` the labels of the
#: degenerate (boundary) or violated (outside) edges
ConeLocation = namedtuple("ConeLocation", ["status", "edges"])


def wall_bound(h, tol):
    """tol |h| for one h, or row by row for an (..., n) stack, as a (..., 1) column.

    The one rule of every cone: an edge length below -bound puts h outside,
    one within bound puts it on a wall.  |h| is sqrt(h . h) rounded as
    ``row_dot``; when a square overflows or underflows, |h| is taken from
    each row scaled to unit size by a power of two (``unit_rows``), which
    gives the same bits wherever the plain square is exact, so the bound
    (finite also where |h| is not) scales with h at any scale.
    """
    try:
        with np.errstate(over="raise", under="raise"):
            return tol * np.sqrt(row_dot(h, h))[..., None]
    except FloatingPointError:
        unit, e = unit_rows(h)
        return np.ldexp(tol * np.sqrt(row_dot(unit, unit)), e)[..., None]


def locate(lengths, h, tol, labels):
    """ConeLocation of h from its edge lengths; edge e is reported as ``labels[e]``.

    Any length below -tol |h| puts h outside, else any length within
    tol |h| puts it on the boundary (``wall_bound``); the listed edges keep
    the order of ``lengths``.
    """
    bound = wall_bound(h, tol)
    edges = np.flatnonzero(lengths < -bound).tolist()
    if edges:
        return ConeLocation("outside", [labels[e] for e in edges])
    edges = np.flatnonzero(lengths <= bound).tolist()
    return ConeLocation("boundary" if edges else "interior", [labels[e] for e in edges])


def sample_cone(lengths, base, rng, size, spread, margin, shrinks, what):
    """A (size, n) stack of random support vectors h = base (1 + s delta) inside a cone,
    near an interior ``base``.

    ``lengths`` maps an (..., n) stack to its (..., E) edge lengths and must be
    linear.  Each row takes one standard-normal delta and keeps the first
    s = spread / 2^j, j < shrinks, at which no edge length is within
    ``wall_bound`` at tolerance ``margin``, else raises ``no_clear_error``.
    The rows are placed by linearity on b, ``base`` scaled to unit size by a
    power of two (exact, so every verdict is the same at any scale and nothing
    overflows), as evaluating each size would place them (a length within
    rounding of the margin can move a row by one size).  The lengths of
    b (1 + s delta) are l(b) + s l(b delta) and |b (1 + s delta)|^2 is
    A + s (2B + sC) from three row dots, so two length evaluations serve
    every size.  A row's reach is its largest all-positive size,
    min l_e(b) / -l_e(b delta) over the edges whose length falls; at or past
    it some length is <= 0, so no size there clears.  Each row starts at the
    first level below its reach and tests its next level until one clears.
    A draw that leaves the floating-point range raises
    ``overflow_error("sample_interior")``.
    """
    delta = rng.standard_normal((size, len(base)))
    levels = spread * 0.5 ** np.arange(shrinks)
    b = unit_scaled(base)[0]
    bd = b * delta
    l0, D = lengths(b), lengths(bd)
    A, B, C = row_dot(b, b), row_dot(b, bd), row_dot(bd, bd)
    with np.errstate(over="ignore"):
        reach = np.divide(l0, -D, out=np.full(D.shape, np.inf), where=D < 0.0)
    first = shrinks - np.searchsorted(levels[::-1], reach.min(axis=1, initial=np.inf))
    pending = np.arange(size)
    while len(pending) and first[pending].max() < shrinks:
        s = levels[first[pending]]
        bound = margin * np.sqrt(A + s * (2.0 * B[pending] + s * C[pending]))
        pending = pending[(l0 + s[:, None] * D[pending] <= bound[:, None]).any(axis=1)]
        first[pending] += 1
    if len(pending):
        raise no_clear_error(what, margin, shrinks)
    return overflow_checked("sample_interior", lambda: base * (1.0 + levels[first, None] * delta))


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

#: eigenvalue sign counts (positive, zero, negative) of a form
Signature = namedtuple("Signature", ["positive", "zero", "negative"])


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
        # halved before the sum, which cannot leave the float range
        self._M = 0.5 * M + 0.5 * M.conj().T
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
        return overflow_checked("q", self._b, v, v)

    def b(self, h, k):
        """Bilinear evaluation b(h, k) = Re h* M k, the polarization of q; row-aligned
        stacks (or a stack and a vector) give one value per row."""
        u = support_vector(h, self.dim, "b", stack=True, dtype=self.dtype)
        v = support_vector(k, self.dim, "b", stack=True, dtype=self.dtype)
        return overflow_checked("b", self._b, u, v)

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
    if np.ndim(b) == 0:     # Python floats: IEEE results, no numpy warning to silence
        b, qh, qk = float(b), float(qh), float(qk)
        residual, scale = b * b - qh * qk, max(b * b, abs(qh * qk))
        near = not residual > EQUALITY_TOL * max(scale, 1e-300)
        witness = _witness(name, residual, scale, h, k, normals) if near else None
        return InequalityResult(residual, scale, witness is not None, *(witness or (None, None)))
    with np.errstate(over="ignore", invalid="ignore"):      # _witness judges such pairs
        bb = np.multiply(b, b)
        qq = np.multiply(qh, qk)
        residual = bb - qq
    scale = np.maximum(bb, abs(qq))
    near = ~(residual > EQUALITY_TOL * np.maximum(scale, 1e-300))
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
    (see ``reversed_cauchy_schwarz_check``).

    The fit runs on h and k scaled to unit size, h 2^-a = h^(x 2^-a) +
    (lambda 2^(c-a)) k 2^-c, so its conditioning does not depend on their
    scales.  A pair whose ``scale`` is 0, subnormal or not finite has lost
    its values to the floating-point range: where it would falsify a
    theorem, it raises DomainError instead.
    """
    if residual < -ROUNDING_TOL * scale:
        raise _falsified(name, scale, f"{name} inequality violated: residual "
                                      f"{residual:.3e} at scale {scale:.3e}")
    (h, a), (k, c) = unit_scaled(h), unit_scaled(k)
    A = np.column_stack([normals, k])
    sol, *_ = np.linalg.lstsq(A, h, rcond=None)
    fit = float(np.linalg.norm(h - A @ sol))
    if fit < WITNESS_TOL * float(np.linalg.norm(h)):
        return np.ldexp(sol[:-1], a), math.ldexp(float(sol[-1]), a - c)
    if residual > ROUNDING_TOL * scale:
        return None
    raise _falsified(name, scale, f"equality case without translate+homothety witness "
                                  f"(fit residual {fit:.3e})")


def _falsified(name, scale, message):
    """InvariantFalsified(message), or DomainError when ``scale`` is out of the normal range."""
    if np.finfo(float).tiny <= scale < np.inf:
        return InvariantFalsified(message)
    return DomainError(f"{name} check: the pair's values leave the floating-point "
                       f"range (scale {scale:.3e})")


def projective_distance(form, h, k, what, lengths=None):
    """arccos r if ``form`` is definite (least eigenvalue > 0: a spherical cell), else
    arccosh r (a hyperbolic cell); r = b(h,k) / sqrt(q(h)q(k)) on h and k scaled to unit
    size (the same r, and no overflow).  Given the edge-length map ``lengths`` of the
    cell, an h or k that is not interior at MEMBERSHIP_TOL (judged on the same unit rows,
    so at any scale) raises DomainError naming ``what``, as a q <= 0 does; r past 1 by
    more than ROUNDING_TOL falsifies Cauchy-Schwarz or Minkowski."""
    rows = unit_rows(np.stack([h, k]))[0]
    if lengths is not None:
        off = (lengths(rows) <= wall_bound(rows, MEMBERSHIP_TOL)).any(axis=1)
        if off.any():
            raise DomainError(f"{what}: {'hk'[int(np.argmax(off))]} is not interior")
    qh, qk, b = overflow_checked(what, form._b, rows[[0, 1, 0]], rows[[0, 1, 1]]).tolist()
    if qh <= 0.0 or qk <= 0.0:
        raise DomainError(f"{what}: needs positive areas")
    r = b / math.sqrt(qh * qk)
    if form.eigenvalues()[0] > 0.0:
        if r > 1.0 + ROUNDING_TOL:
            raise InvariantFalsified(f"normalized pairing {r!r} > 1: Cauchy-Schwarz violated "
                                     "for a positive definite form")
        return math.acos(min(1.0, max(-1.0, r)))
    if r < 1.0 - ROUNDING_TOL:
        raise InvariantFalsified(f"normalized pairing {r!r} < 1: Minkowski inequality violated")
    return float(np.arccosh(max(r, 1.0)))
