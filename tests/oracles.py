"""Independent references that only the tests use.

``polarize_cubic`` rebuilds the dense symmetric trilinear form of a cubic
evaluator by inclusion-exclusion on basis vectors,

    6 v(h,k,p) = v(h+k+p) + v(h) + v(k) + v(p) - v(h+k) - v(k+p) - v(h+p),

so it shares no code with the face-local mixed forms of ``mixedform.faces``.
``abc_lemma_residuals`` gives the three scalars of the quadratic-in-lambda
three-body argument behind the discriminant bound B^2 <= A C.
"""

import numpy as np

from mixedform.errors import InvalidInput, MixedFormError
from mixedform.forms import TrilinearForm, support_vector

HOMOGENEITY_SAMPLES = 16
HOMOGENEITY_FACTORS = (0.5, 2.0)
HOMOGENEITY_TOL = 1e-8
POLARIZE_CHECK_TOL = 1e-10


class ContractViolation(MixedFormError):
    """A caller-supplied callable broke its contract (e.g. not homogeneous)."""


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
