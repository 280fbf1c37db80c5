"""Deformation space of a convex polygon in support-number coordinates.

A convex polygon with fixed outward edge normals u_0..u_{n-1} (listed
counterclockwise) is described by its support vector h, where h_i is the
signed distance from the origin to the line carrying edge i.  Writing
gamma_i for the angle from u_i to u_{i+1} (so each gamma_i lies in (0, pi)
and they sum to 2 pi), the side lengths are linear in h:

    l_i(h) = (h_{i-1} - h_i cos gamma_{i-1}) / sin gamma_{i-1}
           + (h_{i+1} - h_i cos gamma_i)     / sin gamma_i

The coefficients of this cyclic tridiagonal rule, c_self = -cot gamma_i
- cot gamma_{i-1}, c_next = 1 / sin gamma_i and c_prev = 1 / sin gamma_{i-1},
are computed once per fan by ``forms.fan_arrays``, the rule that the face
assembly of polytope and Fuchsian fans (``mixedform.faces``) applies to all
their faces' angles at once.

The set { h : l_i(h) > 0 for all i } is an open convex polyhedral cone --
the deformation space of the polygon.  ``cone_membership`` places h
against it with ``forms.locate``, the classifier that polytope and Fuchsian
fans share.  The area is the quadratic form a(h) = (1/2) sum h_i l_i(h);
its polarization a(h, k) = (1/2) sum h_i l_i(k) is symmetric, has
signature (1, 2, n-3) (the kernel is spanned by the support vectors of
points, i.e. translations), and satisfies the Minkowski inequality
a(h,k)^2 >= a(h)a(k) on the cone, with equality exactly at translate +
homothety pairs h = h^x + lambda k.

The chart embedding realizes an interior h as the complex edge-vector list
z_i = l_i(h) e^{i psi_i} (psi_i = normal angle + pi/2); the closure
sum z_i = 0 holds and the shoelace Hermitian form returns the area.
"""

import math
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, DomainError, InvalidInput
from .forms import (MEMBERSHIP_TOL, TWO_PI, HermitianForm, SymmetricForm, fan_arrays, json_numbers,
                    locate, no_clear_error, overflow_checked, overflow_error, projective_distance,
                    reversed_cauchy_schwarz_check, row_dot, sample_cone, support_vector,
                    unit_scaled, wall_bound)

CLOSURE_TOL = 1e-10
EMBED_AREA_TOL = 1e-12
SAMPLE_SPREAD = 0.5
SAMPLE_MARGIN = 1e-6
SAMPLE_SHRINKS = 80
#: sizes one pass of a single draw tries at once: a pass costs about as much as one
#: size, and a draw on a perturbed 12-gon (48-gon) settles after 3-5 (8-10) sizes
SAMPLE_LEVELS_PER_PASS = 6
_SAMPLE_SIZES = SAMPLE_SPREAD * 0.5 ** np.arange(SAMPLE_SHRINKS)


# =============================================================================
# NORMAL FAN
# =============================================================================

class NormalFan2D:
    """Cyclic list of outward unit normal directions of a convex polygon.

    ``angles`` are radians in [0, 2 pi), strictly increasing cyclically
    (exactly one wrap-around descent).  Consecutive gaps -- the turning
    angles of the polygon boundary -- must lie strictly in (0, pi); a gap
    of pi would mean parallel consecutive edges.
    """

    def __init__(self, angles):
        a = np.array(angles, dtype=float)
        if a.ndim != 1:
            raise InvalidInput("NormalFan2D: need at least 3 normal angles")
        self.n = len(a)
        self.angles = a
        #: turning angle of the boundary between edges i and i+1 (``gaps``), unit
        #: normals, edge direction angles (counterclockwise boundary orientation) and
        #: l_i(h) = c_self[i] h_i + c_next[i] h_{i+1} + c_prev[i] h_{i-1}
        (self.gaps, self.normals, self.edge_angles,
         self.c_self, self.c_next, self.c_prev) = fan_arrays(a, np.array([len(a)]))

    @classmethod
    def from_degrees(cls, degrees):
        return cls(np.deg2rad(np.asarray(degrees, dtype=float)))

    @classmethod
    def regular(cls, n, offset=0.0):
        """Fan of the regular n-gon (normals evenly spaced, rotated by offset)."""
        return cls(np.mod(offset + TWO_PI * np.arange(n) / n, TWO_PI))

    @cached_property
    def length_matrix(self):
        """Matrix L with (L h)_i = l_i(h), assembled from c_self, c_next and c_prev;
        symmetric, since c_prev[i + 1] = c_next[i]."""
        n = self.n
        k = np.arange(n)
        L = np.zeros((n, n))
        L[k, k] = self.c_self
        L[k, (k + 1) % n] = self.c_next
        L[k, (k - 1) % n] = self.c_prev
        L.setflags(write=False)
        return L

    @cached_property
    def area_form(self):
        return SymmetricForm(0.5 * self.length_matrix, symmetry_tol=1e-12)


# =============================================================================
# SUPPORT GEOMETRY
# =============================================================================

def edge_lengths(fan, h):
    """Side lengths l_i(h); linear in h, negative values allowed."""
    return fan.length_matrix @ support_vector(h, fan.n, "edge_lengths")


def _row_lengths(fan, rows):
    """l(h) for each row h of a stack (or for one h), rounded as ``fan.length_matrix @ h``."""
    return (fan.length_matrix @ np.ascontiguousarray(rows)[..., :, None])[..., 0]


def cone_membership(fan, h, tol=MEMBERSHIP_TOL):
    """Classify h against the deformation cone by the signs of l_i(h).

    Returns ``forms.locate``'s ConeLocation(status, edges), status one of
    "interior", "boundary", "outside"; edges lists the degenerate
    (boundary) or violated (outside) side indices.  h is scaled to unit size
    by a power of two first: exact, so the verdict holds at any scale.
    """
    v = unit_scaled(support_vector(h, fan.n, "cone_membership"))[0]
    return locate(fan.length_matrix @ v, v, tol, range(fan.n))


def area_form(fan):
    """The area of the polygon as a quadratic form in h: a(h) = h'Mh.

    M = L/2 where L is the edge-length matrix; the symmetry of the raw
    matrix is a theorem and is asserted before symmetrizing.
    """
    return fan.area_form


def point_support_vector(fan, x):
    """Support vector h^x of the single point x: h^x_i = <x, u_i>."""
    p = np.asarray(x, dtype=float)
    if p.shape != (2,):
        raise InvalidInput("point_support_vector: x must be a point in the plane")
    return fan.normals @ p


def vertices(fan, h):
    """Polygon vertices: vertex i is the meet of support lines i and i+1."""
    v = support_vector(h, fan.n, "vertices")
    c = fan.normals[:, 0]
    s = fan.normals[:, 1]
    cn = np.roll(c, -1)
    sn = np.roll(s, -1)
    hn = np.roll(v, -1)
    det = np.sin(fan.gaps)
    x = (v * sn - hn * s) / det
    y = (hn * c - v * cn) / det
    return np.column_stack([x, y])


class PolygonSupport:
    """A fan together with a support vector in (the closure of) its cone."""

    def __init__(self, fan, h):
        self.fan = fan
        self.h = support_vector(h, fan.n, "PolygonSupport")
        self.membership = cone_membership(fan, self.h)
        if self.membership.status == "outside":
            raise DomainError(
                f"support vector lies outside the cone: negative sides {self.membership.edges}")

    @classmethod
    def from_json_dict(cls, data):
        try:
            normals_deg = data["normals_deg"]
            h = data["h"]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"polygon JSON needs 'normals_deg' and 'h': {exc}") from exc
        return cls(NormalFan2D.from_degrees(json_numbers(normals_deg, "polygon JSON normals_deg")),
                   json_numbers(h, "polygon JSON h"))


# =============================================================================
# MINKOWSKI INEQUALITY
# =============================================================================

def minkowski_check(fan, h, k):
    """Verify a(h,k)^2 >= a(h)a(k) and detect the equality case.

    Both vectors must lie in the closed cone with positive area.  When the
    residual vanishes (relative to scale), the translate + homothety witness
    h = h^x + lambda k is recovered by least squares; an equality without a
    witness would falsify the equality-case theorem and raises.

    One pair reads its q(h), q(k) and b(h, k) as Python floats, and a pair that
    fails a check raises, in this order: q overflow, h then k outside, a
    non-positive area, b overflow.  ``h`` and ``k`` may be row-aligned (S, n)
    stacks: the result then holds arrays (see
    ``forms.reversed_cauchy_schwarz_check``), and the first failing pair raises the
    error it would raise alone.
    """
    u = support_vector(h, fan.n, "minkowski_check", stack=True)
    v = support_vector(k, fan.n, "minkowski_check", stack=True)
    if u.shape != v.shape:
        raise InvalidInput(f"minkowski_check: h and k differ in shape, {u.shape} vs {v.shape}")
    form = area_form(fan)
    join = np.array if u.ndim == 1 else np.concatenate
    left, right = join([u, v, u]), join([u, v, v])
    rows = left[:len(left) * 2 // 3]        # h and k
    # b on (h, k, h) and (h, k, k) is q(h), q(k), b(h, k); see ``forms.overflow_checked``
    with np.errstate(over="ignore", invalid="ignore"):
        values = form._b(left, right).reshape(3, -1)
        outside = (_row_lengths(fan, rows) < -wall_bound(rows, MEMBERSHIP_TOL)).any(axis=1)
    if u.ndim > 1:
        good = (np.isfinite(values).all(axis=0) & (values[:2] > 0.0).all(axis=0)
                & ~outside.reshape(2, -1).any(axis=0))
        if not good.all():
            i = int(good.argmin())
            minkowski_check(fan, u[i], v[i])        # raises: pair i fails the same checks
            raise ConsistencyError(f"minkowski_check: pair {i} fails in its stack, not alone")
        qh, qk, b = values
        return reversed_cauchy_schwarz_check("Minkowski", b, qh, qk, u, v, fan.normals)
    qh, qk, b = values.ravel().tolist()
    if 0.0 < qh < math.inf and 0.0 < qk < math.inf and math.isfinite(b) and not outside.any():
        return reversed_cauchy_schwarz_check("Minkowski", b, qh, qk, u, v, fan.normals)
    if not (math.isfinite(qh) and math.isfinite(qk)):
        raise overflow_error("q")
    for name, out in zip("hk", outside.tolist()):
        if out:
            raise DomainError(f"minkowski_check: {name} lies outside the closed cone")
    if not (qh > 0.0 and qk > 0.0):
        # an area that is positive at unit size has only left the float range
        lost = any(form.q(unit_scaled(w)[0]) > 0.0 for w, q in ((u, qh), (v, qk)) if q <= 0.0)
        why = "the pair's values leave the floating-point range" if lost else "needs positive areas"
        raise DomainError(f"minkowski_check: {why}, got {qh:.3e}, {qk:.3e}")
    raise overflow_error("b")


def hyperbolic_distance(fan, h, k):
    """arccosh( a(h,k) / sqrt(a(h)a(k)) ) between interior rays (``forms.projective_distance``)."""
    u = support_vector(h, fan.n, "hyperbolic_distance")
    v = support_vector(k, fan.n, "hyperbolic_distance")
    return projective_distance(area_form(fan), u, v, "hyperbolic_distance",
                               lambda rows: _row_lengths(fan, rows))


# =============================================================================
# CHART EMBEDDING
# =============================================================================

def shoelace_hermitian_form(n):
    """Hermitian matrix of the shoelace area (1/2) Im sum_{j<k} conj(z_j) z_k."""
    if n < 3:
        raise InvalidInput("shoelace_hermitian_form: need n >= 3")
    U = np.triu(np.ones((n, n)), 1)
    return HermitianForm(0.25j * (U.T - U))


def double_chart_embedding(fan, h):
    """Complex edge vectors z_i = l_i(h) e^{i psi_i} plus the shoelace form.

    Returns (z, form).  Checks the closure sum z_i = 0 and that the
    Hermitian area of z reproduces the polygon area a(h); the double of the
    polygon (two copies glued along the boundary) has total area 2 a(h).
    """
    u = support_vector(h, fan.n, "double_chart_embedding")
    lengths = overflow_checked("double_chart_embedding", np.matmul, fan.length_matrix, u)
    if locate(lengths, u, MEMBERSHIP_TOL, range(fan.n)).status != "interior":
        raise DomainError("double_chart_embedding: h is not interior")
    turn = np.exp(1j * fan.edge_angles)
    z = lengths * turn
    # the closure defect against |z|, both on z scaled to unit size by a power
    # of two: exact, and neither squares nor sums leave the float range
    unit, e = unit_scaled(lengths)
    z_unit = unit * turn
    znorm = float(np.linalg.norm(z_unit))
    closure = abs(complex(np.sum(z_unit)))
    if closure > CLOSURE_TOL * znorm:
        raise ConsistencyError(f"edge vectors do not close up: defect "
                               f"{math.ldexp(closure, e):.3e} vs norm {math.ldexp(znorm, e):.3e}")
    form = shoelace_hermitian_form(fan.n)
    area_z = overflow_checked("q", form._b, z, z)
    area_h = overflow_checked("q", area_form(fan)._b, u, u)
    if abs(area_z - area_h) > EMBED_AREA_TOL * max(abs(area_z), abs(area_h)):
        raise ConsistencyError(
            f"shoelace area {area_z!r} disagrees with the support-number area {area_h!r}")
    return z, form


# =============================================================================
# SAMPLING
# =============================================================================

def sample_interior(fan, rng, size=None):
    """Random interior support vector near h = 1 (always interior), or a (size, n) stack
    (``forms.sample_cone`` with base 1); DomainError when no size clears
    SAMPLE_MARGIN x |h| (the fan has a side too short for the margin).

    One draw h = 1 + s delta tries SAMPLE_LEVELS_PER_PASS sizes s a pass and keeps the
    first that clears, testing margin |h| with no guard: an entry of 1 + s delta is 0
    or at least 2^-53 in magnitude (exact, by Sterbenz, where s delta is near -1) and,
    s <= 1/2, at most about 5, so |h|^2 stays in range and the bound has
    ``wall_bound``'s bits.
    """
    if size is not None:
        return sample_cone(lambda rows: _row_lengths(fan, rows), np.ones(fan.n), rng, size,
                           SAMPLE_SPREAD, SAMPLE_MARGIN, SAMPLE_SHRINKS, "side")
    delta = rng.standard_normal(fan.n)
    for start in range(0, SAMPLE_SHRINKS, SAMPLE_LEVELS_PER_PASS):
        h = 1.0 + _SAMPLE_SIZES[start:start + SAMPLE_LEVELS_PER_PASS, None] * delta
        hit = (_row_lengths(fan, h) <= SAMPLE_MARGIN * np.sqrt(row_dot(h, h))[:, None]).any(axis=1)
        first = int(hit.argmin())
        if not hit[first]:
            return h[first]
    raise no_clear_error("side", SAMPLE_MARGIN, SAMPLE_SHRINKS)
