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
are computed once per fan; the faces of polytope and Fuchsian fans use the
same ones.

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

from functools import cached_property

import numpy as np

from .errors import ConsistencyError, DomainError, InvalidInput, InvariantFalsified
from .forms import (
    HermitianForm,
    SymmetricForm,
    json_numbers,
    locate,
    reversed_cauchy_schwarz_check,
    sample_cone,
    support_vector,
    unit_scaled,
    wall_masks,
)

TWO_PI = 2.0 * np.pi
MEMBERSHIP_TOL = 1e-12
CLOSURE_TOL = 1e-10
EMBED_AREA_TOL = 1e-12
ARCCOSH_SLACK = 1e-12
SAMPLE_SPREAD = 0.5
SAMPLE_MARGIN = 1e-6
SAMPLE_SHRINKS = 80


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
        a = np.asarray(angles, dtype=float)
        if a.ndim != 1 or len(a) < 3:
            raise InvalidInput("NormalFan2D: need at least 3 normal angles")
        if not np.all(np.isfinite(a)):
            raise InvalidInput("NormalFan2D: angles must be finite")
        if np.any(a < 0.0) or np.any(a >= TWO_PI):
            raise InvalidInput("NormalFan2D: angles must lie in [0, 2*pi)")
        n = len(a)
        gaps = np.mod(np.roll(a, -1) - a, TWO_PI)
        descents = int(np.sum(np.roll(a, -1) < a))
        if descents != 1:
            raise InvalidInput("NormalFan2D: angles must be strictly increasing cyclically")
        if np.any(gaps <= 0.0) or np.any(gaps >= np.pi):
            raise InvalidInput(
                "NormalFan2D: every gap between consecutive normals must lie in (0, pi)")
        total = float(np.sum(gaps))
        if abs(total - TWO_PI) > 1e-9:
            raise InvalidInput(f"NormalFan2D: gaps sum to {total!r}, expected 2*pi")

        self.n = n
        self.angles = a.copy()
        self.angles.setflags(write=False)
        #: turning angle of the boundary between edges i and i+1
        self.gaps = gaps
        self.gaps.setflags(write=False)
        self.normals = np.column_stack([np.cos(a), np.sin(a)])
        self.normals.setflags(write=False)
        #: edge direction angles (counterclockwise boundary orientation)
        self.edge_angles = np.mod(a + 0.5 * np.pi, TWO_PI)
        self.edge_angles.setflags(write=False)
        # l_i(h) = c_self[i] h_i + c_next[i] h_{i+1} + c_prev[i] h_{i-1}
        sin_g = np.sin(gaps)
        cot_g = np.cos(gaps) / sin_g
        self.c_next = 1.0 / sin_g
        self.c_prev = np.roll(self.c_next, 1)
        self.c_self = -cot_g - np.roll(cot_g, 1)
        for c in (self.c_self, self.c_next, self.c_prev):
            c.setflags(write=False)
        self._area_form = None

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
    (boundary) or violated (outside) side indices.
    """
    v = support_vector(h, fan.n, "cone_membership")
    return locate(fan.length_matrix @ v, v, tol, range(fan.n))


def area_form(fan):
    """The area of the polygon as a quadratic form in h: a(h) = h'Mh.

    M = L/2 where L is the edge-length matrix; the symmetry of the raw
    matrix is a theorem and is asserted before symmetrizing.
    """
    if fan._area_form is None:
        fan._area_form = SymmetricForm(0.5 * fan.length_matrix, symmetry_tol=1e-12)
    return fan._area_form


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

    @property
    def interior(self):
        return self.membership.status == "interior"

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

    ``h`` and ``k`` may be row-aligned (S, n) stacks: the result then holds
    arrays (see ``forms.reversed_cauchy_schwarz_check``).  The whole stack
    is checked for membership and positive areas before the inequality, and
    the first failing pair raises the error it would raise alone.
    """
    u = support_vector(h, fan.n, "minkowski_check", stack=True)
    v = support_vector(k, fan.n, "minkowski_check", stack=True)
    if u.shape != v.shape:
        raise InvalidInput(f"minkowski_check: h and k differ in shape, {u.shape} vs {v.shape}")
    rows = np.concatenate([u.reshape(-1, fan.n), v.reshape(-1, fan.n)])
    form = area_form(fan)
    q = form.q(rows).reshape(2, -1)
    outside = wall_masks(_row_lengths(fan, rows), rows, MEMBERSHIP_TOL)[0]
    outside = outside.any(axis=1).reshape(2, -1)
    bad = (outside | (q <= 0.0)).any(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        for name, side in (("h", 0), ("k", 1)):
            if outside[side, i]:
                raise DomainError(f"minkowski_check: {name} lies outside the closed cone")
        raise DomainError(f"minkowski_check: needs positive areas, got {q[0, i]:.3e}, {q[1, i]:.3e}")
    shape = u.shape[:-1]
    return reversed_cauchy_schwarz_check("Minkowski", form.b(u, v), q[0].reshape(shape),
                                         q[1].reshape(shape), u, v, fan.normals)


def hyperbolic_distance(fan, h, k):
    """Distance arccosh( a(h,k) / sqrt(a(h)a(k)) ) between interior rays.

    Well-defined by the Minkowski inequality; zero exactly at homotheties.
    Evaluated on h and k scaled to unit size by powers of two, which leaves
    the ratio's bits unchanged and keeps a(h)a(k) in the floating-point range.
    """
    u = unit_scaled(support_vector(h, fan.n, "hyperbolic_distance"))[0]
    v = unit_scaled(support_vector(k, fan.n, "hyperbolic_distance"))[0]
    for name, w in (("h", u), ("k", v)):
        if cone_membership(fan, w).status != "interior":
            raise DomainError(f"hyperbolic_distance: {name} is not interior")
    form = area_form(fan)
    qh = form.q(u)
    qk = form.q(v)
    if qh <= 0.0 or qk <= 0.0:
        raise DomainError("hyperbolic_distance: needs positive areas")
    arg = form.b(u, v) / np.sqrt(qh * qk)
    if arg < 1.0 - ARCCOSH_SLACK:
        raise InvariantFalsified(
            f"normalized pairing {arg!r} < 1: Minkowski inequality violated")
    return float(np.arccosh(max(arg, 1.0)))


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
    if cone_membership(fan, u).status != "interior":
        raise DomainError("double_chart_embedding: h is not interior")
    lengths = fan.length_matrix @ u
    z = lengths * np.exp(1j * fan.edge_angles)
    znorm = float(np.linalg.norm(z))
    closure = abs(complex(np.sum(z)))
    if closure > CLOSURE_TOL * znorm:
        raise ConsistencyError(
            f"edge vectors do not close up: defect {closure:.3e} vs norm {znorm:.3e}")
    form = shoelace_hermitian_form(fan.n)
    area_z = form.q(z)
    area_h = area_form(fan).q(u)
    if abs(area_z - area_h) > EMBED_AREA_TOL * max(abs(area_z), abs(area_h)):
        raise ConsistencyError(
            f"shoelace area {area_z!r} disagrees with the support-number area {area_h!r}")
    return z, form


# =============================================================================
# SAMPLING
# =============================================================================

def sample_interior(fan, rng, size=None):
    """Random interior support vector near h = 1 (always interior), or a (size, n) stack:
    ``forms.sample_cone`` with base 1, raising DomainError when no size clears
    SAMPLE_MARGIN x |h| (the fan has a side too short for the margin)."""
    return sample_cone(lambda rows: _row_lengths(fan, rows), np.ones(fan.n), rng, size,
                       SAMPLE_SPREAD, SAMPLE_MARGIN, SAMPLE_SHRINKS, "side")
