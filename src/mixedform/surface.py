"""Flat metrics with conical singularities as glued Euclidean triangles.

A surface is a finite collection of Euclidean triangles, each given by its
three side lengths, together with a gluing: a fixed-point-free involution
pairing the 3T directed sides so that paired sides have equal length.  The
pairing convention is antiparallel -- the start of one side is identified
with the end of its partner -- so a consistent global orientation exists by
construction and the quotient is a closed oriented surface.

Sides of triangle t are numbered 0,1,2; side e runs from corner e to
corner (e+1) mod 3.  Rotating around a vertex: from corner (t, c), cross
the incoming side (t, (c+2) mod 3); the glued slot is the next corner.
Orbits of that permutation are the vertices; the cone angle at a vertex is
the sum of its corner angles and the curvature is k = 2 pi - angle.  The
discrete Gauss-Bonnet formula sum k_i = 2 pi (2 - 2g) ties the curvatures
to the genus from V - E + F.

One rule, Kahan's Heron formula (``_four_areas``), tells whether three lengths
form a triangle and gives the areas.  A flip develops the two triangles at an
interior edge into the plane, their apexes at heights 2 area / L off the edge,
and exchanges the diagonal when the other diagonal crosses the edge strictly
inside it (a strictly convex quadrilateral): the triangulation changes, the
metric does not.
"""

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    FlipNotAdmissible,
    InvalidInput,
    StructuralError,
)
from .forms import as_index, json_numbers, overflow_checked, row_dot, unit_rows, unit_scaled

GLUED_LENGTH_TOL = 1e-12
SINGULAR_TOL = 1e-8
GAUSS_BONNET_TOL = 1e-6
CONVEXITY_TOL = 1e-12      # a flip's crossing keeps this times L off both ends of the edge


def _four_areas(rows):
    """4 x the area of each row of side lengths: Kahan's needle-safe Heron formula on the
    sorted sides a >= b >= c.  On rows scaled to unit size it is positive exactly where
    a row meets the strict triangle inequality (c - (a-b) has the exact sign), else 0 or NaN."""
    c, b, a = np.sort(rows, axis=1).T
    with np.errstate(invalid="ignore"):
        return np.sqrt((a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c)))


# =============================================================================
# MESH
# =============================================================================

class TriangleMesh:
    """Closed oriented surface built from metric triangles.

    Parameters
    ----------
    lengths : (T, 3) array-like of positive side lengths
    gluing : iterable of (t, e, t2, e2) slot pairs covering every side once
    corner_labels : optional dict (t, c) -> hashable, carried along for
        bookkeeping (e.g. which polytope vertex a corner came from)
    """

    def __init__(self, lengths, gluing, corner_labels=None):
        L = np.asarray(lengths, dtype=float)
        if L.ndim != 2 or L.shape[1] != 3 or L.shape[0] < 1:
            raise InvalidInput(f"TriangleMesh: lengths must be (T, 3), got {L.shape}")
        if not np.all(np.isfinite(L)) or np.any(L <= 0.0):
            raise InvalidInput("TriangleMesh: side lengths must be finite and positive")
        T = L.shape[0]
        bad = np.flatnonzero(~(_four_areas(unit_rows(L)[0]) > 0.0))
        if bad.size:
            raise InvalidInput(f"TriangleMesh: triangle {bad[0]} violates the strict "
                               f"triangle inequality: {L[bad[0]].tolist()}")

        sigma = {}
        for row in gluing:
            t, e, t2, e2 = (as_index(x, "TriangleMesh: gluing") for x in row)
            for tt, ee in ((t, e), (t2, e2)):
                if not (0 <= tt < T and 0 <= ee < 3):
                    raise InvalidInput(f"TriangleMesh: gluing refers to missing slot ({tt},{ee})")
            if (t, e) == (t2, e2):
                raise StructuralError(f"TriangleMesh: side ({t},{e}) glued to itself")
            for slot in ((t, e), (t2, e2)):
                if slot in sigma:
                    raise StructuralError(f"TriangleMesh: side {slot} glued twice (non-manifold)")
            sigma[(t, e)] = (t2, e2)
            sigma[(t2, e2)] = (t, e)
            l1, l2 = L[t, e], L[t2, e2]
            if abs(l1 - l2) > GLUED_LENGTH_TOL * max(l1, l2):
                raise ConsistencyError(
                    f"TriangleMesh: glued sides ({t},{e}) and ({t2},{e2}) have "
                    f"different lengths {l1!r} vs {l2!r}")
        if len(sigma) != 3 * T:
            missing = [(t, e) for t in range(T) for e in range(3) if (t, e) not in sigma]
            raise StructuralError(f"TriangleMesh: unglued sides (boundary): {missing[:8]}")

        self.lengths = L
        self.lengths.setflags(write=False)
        self.sigma = sigma
        self.corner_labels = dict(corner_labels) if corner_labels else {}
        self._check_connected()
        self.vertex_orbits = self._compute_orbits()

    @property
    def num_triangles(self):
        return self.lengths.shape[0]

    def _check_connected(self):
        T = self.num_triangles
        seen = {0}
        stack = [0]
        while stack:
            t = stack.pop()
            for e in range(3):
                t2, _ = self.sigma[(t, e)]
                if t2 not in seen:
                    seen.add(t2)
                    stack.append(t2)
        if len(seen) != T:
            raise StructuralError(f"TriangleMesh: surface is not connected "
                                  f"({len(seen)} of {T} triangles reachable)")

    def _compute_orbits(self):
        """Vertex orbits of the corner rotation (t,c) -> sigma(t, (c+2)%3)."""
        orbits = []
        seen = set()
        for t in range(self.num_triangles):
            for c in range(3):
                if (t, c) in seen:
                    continue
                orbit = []
                cur = (t, c)
                while cur not in seen:
                    seen.add(cur)
                    orbit.append(cur)
                    cur = self.sigma[(cur[0], (cur[1] + 2) % 3)]
                orbits.append(orbit)
        return orbits

    @cached_property
    def corner_angles(self):
        """(T, 3) interior angles, [t, c] at corner c of triangle t: the law of
        cosines on each row scaled to unit size, then ``math.acos`` of the
        cosine clamped to [-1, 1]."""
        U = unit_rows(self.lengths)[0]
        # at corner c: sides c and c + 2 meet, side c + 1 is opposite
        A, B, C = U, np.roll(U, 1, axis=1), np.roll(U, -1, axis=1)
        cos = np.clip((A * A + B * B - C * C) / (2.0 * A * B), -1.0, 1.0)
        angles = np.array([math.acos(x) for x in cos.ravel().tolist()]).reshape(-1, 3)
        angles.setflags(write=False)
        return angles

    def orbit_labels(self):
        """Per-vertex set of corner labels (empty set when unlabeled)."""
        return [{self.corner_labels[c] for c in orbit if c in self.corner_labels}
                for orbit in self.vertex_orbits]

    def to_json_dict(self):
        pairs = sorted({tuple(sorted([slot, partner]))
                        for slot, partner in self.sigma.items()})
        return {
            "triangles": [{"lengths": row.tolist()} for row in self.lengths],
            "gluing": [[a[0], a[1], b[0], b[1]] for a, b in pairs],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            lengths = [tri["lengths"] for tri in data["triangles"]]
            gluing = data["gluing"]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"mesh JSON needs 'triangles' and 'gluing': {exc}") from exc
        return cls(json_numbers(lengths, "mesh JSON lengths"), gluing)


def mesh_from_indexed_triangles(points, triangles):
    """Mesh from vertex coordinates and consistently oriented index triples.

    Each directed edge (i, j) must occur exactly once and be matched by
    (j, i) in another triangle; side lengths come from the coordinates.
    Corners are labeled by their point index.
    """
    P = np.asarray(points, dtype=float)
    tris = [tuple(int(i) for i in tri) for tri in triangles]
    directed = {}
    for t, (i, j, k) in enumerate(tris):
        for e, (a, b) in enumerate(((i, j), (j, k), (k, i))):
            if (a, b) in directed:
                raise StructuralError(
                    f"directed edge {(a, b)} appears twice: orientations are inconsistent")
            directed[(a, b)] = (t, e)
    gluing = []
    for (a, b), (t, e) in directed.items():
        if a < b:
            if (b, a) not in directed:
                raise StructuralError(f"edge {(a, b)} has no partner (boundary edge)")
            t2, e2 = directed[(b, a)]
            gluing.append((t, e, t2, e2))
    # measured on the points scaled by a power of two into [-1, 1] (exact), then scaled back
    P, exp2 = unit_scaled(P)
    corners = np.array(tris, dtype=int).reshape(-1, 3)
    sides = P[np.roll(corners, -1, axis=1)] - P[corners]      # side e: corner e to e + 1
    lengths = overflow_checked("mesh_from_indexed_triangles", np.ldexp,
                               np.sqrt(row_dot(sides, sides)), exp2)
    labels = {(t, c): tris[t][c] for t in range(len(tris)) for c in range(3)}
    return TriangleMesh(lengths, gluing, corner_labels=labels)


# =============================================================================
# CONE DATA
# =============================================================================

#: cone angles and curvatures per vertex, genus, singularity count, Gauss-Bonnet defect
ConeData = namedtuple("ConeData", ["cone_angles", "curvatures", "genus", "n_singular",
                                   "gauss_bonnet_defect"])


def cone_data(mesh):
    """Cone angles, curvatures, genus and the Gauss-Bonnet defect.

    Vertices are the orbits of ``mesh.vertex_orbits`` (in that order).
    Raises a consistency error when |sum k_i - 2 pi (2 - 2g)| > 1e-6,
    which signals corrupted input data.
    """
    corners = mesh.corner_angles.tolist()
    angles = np.array([sum(corners[t][c] for t, c in orbit) for orbit in mesh.vertex_orbits])
    curvatures = 2.0 * np.pi - angles

    V = len(mesh.vertex_orbits)
    T = mesh.num_triangles
    E2 = 3 * T  # directed sides; E = 3T/2
    if E2 % 2:
        raise StructuralError("odd number of directed sides")
    chi = V - E2 // 2 + T
    if chi % 2:
        raise StructuralError(f"Euler characteristic {chi} is odd: not a closed surface")
    genus = (2 - chi) // 2
    if genus < 0:
        raise StructuralError(f"negative genus from Euler characteristic {chi}")

    defect = abs(float(curvatures.sum()) - 2.0 * np.pi * chi)
    if defect > GAUSS_BONNET_TOL:
        raise ConsistencyError(
            f"Gauss-Bonnet defect {defect:.3e} exceeds {GAUSS_BONNET_TOL}: corrupted mesh data")
    n_singular = int(np.sum(np.abs(angles - 2.0 * np.pi) > SINGULAR_TOL))
    return ConeData(angles, curvatures, genus, n_singular, defect)


def total_area(mesh):
    """Sum of the triangle areas, each from ``_four_areas`` on its row scaled to unit size."""
    unit, k = unit_rows(mesh.lengths)
    with np.errstate(over="ignore"):
        areas = np.ldexp(0.25 * _four_areas(unit), 2 * k)
    big = np.flatnonzero(np.isinf(areas))
    if big.size:
        raise DomainError(f"triangle {big[0]}: the area overflows the floating-point range")
    return sum(areas.tolist())


# =============================================================================
# FLIP
# =============================================================================

def flip(mesh, interior_edge):
    """Exchange the diagonal of the developed quadrilateral at an edge.

    ``interior_edge`` is a slot (t, e); the edge's two triangles must be
    distinct, and the diagonal from triangle t's apex C = (x, y) to its
    partner's C2 = (x2, -y2) must cross the edge from a = (0, 0) to b = (L, 0)
    strictly inside it, and both new triangles must meet the strict triangle
    inequality at unit scale.  Returns a new mesh with the same metric.
    """
    t, e = (as_index(x, "flip: slot") for x in interior_edge)
    if (t, e) not in mesh.sigma:
        raise InvalidInput(f"flip: no side ({t},{e}) in the mesh")
    t2, e2 = mesh.sigma[(t, e)]
    if t2 == t:
        raise FlipNotAdmissible(
            f"flip: both sides of the edge lie in triangle {t}; no quadrilateral to flip")

    # L, |C - a|, |C - b|, |C2 - a|, |C2 - b|, scaled by 2**-k to unit size; y = 2 area / L
    unit, k = unit_scaled(mesh.lengths[[t, t, t, t2, t2], [
        e, (e + 2) % 3, (e + 1) % 3, (e2 + 1) % 3, (e2 + 2) % 3]])
    L, dA, dB, dA2, dB2 = unit.tolist()
    y, y2 = (_four_areas(unit[[[0, 1, 2], [0, 3, 4]]]) / (2.0 * L)).tolist()
    x = (L * L + dA * dA - dB * dB) / (2.0 * L)
    x2 = (L * L + dA2 * dA2 - dB2 * dB2) / (2.0 * L)
    if not CONVEXITY_TOL * L < (x * y2 + x2 * y) / (y + y2) < (1.0 - CONVEXITY_TOL) * L:
        raise FlipNotAdmissible(
            "flip: the other diagonal does not cross the edge strictly inside it")

    d = math.hypot(x - x2, y + y2)
    if not (_four_areas(np.array([[dA2, d, dA], [dB2, dB, d]])) > 0.0).all():
        raise FlipNotAdmissible("flip: a new triangle violates the strict triangle inequality")
    d_new = overflow_checked("flip", np.ldexp, d, k)
    new_lengths = mesh.lengths.copy()
    # triangle (a, C2, C) replaces t; triangle (C2, b, C) replaces t2
    new_lengths[t] = [mesh.lengths[t2, (e2 + 1) % 3], d_new, mesh.lengths[t, (e + 2) % 3]]
    new_lengths[t2] = [mesh.lengths[t2, (e2 + 2) % 3], mesh.lengths[t, (e + 1) % 3], d_new]

    slot_map = {
        (t2, (e2 + 1) % 3): (t, 0),
        (t, (e + 2) % 3): (t, 2),
        (t2, (e2 + 2) % 3): (t2, 0),
        (t, (e + 1) % 3): (t2, 1),
    }
    # every other gluing once, its slots renamed; the new diagonal joins (t, 1) and (t2, 2)
    gluing = [[*slot_map.get(s, s), *slot_map.get(p, p)] for s, p in mesh.sigma.items()
              if s < p and s not in ((t, e), (t2, e2))]
    gluing.append([t, 1, t2, 2])
    return TriangleMesh(new_lengths, gluing)
