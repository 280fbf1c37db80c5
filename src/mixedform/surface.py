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

A flip develops the two triangles at an interior edge into the plane and,
when they form a strictly convex quadrilateral, exchanges the diagonal.
This changes the triangulation but not the metric.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    FlipNotAdmissible,
    InvalidInput,
    StructuralError,
)
from .forms import as_index, json_numbers, unit_scaled

GLUED_LENGTH_TOL = 1e-12
SINGULAR_TOL = 1e-8
GAUSS_BONNET_TOL = 1e-6
CONVEXITY_TOL = 1e-12


def _scaled(values):
    """``values`` times 2**-k, and k, for the k that brings the largest into [0.5, 1).

    Scaling by a power of two is exact, so lengths of any finite scale can be
    squared without overflow or underflow and give the same bits.
    """
    k = math.frexp(max(values))[1]
    return [math.ldexp(x, -k) for x in values], k


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
        for t in range(T):
            a, b, c = L[t]
            if a + b <= c or b + c <= a or c + a <= b:
                raise InvalidInput(f"TriangleMesh: triangle {t} violates the strict "
                                   f"triangle inequality: {L[t].tolist()}")

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

    def corner_angle(self, t, c):
        """Interior angle at corner c of triangle t (law of cosines, clamped)."""
        row, _ = _scaled(self.lengths[t].tolist())
        A, B, C = row[c], row[(c + 2) % 3], row[(c + 1) % 3]
        cos = (A * A + B * B - C * C) / (2.0 * A * B)
        return math.acos(min(1.0, max(-1.0, cos)))

    def triangle_area(self, t):
        (a, b, c), k = _scaled(self.lengths[t].tolist())
        s = 0.5 * (a + b + c)
        try:
            return math.ldexp(math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0)), 2 * k)
        except OverflowError:
            raise DomainError(f"triangle {t}: the area overflows the floating-point "
                              "range") from None

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
    lengths = [[math.ldexp(float(np.linalg.norm(P[b] - P[a])), exp2)
                for a, b in ((i, j), (j, k), (k, i))] for (i, j, k) in tris]
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
    angles = []
    for orbit in mesh.vertex_orbits:
        angles.append(sum(mesh.corner_angle(t, c) for t, c in orbit))
    angles = np.array(angles)
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
    """Sum of the triangle areas (Heron)."""
    return sum(mesh.triangle_area(t) for t in range(mesh.num_triangles))


# =============================================================================
# FLIP
# =============================================================================

def _develop_quad(mesh, t, e):
    """Develop the two triangles at slot (t, e) into the plane, scaled by 2**-k.

    Returns (a, b, C, C2, k): the common edge from a=(0,0) to b=(L,0), the
    apex C of triangle t above the axis and the apex C2 of its partner
    below, all in units of 2**k, which brings the longest side into [0.5, 1).
    """
    t2, e2 = mesh.sigma[(t, e)]
    # L, |C - a|, |C - b|, |C2 - a|, |C2 - b|
    (L, dA, dB, dA2, dB2), k = _scaled(mesh.lengths[[t, t, t, t2, t2], [
        e, (e + 2) % 3, (e + 1) % 3, (e2 + 1) % 3, (e2 + 2) % 3]].tolist())
    x = (L * L + dA * dA - dB * dB) / (2.0 * L)
    y2 = dA * dA - x * x
    C = np.array([x, math.sqrt(max(y2, 0.0))])
    x2 = (L * L + dA2 * dA2 - dB2 * dB2) / (2.0 * L)
    y22 = dA2 * dA2 - x2 * x2
    C2 = np.array([x2, -math.sqrt(max(y22, 0.0))])
    return np.array([0.0, 0.0]), np.array([L, 0.0]), C, C2, k


def flip(mesh, interior_edge):
    """Exchange the diagonal of the developed quadrilateral at an edge.

    ``interior_edge`` is a slot (t, e); the edge's two triangles must be
    distinct and develop onto a strictly convex quadrilateral.  Returns a
    new mesh with the same metric.
    """
    t, e = (as_index(x, "flip: slot") for x in interior_edge)
    if (t, e) not in mesh.sigma:
        raise InvalidInput(f"flip: no side ({t},{e}) in the mesh")
    t2, e2 = mesh.sigma[(t, e)]
    if t2 == t:
        raise FlipNotAdmissible(
            f"flip: both sides of the edge lie in triangle {t}; no quadrilateral to flip")

    a, b, C, C2, k = _develop_quad(mesh, t, e)
    quad = [a, C2, b, C]
    scale = math.ldexp(max(float(np.max(mesh.lengths[t])), float(np.max(mesh.lengths[t2]))), -k)
    for i in range(4):
        p, q, r = quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4]
        cross = (q[0] - p[0]) * (r[1] - q[1]) - (q[1] - p[1]) * (r[0] - q[0])
        if cross <= CONVEXITY_TOL * scale * scale:
            raise FlipNotAdmissible(
                f"flip: developed quadrilateral is not strictly convex at corner {i}")

    d_new = math.ldexp(float(np.linalg.norm(C - C2)), k)
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
