"""Deformation space of a convex 3-polytope in support-number coordinates.

A polytope class is fixed by its m outward unit face normals; a member of
the class is the halfspace intersection { x : <x, u_i> <= h_i }.  The
combinatorics (vertices, face cycles, adjacency) are computed from a
reference h as the facets of the convex hull of the dual points
u_i / (h_i - <u_i, x0>) around an interior point x0 (``_hull``, one
beneath-beyond pass over the points in numpy, farthest first), with
tolerances relative to the inradius.  Boundedness and x0 each need one
facet of a hull only, and ``_walk`` grows a hull toward that facet alone,
by the same insertion step (``_step``).  Both see h / max|h|, so the
construction works at any support scale.  The Gauss image -- the
tessellation of the unit sphere whose cell at a polytope vertex collects
the normals of its faces -- is built alongside and must tile the full
sphere.  Past the hull, every stage of the construction (vertex merge,
face cycles and neighbors, Gauss cells) is one numpy pass over all faces,
vertices or edges.

Within a face i, the neighbors j induce a 2D normal fan; the in-plane
support numbers are linear in h:

    h_ij = (h_j - h_i cos phi_ij) / sin phi_ij,   phi_ij = angle(u_i, u_j),

measured from the orthogonal projection of the origin onto the face plane.
Stacking these per-face maps S_i (h_{i.} = S_i h) against the polygon area
matrices A_i gives

    volume v(h)   = (1/3) sum_i h_i * a_i(h_{i.})          (cubic in h)
    area          = sum_i a_i(h_{i.}) = 3 v(1, h, h)       (quadratic in h)

Both sums, the edge lengths and the mixed volume are evaluated face by
face over the directed edges (``mixedform.faces``); no m x m x m tensor
is formed.

The symmetric trilinear mixed volume v(h,k,p) satisfies the
Alexandrov-Fenchel inequality v(h,k,p)^2 >= v(h,h,p) v(k,k,p), with
equality (p interior) exactly at translate + homothety pairs h = h^x + l k.
The boundary area form has Lorentzian-type signature (1, 3, m-4); its
kernel is the translation space spanned by the h^x.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    InvalidInput,
    RedundancyError,
    StructuralError,
    UnboundedRegionError,
)
from .faces import FaceAssembly
from .forms import (MEMBERSHIP_TOL, SymmetricForm, as_index, cyclic_runs, fan_triangles,
                    json_numbers, locate, overflow_checked, reversed_cauchy_schwarz_check,
                    row_dot, runs, sample_cone, segment_sums, support_vector, unit_scaled,
                    wall_bound)

FEASIBILITY_TOL = 1e-9
ACTIVE_TOL = 1e-8
SPHERE_TILING_TOL = 1e-9
MAX_QUADRATURE_DEPTH = 10
_LEAF_BUDGET = 1 << 12                # leaves in one block of the sphere quadrature
SAMPLE_SPREAD = 0.25
SAMPLE_MARGIN = 1e-9
SAMPLE_SHRINKS = 60
HULL_TOL = 1e-12


# =============================================================================
# FAN CONSTRUCTION
# =============================================================================

#: a polytope vertex: its Gauss-image cell (faces cyclic, outward-CCW), its
#: position at the reference h and the cell's spherical area
VertexCell = namedtuple("VertexCell", ["faces", "position", "area"])


class PolytopeFan:
    """Combinatorics of a 3-polytope: normals, adjacency, Gauss cells, face assembly."""

    def __init__(self, normals, face_cycles, face_vertices, vertex_cells, phi, reference_h,
                 assembly):
        self.normals = normals
        self.m = normals.shape[0]
        #: per face, the cyclic list of neighboring face indices
        self.face_cycles = face_cycles
        #: per face, the cyclic list of vertex ids (vertex k meets edge k)
        self.face_vertices = face_vertices
        self.vertex_cells = vertex_cells
        #: hyperplane angles phi[(i, j)] = atan2(|u_i x u_j|, u_i . u_j) for adjacent i, j
        self.phi = phi
        self.reference_h = reference_h
        self.simple = all(len(cell.faces) == 3 for cell in vertex_cells)
        n_vertices = len(vertex_cells)
        self.metadata = {
            "faces": self.m,
            "vertices": n_vertices,
            "edges": len({tuple(sorted(e)) for e in phi}),
            "simple": self.simple,
            "cone_dim": self.m - 3 if self.simple else None,
            "faces_from_euler": n_vertices / 2 + 2,
        }
        #: face-local assembly of volume, edge lengths and area form (edges face by
        #: face in cycle order, aligned with face_cycles)
        self.assembly = assembly
        #: the directed edges with i < j, each polytope edge once, and their labels (i, j)
        self._edges = np.flatnonzero(self.assembly.src < self.assembly.dst)
        self._edge_labels = list(zip(self.assembly.src[self._edges].tolist(),
                                     self.assembly.dst[self._edges].tolist()))
        # vertex_positions solves the 3-face cells as one stack
        degree = np.array([len(cell.faces) for cell in vertex_cells])
        self._solved = np.flatnonzero(degree == 3)
        self._solved_faces = np.array([vertex_cells[v].faces for v in self._solved.tolist()],
                                      dtype=np.intp).reshape(-1, 3)
        self._fitted = np.flatnonzero(degree != 3).tolist()

    def _edge_lengths(self, h):
        """The lengths l_ij(h) of the edges i < j; h is (..., m)."""
        return self.assembly.lengths(h)[..., self._edges]

    def vertex_positions(self, h):
        """Vertex coordinates for support vector h (least squares at a non-simple vertex)."""
        return self._positions(support_vector(h, self.m, "vertex_positions"))

    def _positions(self, v):
        """``vertex_positions`` of a checked support vector v."""
        out = np.empty((len(self.vertex_cells), 3))
        out[self._solved] = np.linalg.solve(self.normals[self._solved_faces],
                                            v[self._solved_faces][..., None])[..., 0]
        for idx in self._fitted:
            faces = self.vertex_cells[idx].faces
            out[idx], *_ = np.linalg.lstsq(self.normals[faces], v[faces], rcond=None)
        return out


def _simplex(P, tol):
    """Indices of affinely independent points of P, each the farthest from the span so far.

    Stops early (fewer than d + 1 indices) when no point lies farther than
    ``tol`` from the affine span of those chosen.
    """
    chosen = [int(np.argmin(P[:, 0]))]
    R = P - P[chosen[0]]
    for _ in range(P.shape[1]):
        heights = np.linalg.norm(R, axis=1)
        k = int(np.argmax(heights))
        if heights[k] <= tol:
            break
        chosen.append(k)
        axis = R[k] / heights[k]
        R = R - np.outer(R @ axis, axis)
    return chosen


def _planes(P, facets, inside, others):
    """Equations (n, c) of the hyperplanes through the rows of ``facets``, n a unit vector.

    Each normal is the generalized cross product of the facet's edge
    vectors (its k-th entry the signed minor on the columns ``others[k]``),
    oriented so that n.x + c < 0 at the homogeneous point ``inside`` = (x, 1).
    """
    V = P[facets]
    E = V[:, 1:] - V[:, :1]
    with np.errstate(divide="ignore"):      # set by a singular minor whose pivots underflow
        n = np.linalg.det(E[:, :, others].transpose(0, 2, 1, 3))
    n[:, 1::2] *= -1.0
    n /= np.sqrt(np.einsum("fj,fj->f", n, n))[:, None]
    H = np.column_stack([n, np.einsum("fkj,fj->f", V, n) / -len(others)])
    return H * np.where(H @ inside > 0.0, -1.0, 1.0)[:, None]


def _ridges(facets, others, n_points):
    """Each facet's ridges (its vertices ``others[k]``) as sorted rows, and an integer key each.

    The keys are exact while n_points ** (d - 1) < 2 ** 63.
    """
    ridges = np.sort(facets[:, others].reshape(-1, others.shape[1]), axis=1)
    return ridges, ridges @ n_points ** np.arange(others.shape[1], dtype=np.int64)


#: a hull under construction: its points P, their rows (p, 1) as Q, the
#: tolerance, a homogeneous point strictly inside and the minors' column sets
_Frame = namedtuple("_Frame", ["P", "Q", "tol", "inside", "others"])


def _start(points, error, message):
    """The frame of the hull of ``points``, and the facets (d + 1, d) and equations of its simplex.

    The simplex is d + 1 extreme points (``_simplex``); the tolerance is
    HULL_TOL * max|p|.  Non-finite or flat input is raised as
    ``error(f"{message} (<reason>)")``.
    """
    P = np.asarray(points, dtype=float)
    n_points, d = P.shape
    if not np.all(np.isfinite(P)):
        raise error(f"{message} (non-finite point)")
    tol = HULL_TOL * float(np.max(np.abs(P)))
    simplex = _simplex(P, tol)
    if len(simplex) <= d:
        raise error(f"{message} (flat input: the {n_points} points span "
                    f"{len(simplex) - 1} of {d} dimensions)")
    frame = _Frame(P, np.column_stack([P, np.ones(n_points)]), tol,
                   np.append(P[simplex].mean(axis=0), 1.0),
                   np.array([[j for j in range(d) if j != k] for k in range(d)]))
    facets = np.array([simplex[:k] + simplex[k + 1:] for k in range(d + 1)])
    return frame, facets, _planes(P, facets, frame.inside, frame.others)


def _step(frame, facets, H, apex, visible):
    """Insert point ``apex``, which sees the rows ``visible``: the next facets and equations.

    The visible rows go, and the cone from ``apex`` over their horizon (the
    ridges of exactly one visible facet) is appended, so rows stay in
    creation order.
    """
    # compress takes rows several times faster than a boolean index
    ridges, keys = _ridges(facets.compress(visible, axis=0), frame.others, len(frame.P))
    order = np.argsort(keys)
    keys = keys[order]
    once = np.ones(len(keys) + 1, dtype=bool)
    once[1:-1] = keys[1:] != keys[:-1]
    horizon = ridges[order[once[1:] & once[:-1]]]
    new = np.column_stack([horizon, np.full(len(horizon), apex)])
    return (np.concatenate([facets.compress(~visible, axis=0), new]),
            np.concatenate([H.compress(~visible, axis=0),
                            _planes(frame.P, new, frame.inside, frame.others)]))


def _hull(points, error, message):
    """Facets of the convex hull of ``points``: vertex indices (F, d), equations (F, d + 1).

    An equation n.p + c = 0 has the outward unit normal n (n.p + c <= 0
    inside).  Beneath-beyond in any dimension d: from the simplex of
    ``_start``, one pass over the points, farthest from the simplex's
    centroid first, inserts (``_step``) each point above a facet of the
    hull so far.  The hull only grows, so a point beneath it stays beneath,
    and far points first leave few inner ones to insert.  Facets are
    simplices, so a face with more than d coplanar points comes back
    triangulated, one equation per simplex.  A result that is not a closed
    simplicial surface with every point beneath every facet raises
    ConsistencyError.
    """
    frame, facets, H = _start(points, error, message)
    Q, tol = frame.Q, frame.tol
    n_points, d = frame.P.shape
    for apex in np.argsort(-np.linalg.norm(Q - frame.inside, axis=1), kind="stable").tolist():
        visible = H @ Q[apex] > tol
        if visible.any():
            facets, H = _step(frame, facets, H, apex, visible)

    _, count = np.unique(_ridges(facets, frame.others, n_points)[1], return_counts=True)
    if np.any(count != 2):
        raise ConsistencyError(f"convex hull in {d}-space is not closed: "
                               f"{np.count_nonzero(count != 2)} ridges not in exactly two facets")
    excess = float(np.max(Q @ H.T))
    if not excess <= tol:
        raise ConsistencyError(f"convex hull in {d}-space: a point lies {excess:.3e} above "
                               f"a facet (tolerance {tol:.3e})")
    return facets, H


def _walk(points, error, message, margin=None, direction=None):
    """The equation of the one facet of the hull of ``points`` that a question needs.

    Beneath-beyond (``_step``) applied only where the question looks: each
    pass inserts the point farthest above one facet of the partial hull,
    first the facet the origin is least beneath while it is not ``margin``
    beneath (default: the hull tolerance), then, given a ``direction``, the
    facet through which the ray from the origin along it leaves.  A picked
    facet with no point above it is a facet of the full hull and is
    returned.  Without a direction, None means that the origin is ``margin``
    beneath every facet of a partial hull, so of the full hull that contains
    it; a ray that starts outside raises ConsistencyError.  The picked facet
    counts as visible however its own test rounds, so every pass inserts a
    point and at most n passes run.
    """
    frame, facets, H = _start(points, error, message)
    margin = frame.tol if margin is None else margin
    n_points, d = frame.P.shape
    for _ in range(n_points):
        offset = H[:, -1]
        f = int(np.argmax(offset))
        outside = offset[f] > -margin
        if not outside:
            if direction is None:
                return None
            rate = H[:, :-1] @ direction
            f = int(np.argmin(np.divide(-offset, rate, out=np.full(len(H), np.inf),
                                        where=rate > 0.0)))
        rise = frame.Q @ H[f]
        apex = int(np.argmax(rise))
        if not rise[apex] > frame.tol:
            if outside and direction is not None:
                raise ConsistencyError(f"hull walk in {d}-space: the origin is not {margin:.3e} "
                                       f"beneath a facet (offset {offset[f]:.3e})")
            return H[f]
        visible = H @ frame.Q[apex] > frame.tol
        visible[f] = True
        facets, H = _step(frame, facets, H, apex, visible)
    raise ConsistencyError(f"hull walk in {d}-space did not end in {n_points} passes")


def _check_bounded(normals):
    """Bounded iff the origin is at least 1e-9 beneath every facet of the hull of the normals.

    Only the facets that the origin is not 1e-9 beneath grow (``_walk``).  A
    partial hull lies inside the full one, so when none is left the region
    is bounded; one with no normal above it is a facet of the full hull, and
    the region is unbounded.
    """
    if _walk(normals, UnboundedRegionError,
             "normals do not span 3-space; halfspace intersection is unbounded",
             margin=1e-9) is not None:
        raise UnboundedRegionError(
            "origin is not strictly inside the hull of the normals: "
            "the halfspace intersection is unbounded")


def _frames(U):
    """Deterministic unit rows e1, e2 with (e1, e2, u) right-handed, u a unit row of U.

    e1 is the basis vector of u's entry smallest in size (the first of equal
    ones), made orthogonal to u and unit.
    """
    basis = np.eye(3)[np.argmin(np.abs(U), axis=1)]
    e1 = basis - row_dot(basis, U)[:, None] * U
    e1 /= np.sqrt(row_dot(e1, e1))[:, None]
    return e1, np.cross(U, e1)


def _dual_hull_vertices(A, b, center):
    """Vertices of { y : A y <= b } from the convex hull of its dual points.

    ``center`` must lie strictly inside.  The hull of the points
    a_j / (b_j - <a_j, center>) has one simplicial facet n.p + d = 0 per
    vertex simplex; its vertex is center - n / d.  A non-simple vertex
    comes back once per simplex of its triangulated dual facet.
    """
    equations = _hull(A / (b - A @ center)[:, None], StructuralError,
                      "degenerate halfspace arrangement")[1]
    return center - equations[:, :-1] / equations[:, -1:]


def _interior_point(U, hn, scale):
    """Interior point x0 and inradius r of { x : <u_i, x> <= hn_i }, hn at unit scale.

    (x0, r) is the top vertex of the lifted region { (x, rho) :
    <u_i, x> + rho <= hn_i, rho >= rho_c - 1 }, rho_c = min hn - 1.  Its dual
    points around (0, rho_c) (as in ``_dual_hull_vertices``) enclose the
    origin, and the facet n.p + c = 0 that the +rho ray leaves their hull
    through is the dual of the top vertex (0, rho_c) - n / c; ``_walk`` grows
    to that facet alone.  ``scale`` = max|h| scales the inradius in the errors.
    """
    m = len(hn)
    rho_c = float(np.min(hn)) - 1.0
    A = np.vstack([np.column_stack([U, np.ones(m)]), [0.0, 0.0, 0.0, -1.0]])
    center = np.array([0.0, 0.0, 0.0, rho_c])
    plane = _walk(A / (np.append(hn, 1.0 - rho_c) - A @ center)[:, None], StructuralError,
                  "degenerate halfspace arrangement", direction=np.array([0.0, 0.0, 0.0, 1.0]))
    top = center - plane[:-1] / plane[-1]
    x0, r = top[:3], float(top[3])
    if r < -FEASIBILITY_TOL:
        raise RedundancyError(list(range(m)), "no feasible vertices: empty region")
    if r <= FEASIBILITY_TOL:
        raise StructuralError(
            f"region has no interior: inradius {r * scale!r} at support scale {scale!r}")
    return x0, r


def build_fan(normals, h):
    """Extract the combinatorics of { x : <x, u_i> <= h_i }.

    The region must be bounded: the origin at least 1e-9 inside the hull
    of the normals (``_check_bounded``).  Past that, every step sees the
    unit-scale g = h / max|h|.  An interior point x0 and the inradius r are
    the top vertex of the lifted region { (x, rho) : <u_i, x> + rho <= g_i,
    rho >= min g - 2 }, read from the one facet of its dual points' 4D hull
    that the +rho ray leaves through (``_interior_point``).  The vertices
    are then the facets of the 3D hull of the dual points
    u_i / (g_i - <u_i, x0>).  Faces are ordered at this unit scale, where
    no sum overflows; cell positions (and the inradius and slack that
    error messages report) are scaled back by max|h|.  Every tolerance is
    relative to r, so the result does not change under scaling,
    translation, rotation or a permutation of the faces.  Facets with the
    same active-plane set merge into one vertex, which is how non-simple
    vertices (cells with more than 3 faces) appear; they only clear the
    ``simple`` flag; corners closer than the merge tolerance join too, and
    an edge that more than one other face then shares is reported as
    near-degenerate input.  Vertex ids follow the sorted active sets.  Each
    halfspace must support a 2-face (otherwise a redundancy error lists
    the offending indices) and the region must be bounded with nonempty
    interior.

    After the hull, each stage is one array pass over all faces, vertices
    or directed edges (no loop per face or per Gauss cell): the vertex
    merge (one unique over the padded active sets), the face frames, the
    vertex cycles (one lexsort on face and angle), the neighbor across each
    cycle edge (from the incidence matrix), and the Gauss cells (one batch
    of fan triangles, each cell summed alone).  The angle phi between
    adjacent normals is atan2(|u_i x u_j|, u_i . u_j), which keeps its
    digits where they are nearly parallel, and an edge's in-plane normal
    angle is that of u_j in face i's frame.  Dots are ``row_dot`` and sums
    ``segment_sums``, and atan2 runs on Python floats, so every number has
    the bits of the per-face computation; an error is the one the first
    failing face, edge or cell raises, in the order of the checks.
    """
    U = np.asarray(normals, dtype=float)
    if U.ndim != 2 or U.shape[1] != 3 or U.shape[0] < 4:
        raise InvalidInput(f"build_fan: need at least 4 normals of shape (m, 3), got {U.shape}")
    if not np.all(np.isfinite(U)):
        raise InvalidInput("build_fan: normals must be finite")
    with np.errstate(over="ignore"):        # a norm that overflows is not 1 either
        norms = np.linalg.norm(U, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise InvalidInput("build_fan: normals must be unit vectors (within 1e-9)")
    U = U / norms[:, None]
    m = U.shape[0]
    gram = U @ U.T
    np.fill_diagonal(gram, 0.0)
    if np.any(gram > 1.0 - 1e-12):
        raise InvalidInput("build_fan: duplicate (or numerically equal) normals")

    hv = support_vector(h, m, "build_fan")
    _check_bounded(U)
    scale = float(np.max(np.abs(hv)))
    if scale == 0.0:
        raise StructuralError("h = 0: the region is a single point")
    hn = hv / scale

    x0, r = _interior_point(U, hn, scale)

    # ---- vertices: facets of the dual hull, merged by active-plane set ----
    corners = _dual_hull_vertices(U, hn, x0)
    slack = corners @ U.T - hn
    if np.max(slack) > FEASIBILITY_TOL * r:
        raise ConsistencyError(f"dual-hull vertex violates a halfspace by "
                               f"{np.max(slack) * scale:.3e} (inradius {r * scale:.3e})")
    active = slack >= -ACTIVE_TOL * r
    # each corner's active planes, ascending and padded with -1, so that the rows
    # sort as the tuples of their planes do: the vertex ids
    degree = np.count_nonzero(active, axis=1)
    width = int(np.max(degree))
    rows, planes = np.nonzero(active)
    padded = np.full((len(corners), width), -1)
    padded[rows, np.arange(len(rows)) - np.repeat(np.cumsum(degree) - degree, degree)] = planes
    planes_of, first, vertex_of = np.unique(padded, axis=0, return_index=True,
                                            return_inverse=True)
    incidence, degree = active[first], degree[first]
    if np.any(degree < 3):
        raise StructuralError("vertex with fewer than 3 active planes")
    vertex_of = vertex_of.reshape(-1)
    merged = np.bincount(vertex_of, minlength=len(first))
    unit_positions = (segment_sums(corners[np.argsort(vertex_of, kind="stable")], merged)
                      / merged[:, None])

    face_size = np.count_nonzero(incidence, axis=0)
    empty = np.flatnonzero(face_size < 3).tolist()
    if empty:
        raise RedundancyError(empty)

    # ---- per face: vertex cycle (CCW seen from outside), the neighbor across
    # each edge, phi, and the edge's in-plane normal angle; one row per directed
    # edge i -> j, face by face ----
    src, vid = np.nonzero(incidence.T)
    e1, e2 = _frames(U)
    pts = np.column_stack([row_dot(unit_positions[vid], e1[src]),
                           row_dot(unit_positions[vid], e2[src])])
    center = segment_sums(pts, face_size) / face_size[:, None]
    # (src is sorted, so sorting by (src, angle) orders each face in place)
    vid = vid[np.lexsort((np.arctan2(pts[:, 1] - center[src, 1], pts[:, 0] - center[src, 0]),
                          src))]
    after = vid[cyclic_runs(face_size)[2]]
    # the other planes of the edge's two vertices
    candidates = planes_of[vid]
    shared = ((candidates >= 0) & (candidates != src[:, None])
              & incidence[after[:, None], candidates])
    count = np.count_nonzero(shared, axis=1)
    dst = candidates[np.arange(len(vid)), np.argmax(shared, axis=1)]
    cross = np.cross(U[src], U[dst])
    ph = [math.atan2(y, x) for y, x in zip(np.sqrt(row_dot(cross, cross)).tolist(),
                                            row_dot(U[src], U[dst]).tolist())]
    ph_array = np.array(ph)
    bad = np.flatnonzero((count != 1) | ~((ph_array > 0.0) & (ph_array < math.pi)))
    if len(bad):
        e = int(bad[0])
        i, j = int(src[e]), int(dst[e])
        if count[e] != 1:
            raise StructuralError(
                f"edge of face {i} between vertices {vid[e]},{after[e]} is shared by "
                f"{count[e]} other faces (expected 1)" + (
                    "; near-degenerate input: vertices within the merge tolerance were joined"
                    if count[e] > 1 else ""))
        raise StructuralError(f"adjacent faces {i},{j} with degenerate angle {ph[e]}")
    cos_ph = np.array([math.cos(x) for x in ph])
    sin_ph = np.array([math.sin(x) for x in ph])
    angles = [math.atan2(y, x) % (2.0 * math.pi) for y, x in
              zip(row_dot(U[dst], e2[src]).tolist(), row_dot(U[dst], e1[src]).tolist())]
    src_list, dst_list = src.tolist(), dst.tolist()
    phi = dict(zip(zip(src_list, dst_list), ph))
    # (np.isin would import numpy.ma, about 15 ms of a fresh CLI call)
    edge_keys = np.sort(src * m + dst)
    back = dst * m + src
    lonely = np.flatnonzero(
        edge_keys[np.minimum(np.searchsorted(edge_keys, back), len(back) - 1)] != back)
    if len(lonely):
        i, j = src_list[lonely[0]], dst_list[lonely[0]]
        raise StructuralError(f"adjacency is not symmetric: {i}->{j} without {j}->{i}")
    # fmod of a tiny negative rounds up to 2*pi; edge e = (i -> j) of face i:
    # h_ij = -cot(phi_ij) h_i + h_j / sin(phi_ij)
    assembly = FaceAssembly([0.0 if a >= 2.0 * math.pi else a for a in angles], face_size,
                            dst, -cos_ph / sin_ph, 1.0 / sin_ph)

    # ---- Gauss cells at the vertices: the faces of each in angular order
    # about their mean normal, fan-triangulated from the first ----
    cell_of, faces = np.nonzero(incidence)
    d = segment_sums(U[faces], degree)
    nd = np.sqrt(row_dot(d, d))
    if np.any(nd == 0.0):
        raise StructuralError(f"vertex {int(np.argmax(nd == 0.0))}: normals average to zero")
    f1, f2 = _frames(d / nd[:, None])
    faces = faces[np.lexsort(([math.atan2(y, x) for y, x in zip(
        row_dot(U[faces], f2[cell_of]).tolist(), row_dot(U[faces], f1[cell_of]).tolist())],
        cell_of))]
    cell_area = segment_sums(_spherical_triangle_areas(U[fan_triangles(faces, degree)]),
                             degree - 2)
    total_area = float(np.cumsum(cell_area)[-1])
    if abs(total_area - 4.0 * math.pi) > SPHERE_TILING_TOL:
        raise ConsistencyError(
            f"Gauss image does not tile the sphere: total cell area {total_area!r}")

    cells = [VertexCell(cyc, p, area) for cyc, p, area in
             zip(runs(faces.tolist(), degree), scale * unit_positions, cell_area.tolist())]
    U.setflags(write=False)
    return PolytopeFan(U, runs(dst_list, face_size), runs(vid.tolist(), face_size), cells, phi,
                       hv.copy(), assembly)


# =============================================================================
# SUPPORT NUMBERS, VOLUME, AREA
# =============================================================================

def point_support_vector(fan, x):
    """Support vector h^x of the point x: h^x_i = <x, u_i>."""
    p = np.asarray(x, dtype=float)
    if p.shape != (3,):
        raise InvalidInput("point_support_vector: x must be a point in 3-space")
    return fan.normals @ p


def cone_membership(fan, h, tol=MEMBERSHIP_TOL):
    """Classify h by the signs of all edge lengths l_ij(h), each edge once as i < j, on h
    scaled to unit size by a power of two: exact, so the verdict holds at any scale."""
    v = unit_scaled(support_vector(h, fan.m, "cone_membership"))[0]
    return locate(fan._edge_lengths(v), v, tol, fan._edge_labels)


def volume(fan, h):
    """v(h) = (1/3) sum_i h_i a_i(h_{i.}) -- the Euclidean volume on the cone."""
    return float(overflow_checked("volume", fan.assembly.cubic, support_vector(h, fan.m, "volume")))


def volume_form(fan):
    """The mixed volume as a symmetric trilinear form, evaluated face by face.

    The raw slices T[i] = (1/3) G_i (G_i = S_i' A_i S_i, nonzero only on
    face i and its neighbors) are never stored densely; their total
    symmetry is a theorem and is asserted entrywise (within 1e-10) first.
    """
    if not fan.simple:
        # with a non-simple vertex the frozen-combinatorics cubic stops
        # being the volume off the cone, and the slices lose symmetry
        raise DomainError(
            "volume_form: fan has a non-simple vertex; the volume is not "
            "a single cubic polynomial around this combinatorics")
    return fan.assembly.trilinear_form


def boundary_area_form(fan):
    """area(h) = sum_i a_i(h_{i.}) as an m x m symmetric form.

    Summed from the face-local grams G_i and, on a simple fan,
    cross-checked entrywise against 3 v(1, ., .) (``FaceAssembly.area_form``).
    """
    if fan.simple:
        return fan.assembly.area_form
    return SymmetricForm(fan.assembly.gram_sum(np.ones(fan.m)), symmetry_tol=1e-10)


# =============================================================================
# ALEXANDROV-FENCHEL
# =============================================================================

def alexandrov_fenchel_check(fan, h, k, p):
    """Verify v(h,k,p)^2 >= v(h,h,p) v(k,k,p) and detect equality.

    h, k and p must lie in the closed cone.  In the equality case the witness
    h = h^x + lambda k is recovered over (x, lambda) by least squares.
    ``h`` and ``k`` may be row-aligned (S, m) stacks against the one p: the
    result then holds arrays (see ``forms.reversed_cauchy_schwarz_check``).
    A pair raises in this order: overflowing lengths (p, h or k), p outside, h
    outside, k outside, an overflowing v.  When a stage of a stack raises, its pairs
    are checked alone in order, and the first one that raises propagates.
    """
    hv = support_vector(h, fan.m, "alexandrov_fenchel_check", stack=True)
    kv = support_vector(k, fan.m, "alexandrov_fenchel_check", stack=True)
    pv = support_vector(p, fan.m, "alexandrov_fenchel_check")
    if hv.shape != kv.shape:
        raise InvalidInput(f"alexandrov_fenchel_check: h and k differ in shape, "
                           f"{hv.shape} vs {kv.shape}")
    h2, k2 = hv.reshape(-1, fan.m), kv.reshape(-1, fan.m)
    # p, then h and k pair by pair: the first row outside names the first failure
    rows = np.concatenate([pv[None], np.stack([h2, k2], axis=1).reshape(-1, fan.m)])
    try:
        lengths = overflow_checked("alexandrov_fenchel_check", fan._edge_lengths, rows)
        outside = (lengths < -wall_bound(rows, MEMBERSHIP_TOL)).any(axis=1)
        if outside.any():
            o = int(np.argmax(outside))
            raise DomainError(f"alexandrov_fenchel_check: {'hk'[(o - 1) % 2] if o else 'p'} "
                              "lies outside the closed cone")
        # v(h,k,p), v(h,h,p) and v(k,k,p) as one stack
        v = overflow_checked("v", volume_form(fan)._v, np.concatenate([h2, h2, k2]),
                             np.concatenate([k2, h2, k2]), pv).reshape(3, *hv.shape[:-1])
    except DomainError:
        if hv.ndim > 1:
            for pair in zip(hv, kv):        # the first pair that fails alone raises
                alexandrov_fenchel_check(fan, *pair, pv)
        raise
    return reversed_cauchy_schwarz_check("Alexandrov-Fenchel", v[0], v[1], v[2], hv, kv,
                                         fan.normals)


# =============================================================================
# FIRST AREA MEASURE
# =============================================================================

FirstAreaMeasure = namedtuple("FirstAreaMeasure", ["arcs", "total_weighted_length"])
Arc = namedtuple("Arc", ["faces", "arc_length", "weight"])


def first_area_measure(fan, h):
    """The measure on the sphere carried by the Gauss arcs of the edges.

    One entry per polytope edge (i, j), i < j: the arc between u_i and u_j
    (spherical length phi_ij) weighted by the edge length l_ij(h).  The
    weighted total sum l_ij * phi_ij (total mean curvature) is informational.
    """
    v = support_vector(h, fan.m, "first_area_measure")
    lengths = overflow_checked("first_area_measure", fan._edge_lengths, v)
    if locate(lengths, v, MEMBERSHIP_TOL, fan._edge_labels).status == "outside":
        raise DomainError("first_area_measure: h lies outside the closed cone")
    arcs = [Arc(ij, fan.phi[ij], w) for ij, w in zip(fan._edge_labels, lengths.tolist())]
    total = sum(arc.arc_length * arc.weight for arc in arcs)
    arcs.sort(key=lambda a: a.faces)
    return FirstAreaMeasure(arcs, total)


# =============================================================================
# SPHERICAL INTEGRAL
# =============================================================================

def _split_template(depth):
    """The ``depth``-level midpoint split of one triangle (vertex ids 0, 1, 2) as index
    arrays: each level's new vertices as parent pairs (a, b), every edge midpoint once (the
    last level: the leaves' edge midpoints); the leaves' corners, (a, b, c) splitting into
    (a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca), child-major as each level stacks
    them; and the leaves' (ab, bc, ca) as indices into the last level."""
    tris = np.array([[0, 1, 2]])
    levels = []
    for _ in range(depth + 1):
        n = 3 + sum(map(len, levels))
        if levels:
            points = np.concatenate([tris, n - len(levels[-1]) + mids.reshape(-1, 3)], axis=1)
            children = points[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]]
            tris = children.transpose(1, 0, 2).reshape(-1, 3)
        edges = np.sort(tris[:, [[0, 1], [1, 2], [2, 0]]], axis=2).reshape(-1, 2)
        _, first, mids = np.unique(edges[:, 0] * n + edges[:, 1], return_index=True,
                                   return_inverse=True)
        levels.append(edges[first])
    return levels, tris, mids.reshape(-1, 3)


def _spherical_triangle_areas(T):
    """Exact solid angles of unit-vector triangles (van Oosterom-Strackee)."""
    a, b, c = T[:, 0], T[:, 1], T[:, 2]
    triple = np.einsum("ij,ij->i", a, np.cross(b, c))
    denom = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) \
        + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(triple, denom)


def area_via_sphere_integral(fan, h, depth):
    """Boundary area as the sphere integral of h^2 - (1/2)|grad h|^2.

    On the Gauss cell of vertex p the integrand is the closed form
    (3/2) <p, v>^2 - (1/2) |p|^2.  Each cell is fan-triangulated and
    refined by ``depth`` levels of geodesic midpoint subdivision; leaf
    triangles use their exact spherical area with the three edge-midpoint
    nodes (planar-quadratic-exact, so the quadratic integrand converges at
    second order in the cell diameter); an overflow raises DomainError.
    Blocks of base triangles (``_LEAF_BUDGET`` leaves, or one triangle) are split on
    one index template, each vertex normalized once, with the bits of splitting one
    base triangle at a time (``loop_sphere_integral`` in ``tests/oracles.py``).
    """
    depth = as_index(depth, "depth")
    if not (0 <= depth <= MAX_QUADRATURE_DEPTH):
        raise InvalidInput(f"depth must be in [0, {MAX_QUADRATURE_DEPTH}]")
    v = support_vector(h, fan.m, "area_via_sphere_integral")
    return overflow_checked("area_via_sphere_integral", _sphere_integral, fan,
                            fan._positions(v), depth)


def _sphere_integral(fan, positions, depth):
    """The quadrature over every Gauss cell, once the cells tile the sphere.  Each block
    fills its (triangle, axis, vertex) array level by level, each vertex (a + b) / |a + b|
    as the recursive split gave it (addition commutes); the dots are one stacked matmul of
    (midpoint, axis) rows, and each triangle's leaf row is summed alone, in base order."""
    sizes = np.array([len(cell.faces) for cell in fan.vertex_cells])
    base = fan.normals[fan_triangles(np.concatenate([cell.faces for cell in fan.vertex_cells]),
                                     sizes)].transpose(0, 2, 1)
    P = np.repeat(positions, sizes - 2, axis=0)[:, :, None]
    p2 = np.repeat([float(np.dot(p, p)) for p in positions], sizes - 2)[:, None]
    levels, corners, mids = _split_template(depth)
    block = max(1, _LEAF_BUDGET >> 2 * depth)
    n = 3 + sum(map(len, levels[:-1]))
    # the (triangle, leaf, corner, axis) entries of a block's flat (triangle, axis, vertex) array
    at = corners[:, :, None] + n * np.arange(3 * min(block, len(base))).reshape(-1, 1, 1, 3)
    total = 0.0
    covered = 0.0
    for s in range(0, len(base), block):
        V = base[s:s + block]
        for k, pairs in enumerate(levels):
            if k:                         # V holds the leaves' vertices, not their midpoints
                V = np.concatenate([V, M], axis=2)
            M = np.take(V, pairs[:, 0], axis=2) + np.take(V, pairs[:, 1], axis=2)
            M /= np.linalg.norm(M, axis=1)[:, None]
        dots = np.matmul(M.transpose(0, 2, 1).copy(), P[s:s + block])[:, :, 0]
        fvals = np.take(1.5 * dots * dots - 0.5 * p2[s:s + block], mids.T, axis=1)
        areas = _spherical_triangle_areas(np.take(V, at[:len(V)]).reshape(-1, 3, 3))
        areas = areas.reshape(len(V), -1)
        for t, c in zip(np.sum(areas * np.mean(fvals, axis=1), axis=1).tolist(),
                        np.sum(areas, axis=1).tolist()):
            total += t
            covered += c
    if abs(covered - 4.0 * math.pi) > 1e-8:
        raise StructuralError(
            f"Gauss image does not tile the sphere: covered {covered!r} of 4*pi")
    return float(total)


# =============================================================================
# BOUNDARY METRIC
# =============================================================================

def boundary_metric(fan, h):
    """The induced flat cone metric on the boundary as a triangle mesh.

    Each face polygon is fan-triangulated from its first cycle vertex; the
    corners carry the polytope vertex ids as labels.  The cone curvature at
    a vertex equals the spherical area of its Gauss cell.
    """
    from .surface import mesh_from_indexed_triangles     # only this function needs surface

    v = support_vector(h, fan.m, "boundary_metric")
    lengths = overflow_checked("boundary_metric", fan._edge_lengths, v)
    if locate(lengths, v, MEMBERSHIP_TOL, fan._edge_labels).status != "interior":
        raise DomainError("boundary_metric: h is not interior")
    return mesh_from_indexed_triangles(fan._positions(v), fan_triangles(
        np.concatenate(fan.face_vertices), np.diff(fan.assembly.offsets)))


# =============================================================================
# SAMPLING AND INPUT
# =============================================================================

def sample_interior(fan, reference, rng, size=None):
    """Random support vector near an interior ``reference``, or a (size, m) stack:
    ``forms.sample_cone`` with base ``reference`` (checked once), raising DomainError
    when no size is interior at SAMPLE_MARGIN (the reference is too close to the
    cone's boundary for the margin).  One vector is row 0 of a one-row stack, placed
    at unit scale, so a draw past the float range raises DomainError at any scale."""
    base = support_vector(reference, fan.m, "sample_interior")
    if cone_membership(fan, base).status != "interior":
        raise DomainError("sample_interior: reference must be interior")
    draws = sample_cone(fan._edge_lengths, base, rng, 1 if size is None else size,
                        SAMPLE_SPREAD, SAMPLE_MARGIN, SAMPLE_SHRINKS, "cone")
    return draws[0] if size is None else draws


def fan_from_json_dict(data):
    """Build a fan (and return its h) from {"normals": [[x,y,z]...], "h": [...]}."""
    try:
        normals = data["normals"]
        h = data["h"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"polytope JSON needs 'normals' and 'h': {exc}") from exc
    fan = build_fan(json_numbers(normals, "polytope JSON normals"),
                    json_numbers(h, "polytope JSON h"))
    return fan, np.asarray(h, dtype=float)
