"""Deformation space of a convex 3-polytope in support-number coordinates.

A polytope class is fixed by its m outward unit face normals; a member of
the class is the halfspace intersection { x : <x, u_i> <= h_i }.  The
combinatorics (vertices, face cycles, adjacency) are computed from a
reference h as the facets of the convex hull of the dual points
u_i / (h_i - <u_i, x0>) around an interior point x0 (a numpy
beneath-beyond hull, ``_hull``), with tolerances relative to the inradius;
the hulls see h / max|h|, so the construction works at any support scale.
The Gauss image -- the tessellation of the unit sphere whose cell at a
polytope vertex collects the normals of its faces -- is built alongside
and must tile the full sphere.  Past the hulls, every stage of the
construction (vertex merge, face cycles and neighbors, Gauss cells) is one
numpy pass over all faces, vertices or edges.

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

from . import polygon as poly
from .errors import (
    ConsistencyError,
    DomainError,
    InvalidInput,
    RedundancyError,
    StructuralError,
    UnboundedRegionError,
)
from .faces import FaceAssembly, _clamp
from .forms import (MEMBERSHIP_TOL, SymmetricForm, as_index, cyclic_runs, fan_triangles,
                    json_numbers, locate, overflow_checked, reversed_cauchy_schwarz_check,
                    row_dot, runs, sample_cone, segment_sums, support_vector, wall_bound)

FEASIBILITY_TOL = 1e-9
ACTIVE_TOL = 1e-8
SPHERE_TILING_TOL = 1e-9
MAX_QUADRATURE_DEPTH = 10
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
    """Combinatorics of a 3-polytope: normals, adjacency, per-face 2D fans."""

    def __init__(self, normals, face_cycles, face_fans, face_vertices,
                 vertex_cells, phi, reference_h, edge_rule):
        self.normals = normals
        self.m = normals.shape[0]
        #: per face, the cyclic list of neighboring face indices
        self.face_cycles = face_cycles
        #: per face, the induced NormalFan2D (indices aligned with face_cycles)
        self.face_fans = face_fans
        #: per face, the cyclic list of vertex ids (vertex k meets edge k)
        self.face_vertices = face_vertices
        self.vertex_cells = vertex_cells
        #: hyperplane angles phi[(i, j)] = arccos(u_i . u_j) for adjacent i, j
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
        #: face-local assembly of volume, edge lengths and area form; ``edge_rule``
        #: holds the directed edges' (dst, a, b), face by face in cycle order
        self.assembly = FaceAssembly(face_fans, *edge_rule)
        #: the directed edges with i < j: each polytope edge once, and its label (i, j)
        self._edges = np.flatnonzero(self.assembly.src < self.assembly.dst)
        self._edge_labels = list(zip(self.assembly.src[self._edges].tolist(),
                                     self.assembly.dst[self._edges].tolist()))
        # vertex_positions solves the 3-face cells as one stack
        degree = np.array([len(cell.faces) for cell in vertex_cells])
        self._solved = np.flatnonzero(degree == 3)
        self._solved_faces = np.array([vertex_cells[v].faces for v in self._solved.tolist()],
                                      dtype=np.intp).reshape(-1, 3)
        self._fitted = np.flatnonzero(degree != 3).tolist()

    def vertex_positions(self, h):
        """Vertex coordinates for support vector h (least squares at a non-simple vertex)."""
        v = support_vector(h, self.m, "vertex_positions")
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


def _hull(points, error, message):
    """Facets of the convex hull of ``points``: vertex indices (F, d), equations (F, d + 1).

    An equation n.p + c = 0 has the outward unit normal n (n.p + c <= 0
    inside).  Beneath-beyond in any dimension d, in Quickhull order
    (Barber, Dobkin and Huhdanpaa 1996): from a simplex of extreme points,
    the point farthest above its facet is added next, the facets it sees
    give way to the cone from it over their horizon ridges, and the points
    above a removed facet are handed to the new ones.  Facets are
    simplices, so a face with more than d coplanar points comes back
    triangulated, one equation per simplex.  All tolerances are
    HULL_TOL * max|p|.  Flat input is raised as
    ``error(f"{message} (<reason>)")``; a result that is not a closed
    simplicial surface with every point beneath every facet raises
    ConsistencyError.
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
    inside = np.append(P[simplex].mean(axis=0), 1.0)
    others = np.array([[j for j in range(d) if j != k] for k in range(d)])
    facets = np.array([simplex[:k] + simplex[k + 1:] for k in range(d + 1)])
    H = _planes(P, facets, inside, others)
    # each point above the hull has an owner facet and its height over it;
    # every other point has height -inf
    Q = np.column_stack([P, np.ones(n_points)])
    rise = Q @ H.T
    owner = np.argmax(rise, axis=1)
    height = np.max(rise, axis=1)
    height[height <= tol] = -np.inf

    # facets go to buffers that double when full; a removed facet keeps its
    # row with the equation 0.p - inf, which no point is above
    removed = np.append(np.zeros(d), -np.inf)
    size = d + 1
    for _ in range(n_points):
        apex = int(np.argmax(height))
        if height[apex] == -np.inf:
            break
        height[apex] = -np.inf
        visible = H[:size] @ Q[apex] > tol
        if not np.any(visible):         # its height was within rounding of tol
            continue
        # horizon: the ridges of exactly one visible facet
        ridges, keys = _ridges(facets[:size][visible], others, n_points)
        order = np.argsort(keys)
        keys = keys[order]
        once = np.ones(len(keys) + 1, dtype=bool)
        once[1:-1] = keys[1:] != keys[:-1]
        horizon = ridges[order[once[1:] & once[:-1]]]
        new = np.column_stack([horizon, np.full(len(horizon), apex)])
        new_H = _planes(P, new, inside, others)
        # the points above a removed facet move to the new facet they are farthest above
        orphans = np.flatnonzero(visible[owner] & (height > tol))
        rise = Q[orphans] @ new_H.T
        owner[orphans] = size + np.argmax(rise, axis=1)
        top = np.max(rise, axis=1, initial=-np.inf)
        height[orphans] = np.where(top > tol, top, -np.inf)
        H[:size][visible] = removed
        end = size + len(new)
        if end > len(H):
            facets = np.resize(facets, (2 * end, d))
            H = np.resize(H, (2 * end, d + 1))
        facets[size:end], H[size:end] = new, new_H
        size = end
    live = np.isfinite(H[:size, -1])
    facets, H = facets[:size][live], H[:size][live]

    _, count = np.unique(_ridges(facets, others, n_points)[1], return_counts=True)
    if np.any(count != 2):
        raise ConsistencyError(f"convex hull in {d}-space is not closed: "
                               f"{np.count_nonzero(count != 2)} ridges not in exactly two facets")
    excess = float(np.max(Q @ H.T))
    if not excess <= tol:
        raise ConsistencyError(f"convex hull in {d}-space: a point lies {excess:.3e} above "
                               f"a facet (tolerance {tol:.3e})")
    return facets, H


def _check_bounded(normals):
    """Bounded iff the origin is strictly inside the hull of the normals."""
    offsets = _hull(normals, UnboundedRegionError,
                    "normals do not span 3-space; halfspace intersection is unbounded")[1][:, 3]
    if np.any(offsets > -1e-9):
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


def build_fan(normals, h):
    """Extract the combinatorics of { x : <x, u_i> <= h_i }.

    Both dual hulls see the unit-scale g = h / max|h|.  An interior point
    x0 and the inradius r come from the top vertex of the lifted region
    { (x, rho) : <u_i, x> + rho <= g_i, rho >= rho_low }, found by the 4D
    hull of its dual points around the known interior point (0, min g - 1).  The
    vertices are then the facets of the 3D hull of the dual points
    u_i / (g_i - <u_i, x0>).  Faces are ordered at this unit scale, where
    no sum overflows; cell positions (and the inradius and slack that
    error messages report) are scaled back by max|h|.  Every tolerance is
    relative to r, so the result does not change under scaling,
    translation, rotation or a permutation of the faces.  Facets with the
    same active-plane set merge into one vertex, which is how non-simple
    vertices (cells with more than 3 faces) appear; they only clear the
    ``simple`` flag.  Vertex ids follow the sorted active sets.  Each
    halfspace must support a 2-face (otherwise a redundancy error lists
    the offending indices) and the region must be bounded with nonempty
    interior.

    After the hulls, each stage is one array pass over all faces, vertices
    or directed edges (no loop per face or per Gauss cell): the vertex
    merge (one unique over the padded active sets), the face frames, the
    vertex cycles (one lexsort on face and angle), the neighbor across each
    cycle edge (from the incidence matrix), and the Gauss cells (one batch
    of fan triangles, each cell summed alone).  Dots are ``row_dot`` and
    sums ``segment_sums``, and acos/atan2 run on Python floats, so every
    number has the bits of the per-face computation; an error is the one
    the first failing face, edge or cell raises, in the order of the checks.
    """
    U = np.asarray(normals, dtype=float)
    if U.ndim != 2 or U.shape[1] != 3 or U.shape[0] < 4:
        raise InvalidInput(f"build_fan: need at least 4 normals of shape (m, 3), got {U.shape}")
    if not np.all(np.isfinite(U)):
        raise InvalidInput("build_fan: normals must be finite")
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

    # ---- interior point and inradius: top vertex of the lifted region ----
    rho_c = float(np.min(hn)) - 1.0
    lift = _dual_hull_vertices(
        np.vstack([np.column_stack([U, np.ones(m)]), [0.0, 0.0, 0.0, -1.0]]),
        np.append(hn, 1.0 - rho_c),
        np.array([0.0, 0.0, 0.0, rho_c]))
    top = lift[np.argmax(lift[:, 3])]
    x0, r = top[:3], float(top[3])
    if r < -FEASIBILITY_TOL:
        raise RedundancyError(list(range(m)), "no feasible vertices: empty region")
    if r <= FEASIBILITY_TOL:
        raise StructuralError(
            f"region has no interior: inradius {r * scale!r} at support scale {scale!r}")

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
    ph = [math.acos(_clamp(c)) for c in row_dot(U[src], U[dst]).tolist()]
    ph_array = np.array(ph)
    bad = np.flatnonzero((count != 1) | ~((ph_array > 0.0) & (ph_array < math.pi)))
    if len(bad):
        e = int(bad[0])
        i, j = int(src[e]), int(dst[e])
        if count[e] != 1:
            raise StructuralError(
                f"edge of face {i} between vertices {vid[e]},{after[e]} is shared by "
                f"{count[e]} other faces (expected 1)")
        raise StructuralError(f"adjacent faces {i},{j} with degenerate angle {ph[e]}")
    cos_ph = np.array([math.cos(x) for x in ph])
    sin_ph = np.array([math.sin(x) for x in ph])
    w = (U[dst] - cos_ph[:, None] * U[src]) / sin_ph[:, None]
    angles = [math.atan2(y, x) % (2.0 * math.pi)
              for y, x in zip(row_dot(w, e2[src]).tolist(), row_dot(w, e1[src]).tolist())]
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
    # fmod of a tiny negative rounds up to 2*pi
    face_fans = poly.NormalFan2D.stack([0.0 if a >= 2.0 * math.pi else a for a in angles],
                                       face_size)

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
    # edge e = (i -> j) of face i: h_ij = -cot(phi_ij) h_i + h_j / sin(phi_ij)
    return PolytopeFan(U, runs(dst_list, face_size), face_fans, runs(vid.tolist(), face_size),
                       cells, phi, hv.copy(), (dst, -cos_ph / sin_ph, 1.0 / sin_ph))


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
    """Classify h by the signs of all edge lengths l_ij(h), each edge once as i < j."""
    v = support_vector(h, fan.m, "cone_membership")
    return locate(fan.assembly.lengths(v)[fan._edges], v, tol, fan._edge_labels)


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
    lengths = overflow_checked("alexandrov_fenchel_check", fan.assembly.lengths, rows)
    outside = (lengths[:, fan._edges] < -wall_bound(rows, MEMBERSHIP_TOL)).any(axis=1)
    if outside.any():
        o = int(np.argmax(outside))
        raise DomainError(f"alexandrov_fenchel_check: {'hk'[(o - 1) % 2] if o else 'p'} lies "
                          "outside the closed cone")
    # v(h,k,p), v(h,h,p) and v(k,k,p) as one stack
    v = overflow_checked("v", volume_form(fan)._v, np.concatenate([h2, h2, k2]),
                         np.concatenate([k2, h2, k2]), pv).reshape(3, *hv.shape[:-1])
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
    if overflow_checked("first_area_measure", cone_membership, fan, v).status == "outside":
        raise DomainError("first_area_measure: h lies outside the closed cone")
    arcs = [Arc(ij, fan.phi[ij], w) for ij, w in zip(
        fan._edge_labels, fan.assembly.lengths(v)[fan._edges].tolist())]
    total = sum(arc.arc_length * arc.weight for arc in arcs)
    arcs.sort(key=lambda a: a.faces)
    return FirstAreaMeasure(arcs, total)


# =============================================================================
# SPHERICAL INTEGRAL
# =============================================================================

def _midpoints(T):
    """The unit edge midpoints (ab, bc, ca) of an (N,3,3) block of unit triangles (a, b, c)."""
    M = T + T[:, [1, 2, 0]]
    M /= np.linalg.norm(M, axis=-1)[..., None]
    return M


def _subdivided(T, depth):
    """Recursive 4-way geodesic midpoint split of an (N,3,3) triangle block: (a, b, c) gives
    (a, ab, ca), (ab, b, bc), (ca, bc, c) and (ab, bc, ca), child-major (every triangle's
    first child, then every second child, ...)."""
    for _ in range(depth):
        points = np.concatenate([T, _midpoints(T)], axis=1)         # a, b, c, ab, bc, ca
        children = points[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]]
        T = children.transpose(1, 0, 2, 3).reshape(-1, 3, 3)
    return T


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
    """
    depth = as_index(depth, "depth")
    if not (0 <= depth <= MAX_QUADRATURE_DEPTH):
        raise InvalidInput(f"depth must be in [0, {MAX_QUADRATURE_DEPTH}]")
    v = support_vector(h, fan.m, "area_via_sphere_integral")
    return overflow_checked("area_via_sphere_integral", _sphere_integral, fan,
                            fan.vertex_positions(v), depth)


def _sphere_integral(fan, positions, depth):
    """The quadrature over every Gauss cell, once the cells tile the sphere."""
    sizes = np.array([len(cell.faces) for cell in fan.vertex_cells])
    base = fan_triangles(np.concatenate([cell.faces for cell in fan.vertex_cells]), sizes)
    total = 0.0
    covered = 0.0
    # one base triangle at a time: a block of all of them would hold every leaf at once
    for tri, p in zip(fan.normals[base], np.repeat(positions, sizes - 2, axis=0)):
        leaves = _subdivided(tri[None], depth)
        areas = _spherical_triangle_areas(leaves)
        dots = _midpoints(leaves) @ p
        fvals = 1.5 * dots * dots - 0.5 * float(np.dot(p, p))
        total += np.sum(areas * np.mean(fvals, axis=1))     # a numpy sum: overflow raises
        covered += float(np.sum(areas))
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
    if overflow_checked("boundary_metric", cone_membership, fan, v).status != "interior":
        raise DomainError("boundary_metric: h is not interior")
    return mesh_from_indexed_triangles(fan.vertex_positions(v), fan_triangles(
        np.concatenate(fan.face_vertices), np.diff(fan.assembly.offsets)))


# =============================================================================
# SAMPLING AND INPUT
# =============================================================================

def sample_interior(fan, reference, rng, size=None):
    """Random support vector near an interior ``reference``, or a (size, m) stack:
    ``forms.sample_cone`` with base ``reference`` (checked once), raising DomainError
    when no size is interior at SAMPLE_MARGIN (the reference is too close to the
    cone's boundary for the margin)."""
    base = support_vector(reference, fan.m, "sample_interior")
    if cone_membership(fan, base).status != "interior":
        raise DomainError("sample_interior: reference must be interior")
    return sample_cone(lambda rows: fan.assembly.lengths(rows)[..., fan._edges], base, rng, size,
                       SAMPLE_SPREAD, SAMPLE_MARGIN, SAMPLE_SHRINKS, "cone")


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
