"""Deformation space of a convex 3-polytope in support-number coordinates.

A polytope class is fixed by its m outward unit face normals; a member of
the class is the halfspace intersection { x : <x, u_i> <= h_i }.  The
combinatorics (vertices, face cycles, adjacency) are computed from a
reference h as the facets of a Qhull convex hull of the dual points
u_i / (h_i - <u_i, x0>) around an interior point x0, with tolerances
relative to the inradius; the Gauss image -- the tessellation of the
unit sphere whose cell at a polytope vertex collects the normals of its
faces -- is built alongside and must tile the full sphere.

Within a face i, the neighbors j induce a 2D normal fan; the in-plane
support numbers are linear in h:

    h_ij = (h_j - h_i cos phi_ij) / sin phi_ij,   phi_ij = angle(u_i, u_j),

measured from the orthogonal projection of the origin onto the face plane.
Stacking these per-face maps S_i (h_{i.} = S_i h) against the polygon area
matrices A_i gives

    volume v(h)   = (1/3) sum_i h_i * a_i(h_{i.})          (cubic in h)
    area          = sum_i a_i(h_{i.}) = 3 v(1, h, h)       (quadratic in h)

The symmetric trilinear mixed volume v(h,k,p) satisfies the
Alexandrov-Fenchel inequality v(h,k,p)^2 >= v(h,h,p) v(k,k,p), with
equality (p interior) exactly at translate + homothety pairs h = h^x + l k.
The boundary area form has Lorentzian-type signature (1, 3, m-4); its
kernel is the translation space spanned by the h^x.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

from . import polygon as poly
from .errors import (
    ConsistencyError,
    DomainError,
    InvalidInput,
    InvariantFalsified,
    RedundancyError,
    StructuralError,
    UnboundedRegionError,
)
from .forms import SymmetricForm, TrilinearForm
from .surface import mesh_from_indexed_triangles

FEASIBILITY_TOL = 1e-9
ACTIVE_TOL = 1e-8
SPHERE_TILING_TOL = 1e-9
MEMBERSHIP_TOL = 1e-12
EQUALITY_TOL = 1e-10
WITNESS_TOL = 1e-7
MAX_QUADRATURE_DEPTH = 10


def _clamp(x):
    return min(1.0, max(-1.0, x))


# =============================================================================
# FAN CONSTRUCTION
# =============================================================================

class VertexCell:
    """A polytope vertex with its Gauss-image cell (cyclic face list)."""

    def __init__(self, faces, position, area):
        self.faces = list(faces)          # cyclic, oriented outward-CCW
        self.position = np.asarray(position, dtype=float)
        self.area = float(area)           # spherical area of the cell

    def __repr__(self):
        return f"VertexCell(faces={self.faces}, area={self.area:.6f})"


class PolytopeFan:
    """Combinatorics of a 3-polytope: normals, adjacency, per-face 2D fans."""

    def __init__(self, normals, face_cycles, face_frames, face_fans, face_vertices,
                 vertex_cells, phi, reference_h):
        self.normals = normals
        self.m = normals.shape[0]
        #: per face, the cyclic list of neighboring face indices
        self.face_cycles = face_cycles
        self.face_frames = face_frames
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
        self._support_maps = None
        self._volume_form = None
        self._area_form = None

    # -- linear support maps -------------------------------------------------

    def support_map(self, i):
        """Matrix S_i with h_{i.} = S_i h (rows follow face i's cycle)."""
        if self._support_maps is None:
            self._support_maps = [None] * self.m
        if self._support_maps[i] is None:
            cycle = self.face_cycles[i]
            S = np.zeros((len(cycle), self.m))
            for k, j in enumerate(cycle):
                ph = self.phi[(i, j)]
                S[k, j] = 1.0 / math.sin(ph)
                S[k, i] = -math.cos(ph) / math.sin(ph)
            S.setflags(write=False)
            self._support_maps[i] = S
        return self._support_maps[i]

    def _vector(self, h, what):
        v = np.asarray(h, dtype=float)
        if v.shape != (self.m,):
            raise InvalidInput(f"{what}: expected a support vector of length {self.m}")
        if not np.all(np.isfinite(v)):
            raise InvalidInput(f"{what}: support vector must be finite")
        return v

    def vertex_positions(self, h):
        """Vertex coordinates for support vector h (least squares per vertex)."""
        v = self._vector(h, "vertex_positions")
        out = np.empty((len(self.vertex_cells), 3))
        for idx, cell in enumerate(self.vertex_cells):
            U = self.normals[cell.faces]
            if len(cell.faces) == 3:
                out[idx] = np.linalg.solve(U, v[cell.faces])
            else:
                out[idx], *_ = np.linalg.lstsq(U, v[cell.faces], rcond=None)
        return out

    def edge_length(self, i, j, h):
        """Length of the polytope edge between adjacent faces i and j."""
        k = self.face_cycles[i].index(j)
        lengths = poly.edge_lengths(self.face_fans[i], self.support_map(i) @ self._vector(h, "edge_length"))
        return float(lengths[k])


def _check_bounded(normals):
    """Bounded iff the origin is strictly inside the hull of the normals."""
    try:
        hull = ConvexHull(normals)
    except QhullError as exc:
        raise UnboundedRegionError(
            f"normals do not span 3-space; halfspace intersection is unbounded ({exc})"
        ) from exc
    offsets = hull.equations[:, 3]
    if np.any(offsets > -1e-9):
        raise UnboundedRegionError(
            "origin is not strictly inside the hull of the normals: "
            "the halfspace intersection is unbounded")


def _spherical_polygon_area(units):
    """Area of a convex spherical polygon by angle excess."""
    d = len(units)
    total = 0.0
    for k in range(d):
        u = units[k]
        prv = units[(k - 1) % d]
        nxt = units[(k + 1) % d]
        t1 = prv - np.dot(prv, u) * u
        t2 = nxt - np.dot(nxt, u) * u
        n1 = np.linalg.norm(t1)
        n2 = np.linalg.norm(t2)
        if n1 == 0.0 or n2 == 0.0:
            raise StructuralError("degenerate Gauss cell: coincident normals")
        total += math.acos(_clamp(float(np.dot(t1, t2)) / (n1 * n2)))
    return total - (d - 2) * math.pi


def _dual_hull_vertices(A, b, center):
    """Vertices of { y : A y <= b } from Qhull on its dual points.

    ``center`` must lie strictly inside.  The hull of the points
    a_j / (b_j - <a_j, center>) has one simplicial facet n.p + d = 0 per
    vertex simplex; its vertex is center - n / d.  A non-simple vertex
    comes back once per simplex of its triangulated dual facet.
    """
    try:
        hull = ConvexHull(A / (b - A @ center)[:, None])
    except QhullError as exc:
        raise StructuralError(f"degenerate halfspace arrangement ({exc})") from exc
    return center - hull.equations[:, :-1] / hull.equations[:, -1:]


def build_fan(normals, h):
    """Extract the combinatorics of { x : <x, u_i> <= h_i }.

    An interior point x0 and the inradius r come from the top vertex of
    the lifted region { (x, rho) : <u_i, x> + rho <= h_i, rho >= rho_low },
    found by Qhull on its dual points around the known interior point
    (0, min h - max|h|).  The vertices are then the facets of the 3D hull
    of the dual points u_i / (h_i - <u_i, x0>).  Every tolerance is
    relative to r, so the result does not change under scaling,
    translation, rotation or a permutation of the faces.  Facets with the
    same active-plane set merge into one vertex, which is how non-simple
    vertices (cells with more than 3 faces) appear; they only clear the
    ``simple`` flag.  Vertex ids follow the sorted active sets.  Each
    halfspace must support a 2-face (otherwise a redundancy error lists
    the offending indices) and the region must be bounded with nonempty
    interior.
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

    hv = np.asarray(h, dtype=float)
    if hv.shape != (m,):
        raise InvalidInput(f"build_fan: h must have length {m}")
    if not np.all(np.isfinite(hv)):
        raise InvalidInput("build_fan: h must be finite")

    _check_bounded(U)
    scale = float(np.max(np.abs(hv)))
    if scale == 0.0:
        raise StructuralError("h = 0: the region is a single point")

    # ---- interior point and inradius: top vertex of the lifted region ----
    rho_c = float(np.min(hv)) - scale
    lift = _dual_hull_vertices(
        np.vstack([np.column_stack([U, np.ones(m)]), [0.0, 0.0, 0.0, -1.0]]),
        np.append(hv, scale - rho_c),
        np.array([0.0, 0.0, 0.0, rho_c]))
    top = lift[np.argmax(lift[:, 3])]
    x0, r = top[:3], float(top[3])
    if r < -FEASIBILITY_TOL * scale:
        raise RedundancyError(list(range(m)), "no feasible vertices: empty region")
    if r <= FEASIBILITY_TOL * scale:
        raise StructuralError(f"region has no interior: inradius {r!r} at support scale {scale!r}")

    # ---- vertices: facets of the dual hull, merged by active-plane set ----
    corners = _dual_hull_vertices(U, hv, x0)
    slack = corners @ U.T - hv
    if np.max(slack) > FEASIBILITY_TOL * r:
        raise ConsistencyError(
            f"dual-hull vertex violates a halfspace by {np.max(slack):.3e} (inradius {r:.3e})")
    groups = {}
    for x, row in zip(corners, slack):
        groups.setdefault(tuple(np.flatnonzero(row >= -ACTIVE_TOL * r).tolist()), []).append(x)
    active_sets = sorted(groups)
    if any(len(active) < 3 for active in active_sets):
        raise StructuralError("vertex with fewer than 3 active planes")
    positions = [np.mean(groups[active], axis=0) for active in active_sets]
    active_sets = [set(active) for active in active_sets]

    face_to_vertices = [[] for _ in range(m)]
    for vid, active in enumerate(active_sets):
        for i in active:
            face_to_vertices[i].append(vid)
    empty = [i for i in range(m) if len(face_to_vertices[i]) < 3]
    if empty:
        raise RedundancyError(empty)

    # ---- deterministic face frames: right-handed (e1, e2, u) ----
    frames = []
    for i in range(m):
        u = U[i]
        axis = int(np.argmin(np.abs(u)))
        a = np.zeros(3)
        a[axis] = 1.0
        e1 = a - np.dot(a, u) * u
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u, e1)
        frames.append((e1, e2))

    # ---- face cycles (vertices CCW seen from outside) ----
    face_vertex_cycles = []
    for i in range(m):
        e1, e2 = frames[i]
        vids = face_to_vertices[i]
        pts = np.array([[np.dot(positions[v], e1), np.dot(positions[v], e2)] for v in vids])
        center = pts.mean(axis=0)
        ang = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
        order = np.argsort(ang)
        face_vertex_cycles.append([vids[o] for o in order])

    face_cycles = []
    phi = {}
    for i in range(m):
        cyc = face_vertex_cycles[i]
        neighbors = []
        for k in range(len(cyc)):
            va, vb = cyc[k], cyc[(k + 1) % len(cyc)]
            shared = (active_sets[va] & active_sets[vb]) - {i}
            if len(shared) != 1:
                raise StructuralError(
                    f"edge of face {i} between vertices {va},{vb} is shared by "
                    f"{len(shared)} other faces (expected 1)")
            j = shared.pop()
            neighbors.append(j)
            ph = math.acos(_clamp(float(np.dot(U[i], U[j]))))
            if not (0.0 < ph < math.pi):
                raise StructuralError(f"adjacent faces {i},{j} with degenerate angle {ph}")
            phi[(i, j)] = ph
        face_cycles.append(neighbors)

    for (i, j) in list(phi):
        if (j, i) not in phi:
            raise StructuralError(f"adjacency is not symmetric: {i}->{j} without {j}->{i}")

    # ---- per-face 2D fans from in-plane edge normals ----
    face_fans = []
    for i in range(m):
        e1, e2 = frames[i]
        angles = []
        for j in face_cycles[i]:
            ph = phi[(i, j)]
            w = (U[j] - math.cos(ph) * U[i]) / math.sin(ph)
            ang = math.atan2(float(np.dot(w, e2)), float(np.dot(w, e1))) % (2.0 * math.pi)
            if ang >= 2.0 * math.pi:       # fmod of a tiny negative rounds up to 2*pi
                ang = 0.0
            angles.append(ang)
        face_fans.append(poly.NormalFan2D(angles))

    # ---- Gauss cells at the vertices ----
    cells = []
    total_area = 0.0
    for vid, active in enumerate(active_sets):
        faces = sorted(active)
        d = np.sum(U[faces], axis=0)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            raise StructuralError(f"vertex {vid}: normals average to zero")
        d /= nd
        axis = int(np.argmin(np.abs(d)))
        a = np.zeros(3)
        a[axis] = 1.0
        f1 = a - np.dot(a, d) * d
        f1 /= np.linalg.norm(f1)
        f2 = np.cross(d, f1)
        ang = [math.atan2(float(np.dot(U[f], f2)), float(np.dot(U[f], f1))) for f in faces]
        order = np.argsort(ang)
        cyc = [faces[o] for o in order]
        area = _spherical_polygon_area([U[f] for f in cyc])
        cells.append(VertexCell(cyc, positions[vid], area))
        total_area += area
    if abs(total_area - 4.0 * math.pi) > SPHERE_TILING_TOL:
        raise ConsistencyError(
            f"Gauss image does not tile the sphere: total cell area {total_area!r}")

    U.setflags(write=False)
    fan = PolytopeFan(U, face_cycles, frames, face_fans, face_vertex_cycles,
                      cells, phi, hv.copy())
    return fan


# =============================================================================
# SUPPORT NUMBERS, VOLUME, AREA
# =============================================================================

def face_support_numbers(fan, h, i):
    """In-plane support numbers h_{i.} of face i (cycle order)."""
    if not (0 <= i < fan.m):
        raise InvalidInput(f"face_support_numbers: no face {i}")
    return fan.support_map(i) @ fan._vector(h, "face_support_numbers")


def point_support_vector(fan, x):
    """Support vector h^x of the point x: h^x_i = <x, u_i>."""
    p = np.asarray(x, dtype=float)
    if p.shape != (3,):
        raise InvalidInput("point_support_vector: x must be a point in 3-space")
    return fan.normals @ p


def cone_membership(fan, h, tol=MEMBERSHIP_TOL):
    """Classify h by the signs of all edge lengths l_ij(h)."""
    v = fan._vector(h, "cone_membership")
    tau = tol * float(np.linalg.norm(v))
    degenerate = []
    outside = []
    for i in range(fan.m):
        lengths = poly.edge_lengths(fan.face_fans[i], fan.support_map(i) @ v)
        for k, j in enumerate(fan.face_cycles[i]):
            if i < j:
                if lengths[k] < -tau:
                    outside.append((i, j))
                elif lengths[k] <= tau:
                    degenerate.append((i, j))
    if outside:
        return poly.ConeLocation("outside", outside)
    if degenerate:
        return poly.ConeLocation("boundary", degenerate)
    return poly.ConeLocation("interior", [])


def volume(fan, h):
    """v(h) = (1/3) sum_i h_i a_i(h_{i.}) -- the Euclidean volume on the cone."""
    v = fan._vector(h, "volume")
    total = 0.0
    for i in range(fan.m):
        hi = fan.support_map(i) @ v
        total += v[i] * poly.area_form(fan.face_fans[i]).q(hi)
    return total / 3.0


def _face_grams(fan):
    """G_i = S_i' A_i S_i: the quadratic form h -> a_i(h_{i.}) as an m x m matrix."""
    grams = []
    for i in range(fan.m):
        S = fan.support_map(i)
        A = poly.area_form(fan.face_fans[i]).entries
        grams.append(S.T @ A @ S)
    return grams


def volume_form(fan):
    """The mixed volume as a symmetric trilinear form.

    Assembled from the raw slices T[i] = (1/3) G_i; their total symmetry is
    a theorem and is asserted (within 1e-10) before symmetrizing.
    """
    if fan._volume_form is None:
        if not fan.simple:
            # with a non-simple vertex the frozen-combinatorics cubic stops
            # being the volume off the cone, and the slices lose symmetry
            raise DomainError(
                "volume_form: fan has a non-simple vertex; the volume is not "
                "a single cubic polynomial around this combinatorics")
        grams = _face_grams(fan)
        T = np.stack(grams) / 3.0
        fan._volume_form = TrilinearForm(T, symmetry_tol=1e-10)
    return fan._volume_form


def boundary_area_form(fan):
    """area(h) = sum_i a_i(h_{i.}) as an m x m symmetric form.

    Cross-checked entrywise against 3 v(1, ., .) from the volume tensor.
    """
    if fan._area_form is None:
        grams = _face_grams(fan)
        M = np.add.reduce(grams)
        form = SymmetricForm(M, symmetry_tol=1e-10)
        if fan.simple:
            ones = np.ones(fan.m)
            via_volume = 3.0 * volume_form(fan).contract(ones).entries
            scale = max(1.0, float(np.max(np.abs(form.entries))))
            defect = float(np.max(np.abs(form.entries - via_volume)))
            if defect > 1e-10 * scale:
                raise ConsistencyError(
                    f"area form disagrees with 3 v(1,.,.): entrywise defect {defect:.3e}")
        fan._area_form = form
    return fan._area_form


# =============================================================================
# ALEXANDROV-FENCHEL
# =============================================================================

AFResult = namedtuple("AFResult",
                      ["residual", "scale", "equality", "witness_x", "witness_lambda"])


def alexandrov_fenchel_check(fan, h, k, p, equality_tol=EQUALITY_TOL, witness_tol=WITNESS_TOL):
    """Verify v(h,k,p)^2 >= v(h,h,p) v(k,k,p) and detect equality.

    p must lie in the closed cone.  In the equality case the witness
    h = h^x + lambda k is recovered over (x, lambda) by least squares.
    """
    hv = fan._vector(h, "alexandrov_fenchel_check")
    kv = fan._vector(k, "alexandrov_fenchel_check")
    pv = fan._vector(p, "alexandrov_fenchel_check")
    if cone_membership(fan, pv).status == "outside":
        raise DomainError("alexandrov_fenchel_check: p lies outside the closed cone")
    T = volume_form(fan)
    vhkp = T.v(hv, kv, pv)
    vhhp = T.v(hv, hv, pv)
    vkkp = T.v(kv, kv, pv)
    residual = vhkp * vhkp - vhhp * vkkp
    scale = max(vhkp * vhkp, abs(vhhp * vkkp))
    if residual < -1e-12 * scale:
        raise InvariantFalsified(
            f"Alexandrov-Fenchel inequality violated: residual {residual:.3e} "
            f"at scale {scale:.3e}")
    if residual > equality_tol * max(scale, 1e-300):
        return AFResult(residual, scale, False, None, None)
    A = np.column_stack([fan.normals, kv])
    sol, *_ = np.linalg.lstsq(A, hv, rcond=None)
    fit = float(np.linalg.norm(hv - A @ sol))
    if fit >= witness_tol * float(np.linalg.norm(hv)):
        raise InvariantFalsified(
            f"equality case without translate+homothety witness (fit residual {fit:.3e})")
    return AFResult(residual, scale, True, np.array(sol[:3]), float(sol[3]))


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
    v = fan._vector(h, "first_area_measure")
    if cone_membership(fan, v).status == "outside":
        raise DomainError("first_area_measure: h lies outside the closed cone")
    arcs = []
    total = 0.0
    for i in range(fan.m):
        lengths = poly.edge_lengths(fan.face_fans[i], fan.support_map(i) @ v)
        for k, j in enumerate(fan.face_cycles[i]):
            if i < j:
                arc = Arc((i, j), fan.phi[(i, j)], float(lengths[k]))
                arcs.append(arc)
                total += arc.arc_length * arc.weight
    arcs.sort(key=lambda a: a.faces)
    return FirstAreaMeasure(arcs, total)


# =============================================================================
# SPHERICAL INTEGRAL
# =============================================================================

def _subdivided(tri_block, depth):
    """Recursive 4-way geodesic midpoint split of an (N,3,3) triangle block."""
    T = tri_block
    for _ in range(depth):
        a, b, c = T[:, 0], T[:, 1], T[:, 2]
        ab = a + b
        bc = b + c
        ca = c + a
        ab /= np.linalg.norm(ab, axis=1)[:, None]
        bc /= np.linalg.norm(bc, axis=1)[:, None]
        ca /= np.linalg.norm(ca, axis=1)[:, None]
        T = np.concatenate([
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ])
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
    nodes (planar-quadratic-exact, so the quadratic integrand converges
    at second order in the cell diameter).
    """
    depth = int(depth)
    if not (0 <= depth <= MAX_QUADRATURE_DEPTH):
        raise InvalidInput(f"depth must be in [0, {MAX_QUADRATURE_DEPTH}]")
    v = fan._vector(h, "area_via_sphere_integral")
    positions = fan.vertex_positions(v)

    total = 0.0
    covered = 0.0
    for cell, p in zip(fan.vertex_cells, positions):
        units = fan.normals[cell.faces]
        p2 = float(np.dot(p, p))
        base = [np.stack([units[0], units[k], units[k + 1]])
                for k in range(1, len(units) - 1)]
        for tri in base:
            leaves = _subdivided(tri[None, :, :], depth)
            areas = _spherical_triangle_areas(leaves)
            a, b, c = leaves[:, 0], leaves[:, 1], leaves[:, 2]
            mids = np.stack([a + b, b + c, c + a], axis=1)
            mids /= np.linalg.norm(mids, axis=2)[:, :, None]
            dots = mids @ p
            fvals = 1.5 * dots * dots - 0.5 * p2
            total += float(np.sum(areas * np.mean(fvals, axis=1)))
            covered += float(np.sum(areas))
    if abs(covered - 4.0 * math.pi) > 1e-8:
        raise StructuralError(
            f"Gauss image does not tile the sphere: covered {covered!r} of 4*pi")
    return total


# =============================================================================
# BOUNDARY METRIC
# =============================================================================

def boundary_metric(fan, h):
    """The induced flat cone metric on the boundary as a triangle mesh.

    Each face polygon is fan-triangulated from its first cycle vertex; the
    corners carry the polytope vertex ids as labels.  The cone curvature at
    a vertex equals the spherical area of its Gauss cell.
    """
    v = fan._vector(h, "boundary_metric")
    if cone_membership(fan, v).status != "interior":
        raise DomainError("boundary_metric: h is not interior")
    positions = fan.vertex_positions(v)
    triangles = []
    for i in range(fan.m):
        cyc = fan.face_vertices[i]
        for k in range(1, len(cyc) - 1):
            triangles.append((cyc[0], cyc[k], cyc[k + 1]))
    return mesh_from_indexed_triangles(positions, triangles)


# =============================================================================
# SAMPLING AND INPUT
# =============================================================================

def sample_interior(fan, reference, rng, spread=0.25, margin=1e-9):
    """Random support vector near an interior ``reference``.

    Multiplicative perturbation, shrunk geometrically until the candidate
    clears the cone interior with a positive margin; always succeeds.
    """
    base = fan._vector(reference, "sample_interior")
    if cone_membership(fan, base).status != "interior":
        raise DomainError("sample_interior: reference must be interior")
    s = spread
    for _ in range(60):
        cand = base * (1.0 + s * rng.uniform(-1.0, 1.0, fan.m))
        if cone_membership(fan, cand, tol=margin).status == "interior":
            return cand
        s *= 0.5
    return base.copy()


def fan_from_json_dict(data):
    """Build a fan (and return its h) from {"normals": [[x,y,z]...], "h": [...]}."""
    try:
        normals = data["normals"]
        h = data["h"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"polytope JSON needs 'normals' and 'h': {exc}") from exc
    fan = build_fan(normals, h)
    return fan, np.asarray(h, dtype=float)
