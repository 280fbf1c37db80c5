"""Shared geometric fixtures: fans, polytopes, meshes, quotient fans.

Everything here is deterministic given the rng passed in.  The Fuchsian
builders construct genuine geodesic triangulations of a closed genus-2
hyperbolic surface (vertex angle sums exactly 2 pi), so the quotient-fan
consistency theorems (Hessian symmetry, tensor symmetry) hold by
construction and the library's internal cross-checks stay quiet.
"""

import math
import os
import sys

import numpy as np
from scipy.optimize import linprog

from mixedform import forms, fuchsian, polygon, surface

TWO_PI = 2.0 * math.pi


def child_env():
    """Environment for a child interpreter that imports what this one imports."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def face_fans(fan):
    """The NormalFan2D of every face of a polytope or quotient fan, rebuilt from
    the normal angles that its face assembly keeps."""
    F = fan.assembly
    return [polygon.NormalFan2D(a) for a in forms.runs(F.angles, np.diff(F.offsets))]


# =============================================================================
# POLYGON FANS
# =============================================================================

def perturbed_polygon_fan(n, rng, jitter=0.2):
    """Random convex n-gon fan: regular angles with < half-spacing jitter."""
    spacing = TWO_PI / n
    base = spacing * np.arange(n)
    angles = np.mod(base + spacing * rng.uniform(-jitter, jitter, n), TWO_PI)
    angles = np.sort(angles)
    return polygon.NormalFan2D(angles)


# =============================================================================
# POLYTOPE NORMAL SETS
# =============================================================================

CUBE_NORMALS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)

OCTAHEDRON_NORMALS = np.array([[sx, sy, sz] for sx in (1, -1)
                               for sy in (1, -1) for sz in (1, -1)],
                              dtype=float) / math.sqrt(3.0)


def cut_cube(delta, depth):
    """(normals, h) of the cube [-1, 1]^3 cut at its edge x = z = 1 by the plane
    delta x + z <= 1 + delta - depth, whose unit normal (delta, 0, 1) / |.| comes last.

    The cut is ``depth`` deep along z at x = 1; as delta falls the new face's
    normal nears the top face's, the near-parallel case of ``build_fan``.
    """
    n = np.array([delta, 0.0, 1.0])
    size = float(np.linalg.norm(n))
    return (np.vstack([CUBE_NORMALS, n / size]),
            np.append(np.ones(6), (1.0 + delta - depth) / size))


def fibonacci_sphere(m, rng=None, jitter=0.0):
    """m roughly equidistributed unit vectors, optionally jittered."""
    idx = np.arange(m, dtype=float) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * idx
    z = 1.0 - 2.0 * idx / m
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    if jitter and rng is not None:
        pts = pts + jitter * rng.standard_normal(pts.shape)
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts


def random_simple_polytope(m, rng, h_jitter=0.1, max_tries=40):
    """A simple polytope fan with m faces plus an interior support vector."""
    from mixedform import polytope
    from mixedform.errors import MixedFormError

    for _ in range(max_tries):
        normals = fibonacci_sphere(m, rng, jitter=0.15)
        h = 1.0 + h_jitter * rng.uniform(-1.0, 1.0, m)
        try:
            fan = polytope.build_fan(normals, h)
        except MixedFormError:
            continue
        if fan.simple and polytope.cone_membership(fan, h).status == "interior":
            return fan, h
    raise RuntimeError(f"could not draw a simple {m}-face polytope")


# =============================================================================
# TRIANGLE MESHES
# =============================================================================

def cube_boundary_mesh():
    from mixedform import polytope

    fan = polytope.build_fan(CUBE_NORMALS, np.ones(6))
    return polytope.boundary_metric(fan, np.ones(6))


def genus2_octagon_mesh():
    """Flat genus-2 surface: regular Euclidean octagon, opposite sides glued.

    Fan-triangulated from vertex 0 into 6 triangles; the single vertex has
    cone angle 6 pi (curvature -4 pi).
    """
    V = np.array([[math.cos(k * math.pi / 4.0), math.sin(k * math.pi / 4.0)]
                  for k in range(8)])
    tris = [(0, k, k + 1) for k in range(1, 7)]
    lengths = [[float(np.linalg.norm(V[j] - V[i])),
                float(np.linalg.norm(V[k] - V[j])),
                float(np.linalg.norm(V[i] - V[k]))] for (i, j, k) in tris]
    # triangle t sides: 0: diagonal 0->t+1 (t>0: interior), 1: octagon side
    # t+1 -> t+2, 2: diagonal t+2 -> 0.  Boundary slots in octagon-side order:
    side_slots = [(0, 0)] + [(t, 1) for t in range(6)] + [(5, 2)]
    gluing = [(t, 2, t + 1, 0) for t in range(5)]                 # diagonals
    gluing += [side_slots[i] + side_slots[i + 4] for i in range(4)]  # i ~ i+4
    return surface.TriangleMesh(lengths, gluing)


def doubled_polygon_mesh(fan, h):
    """Two copies of a polygon glued along the boundary (a flat sphere)."""
    verts = polygon.vertices(fan, h)
    n = fan.n
    tris = []
    # front copy, counterclockwise, fan-triangulated from vertex 0
    front = [(0, k, k + 1) for k in range(1, n - 1)]
    # back copy with reversed orientation on vertex ids n..2n-1
    back = [(n, n + k + 1, n + k) for k in range(1, n - 1)]
    points = np.vstack([np.column_stack([verts, np.zeros(n)]),
                        np.column_stack([verts, np.zeros(n)])])
    tris = front + back
    # boundary edges: front (i, i+1) matches back (n+i+1, n+i)
    # encode through mesh_from_indexed_triangles by merging indices: instead
    # build gluing manually from directed edge lookup
    directed = {}
    for t, (i, j, k) in enumerate(tris):
        for e, (a, b) in enumerate(((i, j), (j, k), (k, i))):
            directed[(a, b)] = (t, e)
    gluing = []
    seen = set()

    def pair(slot_a, slot_b):
        key = tuple(sorted([slot_a, slot_b]))
        if key not in seen:
            seen.add(key)
            gluing.append(slot_a + slot_b)

    for (a, b), (t, e) in directed.items():
        if (b, a) in directed:
            pair((t, e), directed[(b, a)])
    for i in range(n):
        a, b = i, (i + 1) % n
        fa = directed.get((a, b))
        ba = directed.get((n + b, n + a))
        if fa and ba:
            pair(fa, ba)
    lengths = [[float(np.linalg.norm(points[j] - points[i])),
                float(np.linalg.norm(points[k] - points[j])),
                float(np.linalg.norm(points[i] - points[k]))] for (i, j, k) in tris]
    return surface.TriangleMesh(lengths, gluing)


# =============================================================================
# HYPERBOLIC TRIANGULATIONS -> QUOTIENT FANS
# =============================================================================

def hyp_angle(L, t, c):
    """Hyperbolic corner angle (law of cosines) at corner c of triangle t."""
    A = L[t][c]
    B = L[t][(c + 2) % 3]
    C = L[t][(c + 1) % 3]
    x = (math.cosh(A) * math.cosh(B) - math.cosh(C)) / (math.sinh(A) * math.sinh(B))
    return math.acos(min(1.0, max(-1.0, x)))


def genus2_base_mesh():
    """Regular hyperbolic octagon (corner angle pi/4) coned from its center.

    8 isoceles triangles; spokes have cosh R = 3 + 2 sqrt 2, octagon sides
    cosh s = 5 + 4 sqrt 2.  Two vertex classes: center (8 corners) and the
    octagon vertex (16 corners); both angle sums are exactly 2 pi.
    """
    R = math.acosh(3.0 + 2.0 * math.sqrt(2.0))
    s = math.acosh(5.0 + 4.0 * math.sqrt(2.0))
    lengths = [[R, s, R] for _ in range(8)]
    gluing = [(k, 2, (k + 1) % 8, 0) for k in range(8)]
    gluing += [(k, 1, k + 4, 1) for k in range(4)]
    return surface.TriangleMesh(lengths, gluing)


def edge_vector(mesh):
    """(pairs, slot_to_edge, values): one length per glued pair."""
    pairs = sorted({tuple(sorted([a, b])) for a, b in mesh.sigma.items()})
    slot_to_edge = {}
    for eid, (a, b) in enumerate(pairs):
        slot_to_edge[a] = eid
        slot_to_edge[b] = eid
    values = np.array([mesh.lengths[a[0]][a[1]] for a, _ in pairs])
    return pairs, slot_to_edge, values


def lengths_from_edges(mesh, evec, slot_to_edge):
    return [[float(evec[slot_to_edge[(t, e)]]) for e in range(3)]
            for t in range(mesh.num_triangles)]


def hyp_angle_sums(mesh, L):
    return np.array([sum(hyp_angle(L, t, c) for t, c in orbit)
                     for orbit in mesh.vertex_orbits])


def project_smooth(mesh, evec, slot_to_edge, tol=1e-13, max_iter=50):
    """Newton least-norm projection of edge lengths onto the 2 pi sums."""
    x = np.asarray(evec, dtype=float).copy()
    for _ in range(max_iter):
        L = lengths_from_edges(mesh, x, slot_to_edge)
        res = hyp_angle_sums(mesh, L) - TWO_PI
        if np.max(np.abs(res)) < tol:
            return x
        J = np.zeros((len(res), len(x)))
        delta = 1e-7
        for j in range(len(x)):
            xp = x.copy()
            xp[j] += delta
            Lp = lengths_from_edges(mesh, xp, slot_to_edge)
            J[:, j] = (hyp_angle_sums(mesh, Lp) - TWO_PI - res) / delta
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        x = x + step
        if np.any(x <= 0.05):
            raise RuntimeError("projection pushed an edge length toward zero")
    raise RuntimeError("angle-sum projection did not converge")


def midpoint_subdivide(lengths, gluing):
    """4-to-1 split of a hyperbolic triangulation at the edge midpoints.

    Children of triangle t occupy slots 4t..4t+3; midsegment lengths come
    from the hyperbolic law of cosines at the parent corners, so corner
    angles at the original vertices are preserved exactly and the angle
    sums at the new midpoint vertices are 2 pi automatically.
    """
    mesh = surface.TriangleMesh(lengths, gluing)
    L = mesh.lengths
    T = mesh.num_triangles
    half = L / 2.0
    d = np.empty((T, 3))
    for t in range(T):
        for k in range(3):
            a = half[t, k]
            b = half[t, (k + 2) % 3]
            alpha = hyp_angle(L, t, k)
            d[t, k] = math.acosh(math.cosh(a) * math.cosh(b)
                                 - math.sinh(a) * math.sinh(b) * math.cos(alpha))
    new_lengths = []
    for t in range(T):
        new_lengths.append([half[t, 0], d[t, 0], half[t, 2]])   # (c0, M0, M2)
        new_lengths.append([half[t, 0], half[t, 1], d[t, 1]])   # (M0, c1, M1)
        new_lengths.append([half[t, 1], half[t, 2], d[t, 2]])   # (M1, c2, M2)
        new_lengths.append([d[t, 1], d[t, 2], d[t, 0]])         # (M0, M1, M2)
    new_gluing = []
    for t in range(T):
        new_gluing += [(4 * t + 3, 0, 4 * t + 1, 2),
                       (4 * t + 3, 1, 4 * t + 2, 2),
                       (4 * t + 3, 2, 4 * t + 0, 1)]
    first = {0: lambda t: (4 * t + 0, 0), 1: lambda t: (4 * t + 1, 1),
             2: lambda t: (4 * t + 2, 1)}
    second = {0: lambda t: (4 * t + 1, 0), 1: lambda t: (4 * t + 2, 0),
              2: lambda t: (4 * t + 0, 2)}
    done = set()
    for (t, e), (t2, e2) in mesh.sigma.items():
        if ((t2, e2), (t, e)) in done:
            continue
        done.add(((t, e), (t2, e2)))
        new_gluing.append(first[e](t) + second[e2](t2))
        new_gluing.append(second[e](t) + first[e2](t2))
    return new_lengths, new_gluing


def fan_from_triangulation(mesh, L=None):
    """QuotientFan of a geodesic triangulation: classes = vertex orbits.

    Around each vertex the edge-ends appear in orbit order; phi is the
    edge length, omega the hyperbolic corner angle.
    """
    L = [list(map(float, row)) for row in (L if L is not None else mesh.lengths)]
    corner_to_class = {}
    for ci, orbit in enumerate(mesh.vertex_orbits):
        for slot in orbit:
            corner_to_class[slot] = ci
    faces = []
    for orbit in mesh.vertex_orbits:
        entries = []
        for (t, c) in orbit:
            to = corner_to_class[(t, (c + 1) % 3)]
            entries.append((to, L[t][c], hyp_angle(L, t, c)))
        faces.append(entries)
    T = mesh.num_triangles
    chi = len(mesh.vertex_orbits) - (3 * T) // 2 + T
    return fuchsian.QuotientFan(faces, (2 - chi) // 2, vertices=T)


def find_interior_h(fan, floor=0.2, cap=1.0, min_margin=1e-4):
    """Max-margin support vector: all edge lengths >= t, h in [floor, cap]."""
    rows = []
    for i, face in enumerate(face_fans(fan)):
        rows.extend(face.length_matrix @ fan.assembly.support_map(i))
    A = np.array(rows)
    n_rows, m = A.shape
    A_ub = np.hstack([-A, np.ones((n_rows, 1))])
    cost = np.zeros(m + 1)
    cost[m] = -1.0
    r = linprog(cost, A_ub=A_ub, b_ub=np.zeros(n_rows),
                bounds=[(floor, cap)] * m + [(None, None)], method="highs")
    if not r.success or r.x[m] <= min_margin:
        raise RuntimeError("no interior support vector for this quotient fan")
    return r.x[:m]


def random_fuchsian_fan(rng, subdivide=False, amplitude=0.03):
    """Perturbed genus-2 quotient fan: m = 2, or m = 14 after subdivision."""
    mesh = genus2_base_mesh()
    pairs, s2e, ev = edge_vector(mesh)
    ev = ev * (1.0 + amplitude * rng.uniform(-1.0, 1.0, len(ev)))
    ev = project_smooth(mesh, ev, s2e)
    L = lengths_from_edges(mesh, ev, s2e)
    if not subdivide:
        fan = fan_from_triangulation(mesh, L)
        return fan, find_interior_h(fan)
    sub_lengths, sub_gluing = midpoint_subdivide(L, mesh.to_json_dict()["gluing"])
    sub = surface.TriangleMesh(sub_lengths, sub_gluing)
    fan = fan_from_triangulation(sub)
    return fan, find_interior_h(fan)


def sample_fuchsian_interior(fan, reference, rng, spread=0.2):
    """Random interior support vector near ``reference`` (always succeeds)."""
    s = spread
    for _ in range(60):
        cand = reference * (1.0 + s * rng.uniform(-1.0, 1.0, fan.m))
        if fuchsian.cone_membership(fan, cand, tol=1e-9).status == "interior":
            return cand
        s *= 0.5
    return np.asarray(reference, dtype=float).copy()


def batched_covolume(fan, H):
    """covol on a batch of support vectors, one vectorized pass per face."""
    H = np.asarray(H, dtype=float)
    total = np.zeros(H.shape[0])
    for i, face in enumerate(face_fans(fan)):
        X = H @ fan.assembly.support_map(i).T
        A = polygon.area_form(face).entries
        total += H[:, i] * np.einsum("nd,de,ne->n", X, A, X)
    return total / 3.0


def fd_hessian_batch(fan, h, delta=0.01):
    """Exact central-difference Hessian of the covolume (cubic => no bias)."""
    m = fan.m
    points = [h]
    for i in range(m):
        for sign in (1.0, -1.0):
            x = h.copy()
            x[i] += sign * delta
            points.append(x)
    quads = []
    for i in range(m):
        for j in range(i + 1, m):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                x = h.copy()
                x[i] += si * delta
                x[j] += sj * delta
                points.append(x)
            quads.append((i, j))
    vals = batched_covolume(fan, np.array(points))
    f0 = vals[0]
    H = np.zeros((m, m))
    for i in range(m):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        H[i, i] = (fp - 2.0 * f0 + fm) / (delta * delta)
    base = 1 + 2 * m
    for idx, (i, j) in enumerate(quads):
        fpp, fpm, fmp, fmm = vals[base + 4 * idx: base + 4 * idx + 4]
        H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * delta * delta)
    return H
