"""Independent references that only the tests use.

``polarize_cubic`` rebuilds the dense symmetric trilinear form of a cubic
evaluator by inclusion-exclusion on basis vectors,

    6 v(h,k,p) = v(h+k+p) + v(h) + v(k) + v(p) - v(h+k) - v(k+p) - v(h+p),

so it shares no code with the face-local mixed forms of ``mixedform.faces``.
``abc_lemma_residuals`` gives the three scalars of the quadratic-in-lambda
three-body argument behind the discriminant bound B^2 <= A C.
``loop_build_fan`` and ``loop_vertex_positions`` derive a polytope fan one
face and one vertex at a time (after the interior-point stage, which they
share with ``polytope``), as ``polytope`` did before it took each stage as
one array pass; the fan must come out ``==``.
``hull_interior_point`` reads the interior point and inradius from the full
4D hull of the lifted dual points, which ``polytope._interior_point`` (the
walk to one facet) must match.
``loop_sphere_integral`` and ``loop_boundary_metric`` fan-triangulate each
Gauss cell and each face in a Python loop, as ``polytope`` did before
``forms.fan_triangles``, and ``loop_subdivided`` splits one base triangle at a
time, stacking the four children of each level one by one, as ``polytope``
did before it split blocks of base triangles on one index template
(``polytope._split_template``); ``loop_boundary_metric`` also measures each
side alone, as ``surface.mesh_from_indexed_triangles`` did before it took
all sides in one ``row_dot`` pass; the quadrature and the mesh must be ``==``.
``stacked_pass_sample`` draws support vectors a pass of six sizes at a time,
evaluating each size's lengths from scratch and keeping per-row bookkeeping,
as ``forms.sample_cone`` did before single draws skipped the bookkeeping and
stacks were placed by linearity; ``three_product_minkowski_check``
evaluates q(h), q(k) and b(h, k) by three ``SymmetricForm._b`` calls, as
``polygon`` did before pair checks took one product each; draws, stream
positions, ``InequalityResult`` fields and error messages must be equal.
``loop_corner_angles`` takes each corner angle of a mesh on its own (its
row scaled by ``unit_scaled``, the law of cosines, ``math.acos`` of the
clamped cosine), as ``surface`` did before ``TriangleMesh.corner_angles``
took them as one array; the angles must be ``==``.
"""

import math
from types import SimpleNamespace

import numpy as np

from mixedform import polygon, polytope
from mixedform.errors import (ConsistencyError, DomainError, InvalidInput, MixedFormError,
                              RedundancyError, StructuralError)
from mixedform.forms import (MEMBERSHIP_TOL, TrilinearForm, overflow_checked,
                             reversed_cauchy_schwarz_check, support_vector, unit_scaled,
                             wall_bound)
from mixedform.polygon import SAMPLE_LEVELS_PER_PASS, NormalFan2D
from mixedform.surface import TriangleMesh, mesh_from_indexed_triangles

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


def _frame(u):
    """Deterministic unit e1, e2 with (e1, e2, u) a right-handed frame (u a unit vector)."""
    a = np.zeros(3)
    a[int(np.argmin(np.abs(u)))] = 1.0
    e1 = a - np.dot(a, u) * u
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(u, e1)


def hull_interior_point(U, hn):
    """``polytope._interior_point`` from the full 4D hull of the lifted dual points.

    Every vertex of the lifted region comes back, and the top one (the first
    of equal heights) gives x0 and r, as ``build_fan`` took them before it
    walked to the one facet that the +rho ray leaves through.
    """
    m = len(hn)
    rho_c = float(np.min(hn)) - 1.0
    lift = polytope._dual_hull_vertices(
        np.vstack([np.column_stack([U, np.ones(m)]), [0.0, 0.0, 0.0, -1.0]]),
        np.append(hn, 1.0 - rho_c),
        np.array([0.0, 0.0, 0.0, rho_c]))
    top = lift[np.argmax(lift[:, 3])]
    return top[:3], float(top[3])


def loop_build_fan(normals, h):
    """``polytope.build_fan`` as one Python pass per face and per Gauss cell.

    Returns the fan's normals, face_cycles, face_fans, face_vertices,
    vertex_cells and phi as a namespace.
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
    polytope._check_bounded(U)
    scale = float(np.max(np.abs(hv)))
    if scale == 0.0:
        raise StructuralError("h = 0: the region is a single point")
    hn = hv / scale

    x0, r = polytope._interior_point(U, hn, scale)

    # ---- vertices: facets of the dual hull, merged by active-plane set ----
    corners = polytope._dual_hull_vertices(U, hn, x0)
    slack = corners @ U.T - hn
    if np.max(slack) > polytope.FEASIBILITY_TOL * r:
        raise ConsistencyError(f"dual-hull vertex violates a halfspace by "
                               f"{np.max(slack) * scale:.3e} (inradius {r * scale:.3e})")
    groups = {}
    for x, row in zip(corners, slack):
        groups.setdefault(tuple(np.flatnonzero(row >= -polytope.ACTIVE_TOL * r).tolist()), []).append(x)
    active_sets = sorted(groups)
    if any(len(active) < 3 for active in active_sets):
        raise StructuralError("vertex with fewer than 3 active planes")
    unit_positions = [np.mean(groups[active], axis=0) for active in active_sets]
    positions = [scale * p for p in unit_positions]
    active_sets = [set(active) for active in active_sets]

    face_to_vertices = [[] for _ in range(m)]
    for vid, active in enumerate(active_sets):
        for i in active:
            face_to_vertices[i].append(vid)
    empty = [i for i in range(m) if len(face_to_vertices[i]) < 3]
    if empty:
        raise RedundancyError(empty)

    # ---- per face: vertex cycle (CCW seen from outside), the neighbor across
    # each edge, phi, and the edge's in-plane normal angle ----
    face_vertex_cycles, face_cycles, face_angles, phi = [], [], [], {}
    for i in range(m):
        e1, e2 = _frame(U[i])
        vids = face_to_vertices[i]
        pts = np.array([[np.dot(unit_positions[v], e1), np.dot(unit_positions[v], e2)]
                        for v in vids])
        center = pts.mean(axis=0)
        cyc = [vids[o] for o in np.argsort(np.arctan2(pts[:, 1] - center[1],
                                                       pts[:, 0] - center[0]))]
        neighbors, angles = [], []
        for va, vb in zip(cyc, cyc[1:] + cyc[:1]):
            shared = (active_sets[va] & active_sets[vb]) - {i}
            if len(shared) != 1:
                raise StructuralError(
                    f"edge of face {i} between vertices {va},{vb} is shared by "
                    f"{len(shared)} other faces (expected 1)" + (
                        "; near-degenerate input: vertices within the merge tolerance "
                        "were joined" if len(shared) > 1 else ""))
            j = shared.pop()
            cross = np.cross(U[i], U[j])
            ph = math.atan2(math.sqrt(float(np.dot(cross, cross))), float(np.dot(U[i], U[j])))
            if not (0.0 < ph < math.pi):
                raise StructuralError(f"adjacent faces {i},{j} with degenerate angle {ph}")
            phi[(i, j)] = ph
            ang = math.atan2(float(np.dot(U[j], e2)), float(np.dot(U[j], e1))) % (2.0 * math.pi)
            neighbors.append(j)
            # fmod of a tiny negative rounds up to 2*pi
            angles.append(0.0 if ang >= 2.0 * math.pi else ang)
        face_vertex_cycles.append(cyc)
        face_cycles.append(neighbors)
        face_angles.append(angles)

    for i, j in phi:
        if (j, i) not in phi:
            raise StructuralError(f"adjacency is not symmetric: {i}->{j} without {j}->{i}")
    face_fans = [NormalFan2D(angles) for angles in face_angles]

    # ---- Gauss cells at the vertices ----
    cells = []
    total_area = 0.0
    for vid, active in enumerate(active_sets):
        faces = sorted(active)
        d = np.sum(U[faces], axis=0)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            raise StructuralError(f"vertex {vid}: normals average to zero")
        f1, f2 = _frame(d / nd)
        ang = [math.atan2(float(np.dot(U[f], f2)), float(np.dot(U[f], f1))) for f in faces]
        order = np.argsort(ang)
        cyc = [faces[o] for o in order]
        fan_triangles = [[cyc[0], cyc[k], cyc[k + 1]] for k in range(1, len(cyc) - 1)]
        area = float(np.sum(polytope._spherical_triangle_areas(U[fan_triangles])))
        cells.append(polytope.VertexCell(cyc, positions[vid], area))
        total_area += area
    if abs(total_area - 4.0 * math.pi) > polytope.SPHERE_TILING_TOL:
        raise ConsistencyError(
            f"Gauss image does not tile the sphere: total cell area {total_area!r}")

    return SimpleNamespace(normals=U, face_cycles=face_cycles, face_fans=face_fans,
                           face_vertices=face_vertex_cycles, vertex_cells=cells, phi=phi)


def loop_vertex_positions(fan, h):
    """``PolytopeFan.vertex_positions`` as one solve per vertex."""
    v = support_vector(h, fan.m, "vertex_positions")
    out = np.empty((len(fan.vertex_cells), 3))
    for idx, cell in enumerate(fan.vertex_cells):
        U = fan.normals[cell.faces]
        if len(cell.faces) == 3:
            out[idx] = np.linalg.solve(U, v[cell.faces])
        else:
            out[idx], *_ = np.linalg.lstsq(U, v[cell.faces], rcond=None)
    return out


def loop_subdivided(tri_block, depth):
    """The leaves of the recursive midpoint split of an (N,3,3) triangle block, child-major,
    with the four children of each level stacked one by one (``polytope._split_template``
    gives the same leaves from one template)."""
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


def loop_sphere_integral(fan, h, depth):
    """``polytope.area_via_sphere_integral`` as one loop per Gauss cell and per fan triangle."""
    positions = fan.vertex_positions(h)
    total = 0.0
    covered = 0.0
    for cell, p in zip(fan.vertex_cells, positions):
        units = fan.normals[cell.faces]
        p2 = float(np.dot(p, p))
        base = [np.stack([units[0], units[k], units[k + 1]])
                for k in range(1, len(units) - 1)]
        for tri in base:
            leaves = loop_subdivided(tri[None, :, :], depth)
            areas = polytope._spherical_triangle_areas(leaves)
            a, b, c = leaves[:, 0], leaves[:, 1], leaves[:, 2]
            mids = np.stack([a + b, b + c, c + a], axis=1)
            mids /= np.linalg.norm(mids, axis=2)[:, :, None]
            dots = mids @ p
            fvals = 1.5 * dots * dots - 0.5 * p2
            total += np.sum(areas * np.mean(fvals, axis=1))
            covered += float(np.sum(areas))
    assert abs(covered - 4.0 * math.pi) <= 1e-8
    return float(total)


def loop_boundary_metric(fan, h):
    """``polytope.boundary_metric`` with each face fan-triangulated in a double loop and
    each side measured alone, ``np.linalg.norm`` of its unit-scaled vector scaled back."""
    triangles = []
    for i in range(fan.m):
        cyc = fan.face_vertices[i]
        for k in range(1, len(cyc) - 1):
            triangles.append((cyc[0], cyc[k], cyc[k + 1]))
    points = fan.vertex_positions(h)
    P, e = unit_scaled(points)
    norms = [[float(np.linalg.norm(P[b] - P[a])) for a, b in ((i, j), (j, k), (k, i))]
             for i, j, k in triangles]
    gluing = mesh_from_indexed_triangles(points, triangles).to_json_dict()["gluing"]
    return TriangleMesh(np.ldexp(norms, e), gluing)


def loop_corner_angles(mesh):
    """(T, 3) corner angles of ``mesh``, [t, c] at corner c of triangle t, one at a time."""
    angles = []
    for row in mesh.lengths:
        unit = unit_scaled(row)[0].tolist()
        for c in range(3):
            A, B, C = unit[c], unit[(c + 2) % 3], unit[(c + 1) % 3]
            cos = (A * A + B * B - C * C) / (2.0 * A * B)
            angles.append(math.acos(min(1.0, max(-1.0, cos))))
    return np.array(angles).reshape(-1, 3)


def stacked_pass_sample(lengths, base, rng, size, spread, margin, shrinks, what):
    """``forms.sample_cone`` as its stacked branch was before it placed draws by linearity:
    every pending row tried at SAMPLE_LEVELS_PER_PASS sizes a pass, each h = base (1 + s delta)
    and its lengths evaluated from scratch, with the per-row bookkeeping (fancy-indexed first
    rows, ``hit`` and the ``out`` buffer).  ``size=None`` draws one vector as a one-row stack."""
    n = len(base)
    pending = rng.standard_normal((1 if size is None else size, n))
    rows = np.arange(len(pending))
    out = np.empty_like(pending)
    halvings = 0.5 ** np.arange(SAMPLE_LEVELS_PER_PASS)
    for start in range(0, shrinks, SAMPLE_LEVELS_PER_PASS):
        s = spread * 0.5 ** start * halvings[:shrinks - start]
        h = base * (1.0 + s[:, None, None] * pending)
        clear = ~(lengths(h) <= wall_bound(h, margin)).any(axis=-1)
        hit = clear.any(axis=0)
        out[rows[hit]] = h[clear.argmax(axis=0), np.arange(len(pending))][hit]
        if hit.all():
            return out[0] if size is None else out
        pending, rows = pending[~hit], rows[~hit]
    raise DomainError(f"sample_interior: no draw clears the {what} margin {margin:g} "
                      f"after {shrinks} shrinks")


def three_product_minkowski_check(fan, h, k):
    """``polygon.minkowski_check`` with q(h) and q(k) from one guarded ``_b`` call and
    b(h, k) from another, after the membership and area checks.  A stack keeps the
    by-kind order (an overflowing q of any pair first, a b overflow last), so stacks
    whose pairs fail at different stages are compared with their single pairs,
    never with this reference."""
    u = support_vector(h, fan.n, "minkowski_check", stack=True)
    v = support_vector(k, fan.n, "minkowski_check", stack=True)
    if u.shape != v.shape:
        raise InvalidInput(f"minkowski_check: h and k differ in shape, {u.shape} vs {v.shape}")
    rows = np.concatenate([u.reshape(-1, fan.n), v.reshape(-1, fan.n)])
    form = polygon.area_form(fan)
    q = overflow_checked("q", form._b, rows, rows).reshape(2, -1)
    outside = (polygon._row_lengths(fan, rows) < -wall_bound(rows, MEMBERSHIP_TOL)).any(axis=1)
    outside = outside.reshape(2, -1)
    bad = (outside | (q <= 0.0)).any(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        for name, side in (("h", 0), ("k", 1)):
            if outside[side, i]:
                raise DomainError(f"minkowski_check: {name} lies outside the closed cone")
        lost = any(form.q(unit_scaled(rows[side * q.shape[1] + i])[0]) > 0.0
                   for side in (0, 1) if q[side, i] <= 0.0)
        why = "the pair's values leave the floating-point range" if lost else "needs positive areas"
        raise DomainError(f"minkowski_check: {why}, got {q[0, i]:.3e}, {q[1, i]:.3e}")
    shape = u.shape[:-1]
    return reversed_cauchy_schwarz_check("Minkowski", overflow_checked("b", form._b, u, v),
                                         q[0].reshape(shape), q[1].reshape(shape), u, v,
                                         fan.normals)
