"""Face-local assembly of volume-type cubics over a fan of polygons.

A polytope fan and a Fuchsian quotient fan are both m faces, each a convex
polygon with a fixed 2D normal fan (its normal angles) whose in-face support
numbers are linear in the support vector h.  Entry k of face i is a directed
edge e = (i -> j), possibly with j = i, and

    hs_e(h) = a_e h_i + b_e h_j

(row k of the support map S_i).  The polygon's cyclic tridiagonal, the
closed-form coefficients ``c_self``, ``c_next`` and ``c_prev`` that
``forms.fan_arrays`` derives from all faces' angles at once (the three
diagonals of the length matrix L_i of the face's ``polygon.NormalFan2D``),
turns these into edge lengths

    l_e(h) = c_self[e] hs_e + c_next[e] hs_next(e) + c_prev[e] hs_prev(e).

The face area is (1/2) sum_{e in i} hs_e l_e, so the cubic
(1/3) sum_i h_i a_i(h_{i.}) is (1/6) sum_e h_i hs_e(h) l_e(h), and the raw
trilinear slices T[i] = (1/3) G_i, G_i = S_i' A_i S_i (A_i = L_i / 2),
contract to

    r(h, k, p) = T(h, k, p) = (1/6) sum_e h_src(e) hs_e(k) l_e(p),

which is symmetric in (k, p).  The symmetrized form is therefore

    v(h, k, p) = (r(h,k,p) + r(k,h,p) + r(p,h,k)) / 3,

and v(., ., p) is the matrix (R + R' + P) / 3 with R[i,j] = r(e_i, e_j, p)
= J(l(p))[i,j] / 6 and P = (1/3) sum_i p_i G_i, where
J(l)[i,j] = sum_{e in i} l_e d hs_e / d h_j (the Jacobian of the face
areas when l = l(h)).  Every quantity is a gather or a scatter over the E
directed edges plus at most an m x m output: no m x m x m tensor.

The cone classifier that polygon, polytope and Fuchsian fans run on their
edge lengths, ``locate``, lives in ``mixedform.forms``.
"""

from functools import cached_property

import numpy as np

from .errors import ConsistencyError
from .forms import (SymmetricForm, cyclic_runs, fan_arrays, overflow_checked, row_dot,
                    scalar_or_rows, support_vector)

#: entrywise tolerance of the total-symmetry check, relative to max(max |T|, 1)
SYMMETRY_TOL = 1e-10
#: the five non-identity permutations of a slice index (i, j, k)
_PERMUTATIONS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


class FaceAssembly:
    """Per-directed-edge arrays of a fan and the face sums built from them.

    ``angles`` (each face's normal angles, checked by ``forms.fan_arrays``) and
    the directed edges' ``dst``, ``a`` and ``b`` run face by face in runs of the
    array ``sizes``; edge k of face i is the side of its normal angle k.
    """

    def __init__(self, angles, sizes, dst, a, b):
        m = len(sizes)
        self.m = m
        #: the faces' normal angles, flat and read-only
        self.angles = np.array(angles, dtype=float)
        #: offsets[i]:offsets[i+1] are the edges of face i
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        #: each edge's face, its position in the face's cycle, and the next and previous edge
        self.src, self.pos, self.nxt, self.prv = cyclic_runs(sizes)
        self.dst = np.asarray(dst, dtype=np.intp)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        #: each face's cyclic tridiagonal (``NormalFan2D.c_self`` etc.), face by face
        *_, self.c_self, self.c_next, self.c_prev = fan_arrays(self.angles, sizes)

        # J(l) scatters a_e l_e to (src, src) and b_e l_e to (src, dst)
        self._jacobian_keys = np.concatenate([self.src * m + self.src, self.src * m + self.dst])

    @cached_property
    def _slices(self):
        """Sparse raw slices: sorted keys (i * m + x) * m + y, values G_i[x, y],
        and each key's face i and matrix cell x * m + y.

        G_i[x, y] = sum_{e, f in i} A_i[e, f] (S_i)[e, x] (S_i)[f, y], with f
        over e, next(e) and prev(e); built on first use, since membership
        and the cubic do not need it.
        """
        m = self.m
        E = len(self.src)
        e = np.tile(np.arange(E), 3)
        f = np.concatenate([np.arange(E), self.nxt, self.prv])
        weight = 0.5 * np.concatenate([self.c_self, self.c_next, self.c_prev])
        faces, rows, cols, values = [], [], [], []
        for x, cx in ((self.src[e], self.a[e]), (self.dst[e], self.b[e])):
            for y, cy in ((self.src[f], self.a[f]), (self.dst[f], self.b[f])):
                faces.append(self.src[e])
                rows.append(x)
                cols.append(y)
                values.append(weight * cx * cy)
        keys = (np.concatenate(faces) * m + np.concatenate(rows)) * m + np.concatenate(cols)
        keys, inverse = np.unique(keys, return_inverse=True)
        values = np.bincount(inverse, weights=np.concatenate(values), minlength=len(keys))
        return keys, values, keys // (m * m), keys % (m * m)

    def support_map(self, i):
        """Matrix S_i with h_{i.} = S_i h (rows follow face i's cycle)."""
        edges = np.arange(self.offsets[i], self.offsets[i + 1])
        S = np.zeros((len(edges), self.m))
        rows = np.arange(len(edges))
        np.add.at(S, (rows, self.src[edges]), self.a[edges])
        np.add.at(S, (rows, self.dst[edges]), self.b[edges])
        S.setflags(write=False)
        return S

    def face_support(self, h):
        """In-face support numbers hs_e(h) for every edge; h is (..., m)."""
        return self.a * h[..., self.src] + self.b * h[..., self.dst]

    def edge_lengths(self, hs):
        """Edge lengths from the in-face support numbers ``hs`` (..., E)."""
        return self.c_self * hs + self.c_next * hs[..., self.nxt] + self.c_prev * hs[..., self.prv]

    def lengths(self, h):
        """Edge lengths l_e(h) for every edge; h is (..., m)."""
        return self.edge_lengths(self.face_support(h))

    def cubic(self, h):
        """(1/3) sum_i h_i a_i(h_{i.}) = (1/6) sum_e h_src hs_e l_e; h is (..., m)."""
        hs = self.face_support(h)
        return np.sum(h[..., self.src] * hs * self.edge_lengths(hs), axis=-1) / 6.0

    def jacobian(self, lengths):
        """J[i, j] = sum_{e in i} l_e d hs_e / d h_j for edge lengths ``lengths``."""
        m = self.m
        weights = np.concatenate([self.a * lengths, self.b * lengths])
        return np.bincount(self._jacobian_keys, weights=weights, minlength=m * m).reshape(m, m)

    def gram_sum(self, w):
        """sum_i w_i G_i, G_i = S_i' A_i S_i the face-i area as a form in h."""
        m = self.m
        _, values, face, cell = self._slices
        return np.bincount(cell, weights=values * w[face], minlength=m * m).reshape(m, m)

    @cached_property
    def trilinear_form(self):
        """The symmetrized mixed form, once the raw slices pass their symmetry check.

        Total symmetry of T[i] = G_i / 3 is checked entrywise on the sparse
        slices, T[i,j,k] against T[pi(i,j,k)] for every permutation pi, as
        the dense check did: max defect <= SYMMETRY_TOL * max(max |T|, 1).
        """
        keys, values, face, cell = self._slices
        values = values / 3.0
        m = self.m
        index = np.stack([face, cell // m, cell % m])
        scale = float(np.max(np.abs(values)))
        defect = 0.0
        for perm in _PERMUTATIONS:
            i, j, k = index[list(perm)]
            moved = (i * m + j) * m + k
            at = np.minimum(np.searchsorted(keys, moved), len(keys) - 1)
            other = np.where(keys[at] == moved, values[at], 0.0)
            defect = max(defect, float(np.max(np.abs(values - other))))
        if defect > SYMMETRY_TOL * max(scale, 1.0):
            raise ConsistencyError(
                f"tensor is not symmetric: max defect {defect:.3e} "
                f"exceeds {SYMMETRY_TOL:.1e} x scale {scale:.3e}")
        return FaceTrilinearForm(self)

    @cached_property
    def area_form(self):
        """The total face area sum_i G_i as a form, once it agrees with 3 v(1, ., .)."""
        ones = np.ones(self.m)
        return agreeing_form(self.gram_sum(ones), 3.0 * self.trilinear_form.contract(ones).entries,
                             "area form and 3 v(1,.,.)")


class FaceTrilinearForm:
    """Fully symmetric trilinear form v(h,k,p) evaluated face by face."""

    def __init__(self, assembly):
        self._faces = assembly

    @property
    def dim(self):
        return self._faces.m

    def v(self, h, k, p):
        """Trilinear evaluation (r(h,k,p) + r(k,h,p) + r(p,h,k)) / 3.

        Any argument may be an (S, m) stack (stacks row-aligned): the result
        is then the (S,) array of row values, each rounded as alone.
        """
        a = support_vector(h, self.dim, "v", stack=True)
        b = support_vector(k, self.dim, "v", stack=True)
        c = support_vector(p, self.dim, "v", stack=True)
        return scalar_or_rows(overflow_checked("v", self._v, a, b, c))

    def _v(self, a, b, c):
        F = self._faces
        hs_a = F.face_support(a)
        hs_b = F.face_support(b)
        l_b = F.edge_lengths(hs_b)
        l_c = F.lengths(c)
        src = F.src
        return (row_dot(a[..., src] * hs_b + b[..., src] * hs_a, l_c)
                + row_dot(c[..., src] * hs_a, l_b)) / 18.0

    def diagonal(self, h):
        """Cubic evaluation v(h, h, h)."""
        return self.v(h, h, h)

    def contract(self, p):
        """The symmetric matrix (R + R' + P) / 3 of the bilinear form v(., ., p);
        an overflow raises DomainError."""
        F = self._faces
        c = support_vector(p, F.m, "contract")
        M = overflow_checked("contract", lambda: self.contraction(c, F.jacobian(F.lengths(c))))
        return SymmetricForm(M, symmetry_tol=1e-10)

    def contraction(self, c, jacobian):
        """(R + R' + P) / 3 unsymmetrized, for a checked vector c and its J(l(c)), R = J / 6."""
        R = jacobian / 6.0
        P = self._faces.gram_sum(c) / 3.0
        return (R + R.T + P) / 3.0


def agreeing_form(M, reference, what):
    """SymmetricForm(M), once M agrees entrywise with ``reference`` (the same matrix
    as k v(., ., p)) within 1e-10 * max(1, max |M|); ``what`` names both routes."""
    scale = max(1.0, float(np.max(np.abs(M))))
    defect = float(np.max(np.abs(M - reference)))
    if defect > 1e-10 * scale:
        raise ConsistencyError(
            f"{what} disagree: entrywise defect {defect:.3e} at scale {scale:.3e}")
    return SymmetricForm(M, symmetry_tol=1e-10)

