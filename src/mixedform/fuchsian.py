"""Convex polyhedra invariant under a cocompact Lorentz lattice, via quotients.

A Gamma-polyhedron in Minkowski 3-space with space-like faces is described
modulo the group by a finite quotient fan: face classes 1..m, and for each
class a cyclic list of adjacency entries (to, phi, omega), where

  * ``to``    is the neighboring face class (possibly the class itself --
              self-adjacency across the group action),
  * ``phi``   is the hyperbolic distance between the two faces' unit
              normals on the hyperboloid; several parallel entries with
              distinct phi may join the same pair of classes,
  * ``omega`` is the in-face Euclidean turning angle to the next entry;
              per face the omegas form a 2D normal fan (sum 2 pi).

Support numbers h_i > 0 (distances of the space-like face planes from the
origin) determine the in-face support numbers linearly:

    h_ij = (h_i cosh phi_ij - h_j) / sinh phi_ij

(for a self-adjacency this is h_i (cosh phi - 1)/sinh phi = h_i tanh(phi/2)).
The covolume -- the volume between the light cone and the polyhedron per
fundamental domain -- is the cubic covol(h) = (1/3) sum h_i a_i(h_{i.}),
evaluated face by face like the polytope volume (``mixedform.faces``).
Its Hessian is the Jacobian of the face areas,

    d(area_i)/dh_j = - sum_{entries i->j} l_e / sinh phi_e        (j != i)
    d(area_i)/dh_i =   sum_{cross}  cosh phi_e l_e / sinh phi_e
                     + sum_{self}   (cosh phi_e - 1) l_e / sinh phi_e,

which is strictly diagonally dominant with positive diagonal on the open
cone, hence positive definite.  The boundary area form
area(h) = 3 covol(1, h, h) is positive definite as well, so the
Cauchy-Schwarz inequality (and hence the reversed Alexandrov-Fenchel
inequality for covolumes) holds with equality exactly at homotheties.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    InvalidInput,
    InvariantFalsified,
)
from .faces import FaceAssembly, agreeing_form
from .forms import (MEMBERSHIP_TOL, TWO_PI, as_index, json_numbers, locate, overflow_checked,
                    overflow_error, projective_distance, support_vector, unit_rows,
                    unit_scaled, wall_bound)

PAIRING_TOL = 1e-9
ANGLE_SUM_TOL = 1e-9
HOMOTHETY_TOL = 1e-7
#: the largest phi whose cosh (and sinh) is a finite float
MAX_PHI = math.acosh(np.finfo(float).max)

AdjacencyEntry = namedtuple("AdjacencyEntry", ["to", "phi", "omega"])


# =============================================================================
# QUOTIENT FAN
# =============================================================================

class QuotientFan:
    """Face classes with hyperbolic adjacency angles and in-face turning angles.

    ``faces`` is a list over classes; each class is a cyclic list of
    (to, phi, omega) entries.  Validation is local: per-face fan
    invariants, strict positivity of phi, and pairing symmetry -- the
    multiset of phi values from i to j must match the one from j to i
    (self-adjacency entries must pair up within the face).
    """

    def __init__(self, faces, genus, vertices=None):
        if not isinstance(genus, int) or genus < 2:
            raise InvalidInput(f"QuotientFan: genus must be an integer >= 2, got {genus!r}")
        m = len(faces)
        if m < 1:
            raise InvalidInput("QuotientFan: need at least one face class")
        parsed = []
        for i, entries in enumerate(faces):
            if len(entries) < 3:
                raise InvalidInput(f"QuotientFan: face {i} needs at least 3 adjacency entries")
            face = []
            for e in entries:
                to, phi, omega = as_index(e[0], f"QuotientFan: face {i}"), float(e[1]), float(e[2])
                if not (0 <= to < m):
                    raise InvalidInput(f"QuotientFan: face {i} refers to missing class {to}")
                if not (0.0 < phi <= MAX_PHI):
                    raise InvalidInput(f"QuotientFan: face {i}: phi must be positive with a "
                                       f"finite cosh (at most {MAX_PHI!r}), got {phi!r}")
                if not (math.isfinite(omega) and 0.0 < omega < math.pi):
                    raise InvalidInput(
                        f"QuotientFan: face {i}: omega must lie in (0, pi), got {omega!r}")
                face.append(AdjacencyEntry(to, phi, omega))
            total = sum(e.omega for e in face)
            if abs(total - TWO_PI) > ANGLE_SUM_TOL:
                raise InvalidInput(
                    f"QuotientFan: face {i}: turning angles sum to {total!r}, expected 2*pi")
            parsed.append(face)

        # pairing symmetry: the phi values of every i -> j pair up with those of j -> i,
        # and a self-adjacency pairs with another one of its face
        by_pair = {}
        for i, face in enumerate(parsed):
            for e in face:
                by_pair.setdefault((i, e.to), []).append(e.phi)
        for (i, j), phis in by_pair.items():
            ours = sorted(phis)
            back = (sorted(by_pair.get((j, i), [])) if i != j else
                    [b for pair in zip(ours[1::2], ours[0::2]) for b in pair])
            if len(back) != len(ours) or any(abs(a - b) > PAIRING_TOL * max(1.0, a)
                                             for a, b in zip(ours, back)):
                raise ConsistencyError(
                    f"QuotientFan: phi multisets of {i}->{j} and {j}->{i} disagree" if i != j
                    else f"QuotientFan: self-adjacency phi values of face {i} do not pair up")

        self.m = m
        self.genus = genus
        self.faces = parsed
        self.num_edges = sum(len(face) for face in parsed) // 2
        self.declared_vertices = vertices
        if vertices is not None:
            expected_faces = vertices / 2 + 2 - 2 * genus
            if expected_faces != m:
                raise ConsistencyError(
                    f"QuotientFan: declared vertex count {vertices} gives "
                    f"{expected_faces} faces by Euler bookkeeping, fan has {m}")

        # entry e = (i -> j): h_ij = coth(phi) h_i - h_j / sinh(phi), j = i allowed
        entries = [e for face in parsed for e in face]
        #: face-local assembly of covolume, edge lengths, area form and Hessian; each
        #: face's Euclidean normal angles are its cumulative turnings
        self.assembly = FaceAssembly(
            np.concatenate([np.cumsum([0.0] + [e.omega for e in face[:-1]]) for face in parsed]),
            np.array([len(face) for face in parsed]), [e.to for e in entries],
            [math.cosh(e.phi) / math.sinh(e.phi) for e in entries],
            [-1.0 / math.sinh(e.phi) for e in entries])
        #: edge e as (i, k): entry k of face class i
        self._edge_labels = list(zip(self.assembly.src.tolist(), self.assembly.pos.tolist()))

    def _vector(self, h, what):
        v = support_vector(h, self.m, what)
        if np.any(v <= 0.0):
            raise DomainError(f"{what}: support numbers must be strictly positive")
        return v

    def to_json_dict(self, h=None):
        data = {
            "genus": self.genus,
            "faces": [{"adjacencies": [{"to": e.to, "phi": e.phi, "omega": e.omega}
                                       for e in face]}
                      for face in self.faces],
        }
        if self.declared_vertices is not None:
            data["vertices"] = self.declared_vertices
        if h is not None:
            data["h"] = list(map(float, h))
        return data

    @classmethod
    def from_json_dict(cls, data):
        try:
            genus = data["genus"]
            faces = [[(a["to"], a["phi"], a["omega"]) for a in f["adjacencies"]]
                     for f in data["faces"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"fuchsian JSON needs 'genus' and 'faces': {exc}") from exc
        json_numbers([[phi, omega] for face in faces for _, phi, omega in face],
                     "fuchsian JSON phi and omega")
        return cls(faces, genus, vertices=data.get("vertices"))


def fan_from_json_dict(data):
    """QuotientFan plus support vector from the fuchsian JSON schema."""
    fan = QuotientFan.from_json_dict(data)
    try:
        h = data["h"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"fuchsian JSON needs 'h': {exc}") from exc
    return fan, fan._vector(json_numbers(h, "fuchsian JSON h"), "fuchsian JSON h")


def regular_genus2_fan():
    """One face class adjacent to itself 8 times: the regular octagon pattern.

    phi is the side length 2 arccosh(cot(pi/8)) of the regular hyperbolic
    octagon with corner angles pi/4 (the one-vertex genus-2 pattern); the
    in-face turnings are pi/4.
    """
    phi = 2.0 * math.acosh(1.0 / math.tan(math.pi / 8.0))
    entries = [(0, phi, math.pi / 4.0)] * 8
    return QuotientFan([entries], genus=2)


# =============================================================================
# SUPPORT NUMBERS AND COVOLUME
# =============================================================================

def cone_membership(fan, h, tol=MEMBERSHIP_TOL):
    """Classify h by the signs of all in-face edge lengths (edges labelled (i, k)), on h
    scaled to unit size by a power of two: exact, so the verdict holds at any scale."""
    v = unit_scaled(fan._vector(h, "cone_membership"))[0]
    return locate(fan.assembly.lengths(v), v, tol, fan._edge_labels)


def covolume(fan, h):
    """covol(h) = (1/3) sum_i h_i a_i(h_{i.})."""
    return float(overflow_checked("covolume", fan.assembly.cubic, fan._vector(h, "covolume")))


def covolume_form(fan):
    """The mixed covolume as a symmetric trilinear form, evaluated face by face.

    The raw slices T[i] = (1/3) G_i are never stored densely; their total
    symmetry is a theorem and doubles as a data-integrity check (entrywise,
    within 1e-10) before the form is returned.
    """
    return fan.assembly.trilinear_form


def covolume_hessian(fan, h):
    """Hessian of the covolume at h: the Jacobian of the face areas.

    Assembled entrywise from the edge lengths (see the module docstring);
    checked to equal 6 covol(., ., h) from the covolume form and returned
    as a SymmetricForm, which checks its symmetry.  Strict diagonal
    dominance with positive diagonal (hence positive definiteness) holds
    on the open cone: no edge length within ``forms.wall_bound`` at
    MEMBERSHIP_TOL, the wall rule of ``cone_membership``.
    """
    v = fan._vector(h, "covolume_hessian")
    F = fan.assembly

    def assemble():
        lengths = F.lengths(v)
        if not np.isfinite(lengths).all():      # the wall test would read -inf as past a wall
            raise overflow_error("covolume_hessian")
        bad = np.flatnonzero(lengths <= wall_bound(v, MEMBERSHIP_TOL))
        if len(bad):
            raise DomainError(
                f"covolume_hessian: h is not in the open cone (face {F.src[bad[0]]} has an "
                f"edge on a wall or past it)")
        J = F.jacobian(lengths)
        X = covolume_form(fan).contraction(v, J)
        # 6 covol(., ., h) is 6 times the symmetric part of X, rounded as SymmetricForm(X)
        # rounds it
        return J, 6.0 * (0.5 * X + 0.5 * X.T)

    return agreeing_form(*overflow_checked("covolume_hessian", assemble),
                         "covolume Hessian and 6 covol(.,.,h)")


def fuchsian_area_form(fan):
    """area(h) = sum_i a_i(h_{i.}) as a positive definite m x m form.

    Summed from the face-local grams G_i and cross-checked against
    3 covol(1, ., .) (``FaceAssembly.area_form``); a non-positive
    eigenvalue is reported as a falsified invariant, not silently returned.
    """
    form = fan.assembly.area_form
    min_eig = float(form.eigenvalues()[0])
    if min_eig <= 0.0:
        raise InvariantFalsified(
            f"Fuchsian area form is not positive definite: min eigenvalue {min_eig!r}")
    return form


# =============================================================================
# SPHERICAL STRUCTURE
# =============================================================================

def spherical_distance(fan, h, k):
    """arccos( b(h,k) / sqrt(q(h)q(k)) ) between interior rays (``forms.projective_distance``)."""
    u = fan._vector(h, "spherical_distance")
    v = fan._vector(k, "spherical_distance")
    return projective_distance(fuchsian_area_form(fan), u, v, "spherical_distance",
                               fan.assembly.lengths)


def is_homothety_pair(fan, h, k):
    """Whether k = lambda h within HOMOTHETY_TOL * ||k|| (lambda = b(h,k)/q(h)),
    tested on h and k scaled to unit size (which does not change the answer)."""
    u, v = unit_rows(np.stack([fan._vector(x, "is_homothety_pair") for x in (h, k)]))[0]
    form = fuchsian_area_form(fan)
    lam = form.b(u, v) / form.q(u)
    return float(np.linalg.norm(v - lam * u)) <= HOMOTHETY_TOL * float(np.linalg.norm(v))

