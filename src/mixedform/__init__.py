"""Deformation spaces of convex bodies in support-number coordinates.

Modules by geometry:

  * :mod:`mixedform.forms`    -- symmetric / trilinear / Hermitian forms,
    LAPACK eigenvalues, signatures, inequality residuals,
    the cone classifier;
  * :mod:`mixedform.polygon`  -- 2D normal fans, area form, Minkowski
    inequality with witnesses, chart embedding;
  * :mod:`mixedform.surface`  -- flat cone metrics from glued triangles,
    Gauss-Bonnet, edge flips;
  * :mod:`mixedform.faces`    -- face-local assembly shared by polytope and
    Fuchsian fans: edge lengths, volume-type cubics, mixed forms, grams;
  * :mod:`mixedform.polytope` -- 3D normal fans, mixed volumes,
    Alexandrov-Fenchel, area measures, spherical quadrature;
  * :mod:`mixedform.fuchsian` -- lattice-invariant polyhedra in Minkowski
    space via quotient fans, covolume Hessians, definite area forms.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConsistencyError,
    DomainError,
    FlipNotAdmissible,
    InvalidInput,
    InvariantFalsified,
    MixedFormError,
    RedundancyError,
    StructuralError,
    UnboundedRegionError,
)
from .forms import (  # noqa: F401
    HermitianForm,
    Signature,
    SymmetricForm,
    TrilinearForm,
    jacobi_eigenvalues,
)
