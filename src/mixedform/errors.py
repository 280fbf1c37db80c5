"""Error taxonomy shared by all mixedform modules.

Two families matter for the CLI exit codes:

  * data / usage problems (bad input, inconsistent geometry, values
    beyond the floating-point range) -> ``MixedFormError`` subclasses
    other than ``InvariantFalsified``; the CLI maps these to exit code 2;
  * a numerical counterexample to a theorem the library asserts
    (positive definiteness, Cauchy-Schwarz bounds, equality cases)
    -> ``InvariantFalsified``; the CLI maps this to exit code 3 so CI
    can tell "bad input" from "the mathematics failed".
"""


class MixedFormError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(MixedFormError):
    """Malformed or non-finite input data (wrong shape, NaN, bad JSON)."""


class DomainError(MixedFormError):
    """Arguments are outside the mathematical domain of the operation."""


class ConsistencyError(MixedFormError):
    """Internal cross-check failed, signalling corrupted or inconsistent data.

    Examples: a matrix that should be symmetric by a theorem is not,
    glued edge lengths disagree, the Gauss image does not tile the sphere.
    """


class StructuralError(MixedFormError):
    """Combinatorial structure is invalid (non-manifold gluing, bad fan)."""


class UnboundedRegionError(StructuralError):
    """The halfspace intersection is unbounded."""


class RedundancyError(StructuralError):
    """Halfspaces that support no 2-face of the intersection.

    ``faces`` lists the offending indices (0-based).
    """

    def __init__(self, faces, message=None):
        self.faces = list(faces)
        super().__init__(message or f"redundant halfspaces: {self.faces}")


class FlipNotAdmissible(StructuralError):
    """The two triangles at the edge do not develop onto a strictly convex quad."""


class InvariantFalsified(MixedFormError):
    """A mathematical invariant the library asserts failed numerically.

    Raising this is a counterexample report, not an input problem.
    """
