"""Exception types shared across the package.

``HodgeOrbitError`` is the base for every error raised on invalid
mathematical input, so the CLI can map them uniformly to exit code 3.
"""


class HodgeOrbitError(Exception):
    """Base class for invalid mathematical input."""


class InvalidRank(HodgeOrbitError):
    """Rank outside the bounds of the requested family."""


class NotACartanMatrix(HodgeOrbitError):
    """A matrix that ``rootdata.cartan_type`` cannot name as a sum of simple types."""


class NotARoot(HodgeOrbitError):
    """Coordinate vector is not a root of the system."""


class NotStronglyOrthogonal(HodgeOrbitError):
    """A supposedly strongly orthogonal set fails the pairwise test."""


class IndexOutOfRange(HodgeOrbitError):
    """A Dynkin node outside 1..rank or an empty node set (``grading``), a
    grading element E with some w_j(E) <= 0 where E must be a sum of S^i
    (``reps.weights_with_E_value_one``), a coordinate vector whose length is
    not the rank (``RootSystem.check_length``) or a basis index outside
    0..dim-1 (``StructureConstants``)."""


class NotDominant(HodgeOrbitError):
    """Weight is not dominant integral."""


class DimensionCapExceeded(HodgeOrbitError):
    """Representation dimension exceeds the configured cap."""


class NotMaximalParabolic(HodgeOrbitError):
    """Two or more nodes where one is required; a node outside 1..rank or
    an empty set is ``IndexOutOfRange``."""


class NotDegreeOne(HodgeOrbitError):
    """Root or basis element outside the eigenspace of the grading that an
    operation requires: degree one for a line direction, degree zero for a
    Levi root."""


class InvalidSOS(HodgeOrbitError):
    """Strongly orthogonal set failed validation, with every violation listed."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class NotFundamentalAdjoint(HodgeOrbitError):
    """Operation requires a fundamental adjoint parabolic."""


class LengthMismatch(HodgeOrbitError):
    """Roots of different lengths cannot be Weyl conjugate."""


class CompactRoot(HodgeOrbitError):
    """Operation requires a noncompact root."""
