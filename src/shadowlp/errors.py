"""Exception types raised across the package."""


class ShadowLpError(Exception):
    """Base class for package-specific failures."""


class SingularError(ShadowLpError):
    """Basis matrix is numerically rank-deficient; the basis is invalid."""


class NormViolation(ShadowLpError):
    """A combined (abar, bbar) row exceeds Euclidean norm 1 beyond tolerance."""


class DimensionTooSmall(ShadowLpError):
    """The auxiliary starting-basis construction needs d >= 3."""


class NumericalStall(ShadowLpError):
    """Two consecutive pivots made no lambda progress; degeneracy beyond tolerance."""


class NotOptimal(ShadowLpError, ValueError):
    """A shadow path was asked to start from a basis that is not optimal."""


class NegativeStep(ShadowLpError):
    """Ratio test produced a negative step; an upstream precondition was violated."""


class PivotLimitExceeded(ShadowLpError):
    """The caller-set pivot cap was hit."""


class CycleDetected(ShadowLpError):
    """A basis repeated along a shadow path; impossible under nondegeneracy."""


class RestartLimitExceeded(ShadowLpError):
    """Phase-1 retry loop exhausted its restart budget."""


class CertificateInvalid(ShadowLpError):
    """A produced certificate failed its own invariant re-check."""


class RerunRay(ShadowLpError):
    """Phases 1-2 ended on a ray after their rerun with z = A^T|g|, whose
    objectives are bounded in exact arithmetic: a numerical failure, seen
    on rows whose norms span many orders of magnitude."""


class NoVertex(ShadowLpError):
    """rank A < d: the region {Ax <= b} has no vertex to start a path from."""


class TooLarge(ShadowLpError):
    """Enumeration guard exceeded."""


class DegenerateShadow(ShadowLpError):
    """A shadow-polygon vertex has more than one pre-image vertex."""


class Unreachable(ShadowLpError):
    """BFS target not connected to the source; signals a bug for bounded polytopes."""


class NonConvexInput(ShadowLpError):
    """Polygon handed to an operation that requires convexity is not convex."""


class ZeroVertex(ShadowLpError):
    """Basic solution has norm below threshold; relative slack is undefined."""


class UncoveredCell(ShadowLpError):
    """The dense set's cell refinement stopped with a cell open, so the
    packing is not proven eta-dense."""


class TooFewRows(ShadowLpError, ValueError):
    """A requested row count is below the size of the sphere packing."""


class NonpositiveRhs(ShadowLpError):
    """A basis row has b_i <= 0; the polar facet description is unavailable."""


class ConfigError(ShadowLpError):
    """Experiment config file is malformed or contains unknown keys."""
