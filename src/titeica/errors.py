"""Exception types shared across the package."""


class TiteicaError(Exception):
    pass


class OutOfDomainError(TiteicaError):
    """Point lies outside the domain of a metric or grid."""


class InvalidSignCase(TiteicaError):
    """Operation is not defined for this (epsilon, lambda) case."""


class NoConstantSolution(TiteicaError):
    """The flat-torus equation has no constant solution for this data."""


class SingularInputError(TiteicaError):
    """A field vanishes where it must not (e.g. Toda variable a = 0)."""


class PathError(TiteicaError):
    """Path leaves the domain, is not closed, or is too coarse."""


class DegenerateVertexError(TiteicaError):
    """A per-vertex linear solve is singular (degenerate tangent frame)."""


class InitDataError(TiteicaError):
    """Immersion initial data violates its compatibility condition."""


class SolveError(TiteicaError):
    """The solver for the metric equation did not converge."""


class ConfigError(TiteicaError):
    """CLI configuration is malformed or inconsistent."""
