"""Exception types shared across the package."""


class MsrasError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MsrasError):
    pass


class NotSymmetric(MsrasError):
    pass


class NotPositiveDefinite(MsrasError):
    """A factorization hit a zero/negative pivot. Usually means a constrained
    dof leaked into a free-dof index set upstream."""


class NonConvergence(MsrasError):
    """The dense eigensolver failed to converge."""


class FactorizationFailure(MsrasError):
    pass


class NonpositiveCoefficient(MsrasError):
    pass


class AllNeumann(MsrasError):
    """Boundary spec has no Dirichlet side; the free-dof system would be singular."""


class InvalidBlockCount(MsrasError):
    pass


class GridTooSmall(MsrasError):
    pass


class UncoveredNode(MsrasError):
    """A free node has zero partition-of-unity weight in every subdomain."""


class EmptyBoundary(MsrasError):
    """An oversampling domain has no interface dofs (it covers the whole domain);
    such configurations are rejected for local eigenproblems."""


class TooManyModes(MsrasError):
    pass


class Stagnation(MsrasError):
    """Richardson residual failed to decrease for several consecutive steps."""


class Breakdown(MsrasError):
    """Numerical breakdown of an iterative driver: non-finite Arnoldi
    coefficients in GMRES, a non-finite residual in Richardson."""


class WorkerLost(MsrasError):
    """A worker process ended (killed, out of memory) before its task did."""


class ConfigError(MsrasError):
    """Invalid experiment configuration; message carries the config path."""


class RankDeficientCoarse(UserWarning):
    """Coarse basis columns were linearly dependent and some were dropped."""
