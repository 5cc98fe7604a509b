"""Exception types raised by the toolkit.

Every failure mode callers are expected to branch on gets its own class;
all inherit from UwsError so `except UwsError` catches toolkit failures
without swallowing programming errors.
"""


class UwsError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(UwsError, ValueError):
    """Malformed input: length mismatch, empty data, bad shapes."""


class DomainError(UwsError, ValueError):
    """Scalar parameter outside its mathematical domain (e.g. theta <= 0)."""


class InfeasibleMeanError(DomainError):
    """Mean distance outside the open feasible range of the backward map.

    Signals that an upstream estimator produced an out-of-range value;
    the caller decides whether to clamp.
    """


class DegenerateMomentError(UwsError, ArithmeticError):
    """A pairwise moment is indistinguishable from zero at this sample size."""


class InconsistentMomentsError(UwsError, ArithmeticError):
    """Triplet moments admit no real solution (strongly negative discriminant)."""


class SignAmbiguousError(UwsError, ArithmeticError):
    """Accuracy signs cannot be propagated: all pair moments below the floor."""


class ConfigurationError(UwsError, ValueError):
    """Inconsistent setup: no admissible triplet, empty candidate set, path/space mismatch."""


class DegenerateWeightsError(UwsError, ValueError):
    """All aggregation weights are zero."""


class SingularCovarianceError(UwsError, ArithmeticError):
    """Covariance matrix not positive definite even after the ridge repair."""


class DisconnectedGraphError(UwsError, ValueError):
    """Graph metric requested for a disconnected graph (infinite distances)."""


class InvalidMetricError(UwsError, ValueError):
    """Distance matrix violates metric axioms (asymmetry, nonzero diagonal, ...)."""


class UseHeuristicError(UwsError, ValueError):
    """Exact solver refused: label space too large, use the local-search solver."""
