"""Mallows distribution over permutations.

The law is ``P(pi) = exp(-theta * d_tau(pi, center)) / Z(theta)`` with the
Kendall tau distance. This module provides the exact partition function, the
closed-form expected distance and its derivative, numerical inversion of the
expected distance (the mean-to-canonical backward map), and exact sampling by
repeated insertion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleMeanError, InvalidArgumentError
from .permutations import check_permutation

__all__ = [
    "MallowsModel",
    "log_partition_function",
    "expected_distance",
    "expected_distance_derivative",
    "uniform_mean_distance",
    "backward_map",
    "sample",
    "sample_many",
    "BACKWARD_BRACKET",
]

# bisection bracket for the backward map; results clamp at the endpoints
BACKWARD_BRACKET = (1e-8, 50.0)


@dataclass(frozen=True)
class MallowsModel:
    """Center permutation and concentration theta (nats per unit Kendall distance).

    theta = 0 is the uniform-distribution limit (allowed for sampling);
    the closed-form functions below require theta > 0.
    """

    center: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "center", check_permutation(self.center))
        if self.theta < 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")

    @property
    def rho(self):
        return int(self.center.size)


def _check_theta_rho(theta, rho):
    if theta <= 0:
        raise DomainError(f"theta must be > 0, got {theta}")
    if rho < 1:
        raise InvalidArgumentError(f"need rho >= 1, got {rho}")


def log_partition_function(theta, rho):
    """log Z(theta) where Z(theta) = prod_{j<=rho} (1 - e^{-theta j}) / (1 - e^{-theta}).

    Evaluated in log space so large rho and small theta do not overflow.
    """
    _check_theta_rho(theta, rho)
    out = 0.0
    log_denom = math.log1p(-math.exp(-theta))
    for j in range(1, rho + 1):
        out += math.log1p(-math.exp(-theta * j)) - log_denom
    return out


def expected_distance(theta, rho):
    """E[d_tau(pi, center)] under Mallows(theta) on S_rho.

    Closed form ``rho/(e^theta - 1) - sum_{j<=rho} j/(e^{theta j} - 1)``;
    strictly decreasing in theta, with limits rho(rho-1)/4 as theta -> 0
    and 0 as theta -> inf.
    """
    _check_theta_rho(theta, rho)
    out = rho / math.expm1(theta)
    for j in range(1, rho + 1):
        out -= j / math.expm1(theta * j)
    return out


def expected_distance_derivative(theta, rho):
    """d/dtheta of :func:`expected_distance`; nonpositive over the sampled range.

    Equals ``-rho e^{-theta}/(1-e^{-theta})^2 + sum_{j<=rho} j^2 e^{-theta j}/(1-e^{-theta j})^2``,
    written with sinh for numerical symmetry.
    """
    _check_theta_rho(theta, rho)
    out = -rho / (4.0 * math.sinh(theta / 2.0) ** 2)
    for j in range(1, rho + 1):
        out += j * j / (4.0 * math.sinh(theta * j / 2.0) ** 2)
    return out


def uniform_mean_distance(rho):
    """Mean Kendall distance of a uniform permutation from any center: rho(rho-1)/4."""
    return rho * (rho - 1) / 4.0


def backward_map(mean_distance, rho, tol=1e-12, max_iter=200):
    """Invert the expected distance: the theta whose Mallows mean distance is ``mean_distance``.

    Bracketed bisection on the strictly monotone map, bracket
    ``BACKWARD_BRACKET``, resolved to ``tol`` on theta. Means outside the open
    interval (0, rho(rho-1)/4) raise InfeasibleMeanError: the uniform limit is
    unreachable at finite theta, and the caller owns any clamping policy.
    Means steeper than the bracket supports clamp to the bracket endpoint.
    """
    if rho < 2:
        raise InvalidArgumentError(f"need rho >= 2, got {rho}")
    hi_mean = uniform_mean_distance(rho)
    if not (0.0 < mean_distance < hi_mean):
        raise InfeasibleMeanError(
            f"mean distance {mean_distance} outside feasible range (0, {hi_mean}) for rho={rho}"
        )
    lo, hi = BACKWARD_BRACKET
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if expected_distance(mid, rho) > mean_distance:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _repeated_insertion(theta, u):
    """Permutations of 0..rho-1 by repeated insertion, one per row of the (size, rho-1) uniforms ``u``.

    Item j is inserted at displacement x in {0..j} (x new inversions) with
    probability proportional to exp(-theta x), chosen by inverting the CDF at
    ``u[:, j-1]``.
    """
    size, rho = u.shape[0], u.shape[1] + 1
    cur = np.zeros((size, 1), dtype=np.int64)
    for j in range(1, rho):
        w = np.exp(-theta * np.arange(j + 1, dtype=np.float64))
        x = np.searchsorted(np.cumsum(w) / w.sum(), u[:, j - 1])
        pos = (j - x)[:, None]
        cols = np.arange(j + 1)[None, :]
        keep = np.pad(cur, ((0, 0), (0, 1)))
        shifted = np.pad(cur, ((0, 0), (1, 0)))[:, : j + 1]
        cur = np.where(cols < pos, keep, np.where(cols == pos, j, shifted))
    return cur


def sample(model, rng):
    """One draw from ``model`` using the caller's random source.

    Repeated-insertion construction: item j is inserted at displacement x
    (x new inversions) with probability proportional to exp(-theta x), which
    samples the exact Mallows law; theta = 0 yields the uniform distribution.
    """
    return sample_many(model, rng, 1)[0]


def sample_many(model, rng, size):
    """Vectorized :func:`sample`: a (size, rho) array of independent draws."""
    rho = model.rho
    if size < 1:
        raise InvalidArgumentError(f"need size >= 1, got {size}")
    # row j-1 of the draw holds item j's uniforms: the stream order of one rng.random(size) per item
    cur = _repeated_insertion(model.theta, rng.random((rho - 1, size)).T)
    # relabel through the center: left-invariance gives d(center o sigma, center) = d(sigma, id)
    return model.center[cur]
