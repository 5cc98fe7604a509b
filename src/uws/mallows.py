"""Mallows distribution over permutations.

The law is ``P(pi) = exp(-theta * d_tau(pi, center)) / Z(theta)`` with the
Kendall tau distance. This module provides the closed-form expected distance,
its numerical inversion (the mean-to-canonical backward map), and exact
sampling by repeated insertion (Doignon, Pekec and Regenwetter, Psychometrika
2004). One insertion kernel draws every permutation: every task and labeler
of a synthetic ranking scenario in one pass, and the draws of
:func:`sample_many` as one labeler. Each displacement inverts an insertion
CDF at a uniform, and a uniform above a last CDF entry that rounds below 1
takes the last bucket, so every draw is a permutation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleMeanError, InvalidArgumentError
from .permutations import check_permutation

__all__ = [
    "MallowsModel",
    "expected_distance",
    "uniform_mean_distance",
    "backward_map",
    "sample",
    "sample_many",
    "BACKWARD_BRACKET",
]

# bisection bracket for the backward map; results clamp at the endpoints
BACKWARD_BRACKET = (1e-8, 50.0)
# the backward map bisects until the bracket is this narrow: 46 halvings of the one above
_BACKWARD_TOL = 1e-12


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


def expected_distance(theta, rho):
    """E[d_tau(pi, center)] under Mallows(theta) on S_rho.

    Closed form ``rho/(e^theta - 1) - sum_{j<=rho} j/(e^{theta j} - 1)``;
    strictly decreasing in theta, with limits rho(rho-1)/4 as theta -> 0
    and 0 as theta -> inf. A term whose e^{theta j} is beyond the float range
    (theta j above about 709.78) is below 1e-300 j and is dropped, with every
    later one.
    """
    _check_theta_rho(theta, rho)
    out = 0.0
    try:
        out = rho / math.expm1(theta)
        for j in range(1, rho + 1):
            out -= j / math.expm1(theta * j)
    except OverflowError:
        pass
    return out


def uniform_mean_distance(rho):
    """Mean Kendall distance of a uniform permutation from any center: rho(rho-1)/4."""
    return rho * (rho - 1) / 4.0


def backward_map(mean_distance, rho):
    """Invert the expected distance: the theta whose Mallows mean distance is ``mean_distance``.

    Bracketed bisection on the strictly monotone map, bracket
    ``BACKWARD_BRACKET``, resolved to 1e-12 on theta. Means outside the open
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
    while hi - lo > _BACKWARD_TOL:
        mid = 0.5 * (lo + hi)
        if expected_distance(mid, rho) > mean_distance:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _repeated_insertion(thetas, u, centers):
    """Mallows draws by repeated insertion, all labelers in one pass: an (n, m, rho) array.

    Row ``[i, a]`` is a draw centered at ``centers[i]`` (an (n, rho) array)
    with concentration ``thetas[a]``, from the uniforms ``u[i, a]`` of the
    (n, m, rho-1) array ``u``. Item j = 1..rho-1 is inserted at displacement
    x in {0..j} (x new inversions) with probability proportional to
    exp(-theta x). One (m, j+1) table holds every labeler's insertion CDF,
    and x counts, in one pass per entry, how many of a row's first j CDF
    entries lie below ``u[i, a, j-1]``: ``searchsorted(side="left")`` on a
    sorted CDF, except that a uniform past a last entry that rounds below 1
    falls in the last bucket rather than past it. Inserting item j at position p = j - x moves
    every earlier item at position >= p one place right, so the kernel keeps
    every item's final position in one (n, m, rho) array and relabels
    through the centers with one scatter.
    """
    n, m, rho = u.shape[0], u.shape[1], u.shape[2] + 1
    neg_thetas = -np.asarray(thetas, dtype=np.float64)[:, None]
    pos = np.zeros((n, m, rho), dtype=np.int64)
    for j in range(1, rho):
        w = np.exp(neg_thetas * np.arange(j + 1, dtype=np.float64))
        cdf = np.cumsum(w, axis=1) / w.sum(axis=1, keepdims=True)
        # one elementwise pass per CDF entry: a reduction over a last axis of j is slower
        uj = u[..., j - 1]
        p = np.full(uj.shape, j)
        for k in range(j):
            p -= cdf[:, k] < uj
        head = pos[..., :j]
        head += head >= p[..., None]
        pos[..., j] = p
    # left-invariance: the center relabelled by a draw at the identity is a draw at the center
    out = np.empty((n, m, rho), dtype=centers.dtype)
    np.put_along_axis(out, pos, centers[:, None, :], axis=2)
    return out


def sample(model, rng):
    """One draw from ``model`` using the caller's random source.

    Repeated-insertion construction: item j is inserted at displacement x
    (x new inversions) with probability proportional to exp(-theta x), which
    samples the exact Mallows law; theta = 0 yields the uniform distribution.
    """
    return sample_many(model, rng, 1)[0]


def sample_many(model, rng, size):
    """Vectorized :func:`sample`: a (size, rho) array of independent draws.

    The draws come from the same insertion kernel as the synthetic ranking
    labels, run with one labeler and the model's center.
    """
    rho = model.rho
    if size < 1:
        raise InvalidArgumentError(f"need size >= 1, got {size}")
    # row j-1 of the draw holds item j's uniforms: the stream order of one rng.random(size) per item
    u = rng.random((rho - 1, size)).T
    return _repeated_insertion([model.theta], u[:, None], model.center[None])[:, 0]
