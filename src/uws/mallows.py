"""Mallows distribution over permutations.

The law is ``P(pi) = exp(-theta * d_tau(pi, center)) / Z(theta)`` with the
Kendall tau distance. This module provides the closed-form expected distance
(Fligner and Verducci, JRSS-B 1986), its numerical inversion (the
mean-to-canonical backward map), and exact sampling by repeated insertion
(Doignon, Pekec and Regenwetter, Psychometrika 2004). The backward map is a
bisection whose comparisons are mostly proven rather than evaluated: one
numpy Newton solve guesses every theta, a written bound on the float error
of the expected distance certifies a narrow bracket around each guess, and
only the midpoints inside it call the scalar closed form, so each theta is
the plain bisection's to the bit. One insertion kernel draws every
permutation: every task and labeler of a synthetic ranking scenario in one
pass, and the draws of :func:`sample_many` as one labeler. Each displacement
inverts an insertion CDF at a uniform, and a uniform above a last CDF entry
that rounds below 1 takes the last bucket, so every draw is a permutation.
"""

import math
import sys
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
# Newton steps of the backward map's guess; from its start it settles in at most 6
_NEWTON_STEPS = 12


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
        if not self.theta >= 0:
            raise DomainError(f"theta must be >= 0, got {self.theta}")

    @property
    def rho(self):
        return int(self.center.size)


def _check_theta_rho(theta, rho):
    if not theta > 0:
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


def _error_bound_terms(rho):
    """(eps A, eps K) of the bound ``eps (A theta + K) / expm1(theta)``; see :func:`backward_map`."""
    eps = sys.float_info.epsilon
    return eps * rho * (rho + 3) / 2, eps * rho * (rho + 8)


def _error_bound(theta, rho):
    """A bound on the float error of ``expected_distance(theta, rho)``, decreasing in theta."""
    e_a, e_k = _error_bound_terms(rho)
    return (e_a * theta + e_k) / math.expm1(theta)


def _newton_guess(means, rho):
    """Approximate thetas of a 1-D array of feasible means, and their relative noise.

    Newton's method on ``log f(e^t) = log(mean)`` over t = log(theta), with f
    the closed form of :func:`expected_distance` in numpy, all means at once.
    numpy's expm1 may differ from ``math.expm1`` in the last bit, so this is
    only a guess. It starts at the tangent of f at the uniform end, theta =
    (rho(rho-1)/4 - mean) / V with V = rho(rho-1)(2rho+5)/72 (f is convex, so
    this is below the root), and stays within [that start,
    log1p((rho-1)/mean)] (above the root, since f(theta) <= (rho-1)/expm1(theta))
    and within the bisection bracket. It stops once every step is within the
    noise ``_error_bound / (theta V(theta))`` that rounding puts on theta.
    """
    # f = r @ mean_w and -f' = (r + r^2) @ var_w, with r = 1/expm1(theta j) (0 once e^x overflows)
    j = np.arange(1.0, rho + 1.0)
    mean_w, var_w = -j, -j * j
    mean_w[0], var_w[0] = rho - 1, rho - 1
    e_a, e_k = _error_bound_terms(rho)
    with np.errstate(all="ignore"):
        tangent = (uniform_mean_distance(rho) - means) * (72.0 / (rho * (rho - 1) * (2 * rho + 5)))
        lo = np.log(np.maximum(tangent, BACKWARD_BRACKET[0]))
        hi = np.log(np.minimum(np.logaddexp(0.0, math.log(rho - 1) - np.log(means)), BACKWARD_BRACKET[1]))
        t, log_mean = lo, np.log(means)
        for _ in range(_NEWTON_STEPS):
            theta = np.exp(t)
            r = 1.0 / np.expm1(np.multiply.outer(theta, j))
            f = r @ mean_w
            slope = theta * ((r + r * r) @ var_w)  # -df/dt
            noise = (e_a * theta + e_k) * r[:, 0] / slope
            # NaN steps (from a zero slope) land on the upper limit
            t_next = np.fmax(lo, np.fmin(hi, t + (np.log(f) - log_mean) * f / slope))
            settled = (np.abs(t_next - t) <= 1e-12 + noise).all()
            t = t_next
            if settled:
                break
    return np.exp(t), noise


def backward_map(mean_distance, rho):
    """Invert the expected distance: the theta whose Mallows mean distance is ``mean_distance``.

    ``mean_distance`` is a float or an array; the result is a float or an
    array of the same shape. Each theta is the bisection of the strictly
    decreasing map on ``BACKWARD_BRACKET``, resolved to 1e-12: the midpoint
    replaces the low end while ``expected_distance(mid)`` is above the mean,
    else the high end. Means outside the open interval (0, rho(rho-1)/4)
    raise InfeasibleMeanError, which names the entry of an array: the uniform
    limit is unreachable at finite theta, and the caller owns any clamping
    policy. Means steeper than the bracket supports clamp to its endpoint.

    Most comparisons are proven rather than evaluated. With f the exact closed
    form, ``|expected_distance(theta) - f(theta)| <= B(theta) =
    eps (A theta + K) / expm1(theta)``, decreasing in theta
    (:func:`_error_bound`). To first order, with u = eps/2, q = 1/expm1(theta)
    and math.expm1 within 1 ulp: the rounding of theta*j is amplified by at
    most x+1 through expm1 (x = theta j), the expm1 adds 2u and the division
    u. As expm1 is superadditive, term j = j/expm1(x) is at most q and
    x j/expm1(x) at most j theta q, so term j is off by at most
    u q (j theta + 4), the first term rho q by 3u rho q, and each of the rho
    subtractions rounds a partial sum of at most rho q by u rho q. In all
    u q (theta rho(rho+1)/2 + rho(rho+7)); ``A = rho(rho+3)/2`` and
    ``K = rho(rho+8)`` more than double it, for second-order terms, the
    dropped overflowing terms (each below 1e-300 j) and the rounding of the
    proof's own arithmetic. B is below eps (A + K/theta) and, unlike that
    absolute form, shrinks with f at large theta.

    One numpy Newton solve (:func:`_newton_guess`) guesses every theta. For
    each mean, two scalar evaluations at ``a, b = guess (1 -+ s)`` certify a
    bracket when ``D = f~(a) - mean - B(a) > 0`` and
    ``mean - f~(b) >= 2 B(b)``, where f~ is :func:`expected_distance`; a b
    past the top of the bisection bracket needs no evaluation, as no midpoint
    reaches it. s starts at four times the guess's noise and grows by 8 while
    below 1e-2; a bracket that never certifies leaves every comparison to
    evaluation. Every theta >= b then has f~ <= f(b) + B(b) <= mean, and
    every theta in (log1p(eps (A a + K) / D), a] has
    f~ >= f(a) - B(theta) > mean, so the bisection takes those midpoints
    without evaluating and calls :func:`expected_distance` on the others,
    exactly as a bisection without the bracket does: every comparison, and
    so every theta, is the same.
    """
    if rho < 2:
        raise InvalidArgumentError(f"need rho >= 2, got {rho}")
    hi_mean = uniform_mean_distance(rho)
    means = np.asarray(mean_distance, dtype=np.float64)
    flat = means.reshape(-1)
    bad = np.flatnonzero(~((flat > 0.0) & (flat < hi_mean)))
    if bad.size:
        where = f" at index {', '.join(map(str, np.unravel_index(bad[0], means.shape)))}" if means.ndim else ""
        raise InfeasibleMeanError(
            f"mean distance {flat[bad[0]]}{where} outside feasible range (0, {hi_mean}) for rho={rho}"
        )
    e_a, e_k = _error_bound_terms(rho)
    guesses, noise = _newton_guess(flat, rho)
    thetas = []
    # a slope that rounding made useless (theta near 1e-8) can give a noise <= 0
    for mean, guess, s in zip(flat.tolist(), guesses.tolist(), np.maximum(4.0 * noise, 1e-15).tolist()):
        while s < 1e-2:
            a, b = guess * (1.0 - s), guess * (1.0 + s)
            d = expected_distance(a, rho) - mean - _error_bound(a, rho)
            if d > 0.0 and (b >= BACKWARD_BRACKET[1]
                            or mean - expected_distance(b, rho) >= 2.0 * _error_bound(b, rho)):
                floor = math.log1p((e_a * a + e_k) / d)
                break
            s *= 8.0
        else:
            a, b, floor = -math.inf, math.inf, math.inf
        lo, hi = BACKWARD_BRACKET
        while hi - lo > _BACKWARD_TOL:
            mid = 0.5 * (lo + hi)
            if floor < mid <= a:
                lo = mid
            elif mid >= b:
                hi = mid
            elif expected_distance(mid, rho) > mean:
                lo = mid
            else:
                hi = mid
        thetas.append(0.5 * (lo + hi))
    return thetas[0] if means.ndim == 0 else np.array(thetas).reshape(means.shape)


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
    falls in the last bucket rather than past it. Inserting item j at
    position p = j - x moves every earlier item at position >= p one place
    right.

    The kernel is item-major. It reads item j's uniforms as the (n, m) slab
    ``u[..., j-1]``, which is contiguous when ``u`` is the (n, m, rho-1)
    view of an item-major buffer (as :func:`~uws._streams.uniforms` and
    :func:`sample_many` give it). Every item's final position lives in one
    (rho, n, m) array of the smallest integer type that holds rho, so each
    step shifts the j earlier items as whole (n, m) slabs. One scatter
    relabels the positions through the centers at the end.
    """
    n, m, rho = u.shape[0], u.shape[1], u.shape[2] + 1
    neg_thetas = -np.asarray(thetas, dtype=np.float64)[:, None]
    pos = np.zeros((rho, n, m), dtype=np.min_scalar_type(rho))
    for j in range(1, rho):
        w = np.exp(neg_thetas * np.arange(j + 1, dtype=np.float64))
        cdf = np.cumsum(w, axis=1) / w.sum(axis=1, keepdims=True)
        # one elementwise pass per CDF entry: a reduction over a last axis of j is slower
        uj = u[..., j - 1]
        p = pos[j]
        p.fill(j)
        for k in range(j):
            p -= cdf[:, k] < uj
        head = pos[:j]
        head += head >= p
    # left-invariance: the center relabelled by a draw at the identity is a draw at the center
    out = np.empty((n, m, rho), dtype=centers.dtype)
    np.put_along_axis(out, pos.transpose(1, 2, 0), centers[:, None, :], axis=2)
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
    # item-major, as the kernel reads them: row j-1 holds item j's uniforms, one rng.random(size) per item
    u = rng.random((rho - 1, size)).T
    return _repeated_insertion([model.theta], u[:, None], model.center[None])[:, 0]
