"""Learning labeler accuracies without ground truth.

From the labelers' outputs alone, each labeler's mean parameter (its
expected agreement with the latent truth) is recovered from the pair moments
of triples of conditionally independent labelers, on one of three routes:
continuous (a closed-form square root, given the truth's second moments),
hypercube (the quadratic formula under a two-point prior, from joint +1
frequencies, once per truth value) or isotropic (half-sums of native pair
distances). Each route is one elementwise core on each triplet's gathered
pair moments. :func:`learn_label_model` checks its arguments and hands the
data to the one learner of its space kind. Each learner embeds the outputs
(+-1 pair signs, real labels as given, MDS coordinates or native distances),
takes every pair moment in one product, estimates each labeler and
coordinate as the median over the triplets that pair up its K = 4 strongest
admissible partners (its strongest admissible pairs, where those partners
are pairwise correlated) and solve there, every labeler's pairs in one array
call, and maps the mean parameters to canonical accuracies (Mallows thetas,
the inverse error covariance, inverse mean distances). A labeler and
coordinate with no solvable triplet raise the route's error, naming both;
the public scalar solvers wrap the same cores and raise instead.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import mallows
from ._covariance import repair_covariance
from .errors import (
    ConfigurationError,
    DegenerateMomentError,
    DomainError,
    InconsistentMomentsError,
    InvalidArgumentError,
    SignAmbiguousError,
)
from .metric_spaces import FiniteMetricSpace, classical_mds
from .permutations import _integers, item_positions, position_flags

__all__ = [
    "EPS_FLOOR",
    "LabelingMatrix",
    "CorrelationSet",
    "TwoPointPrior",
    "SecondMomentPrior",
    "LabelModel",
    "empirical_pair_moments",
    "continuous_triplets",
    "quadratic_triplets",
    "isotropic_accuracies",
    "resolve_signs",
    "gaussian_backward_map",
    "learn_label_model",
]

# below this, a pairwise moment is treated as indistinguishable from zero
EPS_FLOOR = 1e-6

# each labeler's triplets pair up its K strongest admissible partners
_PARTNERS = 4

RANKING = "ranking"
REAL_VECTOR = "real_vector"
FINITE_METRIC = "finite_metric"

# the routes available on each space; the first is its default
_PATHS = {
    RANKING: ("continuous", "hypercube", "isotropic"),
    REAL_VECTOR: ("continuous", "isotropic"),
    FINITE_METRIC: ("isotropic", "continuous"),
}
# the routes that read a SecondMomentPrior; only the hypercube route reads a TwoPointPrior
_SECOND_MOMENT_ROUTES = {(REAL_VECTOR, "continuous"), (REAL_VECTOR, "isotropic"), (FINITE_METRIC, "continuous")}


@dataclass(frozen=True)
class LabelingMatrix:
    """Outputs of m labelers over n tasks in one label space.

    labels layout by space kind:
      ranking       (n, m, rho) int permutations
      real_vector   (n, m, 1) floats: one scalar per labeler, also given as (n, m)
      finite_metric (n, m) int point indices, with ``space`` attached

    A ranking matrix also holds ``positions``, the (rho, m, n) inverse of its
    labels in the smallest unsigned type that holds rho: ``positions[i, a, t]``
    is where labeler a puts item i on task t.
    :func:`~uws.permutations.item_positions`, the one permutation check,
    computes them while it checks the labels, and the learner and the Kemeny
    solvers read them instead of sorting the labels again. The ranking
    ``labels`` and ``positions`` are read-only views; the labels must not be
    changed after the matrix is built, through the array it was given either:
    the positions would not follow, and what is learned or aggregated from
    the matrix is then undefined. Copies and
    pickles are rebuilt through the constructor, so they are checked and
    guarded the same way. ``positions`` is None for the other kinds.
    """

    space_kind: str
    labels: np.ndarray
    space: FiniteMetricSpace = None
    positions: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.space_kind not in _PATHS:
            raise InvalidArgumentError(f"unknown space kind {self.space_kind!r}")
        labels = np.asarray(self.labels)
        if self.space_kind == RANKING:
            labels = _integers(labels, "ranking")
            if labels.ndim != 3:
                raise InvalidArgumentError(f"ranking labels must be (n, m, rho), got {labels.shape}")
            positions, ok = item_positions(labels)
            if not ok.all():
                raise InvalidArgumentError("every ranking entry must be a permutation of 0..rho-1")
            labels = labels.view()
            labels.flags.writeable = positions.flags.writeable = False
            object.__setattr__(self, "positions", positions)
        elif self.space_kind == REAL_VECTOR:
            labels = labels.astype(np.float64)
            if labels.ndim == 2:
                labels = labels[:, :, None]
            if labels.ndim != 3 or labels.shape[2] != 1:
                raise InvalidArgumentError(f"real labels must be (n, m) or (n, m, 1), got {labels.shape}")
            if not np.isfinite(labels).all():
                raise InvalidArgumentError("real labels must be finite")
        else:
            labels = _integers(labels, "node")
            if labels.ndim != 2:
                raise InvalidArgumentError(f"node labels must be (n, m), got {labels.shape}")
            if self.space is None:
                raise InvalidArgumentError("finite_metric labels need an attached space")
            if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.space.size:
                raise InvalidArgumentError("node labels outside the space")
        if labels.shape[0] < 1 or labels.shape[1] < 1:
            raise InvalidArgumentError(f"need n >= 1 and m >= 1, got shape {labels.shape}")
        object.__setattr__(self, "labels", labels)

    def __reduce__(self):
        return LabelingMatrix, (self.space_kind, self.labels, self.space)

    @property
    def n_tasks(self):
        return int(self.labels.shape[0])

    @property
    def n_lfs(self):
        return int(self.labels.shape[1])

    @property
    def rho(self):
        if self.space_kind != RANKING:
            raise InvalidArgumentError("rho only defined for ranking matrices")
        return int(self.labels.shape[2])

    @property
    def dims(self):
        """The label space's size, as a LabelModel records it: ``{"rho": rho}``, ``{"d": 1}`` or ``{"n_points": N}``."""
        if self.space_kind == RANKING:
            return {"rho": self.rho}
        if self.space_kind == REAL_VECTOR:
            return {"d": self.labels.shape[2]}
        return {"n_points": self.space.size}


@dataclass(frozen=True)
class CorrelationSet:
    """Unordered labeler pairs declared conditionally dependent.

    Edges are stored as sorted ``(low, high)`` int pairs, however given.
    """

    edges: frozenset = frozenset()

    def __post_init__(self):
        norm = set()
        for a, b in self.edges:
            a, b = int(a), int(b)
            if a == b:
                raise InvalidArgumentError(f"self-loop ({a}, {b}) not allowed")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_pairs(cls, pairs):
        return cls(frozenset(tuple(pair) for pair in pairs))

    def correlated(self, a, b):
        return (min(a, b), max(a, b)) in self.edges


@dataclass(frozen=True)
class TwoPointPrior:
    """Truth takes one of two values; p is the probability of the first."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidArgumentError(f"need 0 < p < 1, got {self.p}")


@dataclass(frozen=True)
class SecondMomentPrior:
    """Per-coordinate second moments E[g(Y)_i^2] of the embedded truth."""

    second_moments: np.ndarray

    def __post_init__(self):
        sm = np.atleast_1d(np.asarray(self.second_moments, dtype=np.float64))
        if not (np.isfinite(sm) & (sm > 0)).all():
            raise InvalidArgumentError("second moments must be positive and finite")
        object.__setattr__(self, "second_moments", sm)


@dataclass(frozen=True)
class LabelModel:
    """Learned per-labeler canonical accuracies plus the moments behind them.

    ``expected_distances`` holds the raw (unclamped) mean-parameter estimates;
    clamping happens only where a consumer requires it. ``theta_matrix`` is
    the full inverse covariance on the Gaussian-style routes, whose diagonal
    supplies ``thetas``. ``per_coordinate`` holds each labeler's raw signed
    moments (continuous route) or agreement probabilities (hypercube route).
    A model applies only to data of its ``space_kind``, ``dims`` (the
    :attr:`LabelingMatrix.dims` it was learned on) and labeler count.
    """

    space_kind: str
    path: str
    dims: dict
    thetas: np.ndarray
    expected_distances: np.ndarray
    accuracies: np.ndarray
    pairwise_moments: np.ndarray
    embedding: dict
    version: str
    theta_matrix: np.ndarray = None
    per_coordinate: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def n_lfs(self):
        return int(len(self.thetas))


def empirical_pair_moments(values):
    """Per-pair, per-coordinate product moments of embedded labeler outputs.

    Parameters
    ----------
    values : (m, n, d) array
        Embedded outputs, labeler-major.

    Returns
    -------
    (m, m, d) array
        ``e[a, b, i] = mean_t values[a, t, i] * values[b, t, i]``; symmetric
        in (a, b), diagonal holds the per-labeler second moments.
    """
    values = np.asarray(values)
    if values.ndim != 3 or values.shape[1] < 1:
        raise InvalidArgumentError(f"values must be a nonempty (m, n, d) array, got {values.shape}")
    # every pair at once as one batched product (d, m, n) @ (d, n, m); on +-1
    # coordinates the sums are exact integers, so the moments are exact quotients
    v = np.ascontiguousarray(values.transpose(2, 0, 1), dtype=np.float64)
    sums = v @ v.transpose(0, 2, 1)
    return np.ascontiguousarray((sums / values.shape[1]).transpose(1, 2, 0))


def _pair_signs(positions):
    """Labeler-major (m, n, P) int8 view of the +-1 pair-sign coordinates of (rho, m, n) item positions.

    ``positions`` is a ranking :attr:`LabelingMatrix.positions`. Entries equal
    :func:`~uws.permutations.pair_sign_embed_many` of the rankings, made in place on the bytes
    of :func:`~uws.permutations.position_flags`; the storage is its pair-major (P, m, n), the
    layout :func:`empirical_pair_moments` multiplies in, so its float64 operand is one
    contiguous cast.
    """
    s = position_flags(positions).view(np.int8)
    s += s
    s -= 1
    return s.transpose(1, 2, 0)


def _continuous_core(e_ab, e_ac, e_bc, second_moment):
    """Elementwise ``|a_a|`` of :func:`continuous_triplets`, and where it is defined.

    ``ok`` is False wherever ``|e_bc|`` is at or below ``EPS_FLOOR``; a floored
    ``|e_ab|`` or ``|e_ac|`` is a near-random labeler a's magnitude near 0.
    Swapping the arguments gives the other two labelers' magnitudes.
    """
    e_ab, e_ac, e_bc = (np.abs(np.asarray(x, dtype=np.float64)) for x in (e_ab, e_ac, e_bc))
    ok = ~(e_bc <= EPS_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(e_ab * e_ac * second_moment / e_bc), ok


def continuous_triplets(e_ab, e_ac, e_bc, second_moment):
    """Accuracy magnitudes of three mutually conditionally independent labelers.

    Under conditional independence the cross moments factor as
    ``e_ab = a_a a_b / E[Y^2]``, so each magnitude has the closed form
    ``|a_a| = sqrt(|e_ab| |e_ac| E[Y^2] / |e_bc|)``. Inputs may be scalars or
    same-shape arrays (one entry per coordinate).

    Raises
    ------
    InvalidArgumentError
        Naming the first input that is NaN or infinite.
    DegenerateMomentError
        If any ``|e|`` is at or below ``EPS_FLOOR``: that labeler pair is
        indistinguishable from independence at this sample size.
    """
    for name, x in (("e_ab", e_ab), ("e_ac", e_ac), ("e_bc", e_bc), ("second_moment", second_moment)):
        if not np.isfinite(np.asarray(x, dtype=np.float64)).all():
            raise InvalidArgumentError(f"{name} must be finite")
    sm = np.asarray(second_moment, dtype=np.float64)
    if (sm <= 0).any():
        raise DomainError("second moment must be positive")
    mags, ok = zip(*(_continuous_core(*moments, sm) for moments in ((e_ab, e_ac, e_bc), (e_ab, e_bc, e_ac),
                                                                    (e_ac, e_bc, e_ab))))
    if not all(x.all() for x in ok):
        raise DegenerateMomentError(f"pairwise moment at or below the floor {EPS_FLOOR}")
    return mags


def _triplet_gather(table, a, b, c):
    """``table[a, b], table[a, c], table[b, c]`` of an (m, m, ...) table for index arrays a, b, c.

    Each is one row take from the table's flat pair rows, row ``i * m + j``
    holding entry (i, j).
    """
    m, pairs = len(table), table.reshape(-1, *table.shape[2:])
    return pairs.take(a * m + b, axis=0), pairs.take(a * m + c, axis=0), pairs.take(b * m + c, axis=0)


def _quadratic_core(o_xb, o_bz, o_xz, l_x, l_b, l_z, p):
    """Elementwise pivot root ``beta`` of :func:`quadratic_triplets`, and where it is defined.

    Labeler b is the pivot between the outer labelers x and z. ``ok`` is False
    wherever the discriminant shows that no real solution exists; the root
    there comes from the discriminant clamped to 0.
    """
    r = p / (1.0 - p)
    t = p / (1.0 - p) ** 2
    r2 = r**2
    q_x, q_b, q_z = l_x / (1.0 - p), l_b / (1.0 - p), l_z / (1.0 - p)
    qq_xz, q2_b = q_x * q_z, q_b**2
    op_xz = o_xz / (1.0 - p)
    k_xb = o_xb / (1.0 - p) - q_x * q_b
    k_bz = o_bz / (1.0 - p) - q_b * q_z
    # quadratic A beta^2 + B beta + C = 0 in the pivot; B = -(2 q_b r / t) A holds
    # identically, so the roots are l_b +- sqrt(disc) / (2|A|)
    lead = t * (qq_xz * r - op_xz * t)
    const = t * k_xb * k_bz + qq_xz * q2_b * r2 + q_x * q_b * r2 * k_bz + q_b * q_z * r2 * k_xb - op_xz * q2_b * r2
    lin2 = (-2.0 * q_b * r / t * lead) ** 2
    lead_const = 4.0 * lead * const
    disc = lin2 - lead_const
    # near the double root a sampled discriminant is legitimately negative at
    # the scale of its own components; only a violation of at least half the
    # total component magnitude is evidence of jointly impossible moments
    ok = ~(disc < -(0.5 * (lin2 + np.abs(lead_const)) + 1e-9))
    # a vanishing lead means the outer pair's joint factorizes: the linear
    # coefficient vanishes with it, the pivot is underdetermined, and its
    # marginal is the only neutral answer
    degenerate = np.abs(lead) <= 1e-12 * (t**2 * (qq_xz + op_xz) + 1e-30)
    beta = l_b + np.sqrt(np.clip(disc, 0.0, None)) / (2.0 * np.abs(np.where(degenerate, 1.0, lead)))
    return np.where(degenerate, l_b, beta), ok


def quadratic_triplets(o_ab, o_ac, o_bc, l_a, l_b, l_c, p):
    """Per-coordinate conditional probabilities from joint +1 frequencies.

    Solves the conditional-independence system relating the pairwise joint
    probabilities ``o_xy = P(g_x = 1, g_y = 1)`` and marginals
    ``l_x = P(g_x = 1)`` to the class-conditionals
    ``alpha = P(g_a = 1 | Y = y1)`` (and beta, gamma alike) under a two-point
    prior with ``p = P(Y = y1)``. The middle labeler b is the quadratic's
    pivot; the two roots always sum to ``2 l_b``, and the root ``>= l_b``
    (the better-than-random direction for a +1-coded center) is returned.
    a and c follow from linear relations in the selected root. Inputs may be
    scalars or same-shape arrays.

    On population-exact inputs the generating probabilities are recovered
    exactly. Roots are reported raw (possibly outside [0, 1] on noisy input);
    clamping is an inference-time policy.

    Raises
    ------
    InvalidArgumentError
        Naming the first input that is not a finite probability.
    InconsistentMomentsError
        Discriminant below the relative tolerance: no real solution exists.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"need 0 < p < 1, got {p}")
    arrays = [np.asarray(x, dtype=np.float64) for x in (o_ab, o_ac, o_bc, l_a, l_b, l_c)]
    for name, x in zip(("o_ab", "o_ac", "o_bc", "l_a", "l_b", "l_c"), arrays):
        if not (np.isfinite(x) & (x >= -1e-12) & (x <= 1 + 1e-12)).all():
            raise InvalidArgumentError(f"{name}: probabilities must be finite and lie in [0, 1]")
    shape = np.broadcast_shapes(*(x.shape for x in arrays))
    # scalars take the array path too: numpy squares a float64 scalar through
    # pow, which can round differently from an array's product
    o_ab, o_ac, o_bc, l_a, l_b, l_c = np.broadcast_arrays(*(np.atleast_1d(x) for x in arrays))
    beta, ok = _quadratic_core(o_ab, o_bc, o_ac, l_a, l_b, l_c, p)
    if not ok.all():
        raise InconsistentMomentsError("moments admit no real solution (negative discriminant)")
    # a and c follow linearly from the pivot
    r, t = p / (1.0 - p), p / (1.0 - p) ** 2
    q_a, q_b, q_c = l_a / (1.0 - p), l_b / (1.0 - p), l_c / (1.0 - p)
    denom = t * beta - q_b * r
    flat = np.abs(denom) <= 1e-30
    safe_denom = np.where(flat, 1.0, denom)
    alpha = np.where(flat, l_a, (o_ab / (1.0 - p) + q_a * r * beta - q_a * q_b) / safe_denom)
    gamma = np.where(flat, l_c, (o_bc / (1.0 - p) + q_c * r * beta - q_b * q_c) / safe_denom)
    if not shape:
        return float(alpha[0]), float(beta[0]), float(gamma[0])
    return alpha, beta, gamma


def _half_sum_core(d_ab, d_ac, d_bc):
    """Elementwise half-sum of :func:`isotropic_accuracies`, and where no distance is missing."""
    ok = ~(np.isnan(d_ab) | np.isnan(d_ac) | np.isnan(d_bc))
    return 0.5 * (d_ab + d_ac - d_bc), ok


def isotropic_accuracies(pair_distances, triplet):
    """Expected distance to the latent truth from three pairwise expected distances.

    When pairwise expected distances are additive over the truth
    (conditional independence), ``E[d(a, y)]`` equals
    ``(E[d(a,b)] + E[d(a,c)] - E[d(b,c)]) / 2``. The half-sum is returned
    as-is; it can be negative on noisy input, and the caller owns clamping.
    """
    d = np.asarray(pair_distances, dtype=np.float64)
    a, b, c = triplet
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise InvalidArgumentError(f"pair distances must be a square matrix, got {d.shape}")
    m = d.shape[0]
    if len({a, b, c}) != 3 or not all(0 <= x < m for x in (a, b, c)):
        raise InvalidArgumentError(f"bad triplet {triplet} for m={m}")
    value, ok = _half_sum_core(d[a, b], d[a, c], d[b, c])
    if not ok:
        raise InvalidArgumentError(f"missing pairwise distance among {triplet}")
    return value


def resolve_signs(magnitudes, pair_moments):
    """Assign signs to accuracy magnitudes from pairwise moment signs.

    Takes (m,) magnitudes with (m, m) moments, or an (m, d) block with
    (m, m, d) moments, all coordinates in one breadth-first search from
    labeler 0 along pairs whose moment magnitude exceeds ``EPS_FLOOR``:
    ``sign(a_b) = sign(e_{parent,b}) * sign(a_parent)``, the parent being the
    linked frontier labeler of least rank; a frontier ranks by (parent's
    rank, own index). A coordinate whose signed sum comes out negative is
    flipped (better than random on average).

    Raises
    ------
    SignAmbiguousError
        Naming the first coordinate in which some labeler cannot be reached.
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    e = np.asarray(pair_moments, dtype=np.float64)
    m = mags.shape[0]
    if not m or mags.ndim > 2 or e.shape != (m, m, *mags.shape[1:]):
        raise InvalidArgumentError(f"pair moments must be {(m, m, *mags.shape[1:])} for m >= 1 labelers, got {e.shape}")
    block = mags.reshape(m, -1)
    e = e.reshape(m, m, -1)
    usable = np.abs(e) > EPS_FLOOR
    signs = np.zeros(block.shape)
    signs[0] = 1.0
    rank = np.full(block.shape, m)  # frontier position per coordinate, m off the frontier
    rank[0] = 0
    j, c = np.arange(m)[:, None], np.arange(block.shape[1])
    while True:
        linked = np.where(usable, rank[:, None], m)  # (i, j, c): i's rank where i links to j
        via, best = linked.argmin(axis=0), linked.min(axis=0)
        reached = (best < m) & (signs == 0.0)
        if not reached.any():
            break
        signs[reached] = (np.take_along_axis(signs, via, axis=0) * np.sign(e[via, j, c]))[reached]
        order = np.where(reached, best * m + j, m * m).argsort(axis=0).argsort(axis=0)
        rank = np.where(reached, order, m)
    unreached = signs == 0.0
    if unreached.any():
        i = unreached.any(axis=0).argmax()
        raise SignAmbiguousError(f"coordinate {i}: cannot reach labelers {np.flatnonzero(unreached[:, i]).tolist()}: "
                                 f"all their pair moments are below {EPS_FLOOR}")
    rows = np.ascontiguousarray(signs.T)
    for i in c:  # one dot product per coordinate: its rounding decides the flip
        if float(rows[i] @ block[:, i]) < 0.0:
            signs[:, i] = -signs[:, i]
    return (signs * block).reshape(mags.shape)


def gaussian_backward_map(error_cov):
    """Canonical accuracy matrix of a Gaussian model: the inverse error covariance.

    ``error_cov[a, b] = E[(lambda^a - y)(lambda^b - y)]``; the matrix is
    ridge-repaired once if needed. The diagonal of the result is the per-LF
    canonical accuracy.
    """
    cov = repair_covariance(error_cov)
    return np.linalg.inv(cov)


def _admissible(m, corr):
    """(m, m) bool: which labeler pairs may share a triplet, being distinct and not declared correlated."""
    if m < 3:
        raise ConfigurationError(f"triplet unavailable: need at least 3 labelers, got {m}")
    free = ~np.eye(m, dtype=bool)
    for a, b in sorted(corr.edges):
        if a < 0 or b >= m:
            raise InvalidArgumentError(f"correlation edge ({a}, {b}) names a labeler outside 0..{m - 1}")
        free[a, b] = free[b, a] = False
    return free


def _partner_pairs(strength, free):
    """Each labeler's triplets: the admissible pairs of its K strongest admissible partners.

    Partners rank by ``strength``, highest first, ties to the lower index. A
    labeler whose K strongest partners are pairwise correlated takes instead
    its S strongest admissible pairs, ranked by the weaker member's place,
    then the stronger's (without correlations, exactly the K partners'
    pairs). Row a of the (m, S) arrays ``b``, ``c`` and ``valid`` holds
    labeler a's partner pairs, b < c, lexicographic; ``valid`` is False on a
    correlated pair and on a slot past the pairs, whose b and c are a itself.
    """
    m = len(free)
    order = np.argsort(-strength, kind="stable")
    ranked = free[:, order]
    top = ranked & (np.cumsum(ranked, axis=1) <= _PARTNERS)
    k = min(_PARTNERS, m - 1)
    partners = np.sort(np.where(top, order, m), axis=1)[:, :k]  # m pads past the partners
    i, j = np.triu_indices(k, k=1)
    a, b, c = np.arange(m)[:, None], partners[:, i], partners[:, j]
    b, c = np.where(c < m, b, a), np.where(c < m, c, a)
    valid = free[b, c]
    place = np.argsort(order)  # each labeler's rank by strength
    for x in np.flatnonzero(~valid.any(axis=1)):
        bx, cx = np.nonzero(np.triu(free & free[x] & free[x, :, None]))  # lexicographic
        if not len(bx):
            raise ConfigurationError(f"triplet unavailable for labeler {x} under the correlation set")
        weaker, stronger = np.maximum(place[bx], place[cx]), np.minimum(place[bx], place[cx])
        keep = np.sort(np.argsort(weaker * m + stronger)[: b.shape[1]])
        b[x], c[x], valid[x] = x, x, False
        b[x, : len(keep)], c[x, : len(keep)], valid[x, : len(keep)] = bx[keep], cx[keep], True
    return b, c, valid


def _triplet_estimates(pairs, solve, exc_type, reason):
    """Per labeler and coordinate, the median of the labeler's triplets that the route solves there.

    ``solve(a, b, c)`` evaluates every labeler a against its pairs (b, c) from
    :func:`_partner_pairs` in one call, returning ``(rows, ok)``, (m, S, ...)
    each. A labeler and coordinate with no valid ``ok`` row raise ``exc_type``.
    """
    b, c, valid = pairs
    rows, ok = solve(np.arange(len(b))[:, None], b, c)
    estimates, count = _median_rows(rows, ok & valid.reshape(valid.shape + (1,) * (ok.ndim - 2)))
    if not count.all():
        a, i = np.argwhere(count.reshape(len(b), -1) == 0)[0]
        raise exc_type(f"labeler {a}: coordinate {i}: {reason}")
    return estimates


def _median_rows(rows, ok):
    """``np.median`` over axis 1 of the rows where ``ok`` holds, bit for bit, and how many hold.

    ``rows`` and ``ok`` are (m, k, ...); left-out rows sort last, as +inf. The
    mean of the middle ranks is np.median's, a sum from +0.0 (so a middle -0.0
    shows as 0.0) over their count. A kept NaN gives NaN, as in np.median.
    """
    count = ok.sum(axis=1)
    part = np.sort(np.where(ok, rows, np.inf), axis=1)
    lo, hi = (np.take_along_axis(part, rank[:, None], axis=1)[:, 0] for rank in ((count - 1) // 2, count // 2))
    odd = count % 2 == 1
    with np.errstate(invalid="ignore"):  # -inf + inf is NaN, as in np.median
        middle = (lo + 0.0) + np.where(odd, 0.0, hi)
    middle /= np.where(odd, 1.0, 2.0)
    return np.where(np.isnan(part[:, -1]), np.nan, middle), count  # a kept NaN sorts past the +inf


def _signed_accuracies(e, pairs, second_moments):
    """Continuous route: per-coordinate signed accuracies, one row per labeler."""
    mags = _triplet_estimates(
        pairs,
        lambda a, b, c: _continuous_core(*_triplet_gather(e, a, b, c), second_moments),
        DegenerateMomentError,
        f"every triplet has its partners' pair moment at or below the floor {EPS_FLOOR}",
    )
    return resolve_signs(mags, e)


def _agreement_probabilities(values, e, pairs, p):
    """Hypercube route: per-coordinate probability of agreeing with the latent truth.

    Runs the quadratic route once per truth value: the +1-coded run uses the
    joint (+1, +1) frequencies with weight p, the -1-coded run the (-1, -1)
    frequencies with weight 1-p. Both follow from the exact integer sums
    ``S_a = sum_t g_a`` and ``S_ab = sum_t g_a g_b`` of the +-1 coordinates:
    the counts are ``(n +- S_a)/2`` and ``(n +- (S_a + S_b) + S_ab)/4``.
    """
    n = values.shape[1]
    s_a = values.sum(axis=1, dtype=np.int64)  # (m, d)
    s_ab = np.rint(e * n)  # e holds integer sums over n
    agreements = np.zeros(s_a.shape)
    for sign, weight in ((1.0, p), (-1.0, 1.0 - p)):
        l = (n + sign * s_a) / 2.0 / n
        o = (n + sign * (s_a[:, None] + s_a[None, :]) + s_ab) / 4.0 / n
        # labeler a is the pivot between each partner pair (b, c); o is symmetric
        # (exact integer sums), so its (a, b) entry serves as the pivot's (b, a)
        cond = _triplet_estimates(
            pairs,
            lambda a, b, c: _quadratic_core(*_triplet_gather(o, a, b, c), l[b], l[a], l[c], weight),
            InconsistentMomentsError,
            "no triplet's moments admit a real solution",
        )
        agreements += weight * cond
    return agreements


def _ranking_theta(mean_distance, rho):
    """Mallows canonical accuracies of an array of mean distances, with the boundary clamping policy.

    Raw means at or below 0 clamp to the top of the bisection bracket
    (a labeler indistinguishable from perfect); means at or beyond the
    uniform value clamp to 0 (no better than random). The rest go through
    one :func:`mallows.backward_map` call.
    """
    mean = np.asarray(mean_distance, dtype=np.float64)
    chance, perfect = mean >= mallows.uniform_mean_distance(rho), mean <= 0.0
    thetas = np.where(chance, 0.0, mallows.BACKWARD_BRACKET[1])
    inside = ~(chance | perfect)
    thetas[inside] = mallows.backward_map(mean[inside], rho)
    return thetas


def _pair_moments(values, prior=None, default=None):
    """Pair moments of labeler-major (m, n, d) values, refused where they overflow, and the truth's second
    moments: a SecondMomentPrior's, else ``default``, one or one per coordinate, broadcast to (d,), or None."""
    with np.errstate(over="ignore"):  # refused just below, naming the cause
        e = empirical_pair_moments(values)
    if not np.isfinite(e).all():
        raise InvalidArgumentError("pair moments are not finite: the label products overflow float64")
    second_moments = prior.second_moments if isinstance(prior, SecondMomentPrior) else default
    if second_moments is None:
        return e, None
    if second_moments.shape not in ((1,), values.shape[2:]):
        raise InvalidArgumentError(f"SecondMomentPrior has {second_moments.size} second moments for "
                                   f"{values.shape[2]} embedded coordinates; give one, or one per coordinate")
    return e, np.broadcast_to(second_moments, values.shape[2:]).astype(np.float64)


def _moment_partners(e, free):
    """:func:`_partner_pairs` with a partner's strength its summed mean |pair moment| with the others."""
    return _partner_pairs(np.where(np.eye(len(e), dtype=bool), 0.0, np.abs(e).mean(axis=2)).sum(axis=1), free)


def _half_sums(pair_dist, pairs):
    """Isotropic route: each labeler's mean distance to the truth, from the half-sums of its triplets' distances."""
    return _triplet_estimates(pairs, lambda a, b, c: _half_sum_core(*_triplet_gather(pair_dist, a, b, c)),
                              InvalidArgumentError, "every triplet misses a pairwise distance")


def _continuous_reals(e, pairwise, pairs, second_moments):
    """Continuous route on real coordinates: signed accuracies, their sums E[<lambda_a, y>], the error covariance."""
    per_coord = _signed_accuracies(e, pairs, second_moments)
    accuracies = per_coord.sum(axis=1)
    return per_coord, accuracies, pairwise - accuracies[:, None] - accuracies[None, :] + second_moments.sum()


def _learn_ranking(data, free, prior, path):
    """Rankings: +-1 pair-sign coordinates, mean Kendall distances to the truth, Mallows thetas."""
    if data.rho < 2:
        raise InvalidArgumentError(f"a ranking label model needs rho >= 2 items, got rho = {data.rho}")
    values = _pair_signs(data.positions)
    dim = values.shape[2]
    e, _ = _pair_moments(values)
    pairwise = e.mean(axis=2)  # the model keeps the mean over the +-1 pair coordinates
    pairs = _moment_partners(e, free)
    pair_sign = {"kind": "pair_sign", "dim": dim, "pair_order": "lexicographic"}
    if path == "isotropic":
        # native Kendall distances through the embedding identity
        mean_dist = _half_sums(dim * (1.0 - pairwise) / 2.0, pairs)
        out = {"embedding": {"kind": "native_kendall", "rho": data.rho}, "accuracies": 1.0 - 2.0 * mean_dist / dim}
    elif path == "hypercube":
        agree = _agreement_probabilities(values, e, pairs, prior.p if isinstance(prior, TwoPointPrior) else 0.5)
        mean_dist = (1.0 - agree).sum(axis=1)
        out = {"embedding": pair_sign, "accuracies": (2.0 * agree - 1.0).mean(axis=1), "per_coordinate": agree}
    else:
        signed = _signed_accuracies(e, pairs, np.ones(dim))  # +-1 coordinates have second moment 1
        mean_dist = ((1.0 - signed) / 2.0).sum(axis=1)
        out = {"embedding": pair_sign, "accuracies": signed.mean(axis=1), "per_coordinate": signed}
    return dict(out, thetas=_ranking_theta(mean_dist, data.rho), expected_distances=mean_dist,
                pairwise_moments=pairwise)


def _learn_reals(data, free, prior, path):
    """Real labels: identity coordinates, the error covariance, its inverse as the theta matrix."""
    # a labeler-major (m, n, d) view of coordinate-major storage, the layout of the pair-moment product
    values = np.ascontiguousarray(data.labels.transpose(2, 1, 0)).transpose(1, 2, 0)
    e, second_moments = _pair_moments(values, prior)
    pairwise = e.sum(axis=2)  # the model keeps the total over the real coordinates
    pairs = _moment_partners(e, free)
    out = {"embedding": {"kind": "identity", "dim": values.shape[2]}, "pairwise_moments": pairwise}
    if path == "isotropic":
        sq = np.diag(pairwise)
        pair_dist = sq[:, None] + sq[None, :] - 2.0 * pairwise
        mean_dist = _half_sums(pair_dist, pairs)
        err_cov = 0.5 * (mean_dist[:, None] + mean_dist[None, :] - pair_dist)
        np.fill_diagonal(err_cov, mean_dist)
        # polarization against the prior second moment recovers E[<lambda_a, y>]
        out["accuracies"] = (np.full(len(sq), np.nan) if second_moments is None
                             else 0.5 * (sq + second_moments.sum() - mean_dist))
    elif second_moments is None:
        raise ConfigurationError("continuous path on real labels needs a SecondMomentPrior")
    else:
        out["per_coordinate"], out["accuracies"], err_cov = _continuous_reals(e, pairwise, pairs, second_moments)
        mean_dist = np.diag(err_cov).copy()
    theta_matrix = gaussian_backward_map(err_cov)
    return dict(out, thetas=np.diag(theta_matrix).copy(), expected_distances=mean_dist, theta_matrix=theta_matrix)


def _learn_finite(data, free, prior, path):
    """Finite metric spaces: native distances or MDS coordinates, thetas the inverse clipped mean distances."""
    space, labels, m = data.space, data.labels, data.n_lfs
    if path == "isotropic":
        # one (n, m) gather per labeler keeps memory at O(n m)
        pairwise = np.stack([space.dist[labels[:, [a]], labels].mean(axis=0) for a in range(m)])
        np.fill_diagonal(pairwise, 0.0)
        # a partner's strength: its least summed distance to the others
        mean_dist = _half_sums(pairwise, _partner_pairs(-pairwise.sum(axis=1), free))
        out = {"embedding": {"kind": "native_distance", "n_points": space.size}, "accuracies": np.full(m, np.nan)}
        scale = space.dist.mean()
    else:
        report = classical_mds(space, dim=min(space.size - 1, 8))
        values = np.ascontiguousarray(report.coords[labels].transpose(2, 1, 0)).transpose(1, 2, 0)
        # without a prior, the uniform distribution over points fixes the truth's second moments
        e, second_moments = _pair_moments(values, prior, (report.coords**2).mean(axis=0))
        pairwise = e.sum(axis=2)
        out = {"embedding": {"kind": "mds", "dim": values.shape[2], "epsilon": report.epsilon,
                             "scale": report.scale, "exponent": report.exponent}}
        out["per_coordinate"], out["accuracies"], err_cov = _continuous_reals(
            e, pairwise, _moment_partners(e, free), second_moments)
        mean_dist = np.diag(err_cov).copy()
        scale = second_moments.sum()
    thetas = 1.0 / np.clip(mean_dist, 1e-9 * max(1.0, float(scale)), None)
    return dict(out, thetas=thetas, expected_distances=mean_dist, pairwise_moments=pairwise)


_LEARNERS = {RANKING: _learn_ranking, REAL_VECTOR: _learn_reals, FINITE_METRIC: _learn_finite}


def learn_label_model(data, corr=None, prior=None, path=None, triplet_policy=None):
    """Learn per-labeler canonical accuracies from outputs alone, on any space and route.

    Parameters
    ----------
    data : LabelingMatrix
    corr : CorrelationSet, optional
        Labeler pairs that may not appear together in a triplet.
    prior : TwoPointPrior or SecondMomentPrior, optional
        Only the hypercube route reads a TwoPointPrior. Rankings read no
        SecondMomentPrior: their +-1 coordinates have second moment 1 by
        construction. Nor does the isotropic route on finite metric spaces:
        it works on native distances, where the polarization identity that
        turns second moments into accuracies does not hold. A prior the
        route does not read is refused. The hypercube route defaults to
        p = 1/2, and the continuous route on real labels requires a
        SecondMomentPrior.
    path : {"continuous", "hypercube", "isotropic"}, optional
        Defaults per space: continuous for rankings and real labels,
        isotropic for finite metric spaces.
    triplet_policy : optional
        Deprecated and ignored, with a DeprecationWarning: every route has one
        triplet estimator (see the module docstring).

    Returns
    -------
    LabelModel
    """
    from . import __version__

    if triplet_policy is not None:
        warnings.warn("triplet_policy is deprecated and ignored: every route has one triplet estimator",
                      DeprecationWarning, stacklevel=2)
    free = _admissible(data.n_lfs, corr or CorrelationSet())
    kind = data.space_kind
    path = path or _PATHS[kind][0]
    if path not in _PATHS[kind]:
        raise ConfigurationError(f"path {path!r} not available for {kind!r} labels")
    if (isinstance(prior, SecondMomentPrior) and (kind, path) not in _SECOND_MOMENT_ROUTES
            or isinstance(prior, TwoPointPrior) and path != "hypercube"):
        raise ConfigurationError(f"{type(prior).__name__} is not read on the {path} route for {kind} labels")
    fields = _LEARNERS[kind](data, free, prior, path)
    return LabelModel(space_kind=kind, path=path, dims=data.dims, version=__version__, **fields)
