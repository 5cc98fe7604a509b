"""Learning labeler accuracies without ground truth.

From the labelers' outputs alone, each labeler's mean parameter (its
expected agreement with the latent truth) is recovered from the pair moments
of triples of conditionally independent labelers, on one of three routes:
continuous (a closed-form square root, given the truth's second moments),
hypercube (the quadratic formula under a two-point prior, on labeler and
pair tables built once per truth value) or isotropic (half-sums of native
pair distances). :func:`learn_label_model` embeds the outputs, takes every
pair moment in one product, solves each labeler's admissible triplets as one
array call in contiguous passes (row takes from the tables, one sort per
median, one breadth-first search for every coordinate's signs) and maps
mean parameters to canonical accuracies. A triplet the route cannot solve
(a moment at the floor, a negative discriminant) is skipped, so learning
fails only for a labeler with no solvable triplet, and the error names it;
the public scalar solvers wrap the same cores and raise instead.
"""

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
from .permutations import pair_indices

__all__ = [
    "EPS_FLOOR",
    "LabelingMatrix",
    "CorrelationSet",
    "TwoPointPrior",
    "SecondMomentPrior",
    "AccuracyEstimates",
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

# partner pairs per array call under the "first" policy
_FIRST_BLOCK = 64

RANKING = "ranking"
REAL_VECTOR = "real_vector"
FINITE_METRIC = "finite_metric"

# the routes available on each space; the first is its default
_PATHS = {
    RANKING: ("continuous", "hypercube", "isotropic"),
    REAL_VECTOR: ("continuous", "isotropic"),
    FINITE_METRIC: ("isotropic", "continuous"),
}


@dataclass(frozen=True)
class LabelingMatrix:
    """Outputs of m labelers over n tasks in one label space.

    labels layout by space kind:
      ranking       (n, m, rho) int permutations
      real_vector   (n, m, 1) floats: one scalar per labeler, also given as (n, m)
      finite_metric (n, m) int point indices, with ``space`` attached
    """

    space_kind: str
    labels: np.ndarray
    space: FiniteMetricSpace = None

    def __post_init__(self):
        if self.space_kind not in _PATHS:
            raise InvalidArgumentError(f"unknown space kind {self.space_kind!r}")
        labels = np.asarray(self.labels)
        if self.space_kind == RANKING:
            labels = labels.astype(np.int64)
            if labels.ndim != 3:
                raise InvalidArgumentError(f"ranking labels must be (n, m, rho), got {labels.shape}")
            rho = labels.shape[2]
            if not (np.sort(labels, axis=2) == np.arange(rho)).all():
                raise InvalidArgumentError("every ranking entry must be a permutation of 0..rho-1")
        elif self.space_kind == REAL_VECTOR:
            labels = labels.astype(np.float64)
            if labels.ndim == 2:
                labels = labels[:, :, None]
            if labels.ndim != 3 or labels.shape[2] != 1:
                raise InvalidArgumentError(f"real labels must be (n, m) or (n, m, 1), got {labels.shape}")
            if not np.isfinite(labels).all():
                raise InvalidArgumentError("real labels must be finite")
        else:
            labels = labels.astype(np.int64)
            if labels.ndim != 2:
                raise InvalidArgumentError(f"node labels must be (n, m), got {labels.shape}")
            if self.space is None:
                raise InvalidArgumentError("finite_metric labels need an attached space")
            if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.space.size:
                raise InvalidArgumentError("node labels outside the space")
        if labels.shape[0] < 1 or labels.shape[1] < 1:
            raise InvalidArgumentError(f"need n >= 1 and m >= 1, got shape {labels.shape}")
        object.__setattr__(self, "labels", labels)

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
class AccuracyEstimates:
    """Raw per-coordinate accuracy estimates, before any inference-time clamping.

    kind is "signed_moment" (E[g(lambda)_i g(y)_i], continuous route) or
    "conditional_probability" (P(g(lambda)_i = 1 | y), hypercube route).
    """

    kind: str
    per_coordinate: np.ndarray
    expected_distance: np.ndarray


@dataclass(frozen=True)
class LabelModel:
    """Learned per-labeler canonical accuracies plus the moments behind them.

    ``expected_distances`` holds the raw (unclamped) mean-parameter estimates;
    clamping happens only where a consumer requires it. ``theta_matrix`` is
    the full inverse covariance on the Gaussian-style routes, whose diagonal
    supplies ``thetas``.
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
    estimates: AccuracyEstimates = field(default=None, repr=False, compare=False)

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


def _pair_signs(rankings):
    """Labeler-major (m, n, P) int8 view of the +-1 pair-sign coordinates of (n, m, rho) rankings.

    Entries equal :func:`~uws.permutations.pair_sign_embed_many`; the storage
    is coordinate-major (P, m, n), the layout :func:`empirical_pair_moments`
    multiplies in, so its float64 product operand is one contiguous cast.
    """
    rho = rankings.shape[2]
    # (rho, m, n) item positions, in the smallest integer type that holds them
    pos = np.argsort(rankings, axis=-1).astype(np.min_scalar_type(rho))
    pos = np.ascontiguousarray(pos.transpose(2, 1, 0))
    iu, ju = pair_indices(rho)
    s = (pos[iu] < pos[ju]).view(np.int8)  # 2 b - 1 on the comparison's bytes
    s = s + s
    s -= 1
    return s.transpose(1, 2, 0)


def _continuous_core(e_ab, e_ac, e_bc, second_moment):
    """Elementwise ``|a_a|`` of :func:`continuous_triplets`, and where it is defined.

    ``ok`` is False wherever one of the three ``|e|`` is at or below
    ``EPS_FLOOR``; the magnitude there is meaningless. Swapping the arguments
    gives the other two labelers' magnitudes.
    """
    e_ab, e_ac, e_bc = (np.abs(np.asarray(x, dtype=np.float64)) for x in (e_ab, e_ac, e_bc))
    ok = ~((e_ab <= EPS_FLOOR) | (e_ac <= EPS_FLOOR) | (e_bc <= EPS_FLOOR))
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
    DegenerateMomentError
        If any ``|e|`` is at or below ``EPS_FLOOR``: that labeler pair is
        indistinguishable from independence at this sample size.
    """
    sm = np.asarray(second_moment, dtype=np.float64)
    if (sm <= 0).any():
        raise DomainError("second moment must be positive")
    mag_a, ok = _continuous_core(e_ab, e_ac, e_bc, sm)
    if not ok.all():
        raise DegenerateMomentError(f"pairwise moment at or below the floor {EPS_FLOOR}")
    mag_b, _ = _continuous_core(e_ab, e_bc, e_ac, sm)
    mag_c, _ = _continuous_core(e_ac, e_bc, e_ab, sm)
    return mag_a, mag_b, mag_c


@dataclass(frozen=True)
class _QuadraticTables:
    """Every factor of the hypercube quadratic that involves at most two labelers.

    Built once per truth value by :func:`_quadratic_tables`; labeler tables
    are (m, ...) and pair tables (m, m, ...). Each is a left prefix of a
    product or sum in the quadratic as :func:`_quadratic_pivot` evaluates it,
    so a triplet gathered from the tables rounds exactly as one computed
    from its six moments.
    """

    r: float
    t: float
    r2: float
    l: np.ndarray  # marginals P(g = 1)
    q: np.ndarray  # l / (1 - p)
    q2: np.ndarray  # q**2
    lin: np.ndarray  # -2 q r / t, the linear coefficient per unit lead
    op: np.ndarray  # o / (1 - p)
    qq: np.ndarray  # q_x q_y
    k: np.ndarray  # op - qq
    tk: np.ndarray  # t k
    qqr2: np.ndarray  # qq r**2
    lead: np.ndarray  # t (qq r - op t), the quadratic coefficient
    lead4: np.ndarray  # 4 lead
    degenerate: np.ndarray  # lead vanishes against its scale: the outer pair factorizes
    width: np.ndarray  # 2 |lead|, 1 where degenerate


def _quadratic_tables(o, l, p):
    """Labeler and pair tables of the quadratic route for one truth value.

    ``o`` is the (m, m, ...) table of joint +1 frequencies (its diagonal is
    never read) and ``l`` the (m, ...) marginals, already checked to be
    probabilities, and ``p`` the prior weight of the truth value coded +1.
    """
    r = p / (1.0 - p)
    t = p / (1.0 - p) ** 2
    r2 = r**2
    q = l / (1.0 - p)
    op = o / (1.0 - p)
    qq = q[:, None] * q[None, :]
    k = op - qq
    lead = t * (qq * r - op * t)
    degenerate = np.abs(lead) <= 1e-12 * (t**2 * (qq + op) + 1e-30)
    return _QuadraticTables(
        r=r, t=t, r2=r2, l=l, q=q, q2=q**2, lin=-2.0 * q * r / t, op=op, qq=qq, k=k, tk=t * k,
        qqr2=qq * r2, lead=lead, lead4=4.0 * lead, degenerate=degenerate,
        width=2.0 * np.abs(np.where(degenerate, 1.0, lead)),
    )


def _take(rows, index, *factors):
    """``rows.take(index, axis=0)`` multiplied by each factor in turn, in place on the fresh gather."""
    out = rows.take(index, axis=0)
    for factor in factors:
        out *= factor
    return out


def _pairs(table):
    """An (m, m, ...) table as (m * m, ...) rows: row ``i * m + j`` holds entry (i, j)."""
    return table.reshape(-1, *table.shape[2:])


def _triplet_gather(table, a, b, c):
    """``table[a, b], table[a, c], table[b, c]`` of an (m, m, ...) table for index arrays b, c."""
    return _take(table[a], b), _take(table[a], c), _take(_pairs(table), b * len(table) + c)


def _quadratic_pivot(tab, x, b, z):
    """Pivot root ``beta`` of :func:`quadratic_triplets`, and where it is defined.

    Labeler b is the pivot between the outer labelers x and z, which may be
    index arrays. The pair tables are symmetric (exact integer +-1 sums), so
    each gather is one row take: from b's rows, or the outer pair's flat
    row. ``ok`` is False wherever the discriminant shows that no real
    solution exists; the root there comes from the discriminant clamped to 0.
    """
    xz = x * len(tab.l) + z
    k_xb, k_bz, q2_b = _take(tab.k[b], x), _take(tab.k[b], z), tab.q2[b]
    # quadratic A beta^2 + B beta + C = 0 in the pivot; B = -(2 q_b r / t) A holds
    # identically, so the roots are l_b +- sqrt(disc) / (2|A|); terms form in
    # place, in the scalar solver's order
    const = _take(tab.tk[b], x, k_bz)
    const += _take(_pairs(tab.qq), xz, q2_b, tab.r2)
    const += _take(tab.qqr2[b], x, k_bz)
    const += _take(tab.qqr2[b], z, k_xb)
    const -= _take(_pairs(tab.op), xz, q2_b, tab.r2)
    lin2 = _take(_pairs(tab.lead), xz, tab.lin[b])
    lin2 *= lin2
    lead_const = _take(_pairs(tab.lead4), xz, const)
    disc = lin2 - lead_const
    # near the double root a sampled discriminant is legitimately negative at
    # the scale of its own components; only a violation of at least half the
    # total component magnitude, -(0.5 (lin2 + |lead_const|) + 1e-9), is
    # evidence of jointly impossible moments
    slack = np.abs(lead_const, out=lead_const)
    slack += lin2
    slack *= -0.5
    slack -= 1e-9
    ok = ~(disc < slack)
    # a vanishing lead means the outer pair's joint factorizes: the linear
    # coefficient vanishes with it (lin = -2 l_b lead identically), the pivot
    # is underdetermined, and its marginal is the only neutral answer
    l_b = tab.l[b]
    beta = np.sqrt(np.clip(disc, 0.0, None, out=disc), out=disc)
    beta /= _take(_pairs(tab.width), xz)
    beta += l_b
    np.copyto(beta, l_b, where=_take(_pairs(tab.degenerate), xz))
    return beta, ok


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
    InconsistentMomentsError
        Discriminant below the relative tolerance: no real solution exists.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"need 0 < p < 1, got {p}")
    arrays = [np.asarray(x, dtype=np.float64) for x in (o_ab, o_ac, o_bc, l_a, l_b, l_c)]
    for x in arrays:
        if ((x < -1e-12) | (x > 1 + 1e-12)).any():
            raise InvalidArgumentError("probabilities must lie in [0, 1]")
    shape = np.broadcast_shapes(*(x.shape for x in arrays))
    # scalars take the array path too: numpy squares a float64 scalar through
    # pow, which can round differently from an array's product
    o_ab, o_ac, o_bc, l_a, l_b, l_c = np.broadcast_arrays(*(np.atleast_1d(x) for x in arrays))
    tab = _quadratic_tables(np.array([[l_a, o_ab, o_ac], [o_ab, l_b, o_bc], [o_ac, o_bc, l_c]]),
                            np.array([l_a, l_b, l_c]), p)
    beta, ok = _quadratic_pivot(tab, 0, 1, 2)
    if not ok.all():
        raise InconsistentMomentsError("moments admit no real solution (negative discriminant)")
    # a and c follow linearly from the pivot
    denom = tab.t * beta - tab.q[1] * tab.r
    flat = np.abs(denom) <= 1e-30
    safe_denom = np.where(flat, 1.0, denom)
    alpha = np.where(flat, l_a, (tab.op[0, 1] + tab.q[0] * tab.r * beta - tab.qq[0, 1]) / safe_denom)
    gamma = np.where(flat, l_c, (tab.op[1, 2] + tab.q[2] * tab.r * beta - tab.qq[1, 2]) / safe_denom)
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


def _triplet_partners(m, corr):
    """Each labeler's admissible partner pairs as (b, c) index arrays, lexicographic.

    A triplet (a, b, c), b < c, is admissible when its labelers are distinct
    and no pair among them is declared correlated.
    """
    if m < 3:
        raise ConfigurationError(f"triplet unavailable: need at least 3 labelers, got {m}")
    free = ~np.eye(m, dtype=bool)
    for a, b in sorted(corr.edges):
        if a < 0 or b >= m:
            raise InvalidArgumentError(f"correlation edge ({a}, {b}) names a labeler outside 0..{m - 1}")
        free[a, b] = free[b, a] = False
    b, c = np.triu_indices(m, k=1)
    pair_free = free[b, c]
    partners = []
    for a in range(m):
        keep = pair_free & free[a, b] & free[a, c]
        if not keep.any():
            raise ConfigurationError(f"triplet unavailable for labeler {a} under the correlation set")
        partners.append((b[keep], c[keep]))
    return partners


def _triplet_estimates(partners, policy, solve, exc_type, reason):
    """One estimate per labeler, from its triplets in as few array calls as the policy allows.

    ``solve(a, b, c)`` evaluates labeler a against partner pairs
    ``(b[k], c[k])`` and returns ``(rows, ok)``; row k is usable when all of
    ``ok[k]`` holds. Policy "first" takes the first usable row, evaluating
    the pairs in lexicographic blocks of ``_FIRST_BLOCK`` and stopping at the
    first block that holds one; "median" takes the median of all usable rows
    from one call. A labeler with no usable row raises ``exc_type`` naming
    the labeler and the ``reason``.
    """
    out = []
    for a, (b, c) in enumerate(partners):
        step = _FIRST_BLOCK if policy == "first" else len(b)
        for lo in range(0, len(b), step):
            rows, ok = solve(a, b[lo:lo + step], c[lo:lo + step])
            rows = rows[ok.reshape(len(ok), -1).all(axis=1)]
            if len(rows):
                break
        if not len(rows):
            raise exc_type(f"labeler {a}: {reason}")
        out.append(rows[0] if policy == "first" or len(rows) == 1 else _median_rows(rows))
    return np.array(out)


def _median_rows(rows):
    """``np.median(rows, axis=0)`` bit for bit, from one sort of the contiguous transpose.

    The middle ranks hold the values np.median's partition puts there, and
    their mean is its mean, a sum from +0.0, so a tie of 0.0 and -0.0 in
    the middle cannot show. NaN sorts last and gives NaN, as in np.median.
    """
    k, h = len(rows), len(rows) // 2
    part = np.sort(np.ascontiguousarray(rows.reshape(k, -1).T), axis=1)
    last = part[:, -1]
    return np.where(np.isnan(last), last, part[:, h - 1 + k % 2:h + 1].mean(axis=1)).reshape(rows.shape[1:])


def _signed_accuracies(e, partners, second_moments, policy):
    """Continuous route: per-coordinate signed accuracies, one row per labeler."""
    mags = _triplet_estimates(
        partners,
        policy,
        lambda a, b, c: _continuous_core(*_triplet_gather(e, a, b, c), second_moments),
        DegenerateMomentError,
        f"every triplet has a pairwise moment at or below the floor {EPS_FLOOR}",
    )
    return resolve_signs(mags, e)


def _agreement_probabilities(values, e, partners, p, policy):
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
        tab = _quadratic_tables(o, l, weight)
        # labeler a is the pivot between each partner pair (b[k], c[k])
        cond = _triplet_estimates(partners, policy, lambda a, b, c: _quadratic_pivot(tab, b, a, c),
                                  InconsistentMomentsError, "no triplet's moments admit a real solution")
        agreements += weight * cond
    return agreements


def _ranking_theta(mean_distance, rho):
    """Mallows canonical accuracy with the boundary clamping policy.

    Raw means at or below 0 clamp to the top of the bisection bracket
    (a labeler indistinguishable from perfect); means at or beyond the
    uniform value clamp to 0 (no better than random).
    """
    if mean_distance >= mallows.uniform_mean_distance(rho):
        return 0.0
    if mean_distance <= 0.0:
        return mallows.BACKWARD_BRACKET[1]
    return mallows.backward_map(mean_distance, rho)


def learn_label_model(data, corr=None, prior=None, path=None, triplet_policy="first"):
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
    triplet_policy : {"first", "median"}
        "first" uses the lexicographically smallest admissible (b, c) per
        labeler whose moments the route can solve, falling back past
        degenerate ones; "median" takes the median estimate over all
        solvable admissible pairs. Either raises, naming the labeler, only
        when none of its triplets is solvable.

    Returns
    -------
    LabelModel
    """
    from . import __version__

    partners = _triplet_partners(data.n_lfs, corr or CorrelationSet())
    kind = data.space_kind
    path = path or _PATHS[kind][0]
    if path not in _PATHS[kind]:
        raise ConfigurationError(f"path {path!r} not available for {kind!r} labels")
    if triplet_policy not in ("first", "median"):
        raise ConfigurationError(f"unknown triplet policy {triplet_policy!r}")
    if (isinstance(prior, SecondMomentPrior) and (kind == RANKING or kind == FINITE_METRIC and path == "isotropic")
            or isinstance(prior, TwoPointPrior) and path != "hypercube"):
        raise ConfigurationError(f"{type(prior).__name__} is not read on the {path} route for {kind} labels")
    m = data.n_lfs

    # embed: labeler-major (m, n, d) views of coordinate-major storage, the
    # layout of the pair-moment product; finite isotropic stays native
    values = None
    second_moments = prior.second_moments if isinstance(prior, SecondMomentPrior) else None
    if kind == RANKING:
        values = _pair_signs(data.labels)
        dims = {"rho": data.rho}
        embedding = {"kind": "pair_sign", "dim": values.shape[2], "pair_order": "lexicographic"}
        if path == "isotropic":
            embedding = {"kind": "native_kendall", "rho": data.rho}
        second_moments = np.ones(values.shape[2])
    elif kind == REAL_VECTOR:
        values = np.ascontiguousarray(data.labels.transpose(2, 1, 0)).transpose(1, 2, 0)
        dims = {"d": values.shape[2]}
        embedding = {"kind": "identity", "dim": values.shape[2]}
    else:
        space = data.space
        dims = {"n_points": space.size}
        embedding = {"kind": "native_distance", "n_points": space.size}
        if path == "continuous":
            dim = min(space.size - 1, 8)
            report = classical_mds(space, dim=dim)
            values = np.ascontiguousarray(report.coords[data.labels].transpose(2, 1, 0)).transpose(1, 2, 0)
            if second_moments is None:
                # uniform prior over points fixes the truth's per-coordinate second moments
                second_moments = (report.coords**2).mean(axis=0)
            embedding = {"kind": "mds", "dim": dim, "epsilon": report.epsilon, "scale": report.scale,
                         "exponent": report.exponent}

    # pair moments; the model keeps their mean over +-1 pair coordinates and
    # their total over real ones
    if values is not None:
        e = empirical_pair_moments(values)
        pairwise = e.mean(axis=2) if kind == RANKING else e.sum(axis=2)
        if second_moments is not None:
            if second_moments.shape not in ((1,), values.shape[2:]):
                raise InvalidArgumentError(
                    f"SecondMomentPrior has {second_moments.size} second moments for {values.shape[2]} "
                    f"embedded coordinates; give one, or one per coordinate"
                )
            second_moments = np.broadcast_to(second_moments, values.shape[2:]).astype(np.float64)

    # route: triplet solves give each labeler's mean parameter
    per_coord = None
    accuracies = np.full(m, np.nan)
    if path == "isotropic":
        if kind == RANKING:
            # native Kendall distances through the embedding identity
            pair_dist = values.shape[2] * (1.0 - pairwise) / 2.0
        elif kind == REAL_VECTOR:
            sq = np.diag(pairwise)
            pair_dist = sq[:, None] + sq[None, :] - 2.0 * pairwise
        else:
            # one (n, m) gather per labeler keeps memory at O(n m)
            labels = data.labels
            pairwise = np.stack([space.dist[labels[:, [a]], labels].mean(axis=0) for a in range(m)])
            pair_dist = pairwise
        np.fill_diagonal(pair_dist, 0.0)
        mean_dist = _triplet_estimates(
            partners,
            triplet_policy,
            lambda a, b, c: _half_sum_core(*_triplet_gather(pair_dist, a, b, c)),
            InvalidArgumentError,
            "every triplet misses a pairwise distance",
        )
        if kind == RANKING:
            accuracies = 1.0 - 2.0 * mean_dist / values.shape[2]
        elif second_moments is not None:
            # real labels: polarization against the prior second moment recovers E[<lambda_a, y>]
            accuracies = 0.5 * (np.diag(pairwise) + second_moments.sum() - mean_dist)
    elif path == "hypercube":
        p = prior.p if isinstance(prior, TwoPointPrior) else 0.5
        per_coord = _agreement_probabilities(values, e, partners, p, triplet_policy)
        mean_dist = (1.0 - per_coord).sum(axis=1)
        accuracies = (2.0 * per_coord - 1.0).mean(axis=1)
    else:
        if second_moments is None:
            raise ConfigurationError("continuous path on real labels needs a SecondMomentPrior")
        per_coord = _signed_accuracies(e, partners, second_moments, triplet_policy)
        if kind == RANKING:
            mean_dist = ((1.0 - per_coord) / 2.0).sum(axis=1)
            accuracies = per_coord.mean(axis=1)
        else:
            accuracies = per_coord.sum(axis=1)  # E[<lambda_a, y>]
            # error covariance from raw moments and accuracies
            err_cov = pairwise - accuracies[:, None] - accuracies[None, :] + second_moments.sum()
            mean_dist = np.diag(err_cov).copy()

    # backward map: mean parameters to canonical accuracies
    theta_matrix = None
    if kind == RANKING:
        thetas = np.array([_ranking_theta(v, data.rho) for v in mean_dist])
    elif kind == REAL_VECTOR:
        if path == "isotropic":
            err_cov = 0.5 * (mean_dist[:, None] + mean_dist[None, :] - pair_dist)
            np.fill_diagonal(err_cov, mean_dist)
        theta_matrix = gaussian_backward_map(err_cov)
        thetas = np.diag(theta_matrix).copy()
    else:
        scale = space.dist.mean() if path == "isotropic" else second_moments.sum()
        thetas = 1.0 / np.clip(mean_dist, 1e-9 * max(1.0, float(scale)), None)

    return LabelModel(
        space_kind=kind,
        path=path,
        dims=dims,
        thetas=thetas,
        expected_distances=mean_dist,
        accuracies=accuracies,
        pairwise_moments=pairwise,
        embedding=embedding,
        version=__version__,
        theta_matrix=theta_matrix,
        estimates=AccuracyEstimates(
            "conditional_probability" if path == "hypercube" else "signed_moment", per_coord, mean_dist
        ),
    )
