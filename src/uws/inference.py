"""Pseudolabel inference: distance-weighted aggregation of labeler outputs.

The aggregate label solves ``argmin_z sum_a w_a d(label_a, z)`` over the label
space; with uniform weights this is the generalized majority vote (the Kemeny
rule on rankings, the mean on the real line under squared distance), and with
learned accuracies it is the weighted maximum-likelihood rule.

Ties everywhere break toward the numerically smallest canonical form of the
label (elementwise order for permutation sequences, index order for points of
a finite space), so every aggregation is deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from ._covariance import repair_covariance
from .errors import (
    ConfigurationError,
    DegenerateWeightsError,
    InvalidArgumentError,
    UseHeuristicError,
)
from .metric_spaces import FiniteMetricSpace
from .permutations import all_permutations, check_permutation

__all__ = [
    "RankingSpace",
    "RealSpace",
    "AggregationProblem",
    "majority_vote",
    "weighted_aggregate",
    "kemeny_exact",
    "kemeny_local_search",
    "gaussian_conditional_mean",
    "aggregate_dataset",
]

EXHAUSTIVE_THRESHOLD = 8


@dataclass(frozen=True)
class RankingSpace:
    """Permutations of rho items under the Kendall tau distance."""

    rho: int
    exhaustive_threshold: int = EXHAUSTIVE_THRESHOLD


@dataclass(frozen=True)
class RealSpace:
    """The real line under squared Euclidean distance (aggregate: weighted mean)."""


@dataclass(frozen=True)
class AggregationProblem:
    """One task's labels, weights, and the space to aggregate over.

    candidate_policy: "enumerate_all" searches the full space (exact Kemeny on
    rankings, every point of a finite space; the closed-form optimum on the
    real line), "local_search" uses the insertion heuristic on rankings, and
    "observed_only" restricts candidates to the observed labels.
    negative_weights: "clamp" zeroes worse-than-random weights; "flip" negates
    the label instead (reversal on rankings, sign flip on reals) and uses the
    weight's magnitude.
    """

    labels: np.ndarray
    weights: np.ndarray
    space: object
    candidate_policy: str = "enumerate_all"
    negative_weights: str = "clamp"
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if len(weights) != len(self.labels):
            raise InvalidArgumentError(
                f"{len(weights)} weights for {len(self.labels)} labels"
            )
        if len(self.labels) == 0:
            raise InvalidArgumentError("no labels to aggregate")
        if self.candidate_policy not in ("enumerate_all", "local_search", "observed_only"):
            raise ConfigurationError(f"unknown candidate policy {self.candidate_policy!r}")
        if self.negative_weights not in ("clamp", "flip"):
            raise ConfigurationError(f"unknown negative-weight policy {self.negative_weights!r}")
        object.__setattr__(self, "weights", weights)


def majority_vote(problem):
    """Generalized majority vote: unweighted distance argmin over the space."""
    uniform = AggregationProblem(
        labels=problem.labels,
        weights=np.ones(len(problem.labels)),
        space=problem.space,
        candidate_policy=problem.candidate_policy,
        negative_weights=problem.negative_weights,
        seed=problem.seed,
        restarts=problem.restarts,
    )
    return weighted_aggregate(uniform)


def _apply_negative_policy(labels, weights, space, policy):
    weights = weights.copy()
    neg = weights < 0
    if not neg.any():
        return labels, weights
    if policy == "clamp":
        weights[neg] = 0.0
        return labels, weights
    labels = np.array(labels)
    if isinstance(space, RankingSpace):
        labels[neg] = labels[neg, ::-1]
    elif isinstance(space, RealSpace):
        labels[neg] = -labels[neg]
    else:
        raise ConfigurationError("sign-flip mode undefined for finite metric labels")
    return labels, np.abs(weights)


def weighted_aggregate(problem):
    """Accuracy-weighted maximum-likelihood label: argmin of the weighted distance sum.

    Uniform weights reduce to :func:`majority_vote`; rescaling all weights by
    a positive constant leaves the result unchanged.
    """
    labels, weights = _apply_negative_policy(
        np.asarray(problem.labels), problem.weights, problem.space, problem.negative_weights
    )
    if not (weights > 0).any():
        raise DegenerateWeightsError("all aggregation weights are zero")
    space = problem.space
    if isinstance(space, RankingSpace):
        return _aggregate_rankings(labels, weights, space, problem)
    if isinstance(space, RealSpace):
        return _aggregate_reals(labels, weights, problem)
    if isinstance(space, FiniteMetricSpace):
        return _aggregate_finite(labels, weights, space, problem)
    raise ConfigurationError(f"unknown label space {type(space).__name__}")


def _aggregate_rankings(labels, weights, space, problem):
    if problem.candidate_policy == "observed_only":
        pref = _preference_matrix(labels, weights, space.rho)
        cands = labels[np.lexsort(labels.T[::-1])]
        costs = [_kemeny_cost(pref, z) for z in cands]
        return cands[int(np.argmin(costs))].copy()
    if problem.candidate_policy == "local_search":
        return kemeny_local_search(
            labels, weights, space.rho, restarts=problem.restarts, seed=problem.seed
        )
    return kemeny_exact(labels, weights, space.rho, exhaustive_threshold=space.exhaustive_threshold)


def _aggregate_reals(labels, weights, problem):
    # one value per labeler: (m,) or the (m, 1) rows of a real LabelingMatrix
    labels = np.asarray(labels, dtype=np.float64).reshape(len(weights))
    if problem.candidate_policy == "observed_only":
        cands = np.unique(labels)
        costs = [(weights * (labels - z) ** 2).sum() for z in cands]
        return float(cands[int(np.argmin(costs))])
    # the squared-distance objective has the weighted mean as its exact argmin
    return float((weights * labels).sum() / weights.sum())


def _aggregate_finite(labels, weights, space, problem):
    if problem.candidate_policy == "observed_only":
        cands = np.unique(labels)
    else:
        cands = np.arange(space.size)
    costs = (weights[None, :] * space.dist[np.ix_(cands, labels)]).sum(axis=1)
    return int(cands[int(np.argmin(costs))])


def _preference_matrix(labels, weights, rho):
    """pref[i, j] = total weight of labelers placing item i before item j."""
    labels = np.asarray(labels, dtype=np.int64)
    pos = np.argsort(labels, axis=1)  # (m, rho) position of each item
    before = pos[:, :, None] < pos[:, None, :]  # (m, rho, rho)
    return np.einsum("a,aij->ij", np.asarray(weights, dtype=np.float64), before)


def _kemeny_cost(pref, z):
    pos = np.argsort(z)
    iu, ju = np.triu_indices(len(z), k=1)
    first = pos[iu] < pos[ju]
    return float(np.where(first, pref[ju, iu], pref[iu, ju]).sum())


def kemeny_exact(labels, weights, rho, exhaustive_threshold=EXHAUSTIVE_THRESHOLD):
    """Exact weighted Kemeny aggregate by full enumeration of S_rho.

    Ties break to the lexicographically smallest permutation sequence.

    Raises
    ------
    UseHeuristicError
        If rho exceeds ``exhaustive_threshold`` (rho! candidates): use
        :func:`kemeny_local_search`.
    """
    labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))
    if rho > exhaustive_threshold:
        raise UseHeuristicError(
            f"rho={rho} above the exhaustive threshold {exhaustive_threshold}"
        )
    if labels.shape[1] != rho:
        raise InvalidArgumentError(f"labels have length {labels.shape[1]}, expected {rho}")
    pref = _preference_matrix(labels, weights, rho)
    cands = all_permutations(rho)
    pos = np.argsort(cands, axis=1)
    iu, ju = np.triu_indices(rho, k=1)
    first = pos[:, iu] < pos[:, ju]
    costs = np.where(first, pref[ju, iu][None, :], pref[iu, ju][None, :]).sum(axis=1)
    best = int(np.argmin(costs))  # first occurrence: lexicographically smallest
    assert costs[best] <= costs.min() + 1e-12
    return cands[best].copy()


def _borda_start(labels, weights):
    mean_pos = np.einsum("a,ai->i", weights, np.argsort(labels, axis=1)) / max(weights.sum(), 1e-300)
    return np.argsort(mean_pos, kind="stable")


def _insertion_descent(order, pref):
    """Best-improvement single-item insertion moves until locally optimal."""
    order = order.copy()
    rho = len(order)
    while True:
        best_delta = -1e-12
        best_move = None
        for k in range(rho):
            x = order[k]
            others = np.delete(order, k)
            # gain[m]: cost change of placing x before others[m] instead of after
            gain = pref[others, x] - pref[x, others]
            d = np.zeros(rho)  # d[l]: delta of reinserting x before others[l]
            if k > 0:
                d[:k] = np.cumsum(gain[:k][::-1])[::-1]
            if k < rho - 1:
                d[k + 1 :] = np.cumsum(-gain[k:])
            l = int(np.argmin(d))
            if d[l] < best_delta:
                best_delta = d[l]
                best_move = (k, l)
        if best_move is None:
            return order
        k, l = best_move
        x = order[k]
        order = np.insert(np.delete(order, k), l, x)


def kemeny_local_search(labels, weights, rho, restarts=8, seed=0):
    """Weighted Kemeny aggregation by single-item-insertion local search.

    Deterministic given the seed. Starts from the best input label, a
    weighted mean-position order, and random restarts; the returned order is
    a local optimum whose objective never exceeds any input label's.
    """
    labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))
    if rho < 2:
        return check_permutation(labels[0])
    weights = np.asarray(weights, dtype=np.float64)
    pref = _preference_matrix(labels, weights, rho)
    input_costs = [_kemeny_cost(pref, z) for z in labels]
    starts = [labels[int(np.argmin(input_costs))], _borda_start(labels, weights)]
    rng = np.random.default_rng(seed)
    for _ in range(max(restarts - len(starts), 0)):
        starts.append(rng.permutation(rho))
    best = None
    best_cost = np.inf
    for start in starts[: max(restarts, 1)]:
        out = _insertion_descent(np.asarray(start, dtype=np.int64), pref)
        cost = _kemeny_cost(pref, out)
        if cost < best_cost - 1e-12 or (
            abs(cost - best_cost) <= 1e-12 and best is not None and tuple(out) < tuple(best)
        ):
            best, best_cost = out, cost
    return best


def gaussian_conditional_mean(lf_values, acc_vector, cov_matrix):
    """Conditional-mean label of a jointly Gaussian model.

    Computes ``acc^T cov^{-1} values``: the mean of the truth given the
    labeler outputs, with ``acc`` the truth-labeler covariance vector and
    ``cov`` the labeler covariance matrix (ridge-repaired once if not
    positive definite).
    """
    values = np.asarray(lf_values, dtype=np.float64)
    acc = np.asarray(acc_vector, dtype=np.float64)
    if values.shape[-1] != acc.shape[0]:
        raise InvalidArgumentError(
            f"{acc.shape[0]} accuracies for {values.shape[-1]} labeler values"
        )
    cov = repair_covariance(cov_matrix)
    coeffs = np.linalg.solve(cov, acc)
    return values @ coeffs


def aggregate_dataset(data, weights=None, rule="weighted", candidate_policy="auto",
                      negative_weights="clamp", seed=0, restarts=8, model=None, threads=1):
    """Aggregate every task of a LabelingMatrix into one pseudolabel.

    rule "mv" ignores weights; "weighted" requires either ``weights`` or a
    ``model`` (rankings and finite spaces use its thetas; real labels use the
    Gaussian conditional mean from its accuracies and pairwise moments, or,
    when the accuracies are unknown (NaN), the precision-weighted mean
    ``lambda . Theta 1 / 1' Theta 1`` from its theta matrix).
    candidate_policy "auto" resolves to exact enumeration when feasible and
    the insertion heuristic on long rankings.

    Returns a list of labels (permutation arrays, floats, or node ids).
    """
    from .label_model import FINITE_METRIC, RANKING, REAL_VECTOR

    if rule not in ("mv", "weighted"):
        raise ConfigurationError(f"unknown rule {rule!r}")
    if data.space_kind == RANKING:
        space = RankingSpace(data.rho)
    elif data.space_kind == REAL_VECTOR:
        space = RealSpace()
    else:
        space = data.space

    if rule == "weighted" and data.space_kind == REAL_VECTOR and weights is None:
        if model is None:
            raise ConfigurationError("weighted rule needs weights or a learned model")
        values = data.labels[:, :, 0]
        if not np.isnan(model.accuracies).any():
            # Gaussian conditional mean: exact weighted inference for real labels
            return [float(v) for v in gaussian_conditional_mean(
                values, model.accuracies, model.pairwise_moments
            )]
        if model.theta_matrix is None:
            raise ConfigurationError("model has neither accuracies nor a theta matrix for real labels")
        # without accuracies, the precision-weighted mean lambda . Theta 1 / 1' Theta 1
        precision = np.asarray(model.theta_matrix, dtype=np.float64).sum(axis=1)
        return [float(v) for v in values @ precision / precision.sum()]

    if rule == "mv":
        weights = np.ones(data.n_lfs)
    elif weights is None:
        if model is None:
            raise ConfigurationError("weighted rule needs weights or a learned model")
        weights = np.asarray(model.thetas, dtype=np.float64)

    if candidate_policy == "auto":
        if data.space_kind == RANKING and data.rho > EXHAUSTIVE_THRESHOLD:
            candidate_policy = "local_search"
        else:
            candidate_policy = "enumerate_all"

    def solve(i):
        problem = AggregationProblem(
            labels=data.labels[i],
            weights=weights,
            space=space,
            candidate_policy=candidate_policy,
            negative_weights=negative_weights,
            seed=(seed, i),
            restarts=restarts,
        )
        return weighted_aggregate(problem)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, range(data.n_tasks)))
    return [solve(i) for i in range(data.n_tasks)]
