"""Pseudolabel inference: distance-weighted aggregation of labeler outputs.

The aggregate label solves ``argmin_z sum_a w_a d(label_a, z)`` over the label
space; with uniform weights this is the generalized majority vote (the Kemeny
rule on rankings, the mean on the real line under squared distance), and with
learned accuracies it is the weighted maximum-likelihood rule.

:func:`aggregate_dataset` is the one entry point: one batched engine solves
every task of a dataset at once, dispatching on the dataset's space kind. On
rankings it builds one ``(n, rho, rho)`` preference tensor. Exact Kemeny is a
dynamic program over the 2^rho subsets of items, run on chunks of tasks as
array operations; it costs O(2^rho * rho) per task and refuses rho > 16.
``auto`` uses it up to rho = ``EXACT_MAX_RHO`` and local search above, where
filling the subset table takes longer than eight restarts of local search.
Local search runs the best-improvement insertion descent on an
``(n * restarts, rho)`` array of orders; rows drop out as they reach a local
optimum. Finite spaces gather the distance columns of every task's labels and
take the argmin over the points. Chunks of tasks bound the working arrays to
about 1 MiB (``_CHUNK_BYTES``).

Ties break lexicographically as the program's float sums compare them: among
labels whose objectives are equal as summed in float64, the smallest canonical
form wins (elementwise order for permutation sequences, index order for points
of a finite space), so every aggregation is deterministic. Objectives that tie
in exact arithmetic but whose float sums differ in the last bit are no tie:
the smaller float sum wins. Local search keeps, over its restarts in order, a
result whose objective is lower by more than 1e-12 times the weight total, or
within that and lexicographically smaller, so rescaling the weights by a power
of two leaves it unchanged. Its random restarts for task ``i`` of a dataset
come from ``default_rng((seed, i))``.
"""

import numpy as np

from ._covariance import repair_covariance
from .errors import (
    ConfigurationError,
    DegenerateWeightsError,
    InvalidArgumentError,
    UseHeuristicError,
)
from .label_model import FINITE_METRIC, RANKING, REAL_VECTOR

__all__ = [
    "kemeny_exact",
    "kemeny_local_search",
    "gaussian_conditional_mean",
    "aggregate_dataset",
]

EXACT_MAX_RHO = 10
_DP_MAX_RHO = 16  # 2^16 subsets x 17 float64 columns: 8.9 MB per task
_TIE_TOL = 1e-12
_CHUNK_BYTES = 1 << 20


def _finite_weights(weights):
    """The weights as a float64 array; a NaN or infinite weight has no argmin to give."""
    weights = np.asarray(weights, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise InvalidArgumentError(f"aggregation weights must be finite; weight {bad[0]} is {weights[bad[0]]}")
    return weights


def _apply_negative_policy(labels, weights, space_kind, policy):
    """Labels (n, m, ...) and weights with the negative weights clamped or flipped."""
    neg = weights < 0
    if not neg.any():
        return labels, weights
    if policy == "clamp":
        return labels, np.where(neg, 0.0, weights)
    labels = np.array(labels)
    if space_kind == RANKING:
        labels[:, neg] = labels[:, neg, ::-1]
    elif space_kind == REAL_VECTOR:
        labels[:, neg] = -labels[:, neg]
    else:
        raise ConfigurationError("sign-flip mode undefined for finite metric labels")
    return labels, np.abs(weights)


def _row_sums(terms):
    """Sums over the last axis, each row summed as one contiguous run.

    numpy sums a contiguous run pairwise but a strided axis term by term, and
    float ties between candidates resolve by the last bit, so every batched
    cost is summed exactly as the same cost of a lone task would be.
    """
    return np.ascontiguousarray(terms).sum(axis=-1)


def _chunks(n, bytes_per_task):
    """Slices of range(n) whose working arrays stay near ``_CHUNK_BYTES``."""
    step = max(1, _CHUNK_BYTES // max(int(bytes_per_task), 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _aggregate_reals(labels, weights, candidate_policy):
    values = labels[:, :, 0]  # one value per labeler: the (n, m, 1) rows of a real LabelingMatrix
    if candidate_policy == "observed_only":
        return _best_observed(values, weights, lambda z, v: (v - z) ** 2)
    # the squared-distance objective has the weighted mean as its exact argmin
    return _row_sums(weights * values) / weights.sum()


def _aggregate_finite(labels, weights, space, candidate_policy):
    if candidate_policy == "observed_only":
        return _best_observed(labels, weights, lambda z, v: space.dist[z, v])
    n, m = labels.shape
    out = np.empty(n, dtype=np.int64)
    for s in _chunks(n, 16 * m * space.size):
        # costs[t, c] = sum_a w_a dist[c, label_ta], every point c a candidate
        out[s] = _row_sums((weights * space.dist[:, labels[s]]).transpose(1, 0, 2)).argmin(axis=1)
    return out


def _best_observed(labels, weights, distance):
    """Each task's observed label of least weighted distance sum, the smallest on ties.

    ``distance(z, v)`` broadcasts candidate labels z against labeler outputs v.
    """
    n, m = labels.shape
    cands = np.sort(labels, axis=1)
    out = np.empty(n, dtype=cands.dtype)
    for s in _chunks(n, 8 * m * m):
        costs = _row_sums(weights * distance(cands[s, :, None], labels[s, None, :]))
        out[s] = cands[s][np.arange(len(costs)), costs.argmin(axis=1)]
    return out


def _preference_tensor(labels, weights):
    """pref[t, i, j] = total weight of task t's labelers placing item i before item j."""
    n, m, rho = labels.shape
    pref = np.empty((n, rho, rho))
    for s in _chunks(n, m * rho * rho):
        pos = np.argsort(labels[s], axis=-1)  # position of each item
        pref[s] = np.einsum("a,taij->tij", weights, pos[..., :, None] < pos[..., None, :])
    return pref


def _first_flags(orders):
    """flags[..., p]: the order puts item iu[p] before item ju[p] (pairs of triu_indices)."""
    pos = np.argsort(orders, axis=-1)
    iu, ju = np.triu_indices(orders.shape[-1], k=1)
    return pos[..., iu] < pos[..., ju]


def _candidate_costs(pref, cands):
    """Kemeny objectives (n, c) of each task's own candidate orders (n, c, rho)."""
    n, c, rho = cands.shape
    iu, ju = np.triu_indices(rho, k=1)
    costs = np.empty((n, c))
    for s in _chunks(n, 9 * c * len(iu)):
        costs[s] = _row_sums(np.where(_first_flags(cands[s]), pref[s, None, ju, iu], pref[s, None, iu, ju]))
    return costs


def _select(cands, costs, tol):
    """Each task's pick among its (n, c, rho) candidate orders with (n, c) costs.

    Scans the candidates in order and takes one whose cost is lower by more
    than ``tol``, or within ``tol`` and lexicographically smaller.
    """
    rows = np.arange(len(cands))
    best, best_cost = cands[:, 0].copy(), costs[:, 0].copy()
    for r in range(1, cands.shape[1]):
        cand, cost = cands[:, r], costs[:, r]
        differ = cand != best
        at = differ.argmax(axis=1)
        lex_less = differ.any(axis=1) & (cand[rows, at] < best[rows, at])
        better = (cost < best_cost - tol) | ((np.abs(cost - best_cost) <= tol) & lex_less)
        best[better] = cand[better]
        best_cost[better] = cost[better]
    return best


def _kemeny_observed(labels, weights):
    """Each task's best observed label, ties to the lexicographically smallest."""
    return _select(labels, _candidate_costs(_preference_tensor(labels, weights), labels), 0.0)


def _as_batch(labels):
    """(n, m, rho) int64 labels and whether they came as one task's (m, rho) or (rho,)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim == 3:
        return labels, False
    return np.atleast_2d(labels)[None], True


def kemeny_exact(labels, weights, rho):
    """Exact weighted Kemeny aggregate by dynamic programming over subsets of items.

    ``labels`` is one task's (m, rho) array, or (n, m, rho) for n tasks
    sharing the (m,) weights (the result is then (n, rho)). With
    ``pref[i, j]`` the weight of labelers placing item i before item j, an
    order of an item set S that puts j first pays ``c[S, j]``, the sum of
    ``pref[i, j]`` over i in S, so the optimum of S is
    ``g[S] = min over j in S of c[S, j] + g[S - j]``. Filling ``g`` costs
    O(2^rho * rho) time and ``8 (rho + 1) 2^rho`` bytes per task. The order is
    rebuilt from the full set, taking at each position the smallest item
    whose ``c[S, j] + g[S - j]`` equals ``g[S]``: ties break to the
    lexicographically smallest optimal sequence, as the program's float sums
    round.

    Raises
    ------
    UseHeuristicError
        If rho exceeds 16, where the subset table would need over 8.9 MB
        per task: use :func:`kemeny_local_search`.
    InvalidArgumentError
        If a weight is NaN or infinite.
    """
    labels, single = _as_batch(labels)
    if rho > _DP_MAX_RHO:
        raise UseHeuristicError(f"rho={rho} above {_DP_MAX_RHO}, the largest the exact solver's "
                                f"2^rho subset table is built for")
    if labels.shape[2] != rho:
        raise InvalidArgumentError(f"labels have length {labels.shape[2]}, expected {rho}")
    pref = _preference_tensor(labels, _finite_weights(weights))
    layers = _subset_layers(rho)
    out = np.empty((len(pref), rho), dtype=np.int64)
    for s in _chunks(len(pref), 8 * (rho + 1) << rho):
        out[s] = _subset_dp(pref[s], layers)
    return out[0] if single else out


def _subset_layers(rho):
    """For each subset size k = 1..rho: the (L,) subsets S of that size, as bit
    masks, and for the (L, k) members j of each, the flat index ``S * rho + j``
    of ``c[S, j]`` and the mask of ``S - j``."""
    masks = np.arange(1 << rho)
    member = ((masks[:, None] >> np.arange(rho)) & 1).astype(bool)
    size = member.sum(axis=1)
    layers = []
    for k in range(1, rho + 1):
        sets = masks[size == k]
        j = np.nonzero(member[sets])[1].reshape(len(sets), k)
        layers.append((sets, sets[:, None] * rho + j, sets[:, None] ^ (1 << j)))
    return layers


def _subset_dp(pref, layers):
    """Each task's lexicographically smallest Kemeny optimum from its (t, rho, rho) pref."""
    t, rho, _ = pref.shape
    # tasks on the last axis: every gather below moves rows of t contiguous floats
    c = np.zeros((1 << rho, rho, t))
    for b, row in enumerate(pref.transpose(1, 2, 0)):
        c[1 << b : 2 << b] = c[: 1 << b] + row
    flat = c.reshape(-1, t)
    g = np.zeros((1 << rho, t))
    for sets, cj, rest in layers:
        g[sets] = (flat[cj] + g[rest]).min(axis=1)
    bits = 1 << np.arange(rho)
    tasks = np.arange(t)
    out = np.empty((t, rho), dtype=np.int64)
    sets = np.full(t, (1 << rho) - 1)
    for p in range(rho):
        # the very sums the minimum was taken over, so float == finds the optima
        cost = c[sets, :, tasks] + g[sets[:, None] ^ bits, tasks[:, None]]
        hit = ((sets[:, None] & bits) != 0) & (cost == g[sets, tasks][:, None])
        out[:, p] = hit.argmax(axis=1)
        sets = sets ^ bits[out[:, p]]
    return out


def kemeny_local_search(labels, weights, rho, restarts=8, seed=0):
    """Weighted Kemeny aggregation by single-item-insertion local search.

    Deterministic given the seed. Starts from the best input label, a
    weighted mean-position order, and random restarts; the returned order is
    a local optimum whose objective never exceeds any input label's.
    ``labels`` is one task's (m, rho) array, whose restarts come from
    ``default_rng(seed)``, or (n, m, rho) for n tasks sharing the (m,)
    weights, task i's from ``default_rng((seed, i))``. Weights must be finite.
    """
    labels, single = _as_batch(labels)
    if labels.shape[2] != rho:
        raise InvalidArgumentError(f"labels have length {labels.shape[2]}, expected {rho}")
    seeds = [seed] if single else [(seed, i) for i in range(len(labels))]
    out = _local_search(labels, _finite_weights(weights), restarts, seeds)
    return out[0] if single else out


def _local_search(labels, weights, restarts, seeds):
    n, _, rho = labels.shape
    if rho < 2:
        return labels[:, 0].copy()
    pref = _preference_tensor(labels, weights)
    rows = np.arange(n)
    # starts in order: the best input label, the weighted mean-position order, random orders
    starts = [labels[rows, _candidate_costs(pref, labels).argmin(axis=1)][:, None]]
    if restarts >= 2:
        mean_pos = np.einsum("a,tai->ti", weights, np.argsort(labels, axis=-1)) / max(weights.sum(), 1e-300)
        starts.append(np.argsort(mean_pos, axis=1, kind="stable")[:, None])
    if restarts > 2:
        rngs = map(np.random.default_rng, seeds)
        starts.append(np.array([[rng.permutation(rho) for _ in range(restarts - 2)] for rng in rngs]))
    starts = np.concatenate(starts, axis=1)
    n_starts = starts.shape[1]
    tol = _TIE_TOL * np.abs(weights).sum()
    outs = _insertion_descent(starts.reshape(n * n_starts, rho), pref,
                              np.repeat(rows, n_starts), tol).reshape(n, n_starts, rho)
    return _select(outs, _candidate_costs(pref, outs), tol)


def _insertion_descent(orders, pref, task, tol):
    """Best-improvement single-item insertion moves on each row until it is locally optimal.

    Row r of ``orders`` is scored with ``pref[task[r]]``. In one step,
    ``delta[l, k]`` is the cost change of moving the item at position k to
    position l: the running sum of ``gain[a, k]`` (item at a placed before
    the item at k rather than after) from a = k-1 down to l, or minus that
    from a = k+1 up to l. Each run is summed in that order behind zeros,
    so it rounds exactly as a cumulative sum over the run alone would. The
    step takes the most negative delta below ``-tol``; ties go to the first
    k, then to the first l.
    """
    orders = orders.copy()
    rho = orders.shape[1]
    pos = np.arange(rho)
    before = pos[:, None] < pos[None, :]  # [a, k]: position a comes before position k
    after = pos[:, None] > pos[None, :]
    for s in _chunks(len(orders), 64 * rho * rho):
        active = np.arange(s.start, s.stop)
        while active.size:
            o = orders[active]
            p = pref[task[active, None, None], o[:, :, None], o[:, None, :]]
            gain = p - p.transpose(0, 2, 1)
            up = np.cumsum(np.where(before, gain, 0.0)[:, ::-1], axis=1)[:, ::-1]
            down = np.cumsum(np.where(after, -gain, 0.0), axis=1)
            delta = np.where(before, up, down)
            to = delta.argmin(axis=1)  # best target l of every position k
            best = delta.min(axis=1)
            move = best.min(axis=1) < -tol
            active, o = active[move], o[move]
            rows = np.arange(len(o))[:, None]
            k = best[move].argmin(axis=1)[:, None]
            l = to[move][rows, k]
            # the new order reads o with position k taken out and put back at l
            src = pos - (pos > l)
            orders[active] = o[rows, np.where(pos == l, k, src + (src >= k))]
    return orders


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
                      negative_weights="clamp", seed=0, restarts=8, model=None):
    """Aggregate every task of a LabelingMatrix into one pseudolabel.

    rule "mv" ignores weights; "weighted" requires either ``weights`` or a
    ``model`` (rankings and finite spaces use its thetas; real labels use the
    Gaussian conditional mean from its accuracies and pairwise moments, or,
    when the accuracies are unknown (NaN), the precision-weighted mean
    ``lambda . Theta 1 / 1' Theta 1`` from its theta matrix). Weights must be
    finite; rescaling them by a positive constant leaves the result unchanged.

    candidate_policy "enumerate_all" searches the whole space (the subset
    dynamic program of :func:`kemeny_exact` on rankings, every point of a
    finite space, the closed-form weighted mean on the real line),
    "local_search" runs the insertion heuristic on rankings, whose random
    restarts for task i come from ``default_rng((seed, i))``, and
    "observed_only" takes each task's best observed label. "auto" is the
    exact search, except local search on rankings above rho = ``EXACT_MAX_RHO``.
    negative_weights "clamp" zeroes worse-than-random weights; "flip"
    reverses a ranking or negates a real value instead and uses the weight's
    magnitude.

    Returns a list of labels (permutation arrays, floats, or node ids).
    """
    if rule not in ("mv", "weighted"):
        raise ConfigurationError(f"unknown rule {rule!r}")
    if candidate_policy not in ("auto", "enumerate_all", "local_search", "observed_only"):
        raise ConfigurationError(f"unknown candidate policy {candidate_policy!r}")
    if negative_weights not in ("clamp", "flip"):
        raise ConfigurationError(f"unknown negative-weight policy {negative_weights!r}")
    kind = data.space_kind

    if rule == "weighted" and kind == REAL_VECTOR and weights is None:
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
        weights = model.thetas
    weights = _finite_weights(weights)
    if len(weights) != data.n_lfs:
        raise InvalidArgumentError(f"{len(weights)} weights for {data.n_lfs} labels")
    labels, weights = _apply_negative_policy(data.labels, weights, kind, negative_weights)
    if not (weights > 0).any():
        raise DegenerateWeightsError("all aggregation weights are zero")

    if kind == REAL_VECTOR:
        return _aggregate_reals(labels, weights, candidate_policy).tolist()
    if kind == FINITE_METRIC:
        return _aggregate_finite(labels, weights, data.space, candidate_policy).tolist()
    if candidate_policy == "observed_only":
        out = _kemeny_observed(labels, weights)
    elif candidate_policy == "local_search" or (candidate_policy == "auto" and data.rho > EXACT_MAX_RHO):
        out = kemeny_local_search(labels, weights, data.rho, restarts, seed)
    else:
        out = kemeny_exact(labels, weights, data.rho)
    return list(out)
