"""Pseudolabel inference: distance-weighted aggregation of labeler outputs.

The aggregate label solves ``argmin_z sum_a w_a d(label_a, z)`` over the label
space; with uniform weights this is the generalized majority vote (the Kemeny
rule on rankings, the mean on the real line under squared distance), and with
learned accuracies it is the weighted maximum-likelihood rule.

:func:`aggregate_dataset` is the one entry point, with one path per space
kind in one table: one batched engine solves every task of a dataset at once.
A negative (worse than random) weight counts as 0. Reals take the weighted mean, the
exact argmin of the squared distance. Finite spaces sum each labeler's
weighted distance column over chunks of tasks, labeler by labeler in numpy's
pairwise order, and take the argmin over all points. Rankings
hold each task's preferences as two ``(P, n)`` pair sums, one column per
task, for the P = C(rho, 2) item pairs (i, j), i < j, of
:func:`~uws.permutations.pair_indices`: ``first`` is the weight of the
labelers that put i before j, ``second`` that of the rest. Float weights
add labeler by labeler; whole-number weights are counted in one integer
reduction, with the same bits. Each task's items split into the
strongly connected components of its weak majority graph (an edge i -> j
when no more weight puts j before i than i before j), with array operations
over all tasks: one O(rho^2) compare of each pair's two sums for the strict
wins, a sort by out-degree and an O(rho) prefix sum of each item's wins
minus losses. Every optimum keeps the components in order, so only the
order inside each component is left to find, all components of one size at
once. A component of two items is an exact tie and keeps ascending ids. One
rule, the same at every rho, picks the solver for a larger component (the
partition rule of Betzler, Bredereck and Niedermeier, JAAMAS 2014), its
``(k, k)`` preference block gathered from the pair sums: a component of
k <= ``EXACT_MAX_RHO`` items gets its exact optimum from a dynamic program
over its 2^k item subsets, at O(2^k * k), and a larger one, where the subset
table costs more than local search's eight starts, gets local search over
its own items. :func:`kemeny_exact` runs the
same loop with the dynamic program on components of up to 16 items and
refuses a larger one. Local search runs the best-improvement insertion
descent from eight starts of each task, always the best input label, the
weighted mean-position order and six random orders, on an ``(n * 8, k)``
array; rows drop out as they reach a local optimum. Chunks of tasks bound the
working arrays to about 1 MiB (``_CHUNK_BYTES``).

Ties break lexicographically as the program's float sums compare them: among
labels whose objectives are equal as summed in float64, the smallest canonical
form wins (elementwise order for permutation sequences, index order for points
of a finite space), so every aggregation is deterministic. Objectives that tie
in exact arithmetic but whose float sums differ in the last bit are no tie:
the smaller float sum wins. A task is split into components by comparing its
pair sums and each component's objective is summed on its own, so its ties
are decided by each component's float sums. Local search keeps, over its
starts in order, a result whose objective is lower by more than 1e-12 times
the weight total, or within that and lexicographically smaller, so rescaling
the weights by a power of two leaves it unchanged. Its random starts for
task ``i`` of a dataset come from ``default_rng((seed, i))``, afresh for
each component that runs it. On rankings and finite spaces, weights whose
sums could leave float64's range are scaled back by a power of two
(:func:`_in_range`), so the weights' ratios, not their size, decide.
"""

from functools import cache

import numpy as np

from ._covariance import repair_covariance
from ._streams import check_seed
from .errors import (
    ConfigurationError,
    DegenerateWeightsError,
    InvalidArgumentError,
    UseHeuristicError,
)
from .label_model import FINITE_METRIC, RANKING, REAL_VECTOR, LabelingMatrix
from .permutations import item_positions, pair_indices, position_flags

__all__ = [
    "kemeny_exact",
    "kemeny_local_search",
    "gaussian_conditional_mean",
    "aggregate_dataset",
]

EXACT_MAX_RHO = 10  # the largest component aggregate_dataset orders by the subset program
_DP_MAX_K = 16  # 2^16 subsets x 17 float64 columns: 8.9 MB per component
_STARTS = 8  # local search's starts: the best input label, the weighted mean-position order, six random orders
_TIE_TOL = 1e-12
_CHUNK_BYTES = 1 << 20


def _finite_weights(weights, m):
    """The (m,) weights as a float64 array; a NaN or infinite weight has no argmin to give."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise InvalidArgumentError(f"weights have shape {weights.shape}, expected ({m},)")
    if weights.size != m:
        raise InvalidArgumentError(f"{weights.size} weights for {m} labels")
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise InvalidArgumentError(f"aggregation weights must be finite; weight {bad[0]} is {weights[bad[0]]}")
    return weights


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


def _pairwise_sum(terms, lo, hi):
    """The sum of the slabs ``terms(a, b)``, a ``(b - a, ...)`` array, over lo..hi-1,
    added elementwise in the order numpy sums a contiguous run of ``hi - lo`` terms."""
    n = hi - lo
    if n < 8:
        total = 0.0
        for term in terms(lo, hi):
            total = total + term
        return total
    if n <= 128:
        stop = hi - n % 8
        r = terms(lo, lo + 8)
        for a in range(lo + 8, stop, 8):
            r += terms(a, a + 8)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms(stop, hi):
            total += term
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(terms, lo, lo + half) + _pairwise_sum(terms, lo + half, hi)


def _finite_costs(cols, weights, dist_t):
    """The (k, N) weighted distances ``sum_a w_a dist[c, label_ta]`` of every point c
    for k tasks, their labels the columns of the (m, k) ``cols``.

    Summed labeler-major: labeler a's terms are one contiguous ``(k, N)`` slab,
    ``w_a`` times the rows of ``dist_t = dist.T`` at its labels (the column, as
    a task's row of terms holds it: the matrix may be asymmetric within
    tolerance). numpy sums a contiguous run of m terms pairwise: below 8 in
    sequence from 0.0, up to 128 in eight interleaved partial sums combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then the rest in order, and
    above 128 as the sum of two halves split at ``m // 2`` rounded down to a
    multiple of 8. :func:`_pairwise_sum` makes the same additions on whole
    slabs, so every cost has the bits :func:`_row_sums` gives the task's row of
    m terms, and ties break as they would for a lone task.
    """
    def terms(lo, hi):
        slabs = dist_t[cols[lo:hi]]
        slabs *= weights[lo:hi, None, None]
        return slabs

    return _pairwise_sum(terms, 0, len(cols))


def _aggregate_finite(data, weights, seed):
    dist_t = np.ascontiguousarray(data.space.dist.T)
    weights = _in_range(weights, dist_t.max(initial=0.0))
    out = np.empty(data.n_tasks, dtype=np.int64)
    # live slabs: eight partial sums, a block of eight terms and the sum of a first half
    for s in _chunks(data.n_tasks, 8 * 17 * data.space.size):
        out[s] = _finite_costs(np.ascontiguousarray(data.labels[s].T), weights, dist_t).argmin(axis=1)
    return out.tolist()


def _in_range(weights, bound):
    """The (m,) weights, scaled by a power of two when ``bound * m * max|w|`` could reach 2^1022.

    ``bound`` is how many weight totals the solver's largest sum can hold: a
    Kemeny objective adds C(rho, 2) pair sums, a finite space's cost is at most
    the largest distance times the total. Below 2^1022 no sum or partial sum
    leaves float64's range. A power of two scales every sum exactly, so the
    result is what the weights' own ratios give, and weights that need no scale
    keep their bits.
    """
    exponents = np.frexp([np.abs(weights).max(initial=0.0), bound, len(weights)])[1]
    shift = int(exponents.sum()) - 1022
    return np.ldexp(weights, -shift) if shift > 0 else weights


def _pair_sums(positions, weights):
    """The (m,) weights brought into range, then each task's pair sums ``first`` and ``second``, (P, n).

    ``positions`` is the (rho, m, n) :attr:`LabelingMatrix.positions` of the
    rankings. For pair p = (i, j), i < j, of :func:`pair_indices`,
    ``first[p, t]`` is the weight of task t's labelers placing item i before
    item j and ``second[p, t]`` that of the rest. Every ranking path sums its
    pairs here, so this is where its weights get their power-of-two scale
    (:func:`_in_range`, at C(rho, 2)). Float weights add labeler by labeler,
    w to one side of each pair and w - w = 0 to the other, so each sum rounds
    as an einsum over its own task does (a batched einsum may sum in partial
    sums). Whole-number weights whose absolute total is below 2^53 are counted
    instead, in one integer reduction over the labelers in the smallest type
    that holds the total: every partial sum of the loop would be an exact
    integer too, so the bytes are the same, +0.0 included.
    """
    rho, m, n = positions.shape
    iu, _ = pair_indices(rho)
    weights = _in_range(weights, len(iu))
    first, second = np.empty((2, len(iu), n))
    norm = np.abs(weights).sum()
    counts = None
    if norm < 2**53 and (weights == np.round(weights)).all():
        counts = weights.astype(np.min_scalar_type(-int(norm) - 1))  # signed, and holds -norm..norm
    for s in _chunks(n, (m + 16) * len(iu)):
        f = position_flags(positions[..., s])  # (P, m, chunk), contiguous
        if counts is None:
            lo, hi = np.zeros((2, len(iu), f.shape[2]))
            for a, w in enumerate(weights.tolist()):
                t = w * f[:, a]
                lo += t
                hi += w - t
            first[:, s], second[:, s] = lo, hi
        else:
            first[:, s] = np.einsum("pat,a->pt", f.view(np.int8), counts)
            second[:, s] = weights.sum() - first[:, s]
    return weights, first, second


def _preference_tensor(first, second, rho):
    """pref[t, i, j] = total weight of task t's labelers placing item i before item j: the scatter of
    the (P, n) pair sums of :func:`_pair_sums`."""
    iu, ju = pair_indices(rho)
    pref = np.zeros((first.shape[1], rho, rho))
    pref[:, iu, ju] = first.T
    pref[:, ju, iu] = second.T
    return pref


def _candidate_costs(pref, positions):
    """Kemeny objectives (n, c) of each task's own candidate orders, from their (rho, c, n) item positions."""
    rho, c, n = positions.shape
    iu, ju = pair_indices(rho)
    costs = np.empty((n, c))
    for s in _chunks(n, 9 * c * len(iu)):
        flags = position_flags(np.ascontiguousarray(positions[..., s])).T
        costs[s] = _row_sums(np.where(flags, pref[s, None, ju, iu], pref[s, None, iu, ju]))
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


def _as_batch(labels, weights, rho):
    """A ranking LabelingMatrix of (n, m, rho) labels, then their finite (m,) weights, and whether the
    labels came as one task's (m, rho) or (rho,)."""
    labels = np.asarray(labels)
    single = labels.ndim < 3
    data = LabelingMatrix(RANKING, np.atleast_2d(labels)[None] if single else labels)
    if data.rho != rho:
        raise InvalidArgumentError(f"labels have length {data.rho}, expected {rho}")
    return data, _finite_weights(weights, data.n_lfs), single


def kemeny_exact(labels, weights, rho):
    """Exact weighted Kemeny aggregate by dynamic programming over subsets of items.

    ``labels`` is one task's (m, rho) array, or (n, m, rho) for n tasks
    sharing the (m,) weights (the result is then (n, rho)). With
    ``pref[i, j]`` the weight of labelers placing item i before item j, each
    task's items are first split into the strongly connected components of
    its weak majority graph (an edge i -> j when ``pref[i, j] >= pref[j, i]``):
    between two components the preference is strict, so every optimum keeps
    the components in the graph's order (the extended Condorcet criterion)
    and only the order inside each component is left to find. Items sorted by
    out-degree, descending and ties to the lower index, list the components in
    that order, and a prefix of p sorted items is a union of whole components
    exactly when every item in it strictly beats every item after it: when
    the sum of its items' strict wins minus strict losses is p (rho - p).

    On a component of k >= 2 items, taken in ascending item order, an order
    of an item set S that puts j first pays ``c[S, j]``, the sum of
    ``pref[i, j]`` over i in S, so the optimum of S is
    ``g[S] = min over j in S of c[S, j] + g[S - j]``. The order is rebuilt
    from the full set, taking at each position the smallest item whose
    ``c[S, j] + g[S - j]`` equals ``g[S]``: ties break to the
    lexicographically smallest optimal sequence of each component, as its
    float sums round, and so to the smallest optimum of the task. A
    component of two items is a tie (neither item strictly beats the other),
    so it keeps ascending ids without the program.

    The cost is O(m rho^2) per task to sum the preferences into two pair
    sums, ``first`` and ``second``, one per item pair (i, j), i < j: the
    weight of the labelers that put i first, and of the rest (whole-number
    weights are counted in integers, in one reduction over the labelers).
    The partition is O(rho^2) more, all of it in the compare of each pair's
    two sums (the prefix test is O(rho)); no task's (rho, rho) matrix is
    built, as each component's (k, k) block is gathered from the pair sums.
    Then O(2^k * k) time and ``8 (k + 1) 2^k`` bytes per component of
    k > 2 items, so any rho is solved exactly whose components have at most
    16 items.

    Raises
    ------
    UseHeuristicError
        If a component has more than 16 items, where its subset table would
        take over 8.9 MB: use :func:`kemeny_local_search`.
    InvalidArgumentError
        If a label is not a permutation of 0..rho-1, or the weights are not
        one finite value per labeler.
    """
    data, weights, single = _as_batch(labels, weights, rho)
    out = _kemeny(data.positions, weights, _DP_MAX_K, None)
    return out[0] if single else out


def _kemeny(positions, weights, dp_max, seed):
    """(n, rho) Kemeny orders of the rankings with (rho, m, n) item positions, one majority-graph component at a time.

    A component of two items is tied and keeps ascending ids. One of k > 2
    items goes to the subset program when k <= ``dp_max``; a larger one to
    local search over its own items, task i's random starts from
    ``default_rng((seed, i))``, or, when ``seed`` is None, to a
    UseHeuristicError naming the task and k. Each component's (k, k)
    preference block is gathered from the pair sums.
    """
    rho = len(positions)
    weights, first, second = _pair_sums(positions, weights)
    order, ends = _majority_components(first, second, rho)
    out = order.copy()  # a component of one item stays where the sort put it
    starts = np.ones_like(ends)
    starts[:, 1:] = ends[:, :-1]
    task, start = np.nonzero(starts)
    size = np.nonzero(ends)[1] - start + 1
    if seed is None and (size > dp_max).any():
        at = (size > dp_max).argmax()
        raise UseHeuristicError(f"task {task[at]}: a majority-graph component of {size[at]} items, above "
                                f"the {dp_max} the exact solver's subset table is built for")
    # pair p = (i, j) of pair_indices, either way round
    iu, ju = pair_indices(rho)
    pair = np.zeros((rho, rho), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(len(iu))
    for k in np.unique(size[size > 1]).tolist():
        t, pos = task[size == k, None], start[size == k, None] + np.arange(k)
        items = np.sort(order[t, pos], axis=1)  # ascending ids carry the lexicographic tie-break
        if k == 2:
            # neither item strictly beats the other, so both orders cost the same: ascending ids
            out[t, pos] = items
            continue
        row, col = items[:, :, None], items[:, None, :]
        p, tt = pair[row, col], t[:, :, None]
        sub = np.where(row < col, first[p, tt], np.where(row > col, second[p, tt], 0.0))
        if k <= dp_max:
            layers = _subset_layers(k)
            local = np.empty((len(sub), k), dtype=np.int64)
            for s in _chunks(len(sub), 8 * (k + 1) << k):
                local[s] = _subset_dp(sub[s], layers)
        else:
            # each labeler's order of the component's items, as indices into items, and its inverse
            item_pos = np.take_along_axis(positions[:, :, t[:, 0]].T, items[:, None, :], axis=2)
            orders = np.argsort(item_pos, axis=-1)
            local = _local_search(orders, item_positions(orders)[0], sub, weights,
                                  [(seed, i) for i in t[:, 0].tolist()])
        out[t, pos] = np.take_along_axis(items, local, axis=1)
    return out


def _majority_components(first, second, rho):
    """Each task's items in component order, and where its components end, from its (P, n) pair sums.

    Returns ``order`` (n, rho), the items sorted by weak out-degree, descending
    and stable, and ``ends`` (n, rho), true at position p when the first p + 1
    sorted items strictly beat every later one, i.e. at the last item of each
    strongly connected component of the weak majority graph.

    With W and L an item's strict wins and losses, the sum of W - L over a
    prefix of p items is the prefix's strict wins over the rho - p later items
    minus theirs over it (wins inside the prefix cancel). A pair is won
    strictly by at most one side, so the sum is at most p (rho - p), and it
    reaches that exactly when the prefix strictly beats every later item.
    W and L are the sums of the (rho, rho, n) int8 strict-win array over its
    two outer axes.
    """
    iu, ju = pair_indices(rho)
    wins = np.zeros((rho, rho, first.shape[1]), dtype=np.int8)
    wins[iu, ju] = first > second
    wins[ju, iu] = second > first
    losses = wins.sum(axis=0).T
    # fewest strict losses first: the weak out-degree is rho - 1 minus them
    order = np.argsort(losses, axis=1, kind="stable")
    margin = np.take_along_axis(wins.sum(axis=1).T - losses, order, axis=1).cumsum(axis=1)
    p = np.arange(1, rho + 1)
    return order, margin == p * (rho - p)


@cache
def _subset_layers(rho):
    """For each subset size k = 1..rho: the (L,) subsets S of that size, as bit
    masks, and for the (L, k) members j of each, the flat index ``S * rho + j``
    of ``c[S, j]`` and the mask of ``S - j``. Built once per rho per process."""
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


def kemeny_local_search(labels, weights, rho, seed=0):
    """Weighted Kemeny aggregation by single-item-insertion local search.

    Deterministic given the seed. Always starts from the best input label, a
    weighted mean-position order and six random orders; the returned order is
    a local optimum whose objective never exceeds any input label's.
    ``labels`` is one task's (m, rho) array, whose random starts come from
    ``default_rng(seed)``, or (n, m, rho) for n tasks sharing the (m,)
    weights, task i's from ``default_rng((seed, i))``. Labels must be
    permutations of 0..rho-1, weights finite, one per labeler, and the seed
    a non-negative integer.
    """
    check_seed(seed)
    data, weights, single = _as_batch(labels, weights, rho)
    seeds = [seed] if single else [(seed, i) for i in range(data.n_tasks)]
    weights, first, second = _pair_sums(data.positions, weights)
    out = _local_search(data.labels, data.positions, _preference_tensor(first, second, rho), weights, seeds)
    return out[0] if single else out


def _local_search(labels, positions, pref, weights, seeds):
    """Each task's pick among the local optima of its ``_STARTS`` starts, from its (n, m, rho)
    labels, their (rho, m, n) item positions and their pref."""
    n, _, rho = labels.shape
    if rho < 2:
        return labels[:, 0].copy()
    rows = np.arange(n)
    best_input = labels[rows, _candidate_costs(pref, positions).argmin(axis=1)]
    # the operand an argsort of the labels gives, contiguous int64 (n, m, rho): einsum sums in its layout's order
    pos = np.ascontiguousarray(positions.T, dtype=np.int64)
    mean_pos = np.einsum("a,tai->ti", weights, pos) / max(weights.sum(), 1e-300)
    randoms = [[rng.permutation(rho) for _ in range(_STARTS - 2)] for rng in map(np.random.default_rng, seeds)]
    starts = np.concatenate([best_input[:, None], np.argsort(mean_pos, axis=1, kind="stable")[:, None],
                             np.array(randoms)], axis=1)
    tol = _TIE_TOL * np.abs(weights).sum()
    outs = _insertion_descent(starts.reshape(n * _STARTS, rho), pref,
                              np.repeat(rows, _STARTS), tol).reshape(n, _STARTS, rho)
    return _select(outs, _candidate_costs(pref, item_positions(outs)[0]), tol)


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


def _model_mean(values, model):
    """The model's weighted aggregate of (n, m) real ``values``: the Gaussian conditional mean, or, when the
    accuracies are unknown (NaN), the precision-weighted mean ``lambda . Theta 1 / 1' Theta 1``."""
    if not np.isnan(model.accuracies).any():
        return gaussian_conditional_mean(values, model.accuracies, model.pairwise_moments)
    if model.theta_matrix is None:
        raise ConfigurationError("model has neither accuracies nor a theta matrix for real labels")
    precision = np.asarray(model.theta_matrix, dtype=np.float64).sum(axis=1)
    return values @ precision / precision.sum()


def _aggregate_reals(data, weights, seed):
    # the squared-distance objective has the weighted mean as its exact argmin
    labels = data.labels[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf: summed again below
        total = weights.sum()
        means = _row_sums(weights * labels) / total
    # a row whose sum leaves float64's range (every row, if the weights' total does) sums again from
    # weights scaled to sum 1: no partial sum then leaves the labels' range, and every other row keeps
    # its bits
    redo = ~(np.isfinite(means) & np.isfinite(total))
    if redo.any():
        scaled = weights / weights.max()
        means[redo] = _row_sums(scaled / scaled.sum() * labels[redo])
    return means.tolist()


def _aggregate_rankings(data, weights, seed):
    return list(_kemeny(data.positions, weights, EXACT_MAX_RHO, seed))


_AGGREGATORS = {RANKING: _aggregate_rankings, REAL_VECTOR: _aggregate_reals, FINITE_METRIC: _aggregate_finite}


def aggregate_dataset(data, weights=None, rule="weighted", seed=0, model=None):
    """Aggregate every task of a LabelingMatrix into one pseudolabel.

    rule "mv" ignores weights; "weighted" requires either ``weights`` or a
    ``model`` (rankings and finite spaces use its thetas; real labels use the
    Gaussian conditional mean from its accuracies and pairwise moments, or,
    when the accuracies are unknown (NaN), the precision-weighted mean
    ``lambda . Theta 1 / 1' Theta 1`` from its theta matrix). A model applies
    only to data of its own space kind, ``dims`` and labeler count; another
    raises InvalidArgumentError. Weights must be finite, one per labeler; a
    negative one counts as 0, and rescaling them by a power of two leaves the
    result unchanged (another constant can move a float sum's last bit, and
    with it a tie).

    Each task's label is the weighted argmin over the whole space: the
    weighted mean on the real line, the best point of a finite space, and on
    rankings, at any rho, each majority-graph component's order as
    :func:`kemeny_exact` finds it: exact on a component of at most
    ``EXACT_MAX_RHO`` items, and on a larger one the local search of
    :func:`kemeny_local_search` over that component's items, from its eight
    starts, task i's random ones from ``default_rng((seed, i))``. The seed
    must be a non-negative integer, for every rule and space, whether or not
    local search runs.

    Returns a list of labels (permutation arrays, floats, or node ids).
    """
    check_seed(seed)
    if rule not in ("mv", "weighted"):
        raise ConfigurationError(f"unknown rule {rule!r}")
    kind = data.space_kind
    if rule == "mv":
        weights = np.ones(data.n_lfs)
    elif weights is None:
        if model is None:
            raise ConfigurationError("weighted rule needs weights or a learned model")
        if (model.space_kind, model.dims, model.n_lfs) != (kind, data.dims, data.n_lfs):
            raise InvalidArgumentError(
                f"space mismatch: model is {model.space_kind}/{model.dims} with {model.n_lfs} labelers, "
                f"dataset is {kind}/{data.dims} with {data.n_lfs} labelers"
            )
        if kind == REAL_VECTOR:
            return _model_mean(data.labels[:, :, 0], model).tolist()
        weights = model.thetas
    weights = _finite_weights(weights, data.n_lfs)
    weights = np.where(weights < 0, 0.0, weights)
    if not (weights > 0).any():
        raise DegenerateWeightsError("all aggregation weights are zero")
    return _AGGREGATORS[kind](data, weights, seed)
