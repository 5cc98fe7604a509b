"""Shared independent oracles for the test suite.

These deliberately avoid the library's own fast paths: distances are counted
pair by pair and optima found by exhaustive enumeration or by a subset
recursion in exact rational arithmetic, so they can vouch for the optimized
implementations.
"""

import csv
import io
import json
import math
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import combinations
from itertools import permutations as iter_permutations
from pathlib import Path

import numpy as np

from uws.errors import DisconnectedGraphError, InvalidArgumentError, InvalidMetricError
from uws.label_model import FINITE_METRIC, RANKING, REAL_VECTOR, LabelingMatrix
from uws.metric_spaces import FiniteMetricSpace
from uws.synthetic import substream


def naive_kendall(a, b):
    """O(rho^2) discordant-pair count."""
    a = np.asarray(a)
    b = np.asarray(b)
    pos_a = np.argsort(a)
    pos_b = np.argsort(b)
    count = 0
    for i in range(a.size):
        for j in range(i + 1, a.size):
            if (pos_a[i] < pos_a[j]) != (pos_b[i] < pos_b[j]):
                count += 1
    return count


def brute_force_weighted_kemeny(labels, weights, rho):
    """Exhaustive weighted Kemeny optimum: (best permutation, best objective).

    Counts each label's integer Kendall distance to every order of S_rho at
    once, as the item pairs the two place in opposite orders (the pairs
    naive_kendall walks), then scans S_rho in lexicographic order with strict
    improvement, so ties resolve to the lexicographically smallest optimum.
    """
    cands = np.array(list(iter_permutations(range(rho))), dtype=np.int64).reshape(-1, rho)
    i, j = np.triu_indices(rho, k=1)

    def before(orders):  # (k, pairs): whether item i of each pair comes before item j
        pos = np.argsort(orders, axis=1)
        return pos[:, i] < pos[:, j]

    counts = (before(cands)[:, None, :] != before(np.asarray(labels))[None, :, :]).sum(axis=2)
    best, best_cost = None, np.inf
    for cand, dists in zip(cands, counts.tolist()):
        cost = sum(w * k for w, k in zip(weights, dists))
        if cost < best_cost - 1e-12:
            best, best_cost = cand, cost
    return np.array(best), best_cost


def fraction_kemeny_cost(labels, weights, z):
    """Exact weighted Kendall sum of the labels to the order z, as a Fraction."""
    return sum((Fraction(float(w)) * naive_kendall(lab, z) for w, lab in zip(weights, labels)), Fraction(0))


def reference_kemeny_fraction(labels, weights, rho):
    """Exact weighted Kemeny optimum in rational arithmetic: (order, cost as a Fraction).

    Each float weight is the Fraction it equals; every float is a dyadic
    rational, so all of them are integers in units of one common denominator,
    and the recursion runs in those exact integers. ``g(S)``, the least cost of
    ordering the item set S (a bit mask), is the minimum over the item j put
    first of the weight placing another item of S before j plus ``g(S - j)``,
    by memoised recursion. The order is rebuilt from the full set, taking at
    each position the smallest item that attains the optimum: the
    lexicographically smallest optimum, with ties decided exactly.
    """
    weights = [Fraction(float(w)) for w in weights]
    unit = math.lcm(1, *(w.denominator for w in weights))
    pref = [[0] * rho for _ in range(rho)]  # pref[i][j]: weight placing i before j, times unit
    for lab, w in zip(np.asarray(labels).tolist(), weights):
        for s, i in enumerate(lab):
            for j in lab[s + 1 :]:
                pref[i][j] += int(w * unit)

    def first_cost(items, j):
        return sum(pref[i][j] for i in range(rho) if items >> i & 1)

    @cache
    def g(items):
        if not items:
            return 0
        return min(first_cost(items, j) + g(items & ~(1 << j)) for j in range(rho) if items >> j & 1)

    items, order = (1 << rho) - 1, []
    while items:
        j = next(j for j in range(rho) if items >> j & 1
                 and first_cost(items, j) + g(items & ~(1 << j)) == g(items))
        order.append(j)
        items &= ~(1 << j)
    return np.array(order, dtype=np.int64), Fraction(g((1 << rho) - 1), unit)


def are_permutations(perms):
    """Which rows, along the last axis of an integer array, are permutations of 0..rho-1."""
    perms = np.asarray(perms)
    return (np.sort(perms, axis=-1) == np.arange(perms.shape[-1])).all(axis=-1)


def ranking_positions(labels):
    """The (rho, m, n) item positions of (n, m, rho) rankings, as a ranking LabelingMatrix holds them."""
    return LabelingMatrix(RANKING, labels).positions


def preference_tensor(labels, weights):
    """The (n, rho, rho) preference tensor of (n, m, rho) labels, ``pref[t, i, j]`` the weight of task
    t's labelers placing item i before item j: the library's pair sums, scattered here."""
    from uws.inference import _pair_sums

    labels = np.asarray(labels)
    rho = labels.shape[-1]
    _, first, second = _pair_sums(ranking_positions(labels), np.asarray(weights, dtype=np.float64))
    iu, ju = np.triu_indices(rho, k=1)
    pref = np.zeros((first.shape[1], rho, rho))
    pref[:, iu, ju] = first.T
    pref[:, ju, iu] = second.T
    return pref


def reference_subset_dp(labels, weights, rho):
    """(n, rho) exact Kemeny orders by one subset program over all rho items of each task.

    The exact solver as it was before the majority-graph decomposition: the
    full 2^rho table on every task, with no partition, from the library's
    own preference tensor so that only the solver differs. Ties break to the
    lexicographically smallest optimal sequence as its float sums round.
    """
    pref = preference_tensor(labels, weights)
    t = len(pref)
    masks = np.arange(1 << rho)
    member = ((masks[:, None] >> np.arange(rho)) & 1).astype(bool)
    size = member.sum(axis=1)
    c = np.zeros((1 << rho, rho, t))
    for b, row in enumerate(pref.transpose(1, 2, 0)):
        c[1 << b : 2 << b] = c[: 1 << b] + row
    flat = c.reshape(-1, t)
    g = np.zeros((1 << rho, t))
    for k in range(1, rho + 1):
        sets = masks[size == k]
        j = np.nonzero(member[sets])[1].reshape(len(sets), k)
        g[sets] = (flat[sets[:, None] * rho + j] + g[sets[:, None] ^ (1 << j)]).min(axis=1)
    bits = 1 << np.arange(rho)
    tasks = np.arange(t)
    out = np.empty((t, rho), dtype=np.int64)
    sets = np.full(t, (1 << rho) - 1)
    for p in range(rho):
        cost = c[sets, :, tasks] + g[sets[:, None] ^ bits, tasks[:, None]]
        hit = ((sets[:, None] & bits) != 0) & (cost == g[sets, tasks][:, None])
        out[:, p] = hit.argmax(axis=1)
        sets = sets ^ bits[out[:, p]]
    return out


def reference_majority_components(pref):
    """``order`` and ``ends`` of each task's weak majority-graph components, from a
    2-D prefix sum of the strict-win tensor gathered into sorted order.

    The split as it was before the item-score criterion: ``cum[t, p, q]`` counts
    the strict wins of the first p sorted items over the first q, and a prefix
    of p items ends a component when it strictly beats all rho - p later items.
    """
    n, rho, _ = pref.shape
    wins = pref > pref.transpose(0, 2, 1)
    # fewest strict losses first: the weak out-degree is rho - 1 minus them
    order = np.argsort(wins.transpose(0, 2, 1).sum(axis=2), axis=1, kind="stable")
    rows = np.arange(n)[:, None, None]
    sorted_wins = wins[rows, order[:, :, None], order[:, None, :]]
    # cum[t, p, q]: strict wins of the first p sorted items over the first q
    cum = np.zeros((n, rho + 1, rho + 1), dtype=np.int64)
    cum[:, 1:, 1:] = sorted_wins.cumsum(axis=1).cumsum(axis=2)
    p = np.arange(1, rho + 1)
    return order, cum[:, p, rho] - cum[:, p, p] == p * (rho - p)


# Per-task reference aggregation: the solver as it was before the batched
# engine, one task and one start at a time. The batched engine must agree
# with it exactly (same outputs, same tie-breaks, same restart streams).

def reference_preference_matrix(labels, weights, rho):
    """pref[i, j] = total weight of labelers placing item i before item j."""
    labels = np.asarray(labels, dtype=np.int64)
    pos = np.argsort(labels, axis=1)
    before = pos[:, :, None] < pos[:, None, :]
    return np.einsum("a,aij->ij", np.asarray(weights, dtype=np.float64), before)


def reference_kemeny_cost(pref, z):
    pos = np.argsort(z)
    iu, ju = np.triu_indices(len(z), k=1)
    first = pos[iu] < pos[ju]
    return float(np.where(first, pref[ju, iu], pref[iu, ju]).sum())


def reference_kemeny_exact(labels, weights, rho):
    """Exact weighted Kemeny by enumeration; first minimum in lexicographic order."""
    pref = reference_preference_matrix(labels, weights, rho)
    cands = np.array(list(iter_permutations(range(rho))), dtype=np.int64)
    pos = np.argsort(cands, axis=1)
    iu, ju = np.triu_indices(rho, k=1)
    first = pos[:, iu] < pos[:, ju]
    costs = np.where(first, pref[ju, iu][None, :], pref[iu, ju][None, :]).sum(axis=1)
    return cands[int(np.argmin(costs))].copy()


def _reference_insertion_descent(order, pref, tol):
    order = order.copy()
    rho = len(order)
    while True:
        best_delta = -tol
        best_move = None
        for k in range(rho):
            x = order[k]
            others = np.delete(order, k)
            gain = pref[others, x] - pref[x, others]
            d = np.zeros(rho)
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


def reference_kemeny_local_search(labels, weights, rho, restarts=8, seed=0):
    """Insertion local search from the best input, the Borda order and random starts.

    Moves and restart ties use the tolerance 1e-12 times the weight total.
    """
    labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))
    if rho < 2:
        return labels[0].copy()
    weights = np.asarray(weights, dtype=np.float64)
    pref = reference_preference_matrix(labels, weights, rho)
    input_costs = [reference_kemeny_cost(pref, z) for z in labels]
    mean_pos = np.einsum("a,ai->i", weights, np.argsort(labels, axis=1)) / max(weights.sum(), 1e-300)
    starts = [labels[int(np.argmin(input_costs))], np.argsort(mean_pos, kind="stable")]
    rng = np.random.default_rng(seed)
    for _ in range(max(restarts - len(starts), 0)):
        starts.append(rng.permutation(rho))
    tol = 1e-12 * np.abs(weights).sum()
    best = None
    best_cost = np.inf
    for start in starts[: max(restarts, 1)]:
        out = _reference_insertion_descent(np.asarray(start, dtype=np.int64), pref, tol)
        cost = reference_kemeny_cost(pref, out)
        if cost < best_cost - tol or (
            abs(cost - best_cost) <= tol and best is not None and tuple(out) < tuple(best)
        ):
            best, best_cost = out, cost
    return best


def reference_finite_costs(labels, weights, dist):
    """Every point c's weighted distance ``sum_a w_a dist[c, labels[a]]`` to one task's
    labels: the terms as a contiguous (N, m) array, a row per point, summed by numpy."""
    return np.ascontiguousarray(weights[None, :] * dist[:, np.asarray(labels)]).sum(axis=1)


def reference_aggregate_finite(labels, weights, dist):
    """Weighted distance argmin over every point, lowest index on ties."""
    return int(np.argmin(reference_finite_costs(labels, weights, dist)))


# Reference readers: the dataset and truth readers as they were before the
# codec table and the validating reader. On valid files, in any row order,
# the current readers must return equal arrays of equal dtype.

def reference_perm(cell):
    """The items of a ranking cell such as ``"2,0,1"``, refused unless they are 0..rho-1 once each."""
    try:
        items = [int(tok) for tok in cell.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad ranking cell {cell!r}") from exc
    if sorted(items) != list(range(len(items))):
        raise InvalidArgumentError(f"not a permutation: {cell!r}")
    return items


def reference_read_dataset(path, space=None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if header[:2] != ["task_id", "lf_id"] or len(header) != 3 or not rows:
        raise InvalidArgumentError(f"{path}: expected header task_id,lf_id,<label> and data rows")
    kind_col = header[2]
    cells = {}
    for task, lf, raw in rows:
        cells[(int(task), int(lf))] = raw
    n = max(t for t, _ in cells) + 1
    m = max(a for _, a in cells) + 1
    if len(cells) != n * m:
        raise InvalidArgumentError(f"{path}: missing (task, labeler) rows")
    if kind_col == "perm":
        labels = np.empty((n, m, len(reference_perm(cells[(0, 0)]))), dtype=np.int64)
        for (t, a), raw in cells.items():
            labels[t, a] = reference_perm(raw)
        return LabelingMatrix(RANKING, labels)
    if kind_col == "value":
        labels = np.empty((n, m))
        for (t, a), raw in cells.items():
            labels[t, a] = float(raw)
        return LabelingMatrix(REAL_VECTOR, labels)
    if kind_col == "node":
        if space is None:
            raise InvalidArgumentError(f"{path}: node dataset needs a distance matrix (space)")
        labels = np.empty((n, m), dtype=np.int64)
        for (t, a), raw in cells.items():
            labels[t, a] = int(raw)
        return LabelingMatrix(FINITE_METRIC, labels, space=space)
    raise InvalidArgumentError(f"{path}: unknown label column {kind_col!r}")


def reference_read_truth(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = sorted(list(reader), key=lambda r: int(r[0]))
    if len(header) != 2 or header[0] != "task_id" or not rows:
        raise InvalidArgumentError(f"{path}: expected header task_id,<label> and data rows")
    col = header[1]
    if col == "perm":
        return RANKING, np.array([reference_perm(r[1]) for r in rows])
    if col == "value":
        return REAL_VECTOR, np.array([float(r[1]) for r in rows])
    if col == "node":
        return FINITE_METRIC, np.array([int(r[1]) for r in rows], dtype=np.int64)
    raise InvalidArgumentError(f"{path}: unknown label column {col!r}")


# Reference file checks: the label-file and distance-matrix readers as they
# were before the one array reader (a csv row loop, then a parser per cell)
# and the float64 triangle check. The current ones must return equal arrays
# of equal dtype on valid input, and refuse what these refuse with the same
# exception type.

_REFERENCE_CELLS = {  # label column: (space kind, parser of one cell, array dtype)
    "perm": (RANKING, reference_perm, np.int64),
    "value": (REAL_VECTOR, float, np.float64),
    "node": (FINITE_METRIC, int, np.int64),
}


def _reference_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for ln, row in enumerate(rows, 1):
        if len(row) != len(rows[0]):
            raise InvalidArgumentError(f"{path}:{ln}: expected {len(rows[0])} fields, got {len(row)}")
    if not rows:
        raise InvalidArgumentError(f"{path}: no rows")
    return rows


def _reference_parse(path, cells, dtype, parse=None):
    try:
        return np.array(cells if parse is None else [parse(c) for c in cells], dtype=dtype)
    except (ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


def reference_read_labels(path, id_columns):
    header, *body = _reference_rows(path)
    if header[:-1] != id_columns or header[-1] not in _REFERENCE_CELLS or not body:
        raise InvalidArgumentError(f"{path}: expected header {','.join(id_columns)},<perm|value|node> and data rows")
    kind, parse, dtype = _REFERENCE_CELLS[header[-1]]
    *id_cells, label_cells = zip(*body)
    index = tuple(_reference_parse(path, id_cells, np.int64))
    shape = tuple(int(ids.max()) + 1 for ids in index)
    if (min(ids.min() for ids in index) < 0 or np.prod(shape) != len(body)
            or not (np.bincount(np.ravel_multi_index(index, shape)) == 1).all()):
        raise InvalidArgumentError(f"{path}: ids must be 0..n-1 for each of {', '.join(id_columns)}, every combination once")
    values = _reference_parse(path, label_cells, dtype, parse)
    if not np.isfinite(values).all():
        raise InvalidArgumentError(f"{path}: labels must be finite")
    labels = np.empty(shape + values.shape[1:], dtype=values.dtype)
    labels[index] = values
    return kind, labels


def reference_check_metric(d):
    """``d`` as float64 if it is a metric to tolerance 1e-9, else InvalidMetricError."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
        raise InvalidMetricError(f"distance matrix must be square, got shape {d.shape}")
    if (d < 0).any():
        raise InvalidMetricError("negative distances")
    if np.abs(np.diag(d)).max(initial=0.0) > 1e-9:
        raise InvalidMetricError("diagonal must be zero")
    unequal = d != d.T  # an infinite pair equal to its mirror is symmetric; inf - inf would be NaN
    if (np.abs(d[unequal] - d.T[unequal]) > 1e-9).any():
        raise InvalidMetricError("distance matrix must be symmetric")
    for k in range(d.shape[0]):
        if (d > d[:, k, None] + d[None, k, :] + 1e-9).any():
            raise InvalidMetricError(f"triangle inequality violated through point {k}")
    return d


def reference_read_distance_matrix(path):
    dist = _reference_parse(path, _reference_rows(path), np.float64)
    try:
        return reference_check_metric(dist)
    except InvalidMetricError as exc:
        raise InvalidMetricError(f"{path}: {exc}") from exc


def reference_jsonable(obj):
    """The JSON value of ``obj`` as the model and manifest writers built it
    before float arrays took one ``tolist``: every element converted on its
    own, numpy and bool integers to int, NaN to None."""
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return reference_jsonable(obj.tolist())
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if np.isnan(f) else f
    return obj


def reference_canonical_json(obj):
    return json.dumps(reference_jsonable(obj), sort_keys=True, indent=2) + "\n"


def reference_fmt(x):
    """A number's cell text as the label, matrix and embedding writers produced it
    before handing Python numbers to csv directly."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, list):
        if len(x) != 1:
            raise InvalidArgumentError(f"only scalar real labels serialize to CSV, got {len(x)} coordinates")
        return reference_fmt(x[0])
    return str(int(x))


# Reference writers: every CSV writer as it was before the array writer,
# csv.writer turning one Python value at a time into text. The current
# writers must produce the same bytes.

def reference_write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())


def reference_write_labels(path, header, space_kind, labels):
    """One row per index of the leading ``len(header) - 1`` axes: the ids, then the
    label (a ranking as the text of its items, a number as it is)."""
    labels = np.asarray(labels)
    id_shape = labels.shape[: len(header) - 1]
    ids = np.indices(id_shape).reshape(len(id_shape), -1).tolist()
    flat = labels.reshape(-1, *labels.shape[len(id_shape):])
    if space_kind == RANKING:
        cells = [",".join(map(str, row)) for row in flat.astype(np.int64).tolist()]
    else:
        cells = flat.reshape(-1).tolist()
    reference_write_csv(path, header, zip(*ids, cells))


# Reference generators: the scenario generators and the hop metric written
# out one draw at a time, one breadth-first search per source. Each kind's
# truths, and the regression noise, take one draw call per task, in task
# order, from the kind's single stream; a ranking or graph label takes one
# substream per (task, labeler); the graph structure is decoded and chosen
# from Python lists. The library must return equal arrays of equal dtype.

def reference_graph_hop_metric(edges, n_nodes):
    if n_nodes < 1:
        raise InvalidArgumentError(f"need n_nodes >= 1, got {n_nodes}")
    adj = [[] for _ in range(n_nodes)]
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise InvalidArgumentError(f"edge ({u}, {v}) outside 0..{n_nodes - 1}")
        if u == v:
            continue
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full((n_nodes, n_nodes), -1, dtype=np.int64)
    for src in range(n_nodes):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected: some hop distances are infinite")
    return FiniteMetricSpace(dist.astype(np.float64))


def reference_backward_map(mean_distance, rho):
    """The Mallows backward map as it was before its certified bracket: a plain
    bisection on the bracket (1e-8, 50), one scalar ``expected_distance`` call per
    halving until the bracket is 1e-12 wide. The library must return the same
    float for every feasible mean."""
    from uws.mallows import expected_distance

    lo, hi = 1e-8, 50.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if expected_distance(mid, rho) > mean_distance:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_mallows_draw(theta, u, center):
    """One Mallows draw at ``center`` by repeated insertion, one ``list.insert`` per item.

    Item j's displacement is the ``searchsorted`` of ``u[j-1]`` in the first j
    entries of its own 1-D insertion CDF, so a uniform past a last entry that
    rounds below 1 takes the last bucket.
    """
    order = [0]
    for j in range(1, len(center)):
        w = np.exp(-theta * np.arange(j + 1, dtype=np.float64))
        cdf = np.cumsum(w) / w.sum()
        order.insert(j - int(np.searchsorted(cdf[:j], u[j - 1])), j)
    return center[order]


def reference_gen_ranking_tasks(scenario):
    n, rho = scenario.n, scenario.rho
    m = len(scenario.thetas)
    truth = np.empty((n, rho), dtype=np.int64)
    labels = np.empty((n, m, rho), dtype=np.int64)
    truths = substream(scenario.seed, 1)
    for i in range(n):
        truth[i] = truths.permutation(rho)
        for a, theta in enumerate(scenario.thetas):
            u = substream(scenario.seed, 2, i, a).random(rho - 1)
            labels[i, a] = reference_mallows_draw(theta, u, truth[i])
    return truth, LabelingMatrix(RANKING, labels)


def reference_gen_regression_tasks(scenario):
    acc = np.asarray(scenario.accuracies)
    cov = np.asarray(scenario.lf_cov)
    m = acc.size
    cond_mean_coef = acc / scenario.prior_var
    cond_cov = cov - np.outer(acc, acc) / scenario.prior_var
    chol = np.linalg.cholesky(cond_cov)
    truth = np.empty(scenario.n)
    labels = np.empty((scenario.n, m))
    sd = np.sqrt(scenario.prior_var)
    truths, noise = substream(scenario.seed, 1), substream(scenario.seed, 2)
    for i in range(scenario.n):
        y = sd * truths.standard_normal()
        truth[i] = y
        z = noise.standard_normal(m)
        labels[i] = cond_mean_coef * y + chol @ z
    return truth, LabelingMatrix(REAL_VECTOR, labels)


def reference_gen_graph_tasks(scenario):
    # the tree of the Pruefer code, decoded by scanning for the smallest leaf at every step, then
    # the extra edges chosen from a list of the other pairs, with the library's two calls on one stream
    n_nodes, n_edges = scenario.n_nodes, scenario.n_edges
    rng = substream(scenario.seed, 0)
    code = rng.integers(n_nodes, size=n_nodes - 2).tolist()
    degree = [1 + code.count(v) for v in range(n_nodes)]
    tree = set()
    for v in code:
        leaf = min(u for u in range(n_nodes) if degree[u] == 1)
        tree.add((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    tree.add(tuple(u for u in range(n_nodes) if degree[u] == 1))
    rest = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes) if (u, v) not in tree]
    chosen = rng.choice(len(rest), size=n_edges - (n_nodes - 1), replace=False)
    space = reference_graph_hop_metric(sorted(tree | {rest[k] for k in chosen.tolist()}), n_nodes)
    m = len(scenario.thetas)
    cdfs = np.empty((m, n_nodes, n_nodes))
    for a, theta in enumerate(scenario.thetas):
        w = np.exp(-theta * space.dist)
        probs = w / w.sum(axis=0, keepdims=True)
        cdfs[a] = np.cumsum(probs, axis=0).T
    truth = np.empty(scenario.n, dtype=np.int64)
    labels = np.empty((scenario.n, m), dtype=np.int64)
    truths = substream(scenario.seed, 1)
    for i in range(scenario.n):
        y = int(truths.integers(n_nodes))
        truth[i] = y
        for a in range(m):
            u = substream(scenario.seed, 2, i, a).random()
            labels[i, a] = int(np.searchsorted(cdfs[a, y, :-1], u))  # the last node takes the rest
    return space, truth, LabelingMatrix(FINITE_METRIC, labels, space=space)


def reference_quadratic_triplets(o_ab, o_ac, o_bc, l_a, l_b, l_c, p):
    """The hypercube triplet system solved straight through, one expression per term.

    Same-shape float arrays in; ``((alpha, beta, gamma), ok)`` out, with ``ok``
    False where the discriminant is below the relative tolerance. Every
    product and sum is written in the order the library's core evaluates
    it, so the library's pivot must equal this ``beta`` bit for bit.
    """
    r = p / (1.0 - p)
    t = p / (1.0 - p) ** 2
    q_a, q_b, q_c = l_a / (1.0 - p), l_b / (1.0 - p), l_c / (1.0 - p)
    op_ab, op_ac, op_bc = o_ab / (1.0 - p), o_ac / (1.0 - p), o_bc / (1.0 - p)
    k_ab = op_ab - q_a * q_b
    k_bc = op_bc - q_b * q_c
    lead = t * (q_a * q_c * r - op_ac * t)
    const = (
        t * k_ab * k_bc
        + q_a * q_c * q_b**2 * r**2
        + q_a * q_b * r**2 * k_bc
        + q_b * q_c * r**2 * k_ab
        - op_ac * q_b**2 * r**2
    )
    lin = -2.0 * q_b * r / t * lead
    disc = lin**2 - 4.0 * lead * const
    ok = ~(disc < -(0.5 * (lin**2 + np.abs(4.0 * lead * const)) + 1e-9))
    disc = np.clip(disc, 0.0, None)
    degenerate = np.abs(lead) <= 1e-12 * (t**2 * (q_a * q_c + op_ac) + 1e-30)
    beta = np.where(degenerate, l_b, l_b + np.sqrt(disc) / (2.0 * np.abs(np.where(degenerate, 1.0, lead))))
    denom = t * beta - q_b * r
    flat = np.abs(denom) <= 1e-30
    safe = np.where(flat, 1.0, denom)
    alpha = np.where(flat, l_a, (op_ab + q_a * r * beta - q_a * q_b) / safe)
    gamma = np.where(flat, l_c, (op_bc + q_c * r * beta - q_b * q_c) / safe)
    return (alpha, beta, gamma), ok


# Reference learner pieces: the label model's hot path as it was before its
# contiguous passes (2-D fancy-index gathers, np.median over a strided axis,
# one sign search per coordinate, signs through np.where). Patched into
# ``uws.label_model``, they must leave every learned output byte-identical.

def reference_pair_signs(positions):
    from uws.permutations import pair_indices

    rankings = np.argsort(positions.T, axis=-1)  # the (n, m, rho) rankings of (rho, m, n) positions
    rho = rankings.shape[2]
    pos = np.argsort(rankings, axis=-1).astype(np.min_scalar_type(rho))
    pos = np.ascontiguousarray(pos.transpose(2, 1, 0))
    iu, ju = pair_indices(rho)
    return np.where(pos[iu] < pos[ju], np.int8(1), np.int8(-1)).transpose(1, 2, 0)


def reference_quadratic_core(o_xb, o_bz, o_xz, l_x, l_b, l_z, p):
    """Pivot b between outer labelers x and z, through the straight-line triplet system."""
    (_, beta, _), ok = reference_quadratic_triplets(o_xb, o_xz, o_bz, l_x, l_b, l_z, p)
    return beta, ok


def reference_partner_pairs(strength, free):
    """Each labeler's partner pairs, a list of (b, c) with b < c: every uncorrelated pair of its
    K strongest admissible partners (ties to the lower index). Where there is none, its S
    strongest uncorrelated pairs of admissible partners, ranked by the weaker member's place,
    then the stronger's, listed in index order."""
    from uws import label_model as lm
    from uws.errors import ConfigurationError

    out = []
    for a in range(len(free)):
        ranked = sorted((b for b in range(len(free)) if free[a, b]), key=lambda b: -strength[b])  # stable
        pairs = [(b, c) for b, c in combinations(sorted(ranked[:lm._PARTNERS]), 2) if free[b, c]]
        if not pairs:
            place = {b: i for i, b in enumerate(ranked)}
            every = [(b, c) for b, c in combinations(sorted(ranked), 2) if free[b, c]]
            every.sort(key=lambda bc: (max(place[bc[0]], place[bc[1]]), min(place[bc[0]], place[bc[1]])))
            pairs = sorted(every[:math.comb(min(lm._PARTNERS, len(free) - 1), 2)])
        if not pairs:
            raise ConfigurationError(f"triplet unavailable for labeler {a} under the correlation set")
        out.append(pairs)
    return out


def reference_triplet_estimates(pairs, solve, exc_type, reason):
    """One solve per labeler over its partner pairs, then np.median per coordinate over the solvable rows."""
    out = []
    for a, labeler_pairs in enumerate(pairs):
        b, c = (np.array(x) for x in zip(*labeler_pairs))
        rows, ok = solve(a, b, c)
        flat, solvable = rows.reshape(len(b), -1), ok.reshape(len(b), -1)
        estimate = np.empty(flat.shape[1])
        for i in range(flat.shape[1]):
            if not solvable[:, i].any():
                raise exc_type(f"labeler {a}: coordinate {i}: {reason}")
            estimate[i] = np.median(flat[solvable[:, i], i])
        out.append(estimate.reshape(rows.shape[1:]))
    return np.array(out)


def reference_resolve_signs(magnitudes, pair_moments):
    """One coordinate: (m,) magnitudes, (m, m) moments."""
    from uws.errors import SignAmbiguousError
    from uws.label_model import EPS_FLOOR

    mags = np.asarray(magnitudes, dtype=np.float64)
    e = np.asarray(pair_moments, dtype=np.float64)
    m = mags.shape[0]
    signs = np.zeros(m)
    signs[0] = 1.0
    usable = np.abs(e) > EPS_FLOOR
    frontier = np.array([0])
    while frontier.size:
        links = usable[frontier] & (signs == 0.0)
        reached = np.flatnonzero(links.any(axis=0))
        first = links[:, reached].argmax(axis=0)
        via = frontier[first]
        signs[reached] = signs[via] * np.sign(e[via, reached])
        frontier = reached[np.lexsort((reached, first))]
    if (signs == 0.0).any():
        raise SignAmbiguousError(f"cannot reach labelers {np.flatnonzero(signs == 0.0).tolist()}")
    if float(signs @ mags) < 0.0:
        signs = -signs
    return signs * mags


def reference_signed_accuracies(e, pairs, second_moments):
    from uws import label_model as lm

    mags = lm._triplet_estimates(
        pairs, lambda a, b, c: lm._continuous_core(e[a, b], e[a, c], e[b, c], second_moments),
        lm.DegenerateMomentError, f"every triplet has its partners' pair moment at or below the floor {lm.EPS_FLOOR}",
    )
    signed = np.empty_like(mags)
    for i in range(mags.shape[1]):
        signed[:, i] = reference_resolve_signs(mags[:, i], e[:, :, i])
    return signed
