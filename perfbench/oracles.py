"""Independent correctness oracles and quality measures.

None of this calls into ``uws``: distances, objectives and optima are
recomputed here from the raw arrays or from the files the CLI wrote, so a
wrong answer from the program cannot vouch for itself.
"""

import csv
import json
from itertools import permutations

import numpy as np

REL_TOL = 1e-9


def kendall(a, b):
    """Discordant-pair counts between broadcastable (..., rho) permutation arrays."""
    pa = np.argsort(a, axis=-1)
    pb = np.argsort(b, axis=-1)
    i, j = np.triu_indices(pa.shape[-1], k=1)
    return ((pa[..., i] < pa[..., j]) != (pb[..., i] < pb[..., j])).sum(axis=-1)


def bad_permutation_rows(out, rho):
    """Indices of rows of ``out`` that are not permutations of 0..rho-1."""
    if out.ndim != 2 or out.shape[1] != rho:
        return list(range(len(out)))
    return np.flatnonzero((np.sort(out, axis=1) != np.arange(rho)).any(axis=1)).tolist()


def kemeny_objective(labels, weights, z):
    """Weighted Kendall sum of each task's labels (n, m, rho) to candidates z (n, rho)."""
    return kendall(labels, z[:, None, :]) @ weights


def best_input_objective(labels, weights):
    """Per task, the smallest objective attained by one of its own input labels."""
    pair = kendall(labels[:, :, None, :], labels[:, None, :, :])  # (n, m, m)
    return (pair * weights[:, None]).sum(axis=1).min(axis=1)


def brute_force_kemeny(labels, weights, rho):
    """Exhaustive weighted Kemeny optimum of one task, lexicographic tie-break.

    Scans itertools' lexicographic order and keeps the first candidate whose
    objective is within a relative 1e-9 of the minimum.
    """
    pref = [[0.0] * rho for _ in range(rho)]  # pref[x][y]: weight placing x before y
    for lab, w in zip(labels.tolist(), weights.tolist()):
        for s, x in enumerate(lab):
            for y in lab[s + 1 :]:
                pref[x][y] += w
    costs = []
    for cand in permutations(range(rho)):
        cost = 0.0
        for s, x in enumerate(cand):
            for y in cand[s + 1 :]:
                cost += pref[y][x]  # x placed before y disagrees with weight on y before x
        costs.append((cost, cand))
    best = min(c for c, _ in costs)
    tol = REL_TOL * max(1.0, abs(best))
    return next(np.array(cand) for c, cand in costs if c <= best + tol)


def read_rows(path):
    """Data rows of a CSV file with a header, as lists of strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def read_long_labels(path, cast):
    """(n, m) array from a long-format task_id,lf_id,value CSV."""
    rows = read_rows(path)
    n = 1 + max(int(r[0]) for r in rows)
    m = 1 + max(int(r[1]) for r in rows)
    out = np.empty((n, m), dtype=np.float64 if cast is float else np.int64)
    for task, lf, raw in rows:
        out[int(task), int(lf)] = cast(raw)
    return out


def read_column(path, cast):
    """Second column of a task_id,<value> CSV, ordered by task id."""
    rows = sorted(read_rows(path), key=lambda r: int(r[0]))
    return np.array([cast(r[1]) for r in rows])


def read_matrix(path):
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row])


def read_thetas(path):
    with open(path) as fh:
        return np.array(json.load(fh)["thetas"], dtype=np.float64)


def graph_argmin_mismatches(pred, labels, weights, dist, exact_ties):
    """Tasks whose node is not the argmin of the weighted hop sum.

    With integer weights (``exact_ties``) the smallest optimal index must be
    chosen; with real weights any node within a relative 1e-9 of the optimum
    is accepted, since summation order may split a tie.
    """
    costs = np.einsum("a,tav->tv", weights, dist[labels])  # (n, nodes)
    best = costs.min(axis=1)
    if exact_ties:
        return np.flatnonzero(pred != costs.argmin(axis=1)).tolist()
    chosen = costs[np.arange(len(pred)), pred]
    return np.flatnonzero(chosen > best + REL_TOL * np.maximum(1.0, np.abs(best))).tolist()


def close(a, b):
    return np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))
