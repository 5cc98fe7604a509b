"""Permutation arithmetic, Kendall tau distance, and coordinate embeddings.

Permutations are one-line notation over 0-based dense items: ``p[k]`` is the
item placed at position ``k``, and every item of ``{0, ..., rho-1}`` appears
exactly once. All functions accept any integer sequence and return numpy
arrays.

Pair coordinates are indexed lexicographically over item pairs (i, j) with
i < j, shared by every module. :func:`pair_flags` decides every pair order:
the pair-sign embedding, the Kendall distance and the Kemeny sums read its
``(..., P)`` bool flags, a view of pair-major ``(P, ...reversed)`` storage.
It has two halves: :func:`item_positions` checks the orders and inverts them
into ``(rho, ...reversed)`` item positions with one scatter, and
:func:`position_flags` compares those positions pair by pair. A ranking
``LabelingMatrix`` holds its positions already, so the learner and the
Kemeny solvers call only the second half.

:func:`item_positions` is the one permutation check: the matrix, the
file reader and writers, :func:`check_permutation` and :func:`pair_flags`
all take theirs from its mask, and where a permutation enters as numbers, a
fractional, NaN or infinite entry is refused, never truncated.
"""

import math
from functools import cache
from itertools import permutations as _permutations

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "identity",
    "check_permutation",
    "item_positions",
    "kendall_tau",
    "kendall_tau_many",
    "pair_sign_embed",
    "pair_sign_embed_many",
    "pair_indices",
    "position_flags",
    "pair_flags",
    "all_permutations",
    "num_pairs",
]


def identity(rho):
    """Identity permutation on ``rho`` items."""
    if rho < 1:
        raise InvalidArgumentError(f"need rho >= 1, got {rho}")
    return np.arange(rho, dtype=np.int64)


def check_permutation(p):
    """Validate and return ``p`` as an int64 array in one-line notation."""
    p = _integers(np.asarray(p), "ranking")
    if p.ndim != 1 or p.size < 1:
        raise InvalidArgumentError(f"permutation must be a nonempty 1-d sequence, got shape {p.shape}")
    if not item_positions(p)[1]:
        raise InvalidArgumentError(f"not a permutation of 0..{p.size - 1}: {p.tolist()}")
    return p


def _integers(labels, what):
    """``labels`` as int64; a fractional, NaN or infinite label is refused, not truncated."""
    if labels.dtype.kind not in "biu":
        x = labels.astype(np.float64)
        bad = np.flatnonzero(~((x == np.trunc(x)) & (np.abs(x) < 2.0**63)))
        if bad.size:
            raise InvalidArgumentError(f"{what} labels must be integers, got {x.flat[bad[0]]}")
    return np.asarray(labels, dtype=np.int64)


def item_positions(orders):
    """Where each of the (..., rho) integer ``orders`` puts each item, and which rows are permutations.

    Returns ``positions``, (rho, ...reversed) in the smallest type that holds
    rho, equal to ``np.argsort(orders, -1).T`` on every row that is a
    permutation of 0..rho-1 (and meaningless on the others), and ``ok``, the
    (...) bool mask of those rows. One scatter writes every entry's position
    into its own row's slot: a row is a permutation exactly when each of its
    rho entries lies in 0..rho-1 and fills one of its rho slots, so none is
    left at the fill value rho. Rows are told apart only when some row
    fails. A fractional, NaN or infinite entry is refused, not truncated.
    """
    orders = _integers(np.asarray(orders), "ranking")
    *lead, rho = orders.shape
    rows = math.prod(lead)
    dtype = np.min_scalar_type(rho)
    flat = orders.reshape(rows, rho)
    inv = np.full((rows, rho), rho, dtype=dtype)
    slots = flat + np.arange(rows).reshape(rows, 1) * rho
    # viewed unsigned, a negative entry is above every rho
    big = flat.view(np.uint64)
    if big.max(initial=0) < rho:
        inv.reshape(-1)[slots.reshape(-1)] = np.tile(np.arange(rho, dtype=dtype), rows)
    else:  # an out-of-range entry writes nothing, so its row keeps a slot at rho
        inside = big < rho
        inv.reshape(-1)[slots[inside]] = np.broadcast_to(np.arange(rho, dtype=dtype), inv.shape)[inside]
    left = inv == rho
    ok = ~left.any(axis=1) if left.any() else np.ones(rows, dtype=bool)
    return np.ascontiguousarray(inv.reshape(*lead, rho).T), ok.reshape(lead)


def num_pairs(rho):
    """Number of item pairs C(rho, 2)."""
    return rho * (rho - 1) // 2


@cache
def pair_indices(rho):
    """Lexicographic (i, j) pair index arrays, i < j, shared by all embeddings.

    Built once per rho per process and read-only.
    """
    iu, ju = np.triu_indices(rho, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def position_flags(positions):
    """(P, ...) bool: whether item i sits before item j, (i, j) of :func:`pair_indices`, in (rho, ...) positions.

    The comparison half of :func:`pair_flags`; the flags are C-contiguous.
    """
    iu, ju = pair_indices(len(positions))
    return positions[iu] < positions[ju]


def pair_flags(orders):
    """(..., P) bool: whether each of the (..., rho) orders puts item i before item j, (i, j) of :func:`pair_indices`.

    A view whose ``.T`` is C-contiguous pair-major (P, ...reversed) storage: the
    :func:`item_positions` of the orders, compared one contiguous row per item. A row that is
    not a permutation of 0..rho-1 is refused.
    """
    orders = np.asarray(orders)
    positions, ok = item_positions(orders)
    if not ok.all():
        bad = np.argwhere(~ok)[0].tolist()
        raise InvalidArgumentError(f"order {bad} is not a permutation of 0..{orders.shape[-1] - 1}: "
                                   f"{orders[tuple(bad)].tolist()}")
    return position_flags(positions).T


def kendall_tau(a, b):
    """Kendall tau distance: number of item pairs ordered differently by a and b.

    Parameters
    ----------
    a, b : sequences of equal length rho
        Permutations in one-line notation.

    Returns
    -------
    int
        Count in ``0 .. C(rho, 2)``. Symmetric in its arguments.
    """
    return int(kendall_tau_many(check_permutation(a), check_permutation(b)))


def kendall_tau_many(A, B):
    """Row-wise Kendall tau distances between two (..., rho) permutation arrays.

    Counts the item pairs whose :func:`pair_flags` differ in the two rows.
    rho = 1 has no pairs and gives 0.
    """
    A, B = np.asarray(A), np.asarray(B)
    if A.shape != B.shape:
        raise InvalidArgumentError(f"shape mismatch: {A.shape} vs {B.shape}")
    return (pair_flags(A) != pair_flags(B)).sum(axis=-1)


def pair_sign_embed(p):
    """Embed a permutation as the +-1 vector of its pairwise item orders.

    Entry k, for the k-th lexicographic pair (i, j) with i < j, is +1 when
    i precedes j in ``p`` and -1 otherwise. The map is injective on S_rho.
    """
    return pair_sign_embed_many(check_permutation(p)[None, :])[0]


def pair_sign_embed_many(P):
    """Vectorized :func:`pair_sign_embed` over an (..., rho) array of permutations."""
    if np.shape(P)[-1] < 2:
        raise InvalidArgumentError("pair-sign embedding needs rho >= 2")
    return np.where(pair_flags(P), 1, -1).astype(np.int64, order="C")


def all_permutations(rho):
    """All of S_rho as an (rho!, rho) array in lexicographic order."""
    if rho < 1:
        raise InvalidArgumentError(f"need rho >= 1, got {rho}")
    return np.array(list(_permutations(range(rho))), dtype=np.int64)

