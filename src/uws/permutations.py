"""Permutation arithmetic, Kendall tau distance, and coordinate embeddings.

Permutations are one-line notation over 0-based dense items: ``p[k]`` is the
item placed at position ``k``, and every item of ``{0, ..., rho-1}`` appears
exactly once. All functions accept any integer sequence and return numpy
arrays.

Pair coordinates are indexed lexicographically over item pairs (i, j) with
i < j, shared by every module. :func:`pair_flags` decides every pair order:
the pair-sign embedding, the Kendall distance and the Kemeny sums read its
``(..., P)`` bool flags, a view of pair-major ``(P, ...reversed)`` storage.
It has two halves: an argsort inverts the orders into ``(rho, ...reversed)``
item positions, and :func:`position_flags` compares those positions pair by
pair. A ranking ``LabelingMatrix`` holds its positions already, so the
learner and the Kemeny solvers call only the second half.
"""

from functools import cache
from itertools import permutations as _permutations

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "identity",
    "check_permutation",
    "are_permutations",
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
    p = np.asarray(p, dtype=np.int64)
    if p.ndim != 1 or p.size < 1:
        raise InvalidArgumentError(f"permutation must be a nonempty 1-d sequence, got shape {p.shape}")
    seen = np.zeros(p.size, dtype=bool)
    if p.min() < 0 or p.max() >= p.size:
        raise InvalidArgumentError(f"entries must cover 0..{p.size - 1}: {p.tolist()}")
    seen[p] = True
    if not seen.all():
        raise InvalidArgumentError(f"not a bijection on 0..{p.size - 1}: {p.tolist()}")
    return p


def are_permutations(perms):
    """Which rows, along the last axis of an integer array, are permutations of 0..rho-1."""
    perms = np.asarray(perms)
    return (np.sort(perms, axis=-1) == np.arange(perms.shape[-1])).all(axis=-1)


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

    A view whose ``.T`` is C-contiguous pair-major (P, ...reversed) storage: positions in the
    smallest type that holds them, compared one contiguous row per item.
    """
    orders = np.asarray(orders)
    rho = orders.shape[-1]
    pos = np.ascontiguousarray(np.argsort(orders, axis=-1).astype(np.min_scalar_type(rho)).T)
    return position_flags(pos).T


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
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
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

