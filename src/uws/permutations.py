"""Permutation arithmetic, Kendall tau distance, and coordinate embeddings.

Permutations are one-line notation over 0-based dense items: ``p[k]`` is the
item placed at position ``k``, and every item of ``{0, ..., rho-1}`` appears
exactly once. All functions accept any integer sequence and return numpy
arrays.

Pair coordinates are indexed lexicographically over item pairs (i, j) with
i < j; every module in the package shares this ordering, so coordinate k of
one labeler's embedding always refers to the same item pair as coordinate k
of another's.
"""

from itertools import permutations as _permutations

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "identity",
    "check_permutation",
    "kendall_tau",
    "kendall_tau_many",
    "pair_sign_embed",
    "pair_sign_embed_many",
    "pair_indices",
    "all_permutations",
    "perm_to_str",
    "perm_from_str",
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


def num_pairs(rho):
    """Number of item pairs C(rho, 2)."""
    return rho * (rho - 1) // 2


def pair_indices(rho):
    """Lexicographic (i, j) pair index arrays, i < j, shared by all embeddings."""
    return np.triu_indices(rho, k=1)


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
    a = check_permutation(a)
    b = check_permutation(b)
    if a.size != b.size:
        raise InvalidArgumentError(f"length mismatch: {a.size} vs {b.size}")
    return int(kendall_tau_many(a, b))


def kendall_tau_many(A, B):
    """Row-wise Kendall tau distances between two (..., rho) permutation arrays.

    Compares every ordered item pair's "i before j" in the two rows; each
    discordant pair shows up as (i, j) and (j, i), hence the halving. rho = 1
    gives 0.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.shape != B.shape:
        raise InvalidArgumentError(f"shape mismatch: {A.shape} vs {B.shape}")
    pos_a = np.argsort(A, axis=-1)
    pos_b = np.argsort(B, axis=-1)
    before_a = pos_a[..., :, None] < pos_a[..., None, :]
    before_b = pos_b[..., :, None] < pos_b[..., None, :]
    return (before_a != before_b).sum(axis=(-2, -1)) // 2


def pair_sign_embed(p):
    """Embed a permutation as the +-1 vector of its pairwise item orders.

    Entry k, for the k-th lexicographic pair (i, j) with i < j, is +1 when
    i precedes j in ``p`` and -1 otherwise. The map is injective on S_rho.
    """
    p = check_permutation(p)
    if p.size < 2:
        raise InvalidArgumentError("pair-sign embedding needs rho >= 2")
    return pair_sign_embed_many(p[None, :])[0]


def pair_sign_embed_many(P):
    """Vectorized :func:`pair_sign_embed` over an (..., rho) array of permutations."""
    P = np.asarray(P, dtype=np.int64)
    rho = P.shape[-1]
    if rho < 2:
        raise InvalidArgumentError("pair-sign embedding needs rho >= 2")
    pos = np.argsort(P, axis=-1)
    iu, ju = pair_indices(rho)
    return np.where(pos[..., iu] < pos[..., ju], 1, -1).astype(np.int64)


def all_permutations(rho):
    """All of S_rho as an (rho!, rho) array in lexicographic order."""
    if rho < 1:
        raise InvalidArgumentError(f"need rho >= 1, got {rho}")
    return np.array(list(_permutations(range(rho))), dtype=np.int64)


def perm_to_str(p):
    """Serialize as comma-separated 0-based indices, e.g. ``"2,0,1"``."""
    return ",".join(str(int(v)) for v in check_permutation(p))


def perm_from_str(s):
    """Parse the :func:`perm_to_str` format."""
    try:
        vals = [int(tok) for tok in s.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad permutation string {s!r}") from exc
    return check_permutation(vals)
