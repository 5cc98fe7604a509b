"""Finite metric spaces, classical MDS embedding, and distortion measurement.

The distortion convention: embedded distances are first normalized so that no
pair expands relative to the original metric (divide by the maximum expansion
ratio), then epsilon is one minus the worst remaining contraction ratio, so
``1 - epsilon <= d_emb / d_orig <= 1`` holds over all distinct pairs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraphError,
    DomainError,
    InvalidArgumentError,
    InvalidMetricError,
)

__all__ = [
    "FiniteMetricSpace",
    "EmbeddingReport",
    "graph_hop_metric",
    "classical_mds",
    "distortion",
    "distortion_bound",
]

_METRIC_TOL = 1e-9
# bytes of the sums through one block of midpoints in the triangle check
_BLOCK_BYTES = 2**19
# bytes of the neighbours' bitsets gathered at one level of the hop-metric search
_GATHER_BYTES = 2**22


def _small_ints(d):
    """``d`` (nonnegative float64) in the smallest unsigned type that holds
    twice its largest entry, or None unless every entry is an integer and that
    sum is at most 2**53 (so float64 holds every sum of two entries exactly).

    On such integers the float64 check ``a > b + c + 1e-9`` is ``a > b + c``:
    a difference of integers is 0 or at least 1.
    """
    top = d.max()
    if not top <= 2.0**52:  # also NaN
        return None
    ints = d.astype(np.min_scalar_type(int(2 * top)))
    return ints if (ints == d).all() else None


def _hop_levels(src, dst, n):
    """All-pairs hop distances of the graph with arcs ``src[e] -> dst[e]``, both
    ways of every edge and ``src`` ascending, as an (n, n) unsigned integer
    array; None if some pair has no path.

    A multi-source breadth-first search over bitsets (Then et al., "The More
    the Merrier", VLDB 2014): row v of ``frontier`` holds one bit per source
    whose search reached v at the current level, 64 sources a word. One level
    ORs each node's neighbours' rows (a gather and a ``reduceat`` over its run
    of arcs) and keeps the bits not reached before: those are the pairs at
    that distance. A level costs O(E n / 64) word operations. Its bits are
    ORed into the bit planes of its level number, and the distances are
    unpacked from those planes once, in O(n^2 log(diameter)) byte operations,
    not once per level. Sources run in blocks of words whose gathered rows
    stay within a byte budget.
    """
    degree = np.bincount(src, minlength=n)
    if n > 1 and not degree.all():
        return None  # an isolated node; reduceat would take the next run's first row for its empty run
    starts = np.cumsum(degree) - degree
    hops = np.zeros((n, n), dtype=np.min_scalar_type(n - 1))
    step = 64 * max(1, _GATHER_BYTES // max(1, 8 * dst.size))
    for lo in range(0, n, step):
        size = min(n - lo, step)
        bit = np.arange(size, dtype=np.uint64)
        frontier = np.zeros((n, -(-size // 64)), dtype="<u8")
        frontier[lo + np.arange(size), bit // 64] = np.uint64(1) << bit % 64
        unseen = ~frontier
        if size % 64:  # the bits past the last source are never reached
            unseen[:, -1] &= np.uint64(2 ** (size % 64) - 1)
        planes = []
        level = 0
        while dst.size:
            frontier = np.bitwise_or.reduceat(frontier[dst], starts, axis=0)
            frontier &= unseen
            if not frontier.any():
                break
            unseen ^= frontier
            level += 1
            if level.bit_length() > len(planes):
                planes.append(np.zeros_like(frontier))
            for b, plane in enumerate(planes):
                if level >> b & 1:
                    plane |= frontier
        if unseen.any():
            return None
        block = hops[:, lo : lo + size]
        for b, plane in enumerate(planes):
            bits = np.unpackbits(plane.view(np.uint8), axis=1, count=size, bitorder="little")
            block |= np.left_shift(bits, hops.dtype.type(b), dtype=hops.dtype)
    return hops


def _is_hop_metric(ints):
    """Whether a symmetric integer matrix with a zero diagonal is the hop metric
    of the graph of its unit-distance pairs, and so a metric."""
    src, dst = np.nonzero(ints == 1)  # row-major: src ascending
    hops = _hop_levels(src, dst, ints.shape[0])
    return hops is not None and np.array_equal(hops, ints)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """N points with an explicit N x N distance matrix.

    Construction refuses NaN and validates symmetry, a zero diagonal, and
    the triangle inequality to tolerance 1e-9. Zero distances between
    distinct points are allowed here (pseudometrics arise from embeddings)
    but rejected by :func:`distortion`.

    A matrix of integers that equals the hop metric of the graph of its
    unit-distance pairs (every ``space.csv`` the package writes for a graph)
    is a metric by construction, and is accepted after one bitset
    breadth-first search of that graph, in O(E N / 64) word operations per
    hop level. Any other matrix, every faulty one included, takes the
    O(N^3) triangle check over blocks of midpoints, which names the first
    point a violation runs through.
    """

    dist: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] < 1:
            raise InvalidMetricError(f"distance matrix must be square, got shape {d.shape}")
        if np.isnan(d).any():  # every comparison below is false on NaN
            raise InvalidMetricError("distance matrix holds NaN")
        if (d < 0).any():
            raise InvalidMetricError("negative distances")
        if np.abs(np.diag(d)).max(initial=0.0) > _METRIC_TOL:
            raise InvalidMetricError("diagonal must be zero")
        # only unequal pairs are subtracted, so an infinite pair equal to its mirror passes without inf - inf
        unequal = d != d.T
        if (np.abs(d[unequal] - d.T[unequal]) > _METRIC_TOL).any():
            raise InvalidMetricError("distance matrix must be symmetric")
        ints = _small_ints(d)
        if ints is not None and _is_hop_metric(ints):
            object.__setattr__(self, "dist", d)
            return
        # in blocks of midpoints k, each within a byte budget, so large spaces
        # stay within memory; on integers the check runs exactly, without the
        # tolerance, in the smallest type that holds a sum of two entries
        dist = d if ints is None else ints
        cols = np.ascontiguousarray(dist.T)
        n = dist.shape[0]
        step = max(1, _BLOCK_BYTES // (n * n * dist.itemsize))
        for lo in range(0, n, step):
            # through[k - lo, i, j] = dist[i, k] + dist[k, j]
            through = cols[lo : lo + step, :, None] + dist[lo : lo + step, None, :]
            if ints is None:
                through += _METRIC_TOL
            bad = (dist > through).any(axis=(1, 2))
            if bad.any():
                raise InvalidMetricError(f"triangle inequality violated through point {lo + bad.argmax()}")
        object.__setattr__(self, "dist", d)

    @classmethod
    def _derived(cls, dist):
        """A space over a float64 matrix the library computed as a metric, e.g.
        hop distances, built without the O(N^3) validation."""
        space = object.__new__(cls)
        object.__setattr__(space, "dist", dist)
        return space

    @property
    def size(self):
        return int(self.dist.shape[0])


@dataclass(frozen=True)
class EmbeddingReport:
    """Coordinates plus the distortion bookkeeping of the no-expansion normalization.

    ``scale`` is the factor embedded distances were divided by; ``epsilon``
    is the resulting worst contraction, in [0, 1].
    """

    coords: np.ndarray
    target_dim: int
    epsilon: float
    scale: float
    exponent: float = 1.0


def graph_hop_metric(edges, n_nodes):
    """Shortest-hop metric of an undirected graph via all-pairs BFS.

    The search runs from all sources at once over bitsets (see
    :func:`_hop_levels`): each node keeps a ``ceil(n_nodes / 64)``-word bitset
    of the sources whose search front holds it, and one hop level costs one
    gather and one OR-reduction of the neighbours' bitsets, O(E n_nodes / 64)
    word operations; the distances are unpacked once from the bit planes of
    the level numbers, in O(n_nodes^2 log(diameter)) byte operations.

    Parameters
    ----------
    edges : iterable of (u, v)
        Undirected edges over nodes 0..n_nodes-1, as a list or generator of
        pairs, an (E, 2) integer array, or empty. Self-loops are ignored.
    n_nodes : int

    Returns
    -------
    FiniteMetricSpace
        Integer-valued hop distances.

    Raises
    ------
    DisconnectedGraphError
        If some pair of nodes has no connecting path.
    """
    if n_nodes < 1:
        raise InvalidArgumentError(f"need n_nodes >= 1, got {n_nodes}")
    ends = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
    outside = ((ends < 0) | (ends >= n_nodes)).any(axis=1)
    if outside.any():
        u, v = ends[outside.argmax()]
        raise InvalidArgumentError(f"edge ({u}, {v}) outside 0..{n_nodes - 1}")
    ends = ends[ends[:, 0] != ends[:, 1]]
    src, dst = np.concatenate([ends, ends[:, ::-1]]).T
    order = np.argsort(src, kind="stable")
    hops = _hop_levels(src[order], dst[order], n_nodes)
    if hops is None:
        raise DisconnectedGraphError("graph is disconnected: some hop distances are infinite")
    # shortest-path lengths satisfy the triangle inequality by construction
    return FiniteMetricSpace._derived(hops.astype(np.float64))


def _contraction_stats(orig, coords, exponent):
    """(scale, epsilon) of the no-expansion normalization for given coordinates."""
    if not 0 < exponent < np.inf:
        raise InvalidArgumentError(f"metric exponent must be finite and > 0, got {exponent}")
    coords = np.asarray(coords, dtype=np.float64)
    n = orig.shape[0]
    if coords.shape[0] != n:
        raise InvalidArgumentError(f"coords rows {coords.shape[0]} != space size {n}")
    iu, ju = np.triu_indices(n, k=1)
    if iu.size == 0:
        return 1.0, 0.0
    d_orig = orig[iu, ju]
    if (d_orig <= 0).any():
        raise InvalidMetricError("zero original distance between distinct points")
    diff = coords[iu] - coords[ju]
    d_emb = np.sqrt((diff * diff).sum(axis=1)) ** exponent
    ratios = d_emb / d_orig
    scale = float(ratios.max())
    if scale <= 0:
        return 1.0, 1.0
    epsilon = float(1.0 - ratios.min() / scale)
    return scale, min(max(epsilon, 0.0), 1.0)


def distortion(space, coords, metric_exponent=1.0):
    """Worst contraction of an embedding after the no-expansion normalization.

    The embedded distance is ``||x - y||^metric_exponent``, with a finite
    exponent > 0. Returns epsilon in [0, 1]; an isometric embedding (up to a
    global constant) gives 0.
    """
    _, epsilon = _contraction_stats(space.dist, coords, metric_exponent)
    return epsilon


def distortion_bound(epsilon, mu_norm, e_min):
    """Parameter inconsistency budget ``epsilon * mu_norm / e_min``.

    ``e_min`` (the curvature floor of the log-partition function over the
    parameter region) is always user-supplied; it has no computable recipe
    here.
    """
    if e_min <= 0:
        raise DomainError(f"e_min must be > 0, got {e_min}")
    if mu_norm < 0:
        raise DomainError(f"mu_norm must be >= 0, got {mu_norm}")
    return epsilon * mu_norm / e_min


def classical_mds(space, dim, metric_exponent=1.0):
    """Classical multidimensional scaling into ``dim`` coordinates.

    Double-centers the squared-distance matrix, takes the top-``dim``
    eigenpairs (negative eigenvalues truncated to zero), and rescales the
    configuration so no pair expands; the residual contraction is reported
    as epsilon.

    Coordinates are deterministic: eigenpairs are ordered by descending
    eigenvalue and each column's sign is fixed by making its
    largest-magnitude entry positive.
    """
    n = space.size
    if not (1 <= dim <= n - 1):
        raise InvalidArgumentError(f"need 1 <= dim <= N-1 = {n - 1}, got {dim}")
    d2 = space.dist**2
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    try:
        evals, evecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(evals)[::-1][:dim]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    flip = np.sign(evecs[np.abs(evecs).argmax(axis=0), np.arange(dim)])
    flip[flip == 0] = 1.0
    coords = evecs * flip * np.sqrt(evals)
    scale, epsilon = _contraction_stats(space.dist, coords, metric_exponent)
    if scale > 0:
        coords = coords / scale ** (1.0 / metric_exponent)
    return EmbeddingReport(
        coords=coords,
        target_dim=dim,
        epsilon=epsilon,
        scale=scale,
        exponent=metric_exponent,
    )
