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


@dataclass(frozen=True)
class FiniteMetricSpace:
    """N points with an explicit N x N distance matrix.

    Construction refuses NaN and validates symmetry, a zero diagonal, and
    the triangle inequality to tolerance 1e-9. Zero distances between
    distinct points are allowed here (pseudometrics arise from embeddings)
    but rejected by :func:`distortion`.
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
        # chunked over the midpoint so large spaces stay within memory; on
        # integers the check runs exactly, without the tolerance, in the
        # smallest type that holds a sum of two entries
        ints = _small_ints(d)
        dist = d if ints is None else ints
        for k in range(dist.shape[0]):
            through = dist[:, k, None] + dist[None, k, :]
            if ints is None:
                through += _METRIC_TOL
            if (dist > through).any():
                raise InvalidMetricError(f"triangle inequality violated through point {k}")
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

    Parameters
    ----------
    edges : iterable of (u, v)
        Undirected edges over nodes 0..n_nodes-1. Self-loops are ignored.
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
    pairs = []
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise InvalidArgumentError(f"edge ({u}, {v}) outside 0..{n_nodes - 1}")
        if u != v:
            pairs.append((u, v))
    # padded neighbour lists: row u holds u's neighbours, then n_nodes, a
    # column of the frontier that is never set
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    src, dst = np.concatenate([ends, ends[:, ::-1]]).T
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    degree = np.bincount(src, minlength=n_nodes)
    nbr = np.full((n_nodes, degree.max(initial=0)), n_nodes, dtype=np.int64)
    nbr[src, np.arange(src.size) - (np.cumsum(degree) - degree)[src]] = dst
    # breadth-first from many sources at once: a node joins the next frontier
    # when one of its neighbours is in this one and it has no distance yet
    dist = np.full((n_nodes, n_nodes), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    chunk = max(1, 2**20 // max(1, n_nodes * nbr.shape[1]))
    for lo in range(0, n_nodes, chunk):
        block = dist[lo : lo + chunk]  # a view: writes land in dist
        frontier = np.zeros((len(block), n_nodes + 1), dtype=bool)
        frontier[:, :n_nodes] = block == 0
        hops = 0
        while frontier.any():
            hops += 1
            reached = frontier[:, nbr].any(axis=2) & (block < 0)
            block[reached] = hops
            frontier[:, :n_nodes] = reached
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected: some hop distances are infinite")
    # shortest-path lengths satisfy the triangle inequality by construction
    return FiniteMetricSpace._derived(dist.astype(np.float64))


def _contraction_stats(orig, coords, exponent):
    """(scale, epsilon) of the no-expansion normalization for given coordinates."""
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

    The embedded distance is ``||x - y||^metric_exponent``. Returns epsilon in
    [0, 1]; an isometric embedding (up to a global constant) gives 0.
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
