"""Synthetic tasks and heterogeneous labelers for rankings, regression, and graphs.

Reproducibility scheme: every scenario carries one integer seed, and each
random decision draws from a named Philox substream
``Generator(Philox(SeedSequence(entropy=seed, spawn_key=path)))`` where the
path encodes what the stream is for:

    (0,)              graph structure (a spanning tree, then the extra edges)
    (1,)              every task's latent truth, in task order
    (2,)              every regression task's label noise, in task order
    (2, task, a)      labeler a's output on a ranking or graph task
    (3,)              preset parameter draws (labeler quality vectors)

Each kind's truths, and the regression noise, are one numpy call on one
stream, task after task, so the first n' tasks of a scenario are those of
the same scenario with fewer tasks. Per-(task, labeler) substreams make the
ranking and graph labels independent of any generation schedule. Everything
is bitwise reproducible from the seed alone.

The per-(task, labeler) streams are not built one by one: ``_streams``
derives the Philox keys of every path in one array pass over the
SeedSequence hash and computes uniform draws for all of them at once with
the Philox4x64-10 counter function, bit-identical to ``substream(seed,
*path)``'s; ``substream`` itself serves the one-stream kinds.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from . import mallows
from ._streams import check_seed, uniforms
from .errors import InvalidArgumentError
from .label_model import FINITE_METRIC, RANKING, REAL_VECTOR, LabelingMatrix
from .metric_spaces import graph_hop_metric

__all__ = [
    "RankingScenario",
    "RegressionScenario",
    "GraphScenario",
    "heterogeneous_thetas",
    "movies_style_thetas",
    "gen_ranking_tasks",
    "gen_regression_tasks",
    "gen_graph_tasks",
    "two_point_population_moments",
    "gen_two_point_tasks",
    "substream",
]


def substream(seed, *path):
    """Deterministic named substream of the scenario seed (see module docstring)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=path)))


def _check_thetas(thetas):
    """Refuse a negative or NaN concentration, naming its labeler; +inf is allowed."""
    bad = [a for a, t in enumerate(thetas) if not t >= 0]
    if bad:
        raise InvalidArgumentError(f"thetas must be >= 0; labeler {bad[0]} has {thetas[bad[0]]}")


@dataclass(frozen=True)
class RankingScenario:
    """n tasks of uniform-random true rankings with per-labeler Mallows concentrations."""

    n: int
    rho: int
    thetas: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        if self.n < 1 or self.rho < 2:
            raise InvalidArgumentError(f"need n >= 1 and rho >= 2, got n={self.n}, rho={self.rho}")
        if len(self.thetas) < 3:
            raise InvalidArgumentError(f"need at least 3 labelers, got {len(self.thetas)}")
        _check_thetas(self.thetas)
        check_seed(self.seed)


@dataclass(frozen=True)
class RegressionScenario:
    """Jointly Gaussian truth and labelers, specified by moments.

    ``accuracies`` is the truth-labeler covariance vector, ``lf_cov`` the
    (symmetric) labeler covariance matrix, ``prior_var`` the truth variance; the
    assembled joint covariance must be positive definite.
    """

    n: int
    accuracies: tuple
    lf_cov: tuple
    prior_var: float
    seed: int

    def __post_init__(self):
        acc = np.atleast_1d(np.asarray(self.accuracies, dtype=np.float64))
        cov = np.asarray(self.lf_cov, dtype=np.float64)
        if self.n < 1:
            raise InvalidArgumentError(f"need n >= 1, got {self.n}")
        check_seed(self.seed)
        m = acc.size
        if cov.shape != (m, m):
            raise InvalidArgumentError(f"lf_cov must be ({m}, {m}), got {cov.shape}")
        if not 0 < self.prior_var < np.inf:
            raise InvalidArgumentError("prior_var must be > 0 and finite")
        if not (np.isfinite(acc).all() and np.isfinite(cov).all()):
            raise InvalidArgumentError("accuracies and lf_cov must be finite")
        if (cov != cov.T).any():  # a Cholesky factor reads one triangle and would drop the other
            raise InvalidArgumentError("lf_cov must be symmetric")
        # the joint covariance is positive definite exactly when this Schur complement is;
        # it is the labelers' conditional covariance, the very matrix gen_regression_tasks factors
        try:
            np.linalg.cholesky(cov - np.outer(acc, acc) / self.prior_var)
        except np.linalg.LinAlgError as exc:
            raise InvalidArgumentError("assembled joint covariance is not positive definite") from exc
        object.__setattr__(self, "accuracies", tuple(acc.tolist()))
        object.__setattr__(self, "lf_cov", tuple(map(tuple, cov.tolist())))


@dataclass(frozen=True)
class GraphScenario:
    """Random connected graph (a spanning tree plus extra edges) with hop metric; labelers pick nodes near the truth."""

    n_nodes: int
    n_edges: int
    n: int
    thetas: tuple
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        max_edges = self.n_nodes * (self.n_nodes - 1) // 2
        if self.n_nodes < 2 or not (self.n_nodes - 1 <= self.n_edges <= max_edges):
            raise InvalidArgumentError(
                f"need n_nodes >= 2 and n_nodes-1 <= n_edges <= {max_edges}, "
                f"got n_nodes={self.n_nodes}, n_edges={self.n_edges}"
            )
        if self.n < 1 or len(self.thetas) < 3:
            raise InvalidArgumentError("need n >= 1 and at least 3 labelers")
        _check_thetas(self.thetas)
        check_seed(self.seed)


def heterogeneous_thetas(seed, n_low=10, n_high=8):
    """Labeler concentrations with a strong quality split: n_low from U(0.1, 0.2), n_high from U(2, 5)."""
    rng = substream(seed, 3)
    low = rng.uniform(0.1, 0.2, size=n_low)
    high = rng.uniform(2.0, 5.0, size=n_high)
    return tuple(np.concatenate([low, high]).tolist())


def movies_style_thetas(m, seed):
    """One third of labelers from U(0.2, 1), the rest from U(0.001, 0.01)."""
    rng = substream(seed, 3)
    n_good = (m + 2) // 3
    good = rng.uniform(0.2, 1.0, size=n_good)
    bad = rng.uniform(0.001, 0.01, size=m - n_good)
    return tuple(np.concatenate([good, bad]).tolist())


def gen_ranking_tasks(scenario):
    """Generate (truth, labels) for a ranking scenario.

    Truth rankings are uniform over S_rho per task; labeler a's output is a
    Mallows draw centered at the task's truth with concentration thetas[a].
    """
    n, rho = scenario.n, scenario.rho
    m = len(scenario.thetas)
    truth = substream(scenario.seed, 1).permuted(np.tile(np.arange(rho, dtype=np.int64), (n, 1)), axis=1)
    u = uniforms(scenario.seed, _labeler_paths(n, m), rho - 1).reshape(n, m, rho - 1)
    labels = mallows._repeated_insertion(scenario.thetas, u, truth)
    return truth, LabelingMatrix(RANKING, labels)


def gen_regression_tasks(scenario):
    """Generate (truth, labels) for a Gaussian scenario.

    Truth is N(0, prior_var); labelers are drawn from the conditional law
    of the assembled joint Gaussian, so the empirical covariance converges
    to the scenario's moments.
    """
    acc = np.asarray(scenario.accuracies)
    cov = np.asarray(scenario.lf_cov)
    m = acc.size
    cond_mean_coef = acc / scenario.prior_var
    cond_cov = cov - np.outer(acc, acc) / scenario.prior_var
    chol = np.linalg.cholesky(cond_cov)
    sd = np.sqrt(scenario.prior_var)
    truth = sd * substream(scenario.seed, 1).standard_normal(scenario.n)
    z = substream(scenario.seed, 2).standard_normal((scenario.n, m))
    # a stack of (m, m) @ (m, 1) products is each row's own matrix-vector product; z @ chol.T,
    # one matrix-matrix product, sums in another order
    labels = cond_mean_coef * truth[:, None] + np.matmul(chol, z[:, :, None])[:, :, 0]
    return truth, LabelingMatrix(REAL_VECTOR, labels)


def _labeler_paths(n, m):
    """The ``(2, task, a)`` substream paths, task-major."""
    tasks, lfs = np.divmod(np.arange(n * m), m)
    return np.stack([np.full(n * m, 2), tasks, lfs], axis=1)


def _sample_graph(scenario):
    """Hop metric of a uniform labeled spanning tree plus uniform extra edges, all from one stream."""
    n_nodes = scenario.n_nodes
    rng = substream(scenario.seed, 0)
    # the tree of a uniform Pruefer code: each code entry in turn is the neighbour of the smallest leaf left
    code = rng.integers(n_nodes, size=n_nodes - 2)
    degree = (np.bincount(code, minlength=n_nodes) + 1).tolist()
    code = code.tolist()
    leaves = [v for v, d in enumerate(degree) if d == 1]  # ascending, so already a heap
    ends = []
    for v in code:
        ends.append(heapq.heappop(leaves))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = ends + leaves[:1], code + leaves[1:]  # the last two leaves share the last edge
    # the free pairs i < j, row-major in an (N, N) mask, are the lexicographic non-tree pairs
    free = np.triu(np.ones((n_nodes, n_nodes), dtype=bool), k=1)
    free[u, v] = free[v, u] = False
    rest = np.flatnonzero(free)
    free.flat[rest[rng.choice(rest.size, size=scenario.n_edges - n_nodes + 1, replace=False)]] = False
    return graph_hop_metric(np.argwhere(np.triu(~free, k=1)), n_nodes)


def gen_graph_tasks(scenario):
    """Generate (space, truth nodes, labels) for a graph scenario.

    The graph is a uniform labeled spanning tree plus ``n_edges - n_nodes + 1``
    extra edges drawn uniformly from the other node pairs: a connected graph
    with that edge count comes with probability proportional to its number
    of spanning trees, not uniformly. Truth nodes are uniform;
    labeler a picks node v with probability proportional to
    exp(-thetas[a] * hops(v, truth)).
    """
    space = _sample_graph(scenario)
    m = len(scenario.thetas)
    n, n_nodes = scenario.n, scenario.n_nodes
    truth = substream(scenario.seed, 1).integers(n_nodes, size=n)
    u = uniforms(scenario.seed, _labeler_paths(n, m), 1).reshape(n, m)
    labels = np.empty((n, m), dtype=np.int64)
    chunk = max(1, 2**20 // (8 * n_nodes))
    hops = space.dist > 0
    for a, theta in enumerate(scenario.thetas):
        # labeler a's categorical CDFs over nodes, row y given center y, in contiguous rows without the last
        # entry: a uniform above every kept entry takes the last node, also where the full CDF ends below 1.
        # The weight of hop distance 0 is exp(0.0) = 1.0, which exp(-theta * 0) is for every finite theta,
        # without the NaN of -inf * 0: a theta of +inf then puts all its mass on the center
        w = np.exp(np.multiply(-theta, space.dist, out=np.zeros_like(space.dist), where=hops))
        cdf = np.ascontiguousarray(np.cumsum(w / w.sum(axis=0, keepdims=True), axis=0).T[:, :-1])
        # each label is searchsorted(cdf[truth], u), the count of its row's entries below u, over chunks
        # of tasks of about 1 MiB of gathered rows
        for lo in range(0, n, chunk):
            part = slice(lo, lo + chunk)
            labels[part, a] = (cdf[truth[part]] < u[part, a, None]).sum(axis=1)
    return space, truth, LabelingMatrix(FINITE_METRIC, labels, space=space)


def two_point_population_moments(cond_probs, p):
    """Population joint and marginal +1 frequencies of the two-point model.

    The model has two truth values with P(Y = y1) = p; labeler a shows +1
    with probability cond_probs[a] when Y = y1 and, by the pair-flip
    symmetry between the centers, with probability 1 - cond_probs[a] when
    Y = y2. Returns (O, l): O[a, b] = P(g_a = 1, g_b = 1) for a != b with
    P(g_a = 1) on the diagonal, and l = P(g = 1) per labeler.
    """
    cond = np.atleast_1d(np.asarray(cond_probs, dtype=np.float64))
    if not 0.0 < p < 1.0:
        raise InvalidArgumentError(f"need 0 < p < 1, got {p}")
    if ((cond < 0) | (cond > 1)).any():
        raise InvalidArgumentError("conditional probabilities must lie in [0, 1]")
    l = p * cond + (1.0 - p) * (1.0 - cond)
    o = p * np.outer(cond, cond) + (1.0 - p) * np.outer(1.0 - cond, 1.0 - cond)
    np.fill_diagonal(o, l)
    return o, l


def gen_two_point_tasks(cond_probs, p, n, d, seed):
    """Sample the two-point model of :func:`two_point_population_moments`.

    Returns (truth, values): truth in {+1, -1} with P(+1) = p, values a
    (n, m, d) array of +-1 coordinates, independent across coordinates given
    the truth.
    """
    cond = np.atleast_1d(np.asarray(cond_probs, dtype=np.float64))
    m = cond.size
    truth = np.where(substream(seed, 1).random(n) < p, 1, -1).astype(np.int64)
    show_plus = np.where(truth[:, None, None] > 0, cond[None, :, None], 1.0 - cond[None, :, None])
    values = np.where(substream(seed, 2).random((n, m, d)) < show_plus, 1, -1).astype(np.int8)
    return truth, values
