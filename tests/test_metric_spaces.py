"""Finite metric spaces, MDS, and distortion."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_check_metric, reference_graph_hop_metric
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from uws import io as uio
from uws import label_model as lm
from uws import metric_spaces as ms
from uws import permutations as perm
from uws.cli import main
from uws.errors import (
    DisconnectedGraphError,
    DomainError,
    InvalidArgumentError,
    InvalidMetricError,
)


def random_connected_graph(n_nodes, extra_edges, rng):
    """Random spanning tree plus extra edges: connected by construction."""
    edges = set()
    order = rng.permutation(n_nodes)
    for k in range(1, n_nodes):
        u = order[k]
        v = order[rng.integers(0, k)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < n_nodes - 1 + extra_edges:
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


class TestFiniteMetricSpace:
    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidMetricError):
            ms.FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidMetricError):
            ms.FiniteMetricSpace(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(InvalidMetricError):
            ms.FiniteMetricSpace(d)

    def test_accepts_valid_metric(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert ms.FiniteMetricSpace(d).size == 3

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (2, 1)])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_rejects_nan(self, i, j, mirrored):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[i, j] = np.nan
        if mirrored:
            d[j, i] = np.nan
        with pytest.raises(InvalidMetricError, match="NaN"):
            ms.FiniteMetricSpace(d)


def _perturbed(dist, how, i, j, k, delta):
    """A copy of a metric broken one way; every break exceeds the 1e-9 tolerance."""
    d = dist.copy()
    if how == "asymmetric":
        d[i, j] += delta
    elif how == "diagonal":
        d[i, i] = delta
    elif how == "negative":
        d[i, j] = d[j, i] = -delta
    else:  # the direct i-j distance exceeds the path through k by delta
        d[i, j] = d[j, i] = d[i, k] + d[k, j] + delta
    return d


class TestRejectsNonMetrics:
    @settings(max_examples=60, deadline=None)
    @given(how=st.sampled_from(["asymmetric", "diagonal", "negative", "triangle"]),
           n_nodes=st.integers(3, 9), extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
           delta=st.floats(1e-8, 50.0))
    def test_perturbed_hop_metric(self, how, n_nodes, extra, seed, delta):
        rng = np.random.default_rng(seed)
        extra = min(extra, (n_nodes - 1) * (n_nodes - 2) // 2)  # a complete graph has no room for more
        space = ms.graph_hop_metric(random_connected_graph(n_nodes, extra, rng), n_nodes)
        i, j, k = rng.choice(n_nodes, size=3, replace=False)
        bad = _perturbed(space.dist, how, i, j, k, delta)
        with pytest.raises(InvalidMetricError):
            ms.FiniteMetricSpace(bad)
        # the same matrix as a dataset's space.csv: infer exits with a validation error
        data = lm.LabelingMatrix(lm.FINITE_METRIC, rng.integers(0, n_nodes, size=(4, 3)), space=space)
        with tempfile.TemporaryDirectory() as tmp:
            uio.write_dataset(Path(tmp) / "dataset.csv", data)
            uio.write_csv(Path(tmp) / "space.csv", None, [[repr(float(v)) for v in row] for row in bad])
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["infer", "--dataset", tmp, "--out", str(Path(tmp) / "out"), "--rule", "mv"])
        assert code == 2
        assert "space.csv" in err.getvalue()


def _refusal(check, d):
    """The InvalidMetricError message ``check(d)`` raises, or None if it accepts ``d``."""
    try:
        check(d)
    except InvalidMetricError as exc:
        return str(exc)
    return None


EDGES = [1, 63, 64, 127, 128, 255, 256, 16383, 16384, 32767, 32768, 2**31, 2**52]


@st.composite
def _integer_matrices(draw):
    """Symmetric integer matrices with a zero diagonal and entries up to a dtype edge:
    metrics (a shortest-path closure) or not, then one pair maybe set to the edge."""
    n, top = draw(st.integers(1, 8)), draw(st.sampled_from(EDGES))
    w = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(1, top))).astype(np.float64)
    d = np.minimum(w, w.T)
    np.fill_diagonal(d, 0.0)
    if draw(st.booleans()):
        for k in range(n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if i != j and draw(st.booleans()):
        d[i, j] = d[j, i] = top
    return d


class TestExactIntegerTriangleCheck:
    """On integer matrices the triangle check runs in the smallest unsigned type without the
    tolerance; it must accept, refuse and name the first midpoint k as the float64 check does."""

    @settings(max_examples=200, deadline=None)
    @given(d=_integer_matrices())
    def test_integer_matrices(self, d):
        ints = ms._small_ints(d)
        assert ints is not None and ints.dtype == np.min_scalar_type(int(2 * d.max()))
        assert _refusal(ms.FiniteMetricSpace, d) == _refusal(reference_check_metric, d)

    @settings(max_examples=200, deadline=None)
    @given(points=hnp.arrays(np.float64, st.integers(3, 7), elements=st.floats(-100, 100)),
           integral=st.booleans(), delta=st.floats(-3e-9, 3e-9), pick=st.permutations(range(3)),
           infinite=st.booleans())
    def test_near_tolerance_and_infinite(self, points, integral, delta, pick, infinite):
        # a violation of about the 1e-9 tolerance, on real or integer points, or an infinite pair
        points = np.floor(points) if integral else points
        d = np.abs(points[:, None] - points[None, :])
        i, j, k = pick
        d[i, j] = d[j, i] = np.inf if infinite else d[i, k] + d[k, j] + delta
        assert _refusal(ms.FiniteMetricSpace, d) == _refusal(reference_check_metric, d)

    @pytest.mark.parametrize("top,dtype", [
        (0, np.uint8), (63, np.uint8), (64, np.uint8), (127, np.uint8), (128, np.uint16), (16383, np.uint16),
        (16384, np.uint16), (32767, np.uint16), (32768, np.uint32), (2**52, np.uint64),
    ])
    def test_smallest_type_holding_a_sum(self, top, dtype):
        assert ms._small_ints(np.array([[0.0, top], [top, 0.0]])).dtype == dtype

    @pytest.mark.parametrize("entry", [0.5, 1 + 2**-40, np.inf, np.nan, 2.0**52 + 2])
    def test_other_matrices_check_in_float64(self, entry):
        assert ms._small_ints(np.array([[0.0, entry], [entry, 0.0]])) is None

    def test_hop_metric_checks_in_bytes(self):
        space = ms.graph_hop_metric([(k, (k + 1) % 9) for k in range(9)], 9)
        assert ms._small_ints(space.dist).dtype == np.uint8


class TestGraphHopMetric:
    def test_path_graph(self):
        space = ms.graph_hop_metric([(0, 1), (1, 2)], 3)
        assert space.dist[0, 2] == 2
        assert space.dist[0, 1] == 1

    def test_complete_graph(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        space = ms.graph_hop_metric(edges, 4)
        off = space.dist[~np.eye(4, dtype=bool)]
        assert (off == 1).all()

    def test_disconnected_graph(self):
        with pytest.raises(DisconnectedGraphError):
            ms.graph_hop_metric([(0, 1)], 3)

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(42)
        edges = random_connected_graph(50, 60, rng)
        space = ms.graph_hop_metric(edges, 50)
        adj = np.zeros((50, 50))
        for u, v in edges:
            adj[u, v] = adj[v, u] = 1
        oracle = shortest_path(csr_matrix(adj), unweighted=True)
        np.testing.assert_array_equal(space.dist, oracle)

    def test_integer_valued_and_exact_triangle(self):
        rng = np.random.default_rng(7)
        space = ms.graph_hop_metric(random_connected_graph(20, 15, rng), 20)
        assert (space.dist == space.dist.astype(int)).all()
        d = space.dist
        assert (d[:, :, None] + d[None, :, :].transpose(1, 0, 2) >= 0).all()  # sanity on shapes
        for k in range(20):
            assert (d <= d[:, k, None] + d[None, k, :]).all()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda nodes: st.tuples(
        st.just(nodes),
        # duplicates, self-loops and isolated nodes arise at random
        st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)), max_size=3 * nodes),
        # now and then one endpoint outside 0..n_nodes-1
        st.none() | st.tuples(st.integers(0, 3 * nodes), st.sampled_from([-1, nodes]), st.integers(0, nodes - 1)),
    )))
    def test_matches_per_source_reference(self, graph):
        n_nodes, edges, bad = graph
        if bad is not None:
            edges.insert(bad[0], bad[1:])
        try:
            want = reference_graph_hop_metric(edges, n_nodes)
        except (InvalidArgumentError, DisconnectedGraphError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                ms.graph_hop_metric(edges, n_nodes)
            return
        got = ms.graph_hop_metric(edges, n_nodes)
        assert got.dist.dtype == want.dist.dtype
        np.testing.assert_array_equal(got.dist, want.dist)

    def test_revalidates_through_the_public_constructor(self):
        # graph_hop_metric skips the triangle check: its distances must pass it
        rng = np.random.default_rng(59)
        for n_nodes, extra in ((1, 0), (2, 0), (30, 10), (150, 300)):
            space = ms.graph_hop_metric(random_connected_graph(n_nodes, extra, rng), n_nodes)
            again = ms.FiniteMetricSpace(space.dist)
            assert again.dist.dtype == space.dist.dtype == np.float64
            np.testing.assert_array_equal(again.dist, space.dist)

    def test_single_node_and_chunked_sources(self):
        np.testing.assert_array_equal(ms.graph_hop_metric([], 1).dist, [[0.0]])
        np.testing.assert_array_equal(ms.graph_hop_metric([(0, 0), (0, 0)], 1).dist, [[0.0]])
        # a hub of degree 150 and a path of 50 hops: sources split over
        # several chunks, and many levels
        edges = [(0, k) for k in range(1, 151)] + [(k, k + 1) for k in range(150, 199)]
        np.testing.assert_array_equal(ms.graph_hop_metric(edges, 200).dist,
                                      reference_graph_hop_metric(edges, 200).dist)


class TestClassicalMds:
    def test_collinear_points_exact(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        report = ms.classical_mds(ms.FiniteMetricSpace(d), dim=1)
        assert report.epsilon <= 1e-9
        got = np.abs(report.coords[:, 0] - report.coords[0, 0])
        np.testing.assert_allclose(sorted(got), [0.0, 1.0, 2.0], atol=1e-9)

    def test_equilateral_triangle(self):
        d = np.ones((3, 3)) - np.eye(3)
        report = ms.classical_mds(ms.FiniteMetricSpace(d), dim=2)
        assert report.epsilon <= 1e-9
        diffs = report.coords[[0, 0, 1]] - report.coords[[1, 2, 2]]
        sides = np.linalg.norm(diffs, axis=1)
        np.testing.assert_allclose(sides, 1.0, atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_euclidean_realizable_recovery(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.normal(size=(12, dim))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        space = ms.FiniteMetricSpace(d)
        report = ms.classical_mds(space, dim=dim)
        emb = np.linalg.norm(report.coords[:, None] - report.coords[None, :], axis=-1)
        mask = ~np.eye(12, dtype=bool)
        np.testing.assert_allclose(emb[mask], d[mask], rtol=1e-6)

    def test_full_rank_exactness(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(7, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        report = ms.classical_mds(ms.FiniteMetricSpace(d), dim=6)
        assert report.epsilon <= 1e-9

    def test_epsilon_monotone_in_dim(self):
        rng = np.random.default_rng(9)
        edges = random_connected_graph(15, 12, rng)
        space = ms.graph_hop_metric(edges, 15)
        reports = [ms.classical_mds(space, dim=k) for k in range(1, 15)]
        # the worst raw contraction ratio is exactly monotone in dim; after the
        # max-ratio normalization epsilon can wobble by the growth of the
        # normalization constant itself, so it is checked with a small slack
        iu, ju = np.triu_indices(15, k=1)
        raw_min = []
        for r in reports:
            emb = np.linalg.norm(r.coords[iu] - r.coords[ju], axis=1) * r.scale
            raw_min.append((emb / space.dist[iu, ju]).min())
        for low, high in zip(raw_min, raw_min[1:]):
            assert high >= low - 1e-12
        eps = [r.epsilon for r in reports]
        for low, high in zip(eps[1:], eps[:-1]):
            assert high >= low - 0.01

    def test_deterministic_coordinates(self):
        rng = np.random.default_rng(13)
        space = ms.graph_hop_metric(random_connected_graph(12, 10, rng), 12)
        a = ms.classical_mds(space, dim=3)
        b = ms.classical_mds(space, dim=3)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_normalization_never_expands(self):
        rng = np.random.default_rng(17)
        space = ms.graph_hop_metric(random_connected_graph(18, 14, rng), 18)
        report = ms.classical_mds(space, dim=2)
        emb = np.linalg.norm(report.coords[:, None] - report.coords[None, :], axis=-1)
        iu, ju = np.triu_indices(18, k=1)
        ratios = emb[iu, ju] / space.dist[iu, ju]
        assert ratios.max() <= 1.0 + 1e-12
        assert ms.distortion(space, report.coords) == pytest.approx(report.epsilon, abs=1e-12)

    def test_rejects_bad_dim(self):
        d = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(InvalidArgumentError):
            ms.classical_mds(ms.FiniteMetricSpace(d), dim=3)


class TestDistortion:
    def test_isometric_embedding(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        d = np.abs(pts - pts.T)
        assert ms.distortion(ms.FiniteMetricSpace(d), pts) == pytest.approx(0.0, abs=1e-12)

    def test_halved_pair(self):
        # original 1-d layout (0, 1, 3); embedding (0, 1, 2) halves the (1, 2) pair
        orig = np.array([[0.0], [1.0], [3.0]])
        d = np.abs(orig - orig.T)
        coords = np.array([[0.0], [1.0], [2.0]])
        assert ms.distortion(ms.FiniteMetricSpace(d), coords) == pytest.approx(0.5)

    @pytest.mark.parametrize("rho", [2, 3, 4, 5, 6])
    def test_pair_sign_embedding_isometric_exhaustive(self, rho):
        perms = perm.all_permutations(rho)
        g = perm.pair_sign_embed_many(perms).astype(np.float64)
        c2 = perm.num_pairs(rho)
        dist = (c2 - g @ g.T) / 2.0
        space = ms.FiniteMetricSpace(dist)
        assert ms.distortion(space, g, metric_exponent=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_distance_between_distinct_points(self):
        d = np.zeros((2, 2))
        coords = np.array([[0.0], [1.0]])
        with pytest.raises(InvalidMetricError):
            ms.distortion(ms.FiniteMetricSpace(d), coords)


class TestDistortionBound:
    def test_isometric_case(self):
        assert ms.distortion_bound(0.0, 7.3, 1.4) == 0.0

    def test_arithmetic(self):
        assert ms.distortion_bound(0.1, 5.0, 2.0) == pytest.approx(0.25)

    def test_linearity(self):
        base = ms.distortion_bound(0.2, 3.0, 1.5)
        assert ms.distortion_bound(0.4, 3.0, 1.5) == pytest.approx(2 * base)

    def test_rejects_bad_emin(self):
        with pytest.raises(DomainError):
            ms.distortion_bound(0.1, 1.0, 0.0)
