"""Synthetic scenario generators: distributions, determinism, presets."""

import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from conftest import reference_gen_graph_tasks, reference_gen_ranking_tasks, reference_gen_regression_tasks
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from uws import cli, mallows
from uws import permutations as perm
from uws import synthetic as syn
from uws.errors import InvalidArgumentError


class TestRankingScenario:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            syn.RankingScenario(n=10, rho=5, thetas=(1.0, 1.0), seed=0)
        with pytest.raises(InvalidArgumentError):
            syn.RankingScenario(n=10, rho=5, thetas=(1.0, -1.0, 1.0), seed=0)
        with pytest.raises(InvalidArgumentError, match="labeler 1 has nan"):
            syn.RankingScenario(n=10, rho=5, thetas=(1.0, float("nan"), 0.5), seed=0)
        assert syn.RankingScenario(n=10, rho=5, thetas=(1.0, float("inf"), 0.5), seed=0).thetas[1] == float("inf")

    def test_near_degenerate_labelers_copy_truth(self):
        s = syn.RankingScenario(n=1000, rho=5, thetas=(50.0, 50.0, 50.0), seed=7)
        truth, data = syn.gen_ranking_tasks(s)
        agree = (data.labels == truth[:, None, :]).all(axis=2)
        assert agree.mean() >= 0.999

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_theta_labeler_is_the_truth(self):
        # +inf is the point mass at the center: exp(-inf * 0) must not enter the insertion CDFs as NaN
        s = syn.RankingScenario(n=500, rho=8, thetas=(float("inf"), 1.0, 0.5), seed=3)
        truth, data = syn.gen_ranking_tasks(s)
        assert (data.labels[:, 0] == truth).all()
        assert not (data.labels[:, 1] == truth).all()

    def test_same_seed_bitwise_identical(self):
        s = syn.RankingScenario(n=200, rho=6, thetas=(1.5, 1.0, 0.5), seed=11)
        t1, d1 = syn.gen_ranking_tasks(s)
        t2, d2 = syn.gen_ranking_tasks(s)
        assert (t1 == t2).all() and (d1.labels == d2.labels).all()

    def test_different_seeds_differ(self):
        a = syn.gen_ranking_tasks(syn.RankingScenario(n=50, rho=6, thetas=(1.0,) * 3, seed=1))
        b = syn.gen_ranking_tasks(syn.RankingScenario(n=50, rho=6, thetas=(1.0,) * 3, seed=2))
        assert (a[0] != b[0]).any()

    def test_empirical_mean_distance_matches_closed_form(self):
        thetas = (2.0, 1.0, 0.5)
        s = syn.RankingScenario(n=50_000, rho=6, thetas=thetas, seed=3)
        truth, data = syn.gen_ranking_tasks(s)
        for a, theta in enumerate(thetas):
            mean_d = perm.kendall_tau_many(data.labels[:, a, :], truth).mean()
            target = mallows.expected_distance(theta, 6)
            assert abs(mean_d - target) < 0.02 * target

    def test_truth_uniform(self):
        s = syn.RankingScenario(n=24_000, rho=3, thetas=(1.0,) * 3, seed=5)
        truth, _ = syn.gen_ranking_tasks(s)
        _, counts = np.unique(truth, axis=0, return_counts=True)
        assert len(counts) == 6
        chi2 = (((counts - 4000.0) ** 2) / 4000.0).sum()
        assert chi2 < stats.chi2.ppf(0.999, 5)


class TestRegressionScenario:
    def test_rejects_non_pd_joint(self):
        with pytest.raises(InvalidArgumentError):
            syn.RegressionScenario(
                n=10, accuracies=(2.0, 0.0), lf_cov=((1.0, 0.0), (0.0, 1.0)),
                prior_var=1.0, seed=0,
            )

    def test_accepted_exactly_when_generation_can_factor_it(self):
        # joint positive definite in float64, its Schur complement (all ones) not: generation cannot factor it
        with pytest.raises(InvalidArgumentError, match="assembled joint covariance is not positive definite"):
            syn.RegressionScenario(n=5, accuracies=(0.9, 0.6), lf_cov=((1.81, 1.54), (1.54, 1.3599999999999999)),
                                   prior_var=1.0, seed=1)
        # near-singular scenarios (signal plus rank-one noise): every one accepted generates
        rng = np.random.default_rng(0)
        accepted = 0
        for _ in range(200):
            m = int(rng.integers(2, 5))
            acc, v = rng.uniform(-1.0, 1.0, (2, m)).round(2)
            prior_var = float(rng.choice([0.5, 1.0, 2.0]))
            cov = np.outer(acc, acc) / prior_var + np.outer(v, v)
            try:
                s = syn.RegressionScenario(n=1, accuracies=tuple(acc), lf_cov=tuple(map(tuple, cov)),
                                           prior_var=prior_var, seed=0)
            except InvalidArgumentError:
                continue
            accepted += 1
            syn.gen_regression_tasks(s)
        assert accepted >= 20

    def test_refuses_asymmetric_lf_cov(self):
        # generation factors one triangle: the stated 0.9 covariance would come out as about 0
        with pytest.raises(InvalidArgumentError, match="lf_cov must be symmetric"):
            syn.RegressionScenario(n=5, accuracies=(0.5, 0.5), lf_cov=((1.0, 0.9), (0.0, 1.0)), prior_var=1.0, seed=1)
        syn.RegressionScenario(n=5, accuracies=(0.5, 0.5), lf_cov=((1.0, 0.9), (0.9, 1.0)), prior_var=1.0, seed=1)

    @pytest.mark.parametrize("field, value", [
        ("prior_var", np.nan), ("prior_var", np.inf), ("prior_var", 0.0),
        ("accuracies", (0.5, np.nan, 0.5)), ("lf_cov", np.diag([1.0, np.inf, 1.0])),
    ])
    def test_refuses_non_finite_moments(self, field, value):
        fields = {"n": 5, "accuracies": (0.5, 0.5, 0.5), "lf_cov": np.eye(3) + 0.25, "prior_var": 1.0, "seed": 1}
        with pytest.raises(InvalidArgumentError, match="prior_var must be > 0 and finite|must be finite"):
            syn.RegressionScenario(**{**fields, field: value})

    def test_zero_signal(self):
        s = syn.RegressionScenario(n=5000, accuracies=(0.0, 0.0, 0.0),
                                   lf_cov=tuple(map(tuple, np.eye(3))), prior_var=1.0, seed=1)
        truth, data = syn.gen_regression_tasks(s)
        corr = np.corrcoef(np.c_[data.labels[:, :, 0], truth].T)[-1, :-1]
        assert np.abs(corr).max() < 0.05

    def test_empirical_moments_match_scenario(self):
        acc = np.array([0.8, 0.5, 0.2])
        noise = np.array([0.4, 0.7, 1.0])
        cov = np.outer(acc, acc) + np.diag(noise)
        s = syn.RegressionScenario(n=100_000, accuracies=tuple(acc),
                                   lf_cov=tuple(map(tuple, cov)), prior_var=1.0, seed=2)
        truth, data = syn.gen_regression_tasks(s)
        lam = data.labels[:, :, 0]
        n = s.n
        # cross moments with the truth, within 3 standard errors
        for a in range(3):
            emp = (lam[:, a] * truth).mean()
            se = np.std(lam[:, a] * truth) / np.sqrt(n)
            assert abs(emp - acc[a]) < 3 * se
        # labeler covariance entries
        emp_cov = (lam.T @ lam) / n
        assert np.abs(emp_cov - cov).max() < 0.03

    def test_conditional_mean_slope(self):
        acc = np.array([0.9, 0.4, 0.1])
        cov = np.outer(acc, acc) + np.diag([0.3, 0.3, 0.3])
        s = syn.RegressionScenario(n=50_000, accuracies=tuple(acc),
                                   lf_cov=tuple(map(tuple, cov)), prior_var=1.0, seed=3)
        truth, data = syn.gen_regression_tasks(s)
        for a in range(3):
            slope = np.polyfit(truth, data.labels[:, a, 0], 1)[0]
            assert slope == pytest.approx(acc[a], abs=0.02)

    def test_deterministic(self):
        s = syn.RegressionScenario(n=100, accuracies=(0.5, 0.5, 0.5),
                                   lf_cov=tuple(map(tuple, np.eye(3) + 0.25)), prior_var=1.0, seed=4)
        a = syn.gen_regression_tasks(s)
        b = syn.gen_regression_tasks(s)
        assert (a[0] == b[0]).all() and (a[1].labels == b[1].labels).all()


class TestGraphScenario:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            syn.GraphScenario(n_nodes=5, n_edges=3, n=10, thetas=(1.0,) * 3, seed=0)
        with pytest.raises(InvalidArgumentError):
            syn.GraphScenario(n_nodes=5, n_edges=30, n=10, thetas=(1.0,) * 3, seed=0)
        with pytest.raises(InvalidArgumentError, match="labeler 2 has nan"):
            syn.GraphScenario(n_nodes=5, n_edges=6, n=10, thetas=(1.0, 0.5, float("nan")), seed=0)
        with pytest.raises(InvalidArgumentError, match="labeler 0 has -0.5"):
            syn.GraphScenario(n_nodes=5, n_edges=6, n=10, thetas=(-0.5, 1.0, 1.0), seed=0)

    def test_degenerate_labelers_copy_truth(self):
        s = syn.GraphScenario(n_nodes=12, n_edges=20, n=400, thetas=(50.0, 50.0, 50.0), seed=1)
        _, truth, data = syn.gen_graph_tasks(s)
        assert (data.labels == truth[:, None]).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_theta_labeler_is_the_truth(self):
        # +inf is the point mass at the center; a NaN weight at hop distance 0 once sent every label to node 0
        s = syn.GraphScenario(n_nodes=30, n_edges=60, n=500, thetas=(float("inf"), 1.0, 0.5), seed=3)
        _, truth, data = syn.gen_graph_tasks(s)
        assert (data.labels[:, 0] == truth).all()
        assert not (data.labels[:, 1] == truth).all()

    def test_truth_uniform_over_nodes(self):
        s = syn.GraphScenario(n_nodes=20, n_edges=40, n=20_000, thetas=(1.0,) * 3, seed=5)
        _, truth, _ = syn.gen_graph_tasks(s)
        counts = np.bincount(truth, minlength=20)
        assert len(counts) == 20
        chi2 = (((counts - 1000.0) ** 2) / 1000.0).sum()
        assert chi2 < stats.chi2.ppf(0.999, 19)

    def test_zero_theta_uniform_over_nodes(self):
        s = syn.GraphScenario(n_nodes=20, n_edges=40, n=34_000, thetas=(0.0, 0.0, 0.0), seed=2)
        _, _, data = syn.gen_graph_tasks(s)
        draws = data.labels.ravel()  # all three labelers are uniform
        counts = np.bincount(draws, minlength=20)
        expected = draws.size / 20
        chi2 = (((counts - expected) ** 2) / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, 19)

    def test_path_graph_categorical_frequencies(self):
        # one random tree (n_edges = n_nodes - 1): the exact conditional law is exp(-theta * hops) / Z;
        # the pooled conditional total variation over >= 1e5 draws stays small
        s = syn.GraphScenario(n_nodes=10, n_edges=9, n=35_000, thetas=(1.0, 1.0, 1.0), seed=3)
        space, truth, data = syn.gen_graph_tasks(s)
        w = np.exp(-1.0 * space.dist)
        probs = (w / w.sum(axis=0, keepdims=True)).T  # row y: P(node | center y)
        counts = np.zeros((space.size, space.size))
        np.add.at(counts, (np.repeat(truth, 3), data.labels.ravel()), 1.0)
        row_tot = counts.sum(axis=1, keepdims=True)
        tv_per_center = 0.5 * np.abs(counts / row_tot - probs).sum(axis=1)
        pooled = float((row_tot[:, 0] / row_tot.sum()) @ tv_per_center)
        assert pooled < 0.01

    def test_uniform_past_a_cdf_that_ends_below_one_takes_the_last_node(self, monkeypatch):
        # on this graph many (labeler, center) CDF rows sum to just below 1, under the largest uniform
        s = syn.GraphScenario(n_nodes=200, n_edges=1000, n=100, thetas=syn.heterogeneous_thetas(1), seed=1)
        top = np.nextafter(1.0, 0.0)
        monkeypatch.setattr(syn, "uniforms", lambda seed, paths, count: np.full((len(paths), count), top))
        space, truth, data = syn.gen_graph_tasks(s)
        ends = []
        for theta in s.thetas:
            w = np.exp(-theta * space.dist)
            ends.append(np.cumsum(w / w.sum(axis=0, keepdims=True), axis=0)[-1])
        ends_below = np.stack(ends)[:, truth].T < top
        assert ends_below.sum() > 100
        assert (data.labels[ends_below] == 199).all()
        assert ((0 <= data.labels) & (data.labels < 200)).all()

    def test_generation_memory_does_not_grow_with_labelers(self):
        # each labeler's CDF rows are built and read in its own pass, never held for every labeler at once
        def peak(m):
            s = syn.GraphScenario(n_nodes=300, n_edges=1500, n=400, thetas=np.linspace(0.1, 3.0, m), seed=6)
            tracemalloc.start()
            try:
                syn.gen_graph_tasks(s)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(18) <= 1.5 * peak(3)

    def test_deterministic(self):
        s = syn.GraphScenario(n_nodes=15, n_edges=25, n=60, thetas=(2.0, 1.0, 0.5), seed=5)
        a = syn.gen_graph_tasks(s)
        b = syn.gen_graph_tasks(s)
        assert (a[0].dist == b[0].dist).all()
        assert (a[1] == b[1]).all() and (a[2].labels == b[2].labels).all()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
@pytest.mark.parametrize("make", [
    lambda seed: syn.RankingScenario(n=10, rho=5, thetas=(1.0, 1.0, 1.0), seed=seed),
    lambda seed: syn.RegressionScenario(n=5, accuracies=(0.5, 0.5), lf_cov=((1.0, 0.9), (0.9, 1.0)),
                                        prior_var=1.0, seed=seed),
    lambda seed: syn.GraphScenario(n_nodes=5, n_edges=6, n=10, thetas=(1.0,) * 3, seed=seed),
], ids=["ranking", "regression", "graph"])
def test_scenario_refuses_a_seed_that_is_not_a_non_negative_integer(make, seed):
    # a SeedSequence takes no other entropy: generation would fail with numpy's own error
    with pytest.raises(InvalidArgumentError, match="seed must be a non-negative integer"):
        make(seed)
    assert make(np.int64(3)).seed == 3 and make(0).seed == 0


class TestPresets:
    def test_heterogeneous_split(self):
        thetas = np.array(syn.heterogeneous_thetas(seed=9))
        assert thetas.shape == (18,)
        assert ((thetas[:10] >= 0.1) & (thetas[:10] <= 0.2)).all()
        assert ((thetas[10:] >= 2.0) & (thetas[10:] <= 5.0)).all()

    def test_movies_style_split(self):
        thetas = np.array(syn.movies_style_thetas(18, seed=9))
        assert thetas.shape == (18,)
        assert ((thetas[:6] >= 0.2) & (thetas[:6] <= 1.0)).all()
        assert ((thetas[6:] >= 0.001) & (thetas[6:] <= 0.01)).all()

    def test_preset_deterministic(self):
        assert syn.heterogeneous_thetas(seed=4) == syn.heterogeneous_thetas(seed=4)


class TestTwoPointModel:
    def test_population_moments_match_samples(self):
        cond = np.array([0.9, 0.7, 0.6])
        p = 0.3
        o, l = syn.two_point_population_moments(cond, p)
        truth, vals = syn.gen_two_point_tasks(cond, p, 200_000, 1, seed=8)
        pos = (vals[:, :, 0] > 0).astype(float)
        np.testing.assert_allclose(pos.mean(axis=0), l, atol=0.005)
        for a in range(3):
            for b in range(a + 1, 3):
                emp = (pos[:, a] * pos[:, b]).mean()
                assert emp == pytest.approx(o[a, b], abs=0.005)

    def test_truth_frequency(self):
        truth, _ = syn.gen_two_point_tasks([0.8, 0.7, 0.6], 0.25, 100_000, 1, seed=9)
        assert (truth > 0).mean() == pytest.approx(0.25, abs=0.01)


def assert_same(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


SEEDS = st.one_of(st.integers(0, 2**32), st.sampled_from([2**64 - 1, 2**130 + 3]))
THETAS = st.lists(st.sampled_from([0.0, 0.001, 0.15, 0.7, 2.0, 50.0]) | st.floats(0.0, 5.0), min_size=3, max_size=6)
# (n_nodes, n_edges) of every graph scenario that validates, up to 12 nodes
GRAPH_SHAPES = st.integers(2, 12).flatmap(lambda nodes: st.tuples(
    st.just(nodes), st.integers(nodes - 1, nodes * (nodes - 1) // 2)))


class TestAgainstReference:
    """The batched generators reproduce the one-substream-per-draw references exactly."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(2, 20), THETAS, SEEDS)
    def test_ranking(self, n, rho, thetas, seed):
        s = syn.RankingScenario(n=n, rho=rho, thetas=thetas, seed=seed)
        (truth, data), (ref_truth, ref_data) = syn.gen_ranking_tasks(s), reference_gen_ranking_tasks(s)
        assert_same(truth, ref_truth)
        assert_same(data.labels, ref_data.labels)

    @pytest.mark.parametrize("rho, thetas", [
        (10, syn.heterogeneous_thetas(5)),
        (7, syn.movies_style_thetas(30, 5)),
    ], ids=["heterogeneous_m18_rho10", "movies_m30_rho7"])
    @pytest.mark.parametrize("seed", [0, 403])
    def test_ranking_at_benchmark_shapes(self, rho, thetas, seed):
        # the benchmark's labeler counts and rho, past the sizes the property test draws
        s = syn.RankingScenario(n=40, rho=rho, thetas=thetas, seed=seed)
        (truth, data), (ref_truth, ref_data) = syn.gen_ranking_tasks(s), reference_gen_ranking_tasks(s)
        assert_same(truth, ref_truth)
        assert_same(data.labels, ref_data.labels)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
           st.floats(0.05, 2.0), st.floats(0.5, 3.0), SEEDS)
    def test_regression(self, n, acc, noise, prior_var, seed):
        acc = np.array(acc)
        cov = np.outer(acc, acc) / prior_var + noise * np.eye(acc.size)
        s = syn.RegressionScenario(n=n, accuracies=tuple(acc), lf_cov=tuple(map(tuple, cov)),
                                   prior_var=prior_var, seed=seed)
        (truth, data), (ref_truth, ref_data) = syn.gen_regression_tasks(s), reference_gen_regression_tasks(s)
        assert_same(truth, ref_truth)
        assert_same(data.labels, ref_data.labels)

    @pytest.mark.parametrize("seed", [0, 403])
    def test_regression_at_benchmark_shape(self, seed):
        # the benchmark's eight labelers, past the five the property test draws, from the scenario
        # uws generate builds of the same file
        payload = {"kind": "regression", "n": 40, "accuracies": [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2],
                   "lf_noise": [0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2], "prior_var": 1.0}
        _, s = cli._scenario(payload, seed, "regression.json")
        (truth, data), (ref_truth, ref_data) = syn.gen_regression_tasks(s), reference_gen_regression_tasks(s)
        assert data.n_lfs == 8
        assert_same(truth, ref_truth)
        assert_same(data.labels, ref_data.labels)

    @settings(max_examples=40, deadline=None)
    @given(GRAPH_SHAPES, st.integers(1, 12), THETAS, SEEDS)
    def test_graph(self, shape, n, thetas, seed):
        n_nodes, n_edges = shape
        s = syn.GraphScenario(n_nodes=n_nodes, n_edges=n_edges, n=n, thetas=thetas, seed=seed)
        got, want = syn.gen_graph_tasks(s), reference_gen_graph_tasks(s)
        assert_same(got[0].dist, want[0].dist)
        assert_same(got[1], want[1])
        assert_same(got[2].labels, want[2].labels)

    @pytest.mark.parametrize("thetas", [syn.heterogeneous_thetas(2)[::3], (0.0, 0.15, 2.0, 50.0)],
                             ids=["heterogeneous_m6", "mixed_m4"])
    def test_graph_past_one_chunk(self, thetas):
        # past the sizes the property test draws: at N=300 a chunk gathers CDF rows of about 436 tasks,
        # so n=500 spans two chunks of every labeler
        s = syn.GraphScenario(n_nodes=300, n_edges=1500, n=500, thetas=thetas, seed=8)
        got, want = syn.gen_graph_tasks(s), reference_gen_graph_tasks(s)
        assert_same(got[0].dist, want[0].dist)
        assert_same(got[1], want[1])
        assert_same(got[2].labels, want[2].labels)


# (n', n): a scenario of n' <= n tasks, and one of n
PREFIX = st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(1, n), st.just(n)))


class TestPrefixStability:
    """With the same seed, a scenario of n' tasks draws the first n' truths and labels of one of n tasks."""

    @settings(max_examples=25, deadline=None)
    @given(PREFIX, st.integers(2, 9), THETAS, SEEDS)
    def test_ranking(self, sizes, rho, thetas, seed):
        short, long = (syn.gen_ranking_tasks(syn.RankingScenario(n=n, rho=rho, thetas=thetas, seed=seed))
                       for n in sizes)
        assert_same(short[0], long[0][: sizes[0]])
        assert_same(short[1].labels, long[1].labels[: sizes[0]])

    @settings(max_examples=25, deadline=None)
    @given(PREFIX, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5), SEEDS)
    def test_regression(self, sizes, acc, seed):
        acc = np.array(acc)
        cov = tuple(map(tuple, np.outer(acc, acc) + 0.5 * np.eye(acc.size)))
        short, long = (syn.gen_regression_tasks(syn.RegressionScenario(
            n=n, accuracies=tuple(acc), lf_cov=cov, prior_var=1.0, seed=seed)) for n in sizes)
        assert_same(short[0], long[0][: sizes[0]])
        assert_same(short[1].labels, long[1].labels[: sizes[0]])

    @settings(max_examples=25, deadline=None)
    @given(PREFIX, GRAPH_SHAPES, THETAS, SEEDS)
    def test_graph(self, sizes, shape, thetas, seed):
        n_nodes, n_edges = shape
        short, long = (syn.gen_graph_tasks(syn.GraphScenario(n_nodes=n_nodes, n_edges=n_edges, n=n,
                                                             thetas=thetas, seed=seed)) for n in sizes)
        assert_same(short[0].dist, long[0].dist)
        assert_same(short[1], long[1][: sizes[0]])
        assert_same(short[2].labels, long[2].labels[: sizes[0]])


def _edges(space):
    """The edge set of a hop-metric space: its node pairs i < j at distance 1."""
    return frozenset(zip(*(ends.tolist() for ends in np.nonzero(np.triu(space.dist == 1)))))


def _graph_scenario(n_nodes, n_edges, seed):
    return syn.GraphScenario(n_nodes=n_nodes, n_edges=n_edges, n=1, thetas=(1.0,) * 3, seed=seed)


class TestGraphStructure:
    """The graph is a uniform labeled spanning tree plus uniform extra edges: every scenario that
    validates generates, and a connected graph with E edges comes with probability proportional to
    its number of spanning trees."""

    @settings(max_examples=10, deadline=None)
    @given(SEEDS)
    def test_every_valid_scenario_generates(self, seed):
        for n_nodes in range(2, 13):
            for n_edges in range(n_nodes - 1, n_nodes * (n_nodes - 1) // 2 + 1):
                space = syn._sample_graph(_graph_scenario(n_nodes, n_edges, seed))
                assert len(_edges(space)) == n_edges
                assert 0 < space.dist.max() < n_nodes  # connected: every hop distance finite

    @pytest.mark.parametrize("n_nodes, n_edges", [(40, 39), (40, 45), (500, 800)])
    def test_sparse_scenarios_generate(self, n_nodes, n_edges):
        # sparse: a uniform edge set of these counts is almost never connected
        space, _, _ = syn.gen_graph_tasks(_graph_scenario(n_nodes, n_edges, seed=1))
        assert len(_edges(space)) == n_edges
        assert 0 < space.dist.max() < n_nodes

    @pytest.mark.parametrize("n_edges", [3, 4])
    def test_law_at_four_nodes(self, n_edges):
        # Cayley's 4^2 = 16 trees, then one of the 3 pairs left: P(G) = tau(G) / 16 at E = 3 (every tree
        # 1/16) and tau(G) / 48 at E = 4 (a 4-cycle 4/48 = 1/12, a triangle with a pendant edge 3/48 = 1/16),
        # tau(G) the spanning trees of G by the matrix-tree theorem
        seeds = 4000
        counts = Counter(_edges(syn._sample_graph(_graph_scenario(4, n_edges, seed))) for seed in range(seeds))
        graphs = [frozenset(g) for g in combinations(combinations(range(4), 2), n_edges)]
        tau = np.array([_spanning_trees(g, 4) for g in graphs])
        prob = tau / (16 * math.comb(3, n_edges - 3))
        connected = tau > 0  # at E = 3 the 4 triangles leave a node out
        assert connected.sum() == (16 if n_edges == 3 else 15) and prob.sum() == pytest.approx(1.0)
        assert sorted(set(prob[connected].tolist())) == ([1 / 16] if n_edges == 3 else [1 / 16, 1 / 12])
        assert set(counts) == {g for g, c in zip(graphs, connected) if c}
        observed = np.array([counts[g] for g, c in zip(graphs, connected) if c])
        expected = seeds * prob[connected]
        assert ((observed - expected) ** 2 / expected).sum() < stats.chi2.ppf(0.999, len(observed) - 1)


def _spanning_trees(edges, n_nodes):
    """Kirchhoff's matrix-tree theorem: a cofactor of the graph Laplacian."""
    laplacian = np.zeros((n_nodes, n_nodes))
    for i, j in edges:
        laplacian[[i, j], [i, j]] += 1
        laplacian[[i, j], [j, i]] -= 1
    return round(np.linalg.det(laplacian[1:, 1:]))
