"""Aggregation rules: majority vote, weighted rules, Kemeny solvers, Gaussian inference."""

import numpy as np
import pytest
from conftest import brute_force_weighted_kemeny, naive_kendall

from uws import inference as inf
from uws import mallows
from uws import permutations as perm
from uws.errors import (
    ConfigurationError,
    DegenerateWeightsError,
    SingularCovarianceError,
    UseHeuristicError,
)
from uws.metric_spaces import graph_hop_metric


def ranking_problem(labels, weights=None, **kw):
    labels = np.asarray(labels)
    if weights is None:
        weights = np.ones(len(labels))
    return inf.AggregationProblem(labels, weights, inf.RankingSpace(labels.shape[1]), **kw)


def real_problem(values, weights=None, **kw):
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones(len(values))
    return inf.AggregationProblem(values, weights, inf.RealSpace(), **kw)


class TestMajorityVote:
    def test_unanimous_permutations(self):
        p = [2, 0, 3, 1]
        got = inf.majority_vote(ranking_problem([p, p, p]))
        assert got.tolist() == p

    def test_real_values_arithmetic_mean(self):
        assert inf.majority_vote(real_problem([1.0, 2.0, 6.0])) == pytest.approx(3.0)

    def test_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            labels = np.array([rng.permutation(4) for _ in range(5)])
            got = inf.majority_vote(ranking_problem(labels))
            oracle, _ = brute_force_weighted_kemeny(labels, np.ones(5), 4)
            assert got.tolist() == oracle.tolist()

    def test_ignores_problem_weights(self):
        rng = np.random.default_rng(4)
        labels = np.array([rng.permutation(5) for _ in range(4)])
        skewed = inf.majority_vote(ranking_problem(labels, weights=[9.0, 0.1, 0.1, 0.1]))
        uniform = inf.majority_vote(ranking_problem(labels))
        assert skewed.tolist() == uniform.tolist()


class TestWeightedAggregate:
    def test_dominant_weight_returns_that_label(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            labels = np.array([rng.permutation(5) for _ in range(3)])
            got = inf.weighted_aggregate(ranking_problem(labels, weights=[10.0, 0.0, 0.0]))
            assert got.tolist() == labels[0].tolist()

    def test_weighted_mean_on_reals(self):
        got = inf.weighted_aggregate(real_problem([0.0, 4.0], weights=[3.0, 1.0]))
        assert got == pytest.approx(1.0)

    def test_uniform_weights_equal_majority_vote(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            labels = np.array([rng.permutation(5) for _ in range(4)])
            a = inf.weighted_aggregate(ranking_problem(labels, weights=[2.5] * 4))
            b = inf.majority_vote(ranking_problem(labels))
            assert a.tolist() == b.tolist()

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            labels = np.array([rng.permutation(5) for _ in range(4)])
            w = rng.uniform(0.1, 3.0, size=4)
            a = inf.weighted_aggregate(ranking_problem(labels, weights=w))
            b = inf.weighted_aggregate(ranking_problem(labels, weights=17.0 * w))
            assert a.tolist() == b.tolist()

    def test_all_zero_weights(self):
        with pytest.raises(DegenerateWeightsError):
            inf.weighted_aggregate(ranking_problem([[0, 1, 2]], weights=[0.0]))

    def test_negative_weight_clamped(self):
        labels = np.array([[0, 1, 2], [2, 1, 0], [0, 2, 1]])
        got = inf.weighted_aggregate(ranking_problem(labels, weights=[1.0, -5.0, 0.0]))
        assert got.tolist() == [0, 1, 2]

    def test_negative_weight_flip_mode(self):
        # weight -w on a ranking equals weight w on its reversal
        labels = np.array([[0, 1, 2, 3], [3, 1, 0, 2], [2, 0, 3, 1]])
        flipped = inf.weighted_aggregate(
            ranking_problem(labels, weights=[1.0, 1.0, -2.0], negative_weights="flip")
        )
        explicit = np.array([labels[0], labels[1], labels[2][::-1]])
        direct = inf.weighted_aggregate(ranking_problem(explicit, weights=[1.0, 1.0, 2.0]))
        assert flipped.tolist() == direct.tolist()

    def test_weighted_beats_majority_vote_on_heterogeneous_rankings(self):
        # one sharp labeler among noisy ones: weighting must help
        rng = np.random.default_rng(11)
        rho, n = 5, 250
        thetas = np.array([3.0, 0.05, 0.05, 0.05, 0.05])
        dist_w, dist_mv = 0.0, 0.0
        for _ in range(n):
            truth = rng.permutation(rho)
            labels = np.array([
                mallows.sample(mallows.MallowsModel(truth, t), rng) for t in thetas
            ])
            w = inf.weighted_aggregate(ranking_problem(labels, weights=thetas))
            m = inf.majority_vote(ranking_problem(labels))
            dist_w += perm.kendall_tau(w, truth)
            dist_mv += perm.kendall_tau(m, truth)
        assert dist_w < dist_mv

    def test_finite_space_enumerates_nodes(self):
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        problem = inf.AggregationProblem([0, 2, 2], np.array([1.0, 1.0, 1.0]), space)
        assert inf.weighted_aggregate(problem) == 2

    def test_finite_space_tie_breaks_low(self):
        # path 0-1-2-3 with labels {0, 2}: nodes 0, 1, 2 all cost 2
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        problem = inf.AggregationProblem([0, 2], np.array([1.0, 1.0]), space)
        assert inf.weighted_aggregate(problem) == 0

    def test_finite_space_observed_only(self):
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        problem = inf.AggregationProblem(
            [0, 2, 2], np.array([1.0, 1.0, 1.0]), space, candidate_policy="observed_only"
        )
        assert inf.weighted_aggregate(problem) == 2


class TestKemenyExact:
    def test_single_labeler(self):
        got = inf.kemeny_exact([[3, 0, 2, 1]], [1.0], 4)
        assert got.tolist() == [3, 0, 2, 1]

    def test_reversal_tie_breaks_lexicographic(self):
        labels = [[0, 1, 2], [2, 1, 0]]
        got = inf.kemeny_exact(labels, [1.0, 1.0], 3)
        assert got.tolist() == [0, 1, 2]
        # oracle: every candidate ties, so the tie structure is total
        costs = {
            tuple(z): sum(naive_kendall(lab, z) for lab in labels)
            for z in perm.all_permutations(3)
        }
        assert len(set(costs.values())) == 1

    def test_matches_brute_force_weighted(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            labels = np.array([rng.permutation(5) for _ in range(4)])
            w = rng.uniform(0.0, 2.0, size=4)
            got = inf.kemeny_exact(labels, w, 5)
            oracle, oracle_cost = brute_force_weighted_kemeny(labels, w, 5)
            assert got.tolist() == oracle.tolist()

    def test_refuses_large_rho(self):
        labels = [np.arange(9)]
        with pytest.raises(UseHeuristicError):
            inf.kemeny_exact(labels, [1.0], 9)


class TestKemenyLocalSearch:
    def test_unanimous(self):
        p = [4, 1, 0, 3, 2]
        got = inf.kemeny_local_search([p, p, p], [1.0, 1.0, 1.0], 5, restarts=2, seed=0)
        assert got.tolist() == p

    def test_never_worse_than_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            labels = np.array([rng.permutation(12) for _ in range(5)])
            w = rng.uniform(0.1, 2.0, size=5)
            got = inf.kemeny_local_search(labels, w, 12, restarts=4, seed=1)
            obj = lambda z: sum(wi * naive_kendall(lab, z) for wi, lab in zip(w, labels))
            assert obj(got) <= min(obj(lab) for lab in labels) + 1e-9

    def test_restart_monotonicity(self):
        rng = np.random.default_rng(19)
        labels = np.array([rng.permutation(10) for _ in range(6)])
        w = rng.uniform(0.1, 2.0, size=6)
        obj = lambda z: sum(wi * naive_kendall(lab, z) for wi, lab in zip(w, labels))
        one = obj(inf.kemeny_local_search(labels, w, 10, restarts=1, seed=7))
        many = obj(inf.kemeny_local_search(labels, w, 10, restarts=16, seed=7))
        assert many <= one

    def test_close_to_exact(self):
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(30):
            labels = np.array([rng.permutation(6) for _ in range(5)])
            w = rng.uniform(0.1, 2.0, size=5)
            ls = inf.kemeny_local_search(labels, w, 6, restarts=8, seed=3)
            _, exact_cost = brute_force_weighted_kemeny(labels, w, 6)
            obj = sum(wi * naive_kendall(lab, ls) for wi, lab in zip(w, labels))
            if obj <= 1.02 * exact_cost + 1e-9:
                hits += 1
        assert hits >= 28

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(29)
        labels = np.array([rng.permutation(11) for _ in range(5)])
        a = inf.kemeny_local_search(labels, np.ones(5), 11, restarts=6, seed=5)
        b = inf.kemeny_local_search(labels, np.ones(5), 11, restarts=6, seed=5)
        assert a.tolist() == b.tolist()


class TestGaussianConditionalMean:
    def test_single_labeler_scalar_formula(self):
        got = inf.gaussian_conditional_mean([2.0], [0.6], [[1.5]])
        assert got == pytest.approx(0.6 / 1.5 * 2.0)

    def test_identity_covariance(self):
        w = np.array([0.5, 0.3, 0.2])
        vals = np.array([1.0, -2.0, 4.0])
        got = inf.gaussian_conditional_mean(vals, w, np.eye(3))
        assert got == pytest.approx(float(w @ vals))

    def test_population_mse_beats_unweighted_mean(self):
        rng = np.random.default_rng(31)
        acc = np.array([0.9, 0.5, 0.2, 0.1])
        noise = np.array([0.2, 0.6, 1.0, 1.5])
        n = 100_000
        y = rng.standard_normal(n)
        lam = acc[None, :] * y[:, None] + np.sqrt(noise)[None, :] * rng.standard_normal((n, 4))
        cov = np.outer(acc, acc) + np.diag(noise)
        yhat = inf.gaussian_conditional_mean(lam, acc, cov)
        mse_w = np.mean((yhat - y) ** 2)
        mse_mv = np.mean((lam.mean(axis=1) - y) ** 2)
        assert mse_w < mse_mv
        # unbiasedness: mean residual within 3 standard errors of zero
        resid = yhat - y
        assert abs(resid.mean()) < 3 * resid.std() / np.sqrt(n)

    def test_singular_after_ridge(self):
        with pytest.raises(SingularCovarianceError):
            inf.gaussian_conditional_mean([1.0, 1.0], [0.5, 0.5], np.zeros((2, 2)))


class TestAggregateDataset:
    def test_mv_equals_uniform_weighted(self):
        from uws.label_model import RANKING, LabelingMatrix

        rng = np.random.default_rng(37)
        labels = np.array([[rng.permutation(5) for _ in range(4)] for _ in range(20)])
        data = LabelingMatrix(RANKING, labels)
        mv = inf.aggregate_dataset(data, rule="mv")
        wgt = inf.aggregate_dataset(data, weights=np.full(4, 3.0), rule="weighted")
        assert [a.tolist() for a in mv] == [b.tolist() for b in wgt]

    def test_threads_do_not_change_output(self):
        from uws.label_model import RANKING, LabelingMatrix

        rng = np.random.default_rng(41)
        labels = np.array([[rng.permutation(9) for _ in range(4)] for _ in range(12)])
        data = LabelingMatrix(RANKING, labels)
        seq = inf.aggregate_dataset(data, rule="mv", seed=2, threads=1)
        par = inf.aggregate_dataset(data, rule="mv", seed=2, threads=4)
        assert [a.tolist() for a in seq] == [b.tolist() for b in par]

    def test_mv_on_reals_is_the_plain_mean(self):
        from uws.label_model import REAL_VECTOR, LabelingMatrix

        labels = np.random.default_rng(43).normal(size=(30, 5))
        data = LabelingMatrix(REAL_VECTOR, labels)
        np.testing.assert_allclose(inf.aggregate_dataset(data, rule="mv"), labels.mean(axis=1), rtol=1e-12)
        # among observed labels, the one nearest the mean minimizes the squared-distance sum
        nearest = np.abs(labels - labels.mean(axis=1, keepdims=True)).argmin(axis=1)
        got = inf.aggregate_dataset(data, rule="mv", candidate_policy="observed_only")
        np.testing.assert_array_equal(got, labels[np.arange(30), nearest])

    def test_weighted_reals_without_accuracies_use_precision_weights(self):
        from uws import synthetic as syn
        from uws.label_model import learn_label_model

        # unbiased labelers, no SecondMomentPrior: the isotropic route leaves accuracies unknown
        noise = np.array([0.2, 0.4, 0.6, 0.9, 1.2])
        cov = np.ones((5, 5)) + np.diag(noise)
        scenario = syn.RegressionScenario(n=4000, accuracies=(1.0,) * 5, lf_cov=tuple(map(tuple, cov)),
                                          prior_var=1.0, seed=47)
        truth, data = syn.gen_regression_tasks(scenario)
        model = learn_label_model(data, path="isotropic")
        assert np.isnan(model.accuracies).all()
        got = np.array(inf.aggregate_dataset(data, model=model))
        assert np.isfinite(got).all()
        # lambda . Theta 1 / 1' Theta 1, Theta the inverse of the error covariance
        # rebuilt from pair distances counted pair by pair
        lam = data.labels[:, :, 0]
        md = model.expected_distances
        err = np.empty((5, 5))
        for a in range(5):
            for b in range(5):
                err[a, b] = md[a] if a == b else 0.5 * (md[a] + md[b] - np.mean((lam[:, a] - lam[:, b]) ** 2))
        theta = np.linalg.inv(err)
        np.testing.assert_allclose(got, lam @ theta.sum(axis=0) / theta.sum(), rtol=1e-9, atol=1e-12)
        assert np.mean((got - truth) ** 2) < np.mean((lam.mean(axis=1) - truth) ** 2)

    def test_unknown_rule(self):
        from uws.label_model import RANKING, LabelingMatrix

        data = LabelingMatrix(RANKING, np.tile(np.arange(3), (4, 3, 1)))
        with pytest.raises(ConfigurationError):
            inf.aggregate_dataset(data, rule="plurality")
