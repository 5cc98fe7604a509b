"""Aggregation rules through aggregate_dataset, the Kemeny solvers, Gaussian inference."""

from fractions import Fraction
from itertools import permutations as iter_permutations

import numpy as np
import pytest
from conftest import (
    brute_force_weighted_kemeny,
    fraction_kemeny_cost,
    naive_kendall,
    reference_aggregate_finite,
    reference_kemeny_exact,
    reference_kemeny_fraction,
    reference_kemeny_local_search,
    reference_kemeny_observed,
)
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from uws import inference as inf
from uws import mallows
from uws import permutations as perm
from uws.errors import (
    ConfigurationError,
    DegenerateWeightsError,
    InvalidArgumentError,
    SingularCovarianceError,
    UseHeuristicError,
)
from uws.label_model import FINITE_METRIC, RANKING, REAL_VECTOR, LabelingMatrix
from uws.metric_spaces import graph_hop_metric


def ranking_problem(labels, weights=None, **kw):
    """One ranking task as a one-task LabelingMatrix, with its weights and aggregation options."""
    return LabelingMatrix(RANKING, np.asarray(labels)[None]), weights, kw


def real_problem(values, weights=None, **kw):
    return LabelingMatrix(REAL_VECTOR, np.asarray(values, dtype=float)[None]), weights, kw


def finite_problem(labels, space, weights=None, **kw):
    return LabelingMatrix(FINITE_METRIC, np.asarray(labels)[None], space), weights, kw


def weighted_aggregate(problem):
    """The lone task's weighted aggregate, uniform weights when none are given."""
    data, weights, kw = problem
    weights = np.ones(data.n_lfs) if weights is None else weights
    return inf.aggregate_dataset(data, weights=weights, **kw)[0]


def majority_vote(problem):
    data, weights, kw = problem
    return inf.aggregate_dataset(data, weights=weights, rule="mv", **kw)[0]


class TestMajorityVote:
    def test_unanimous_permutations(self):
        p = [2, 0, 3, 1]
        got = majority_vote(ranking_problem([p, p, p]))
        assert got.tolist() == p

    def test_real_values_arithmetic_mean(self):
        assert majority_vote(real_problem([1.0, 2.0, 6.0])) == pytest.approx(3.0)

    def test_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            labels = np.array([rng.permutation(4) for _ in range(5)])
            got = majority_vote(ranking_problem(labels))
            oracle, _ = brute_force_weighted_kemeny(labels, np.ones(5), 4)
            assert got.tolist() == oracle.tolist()

    def test_ignores_problem_weights(self):
        rng = np.random.default_rng(4)
        labels = np.array([rng.permutation(5) for _ in range(4)])
        skewed = majority_vote(ranking_problem(labels, weights=[9.0, 0.1, 0.1, 0.1]))
        uniform = majority_vote(ranking_problem(labels))
        assert skewed.tolist() == uniform.tolist()


class TestWeightedAggregate:
    def test_dominant_weight_returns_that_label(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            labels = np.array([rng.permutation(5) for _ in range(3)])
            got = weighted_aggregate(ranking_problem(labels, weights=[10.0, 0.0, 0.0]))
            assert got.tolist() == labels[0].tolist()

    def test_weighted_mean_on_reals(self):
        got = weighted_aggregate(real_problem([0.0, 4.0], weights=[3.0, 1.0]))
        assert got == pytest.approx(1.0)

    def test_uniform_weights_equal_majority_vote(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            labels = np.array([rng.permutation(5) for _ in range(4)])
            a = weighted_aggregate(ranking_problem(labels, weights=[2.5] * 4))
            b = majority_vote(ranking_problem(labels))
            assert a.tolist() == b.tolist()

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            labels = np.array([rng.permutation(5) for _ in range(4)])
            w = rng.uniform(0.1, 3.0, size=4)
            a = weighted_aggregate(ranking_problem(labels, weights=w))
            b = weighted_aggregate(ranking_problem(labels, weights=17.0 * w))
            assert a.tolist() == b.tolist()

    def test_all_zero_weights(self):
        with pytest.raises(DegenerateWeightsError):
            weighted_aggregate(ranking_problem([[0, 1, 2]], weights=[0.0]))

    def test_negative_weight_clamped(self):
        labels = np.array([[0, 1, 2], [2, 1, 0], [0, 2, 1]])
        got = weighted_aggregate(ranking_problem(labels, weights=[1.0, -5.0, 0.0]))
        assert got.tolist() == [0, 1, 2]

    def test_negative_weight_flip_mode(self):
        # weight -w on a ranking equals weight w on its reversal
        labels = np.array([[0, 1, 2, 3], [3, 1, 0, 2], [2, 0, 3, 1]])
        flipped = weighted_aggregate(
            ranking_problem(labels, weights=[1.0, 1.0, -2.0], negative_weights="flip")
        )
        explicit = np.array([labels[0], labels[1], labels[2][::-1]])
        direct = weighted_aggregate(ranking_problem(explicit, weights=[1.0, 1.0, 2.0]))
        assert flipped.tolist() == direct.tolist()

    def test_negative_weight_flip_on_reals_and_nodes(self):
        # weight -w on a real value equals weight w on its negation; nodes have no flip
        got = weighted_aggregate(real_problem([1.0, 3.0], weights=[1.0, -1.0], negative_weights="flip"))
        assert got == pytest.approx(-1.0)
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        with pytest.raises(ConfigurationError, match="sign-flip"):
            weighted_aggregate(finite_problem([0, 2], space, weights=[1.0, -1.0], negative_weights="flip"))

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
            w = weighted_aggregate(ranking_problem(labels, weights=thetas))
            m = majority_vote(ranking_problem(labels))
            dist_w += perm.kendall_tau(w, truth)
            dist_mv += perm.kendall_tau(m, truth)
        assert dist_w < dist_mv

    def test_finite_space_enumerates_nodes(self):
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        assert weighted_aggregate(finite_problem([0, 2, 2], space)) == 2

    def test_finite_space_tie_breaks_low(self):
        # path 0-1-2-3 with labels {0, 2}: nodes 0, 1, 2 all cost 2
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        assert weighted_aggregate(finite_problem([0, 2], space)) == 0

    def test_finite_space_observed_only(self):
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        assert weighted_aggregate(finite_problem([0, 2, 2], space, candidate_policy="observed_only")) == 2


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

    def test_refuses_rho_above_the_table_cap(self):
        # 16 items still fit the subset table; 17 would need 18.9 MB per task
        assert inf.kemeny_exact([np.arange(16)[::-1]], [1.0], 16).tolist() == list(range(15, -1, -1))
        with pytest.raises(UseHeuristicError):
            inf.kemeny_exact([np.arange(17)], [1.0], 17)
        data = LabelingMatrix(RANKING, np.tile(np.arange(17), (2, 3, 1)))
        with pytest.raises(UseHeuristicError):
            inf.aggregate_dataset(data, rule="mv", candidate_policy="enumerate_all")

    def test_integer_weights_match_the_permutation_table(self):
        # integer sums are exact, so the subset program returns the table's
        # first minimum in lexicographic order on every task
        rng = np.random.default_rng(41)
        for rho in range(1, 8):
            labels = np.array([[rng.permutation(rho) for _ in range(6)] for _ in range(30)])
            weights = rng.integers(0, 3, size=6).astype(float)
            weights[0] = 1.0
            got = inf.kemeny_exact(labels, weights, rho)
            expect = [reference_kemeny_exact(task, weights, rho) for task in labels]
            assert np.array_equal(got, np.array(expect))

    @pytest.mark.parametrize("rho", [9, 10, 11, 12])
    def test_long_rankings_reach_the_exact_optimum(self, rho):
        # weights in quarters sum exactly, so orders and objectives must equal the oracle's
        rng = np.random.default_rng(100 + rho)
        labels = np.array([[rng.permutation(rho) for _ in range(7)] for _ in range(2)])
        weights = rng.integers(1, 9, size=7) / 4
        got = inf.kemeny_exact(labels, weights, rho)
        local = inf.kemeny_local_search(labels, weights, rho, restarts=4, seed=2)
        for task, z, z_local in zip(labels, got, local):
            order, best = reference_kemeny_fraction(task, weights, rho)
            cost = fraction_kemeny_cost(task, weights, z)
            assert cost == best and np.array_equal(z, order)
            assert cost <= fraction_kemeny_cost(task, weights, z_local)
            assert cost <= min(fraction_kemeny_cost(task, weights, lab) for lab in task)

    @settings(max_examples=40, deadline=None)
    @given(rho=st.integers(1, 6), m=st.integers(1, 6), label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_fraction_oracle_matches_brute_force(self, rho, m, label_seed, data):
        rng = np.random.default_rng(label_seed)
        labels = np.array([rng.permutation(rho) for _ in range(m)])
        weights = np.array(data.draw(st.lists(st.sampled_from(TIED_WEIGHTS[:3]) | st.floats(0.0, 3.0),
                                              min_size=m, max_size=m)))
        order, cost = reference_kemeny_fraction(labels, weights, rho)
        expect, expect_cost = brute_force_weighted_kemeny(labels, weights, rho)
        assert float(cost) == pytest.approx(expect_cost, rel=1e-12, abs=1e-12)
        if not np.array_equal(order, expect):
            # the float scan counts objectives within 1e-12 as ties (tiny weights make them common)
            assert tuple(expect) < tuple(order)
            assert fraction_kemeny_cost(labels, weights, expect) - cost <= Fraction(1e-12)


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
        rng = np.random.default_rng(37)
        labels = np.array([[rng.permutation(5) for _ in range(4)] for _ in range(20)])
        data = LabelingMatrix(RANKING, labels)
        mv = inf.aggregate_dataset(data, rule="mv")
        wgt = inf.aggregate_dataset(data, weights=np.full(4, 3.0), rule="weighted")
        assert [a.tolist() for a in mv] == [b.tolist() for b in wgt]

    def test_mv_on_reals_is_the_plain_mean(self):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_are_refused(self, bad):
        # a NaN or infinite weight leaves no argmin: refused, never a non-permutation or node 0
        rng = np.random.default_rng(59)
        labels = np.array([[rng.permutation(5) for _ in range(4)] for _ in range(3)])
        space = graph_hop_metric([(v, v + 1) for v in range(5)], 6)
        weights = np.array([bad, 1.0, 0.5, 2.0])
        for data in (LabelingMatrix(RANKING, labels), LabelingMatrix(FINITE_METRIC, labels[:, :, 0], space),
                     LabelingMatrix(REAL_VECTOR, labels[:, :, 0].astype(float))):
            for policy in ("auto", "local_search", "observed_only"):
                with pytest.raises(InvalidArgumentError, match="finite"):
                    inf.aggregate_dataset(data, weights=weights, candidate_policy=policy)
        with pytest.raises(InvalidArgumentError, match="finite"):
            inf.kemeny_exact(labels[0], weights, 5)
        with pytest.raises(InvalidArgumentError, match="finite"):
            inf.kemeny_local_search(labels, weights, 5)

    def test_unknown_options(self):
        data = LabelingMatrix(REAL_VECTOR, np.ones((2, 3)))
        with pytest.raises(ConfigurationError, match="candidate policy"):
            inf.aggregate_dataset(data, rule="mv", candidate_policy="exhaustive")
        with pytest.raises(ConfigurationError, match="negative-weight"):
            inf.aggregate_dataset(data, rule="mv", negative_weights="drop")
        with pytest.raises(InvalidArgumentError, match="2 weights for 3 labels"):
            inf.aggregate_dataset(data, weights=[1.0, 1.0])

    def test_unknown_rule(self):
        data = LabelingMatrix(RANKING, np.tile(np.arange(3), (4, 3, 1)))
        with pytest.raises(ConfigurationError):
            inf.aggregate_dataset(data, rule="plurality")

    def test_real_labels_with_several_coordinates_are_refused(self):
        # real labels are scalar: a matrix of vectors is refused before any learner or aggregator sees it
        for shape in ((6, 3, 2), (6, 3, 1, 1), (6,)):
            with pytest.raises(InvalidArgumentError, match=r"\(n, m\) or \(n, m, 1\)"):
                LabelingMatrix(REAL_VECTOR, np.zeros(shape))
        assert LabelingMatrix(REAL_VECTOR, np.zeros((6, 3))).labels.shape == (6, 3, 1)
        assert LabelingMatrix(REAL_VECTOR, np.zeros((6, 3, 1))).labels.shape == (6, 3, 1)


# weights drawn from a small pool make zeros, ties and negatives common
TIED_WEIGHTS = [0.0, 1.0, 2.5, -1.0, -0.25, 0.5]
weight_values = st.one_of(st.sampled_from(TIED_WEIGHTS), st.floats(-3.0, 3.0))


def effective(labels, weights, negative_weights):
    """Labels (n, m, rho) and weights after the clamp or flip policy."""
    neg = weights < 0
    if negative_weights == "clamp":
        return labels, np.where(neg, 0.0, weights)
    labels = labels.copy()
    labels[:, neg] = labels[:, neg, ::-1]
    return labels, np.abs(weights)


def exact_or_near_tie(got, labels, weights, rho, dyadic):
    """The oracle's exact optimum when ``got`` is it, else ``got`` if its rounding excuses it.

    Dyadic weights sum exactly in floats, so the orders must agree. Otherwise
    ``got`` may be another order whose exact cost is within
    P * 2**-52 * sum(w) of the optimum, P = rho (rho - 1) / 2 pairs: a tie
    that the solver's float sums cannot see.
    """
    order, best = reference_kemeny_fraction(labels, weights, rho)
    if np.array_equal(got, order):
        return order
    assert not dyadic, f"{got.tolist()} is not the exact optimum {order.tolist()}"
    slack = Fraction(rho * (rho - 1) // 2, 2**52) * sum(Fraction(float(w)) for w in weights)
    assert fraction_kemeny_cost(labels, weights, got) <= best + slack
    return got


class TestBatchedEngineMatchesReference:
    """aggregate_dataset against the per-task reference solvers of conftest: local search and the
    observed-label argmin bit for bit, the exact solver against the rational-arithmetic oracle."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rho=st.integers(2, 11), m=st.integers(1, 20), n=st.integers(1, 6), restarts=st.integers(1, 8),
           policy=st.sampled_from(["auto", "local_search", "observed_only"]),
           negative_weights=st.sampled_from(["clamp", "flip"]),
           seed=st.integers(0, 2**32 - 1), label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rankings(self, rho, m, n, restarts, policy, negative_weights, seed, label_seed, data):
        rng = np.random.default_rng(label_seed)
        labels = np.array([[rng.permutation(rho) for _ in range(m)] for _ in range(n)])
        weights = np.array(data.draw(st.lists(weight_values, min_size=m, max_size=m)))
        eff_labels, eff_weights = effective(labels, weights, negative_weights)
        assume((eff_weights > 0).any())
        got = inf.aggregate_dataset(LabelingMatrix(RANKING, labels), weights=weights, candidate_policy=policy,
                                    negative_weights=negative_weights, seed=seed, restarts=restarts)
        expect = []
        for i in range(n):
            if policy == "observed_only":
                expect.append(reference_kemeny_observed(eff_labels[i], eff_weights, rho))
            elif policy == "local_search" or rho > inf.EXACT_MAX_RHO:
                expect.append(reference_kemeny_local_search(eff_labels[i], eff_weights, rho, restarts=restarts,
                                                            seed=(seed, i)))
            else:
                expect.append(exact_or_near_tie(np.asarray(got[i]), eff_labels[i], eff_weights, rho,
                                                dyadic=set(weights) <= set(TIED_WEIGHTS)))
        got = np.asarray(got)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(expect))

    @settings(max_examples=100, deadline=None)
    @given(n_nodes=st.integers(2, 12), m=st.integers(1, 20), n=st.integers(1, 6),
           observed_only=st.booleans(), graph_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_finite_space(self, n_nodes, m, n, observed_only, graph_seed, data):
        rng = np.random.default_rng(graph_seed)
        chords = [tuple(rng.choice(n_nodes, size=2, replace=False)) for _ in range(int(rng.integers(0, n_nodes)))]
        space = graph_hop_metric([(v, v + 1) for v in range(n_nodes - 1)] + chords, n_nodes)
        labels = rng.integers(0, n_nodes, size=(n, m))
        weights = np.array(data.draw(st.lists(weight_values, min_size=m, max_size=m)))
        assume((weights > 0).any())
        got = inf.aggregate_dataset(LabelingMatrix(FINITE_METRIC, labels, space), weights=weights,
                                    candidate_policy="observed_only" if observed_only else "auto")
        clamped = np.where(weights < 0, 0.0, weights)
        expect = [reference_aggregate_finite(labels[i], clamped, space.dist, observed_only) for i in range(n)]
        got = np.asarray(got)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(expect))


class TestAggregationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(rho=st.integers(2, 10), m=st.integers(1, 8), n=st.integers(1, 4), exponent=st.integers(-6, 6),
           label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_weight_rescaling_invariance(self, rho, m, n, exponent, label_seed, data):
        # a power-of-two scale keeps every sum exact, so even tie-breaks agree
        rng = np.random.default_rng(label_seed)
        weights = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
        assume((weights > 0).any())
        rankings = LabelingMatrix(RANKING, np.array([[rng.permutation(rho) for _ in range(m)] for _ in range(n)]))
        space = graph_hop_metric([(v, v + 1) for v in range(rho - 1)] + [(0, rho - 1)], rho)
        nodes = LabelingMatrix(FINITE_METRIC, rng.integers(0, rho, size=(n, m)), space)
        for data_ in (rankings, nodes):
            for policy in ("auto", "local_search", "observed_only"):
                base = inf.aggregate_dataset(data_, weights=weights, candidate_policy=policy, seed=3)
                scaled = inf.aggregate_dataset(data_, weights=weights * 2.0**exponent, candidate_policy=policy,
                                               seed=3)
                assert np.array_equal(np.asarray(base), np.asarray(scaled))

    @settings(max_examples=20, deadline=None)
    @given(rho=st.integers(11, 12), m=st.integers(1, 8), n=st.integers(1, 3), exponent=st.integers(-46, 46),
           label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_local_search_ignores_the_weight_scale(self, rho, m, n, exponent, label_seed, data):
        # the move and restart tolerances scale with the weight total, so even
        # weights near 1e-14 or 1e14 take the same descent; no weight is so
        # small that its scaled value loses bits
        rng = np.random.default_rng(label_seed)
        weights = np.array(data.draw(st.lists(st.just(0.0) | st.floats(2.0**-20, 3.0), min_size=m, max_size=m)))
        assume((weights > 0).any())
        rankings = LabelingMatrix(RANKING, np.array([[rng.permutation(rho) for _ in range(m)] for _ in range(n)]))
        for policy in ("auto", "local_search"):
            base = inf.aggregate_dataset(rankings, weights=weights, candidate_policy=policy, seed=5)
            for k in (-46, exponent, 46):
                scaled = inf.aggregate_dataset(rankings, weights=weights * 2.0**k, candidate_policy=policy, seed=5)
                assert np.array_equal(np.asarray(base), np.asarray(scaled))

    @settings(max_examples=30, deadline=None)
    @given(rho=st.integers(2, 6), m=st.integers(1, 6), scale=st.floats(1e-3, 1e3),
           label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_positive_scale_keeps_the_exact_optimum(self, rho, m, scale, label_seed, data):
        rng = np.random.default_rng(label_seed)
        labels = np.array([rng.permutation(rho) for _ in range(m)])
        weights = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
        assume((weights > 0).any())
        _, best = brute_force_weighted_kemeny(labels, weights, rho)
        got = inf.kemeny_exact(labels, scale * weights, rho)
        assert sum(w * naive_kendall(lab, got) for w, lab in zip(weights, labels)) == best

    @settings(max_examples=30, deadline=None)
    @given(rho=st.integers(2, 6), m=st.integers(1, 7), label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_item_relabelling_equivariance(self, rho, m, label_seed, data):
        rng = np.random.default_rng(label_seed)
        labels = np.array([rng.permutation(rho) for _ in range(m)])
        weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), dtype=float)
        assume((weights > 0).any())
        # the lexicographic tie-break is not equivariant: only a unique optimum must follow the relabelling
        costs = sorted(sum(w * naive_kendall(lab, z) for w, lab in zip(weights, labels))
                       for z in iter_permutations(range(rho)))
        assume(costs[0] < costs[1])
        sigma = rng.permutation(rho)
        got = inf.kemeny_exact(sigma[labels], weights, rho)
        assert np.array_equal(got, sigma[inf.kemeny_exact(labels, weights, rho)])
