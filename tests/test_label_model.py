"""Accuracy estimation without ground truth: triplet systems, signs, end-to-end learning."""

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    reference_pair_signs,
    reference_partner_pairs,
    reference_quadratic_core,
    reference_quadratic_triplets,
    reference_resolve_signs,
    reference_signed_accuracies,
    reference_triplet_estimates,
)
from uws import label_model as lm
from uws import mallows
from uws import permutations as perm
from uws import synthetic as syn
from uws.errors import (
    ConfigurationError,
    DegenerateMomentError,
    InconsistentMomentsError,
    InvalidArgumentError,
    SignAmbiguousError,
)
from uws.metric_spaces import classical_mds


class TestEmpiricalPairMoments:
    def test_identical_columns(self):
        rng = np.random.default_rng(0)
        col = np.where(rng.random((1, 50, 4)) < 0.5, 1.0, -1.0)
        values = np.concatenate([col, col], axis=0)
        e = lm.empirical_pair_moments(values)
        np.testing.assert_allclose(e[0, 1], 1.0)

    def test_negated_column(self):
        rng = np.random.default_rng(1)
        col = np.where(rng.random((1, 50, 4)) < 0.5, 1.0, -1.0)
        values = np.concatenate([col, -col], axis=0)
        e = lm.empirical_pair_moments(values)
        np.testing.assert_allclose(e[0, 1], -1.0)

    def test_hand_summed(self):
        rng = np.random.default_rng(2)
        values = np.where(rng.random((3, 10, 2)) < 0.5, 1.0, -1.0)
        e = lm.empirical_pair_moments(values)
        for a in range(3):
            for b in range(3):
                for i in range(2):
                    manual = sum(values[a, t, i] * values[b, t, i] for t in range(10)) / 10
                    assert e[a, b, i] == pytest.approx(manual)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        values = np.where(rng.random((4, 30, 3)) < 0.4, 1.0, -1.0)
        e = lm.empirical_pair_moments(values)
        np.testing.assert_allclose(e, e.transpose(1, 0, 2))
        assert (np.abs(e) <= 1.0 + 1e-12).all()

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            lm.empirical_pair_moments(np.empty((3, 5)))


class TestContinuousTriplets:
    def test_population_exactness(self):
        a = np.array([0.8, 0.6, 0.5])
        e = np.outer(a, a)  # E[Y^2] = 1
        mags = lm.continuous_triplets(e[0, 1], e[0, 2], e[1, 2], 1.0)
        np.testing.assert_allclose(mags, a, atol=1e-12)

    def test_perfect_labelers(self):
        sm = 2.5  # all three equal the truth: every cross moment is E[Y^2]
        mags = lm.continuous_triplets(sm, sm, sm, sm)
        np.testing.assert_allclose(mags, sm, atol=1e-12)

    def test_monte_carlo_gaussian(self):
        rng = np.random.default_rng(7)
        a = np.array([0.8, 0.6, 0.5])
        n = 100_000
        y = rng.standard_normal(n)
        lam = a[None, :] * y[:, None] + 0.7 * rng.standard_normal((n, 3))
        e = (lam.T @ lam) / n
        mags = lm.continuous_triplets(e[0, 1], e[0, 2], e[1, 2], 1.0)
        assert np.abs(np.array(mags) - a).max() < 0.02

    def test_degenerate_moment(self):
        with pytest.raises(DegenerateMomentError):
            lm.continuous_triplets(0.5, 0.4, 1e-9, 1.0)

    def test_vectorized_over_coordinates(self):
        a = np.array([0.9, 0.7, 0.4])
        e = np.outer(a, a)
        coords = np.full(5, e[0, 1])
        mags = lm.continuous_triplets(coords, np.full(5, e[0, 2]), np.full(5, e[1, 2]), np.ones(5))
        np.testing.assert_allclose(mags[0], a[0], atol=1e-12)


class TestQuadraticTriplets:
    def test_perfect_labelers(self):
        o, l = syn.two_point_population_moments([1.0, 1.0, 1.0], 0.5)
        alpha, beta, gamma = lm.quadratic_triplets(o[0, 1], o[0, 2], o[1, 2], l[0], l[1], l[2], 0.5)
        np.testing.assert_allclose([alpha, beta, gamma], 1.0, atol=1e-10)

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.7])
    def test_population_exactness(self, p):
        cond = np.array([0.9, 0.8, 0.7])
        o, l = syn.two_point_population_moments(cond, p)
        got = lm.quadratic_triplets(o[0, 1], o[0, 2], o[1, 2], l[0], l[1], l[2], p)
        np.testing.assert_allclose(got, cond, atol=1e-10)

    def test_roots_sum_to_twice_marginal(self):
        # the selected root is l_b + s, the discarded one l_b - s
        cond = np.array([0.85, 0.65, 0.75])
        o, l = syn.two_point_population_moments(cond, 0.4)
        _, beta, _ = lm.quadratic_triplets(o[0, 1], o[0, 2], o[1, 2], l[0], l[1], l[2], 0.4)
        assert beta >= l[1]
        assert beta == pytest.approx(cond[1], abs=1e-10)

    def test_inconsistent_moments(self):
        # a == b and b == c almost surely, yet a and c never fire together:
        # jointly impossible at these marginals
        with pytest.raises(InconsistentMomentsError):
            lm.quadratic_triplets(0.2, 0.0, 0.2, 0.2, 0.2, 0.2, 0.1)

    def test_degenerate_lead_falls_back_to_marginals(self):
        # outer pair factorizes (O_ac = l_a l_c): pivot underdetermined
        l_a, l_b, l_c = 0.6, 0.7, 0.5
        got = lm.quadratic_triplets(0.45, l_a * l_c, 0.36, l_a, l_b, l_c, 0.5)
        np.testing.assert_allclose(got, [l_a, l_b, l_c], atol=1e-10)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(InvalidArgumentError):
            lm.quadratic_triplets(0.5, 0.5, 1.5, 0.5, 0.5, 0.5, 0.5)
        from uws.errors import DomainError

        with pytest.raises(DomainError):
            lm.quadratic_triplets(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0)

    def test_mildly_negative_discriminant_clamps(self):
        # finite-sample noise near the double root must not raise
        rng = np.random.default_rng(11)
        truth, vals = syn.gen_two_point_tasks([0.51, 0.5, 0.52], 0.5, 2000, 1, seed=3)
        pos = (vals > 0).astype(float)
        l = pos.mean(axis=0)[:, 0]
        o = lambda a, b: float((pos[:, a, 0] * pos[:, b, 0]).mean())
        _, beta, _ = lm.quadratic_triplets(o(0, 1), o(0, 2), o(1, 2), l[0], l[1], l[2], 0.5)
        assert 0.0 <= beta <= 1.0 or abs(beta - l[1]) < 0.5


class TestIsotropicAccuracies:
    def test_hand_solved_linear_system(self):
        d = np.array([[0.0, 5.0, 7.0], [5.0, 0.0, 8.0], [7.0, 8.0, 0.0]])
        assert lm.isotropic_accuracies(d, (0, 1, 2)) == pytest.approx(2.0)

    def test_perfect_labeler_under_additivity(self):
        a = np.array([0.0, 1.3, 2.1])
        d = a[:, None] + a[None, :]
        np.fill_diagonal(d, 0.0)
        assert lm.isotropic_accuracies(d, (0, 1, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_labelers(self):
        delta = 0.8
        d = np.full((3, 3), 2 * delta)
        np.fill_diagonal(d, 0.0)
        for a, b, c in [(0, 1, 2), (1, 0, 2), (2, 0, 1)]:
            assert lm.isotropic_accuracies(d, (a, b, c)) == pytest.approx(delta)

    def test_additive_exactness_all_triplets(self):
        acc = np.array([1.2, 0.7, 2.0, 0.4])
        d = acc[:, None] + acc[None, :]
        np.fill_diagonal(d, 0.0)
        for a in range(4):
            others = [x for x in range(4) if x != a]
            for i, b in enumerate(others):
                for c in others[i + 1 :]:
                    assert lm.isotropic_accuracies(d, (a, b, c)) == pytest.approx(acc[a], abs=1e-12)

    def test_missing_pair(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            lm.isotropic_accuracies(d, (0, 1, 2))


class TestResolveSigns:
    def test_anchor_propagation(self):
        e = np.array([[1.0, -0.5], [-0.5, 1.0]])
        signed = lm.resolve_signs([0.8, 0.6], e)
        np.testing.assert_allclose(signed, [0.8, -0.6])

    def test_majority_convention_all_positive(self):
        a = np.array([0.7, 0.6, 0.5])
        e = np.outer(a, a)
        signed = lm.resolve_signs(a, e)
        np.testing.assert_allclose(signed, a)

    def test_adversarial_negated_labeler(self):
        a = np.array([0.7, 0.6, 0.5, -0.7])  # last one is a negated copy of the first
        e = np.outer(a, a)
        signed = lm.resolve_signs(np.abs(a), e)
        np.testing.assert_allclose(signed, a)

    def test_global_flip_when_majority_negative(self):
        # relative signs rooted at labeler 0 give (+, -, -) with negative sum;
        # the better-than-random-on-average convention flips the orientation
        a = np.array([-0.7, 0.6, 0.2])
        e = np.outer(a, a)
        signed = lm.resolve_signs(np.abs(a), e)
        np.testing.assert_allclose(signed, a)

    def test_sign_ambiguous(self):
        e = np.full((3, 3), 1e-9)
        with pytest.raises(SignAmbiguousError):
            lm.resolve_signs([0.5, 0.5, 0.5], e)

    def test_no_labelers_refused(self):
        with pytest.raises(InvalidArgumentError, match="m >= 1"):
            lm.resolve_signs([], np.zeros((0, 0)))

    def test_block_shape_mismatch_refused(self):
        with pytest.raises(InvalidArgumentError, match=r"\(3, 3, 2\)"):
            lm.resolve_signs(np.ones((3, 2)), np.ones((3, 3)))

    def test_error_names_the_first_unresolvable_coordinate(self):
        # coordinate 0 is a chain 0-1-2-3 (depth 3); coordinates 1 and 2 cannot reach labeler 3
        e = np.zeros((4, 4, 3))
        for a, b in ((0, 1), (1, 2), (2, 3)):
            e[a, b] = e[b, a] = -0.5
        e[2, 3, 1:] = e[3, 2, 1:] = 0.0
        with pytest.raises(SignAmbiguousError, match=r"coordinate 1: cannot reach labelers \[3\]"):
            lm.resolve_signs(np.full((4, 3), 0.5), e)
        signed = lm.resolve_signs(np.full((4, 1), 0.5), e[:, :, :1])
        np.testing.assert_array_equal(signed[:, 0], [0.5, -0.5, 0.5, -0.5])

    def test_frontier_ranks_by_parent_then_index(self):
        # level 2 is ranked (4, 3): 4's parent 1 outranks 3's parent 2, so labeler 5,
        # linked to both through moments of opposite sign, takes its sign from 4
        e = np.zeros((6, 6))
        for a, b, v in ((0, 1, 0.5), (0, 2, 0.5), (1, 4, 0.5), (2, 3, 0.5), (3, 5, 0.5), (4, 5, -0.5)):
            e[a, b] = e[b, a] = v
        np.testing.assert_array_equal(lm.resolve_signs(np.full(6, 0.5), e), [0.5] * 5 + [-0.5])


class TestGaussianBackwardMap:
    def test_population_covariance_inverts_exactly(self):
        cov = np.diag([0.5, 0.25, 2.0])
        theta = lm.gaussian_backward_map(cov)
        np.testing.assert_allclose(theta, np.diag([2.0, 4.0, 0.5]), atol=1e-12)

    def test_ridge_repairs_rank_deficiency(self):
        v = np.array([1.0, 1.0])
        cov = np.outer(v, v)  # singular
        theta = lm.gaussian_backward_map(cov)
        assert np.isfinite(theta).all()


def make_ranking_data(thetas, rho, n, seed):
    scenario = syn.RankingScenario(n=n, rho=rho, thetas=thetas, seed=seed)
    return syn.gen_ranking_tasks(scenario)


class TestLearnRanking:
    def test_theta_recovery_continuous(self):
        truth, data = make_ranking_data((2.0, 1.0, 0.5), rho=6, n=10_000, seed=42)
        model = lm.learn_label_model(data)
        np.testing.assert_allclose(model.thetas, [2.0, 1.0, 0.5], rtol=0.15)
        # learned mean distances track the closed form
        for got, theta in zip(model.expected_distances, (2.0, 1.0, 0.5)):
            assert abs(got - mallows.expected_distance(theta, 6)) < 0.35

    def test_zvector_formula_contract(self):
        _, data = make_ranking_data((1.5, 1.0, 0.7), rho=4, n=2_000, seed=1)
        model = lm.learn_label_model(data, path="continuous")
        g = perm.pair_sign_embed_many(data.labels).transpose(1, 0, 2).astype(float)
        e = lm.empirical_pair_moments(g)
        direct = np.sqrt(np.abs(e[0, 1]) * np.abs(e[0, 2]) / np.abs(e[1, 2]))
        np.testing.assert_allclose(model.per_coordinate[0], direct, atol=1e-12)

    def test_hypercube_close_to_continuous(self):
        _, data = make_ranking_data((1.5, 1.0, 0.8), rho=4, n=20_000, seed=5)
        cont = lm.learn_label_model(data, path="continuous")
        hyp = lm.learn_label_model(data, path="hypercube")
        np.testing.assert_allclose(
            hyp.expected_distances, cont.expected_distances, rtol=0.05
        )

    def test_isotropic_path_runs(self):
        _, data = make_ranking_data((1.5, 1.0, 0.8), rho=5, n=4_000, seed=9)
        model = lm.learn_label_model(data, path="isotropic")
        assert model.thetas.shape == (3,)
        assert (np.diff(model.thetas) < 0).all()  # ordering preserved

    def test_equivariance_m3(self):
        _, data = make_ranking_data((1.8, 1.0, 0.6), rho=4, n=3_000, seed=13)
        model = lm.learn_label_model(data)
        flipped = lm.LabelingMatrix(lm.RANKING, data.labels[:, ::-1])
        model_flipped = lm.learn_label_model(flipped)
        np.testing.assert_allclose(model_flipped.thetas, model.thetas[::-1], atol=1e-10)

    def test_equivariance_median_policy(self):
        _, data = make_ranking_data((2.0, 1.5, 1.0, 0.8, 0.5), rho=4, n=3_000, seed=17)
        order = np.array([3, 0, 4, 1, 2])
        model = lm.learn_label_model(data)
        shuffled = lm.LabelingMatrix(lm.RANKING, data.labels[:, order])
        model_shuffled = lm.learn_label_model(shuffled)
        np.testing.assert_allclose(model_shuffled.thetas, model.thetas[order], atol=1e-10)

    def test_cauchy_schwarz_with_tolerance(self):
        _, data = make_ranking_data((2.0, 1.0, 0.5), rho=5, n=20_000, seed=21)
        model = lm.learn_label_model(data)
        assert np.abs(model.per_coordinate).max() <= 1.0 + 0.05

    def test_clamps_worse_than_random_to_zero_theta(self):
        _, data = make_ranking_data((2.0, 1.5, 0.001), rho=4, n=300, seed=23)
        model = lm.learn_label_model(data)
        # the near-random labeler may land beyond the uniform mean; theta must
        # stay finite and the raw estimate must be preserved either way
        assert np.isfinite(model.thetas).all()
        assert model.expected_distances.shape == (3,)


class TestLearnConfiguration:
    def test_too_few_labelers(self):
        labels = np.tile(np.arange(4), (10, 2, 1))
        data = lm.LabelingMatrix(lm.RANKING, labels)
        with pytest.raises(ConfigurationError, match="triplet unavailable"):
            lm.learn_label_model(data)

    def test_correlation_set_blocks_triplet(self):
        _, data = make_ranking_data((1.5, 1.2, 1.0, 0.8), rho=4, n=500, seed=3)
        corr = lm.CorrelationSet.from_pairs([(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ConfigurationError):
            lm.learn_label_model(data, corr=corr)

    def test_correlation_set_respected(self):
        _, data = make_ranking_data((1.5, 1.2, 1.0, 0.8), rho=4, n=2_000, seed=4)
        corr = lm.CorrelationSet.from_pairs([(0, 1)])
        model = lm.learn_label_model(data, corr=corr)
        assert model.n_lfs == 4

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidArgumentError):
            lm.CorrelationSet.from_pairs([(1, 1)])
        with pytest.raises(InvalidArgumentError):
            lm.CorrelationSet(frozenset({(2, 2)}))

    @pytest.mark.parametrize("pair", [(3, 4), (0, 9), (0, -1)])
    def test_rejects_edge_outside_the_labelers(self, pair):
        # a 1-based slip such as (3, 4) for m=4 must not learn as if no pair were correlated
        _, data = make_ranking_data((1.0, 1.0, 1.0, 1.0), rho=4, n=300, seed=1)
        edge = tuple(sorted(pair))
        with pytest.raises(InvalidArgumentError, match=rf"\({edge[0]}, {edge[1]}\).*0\.\.3"):
            lm.learn_label_model(data, corr=lm.CorrelationSet.from_pairs([pair]))

    def test_direct_construction_normalizes_pair_order(self):
        corr = lm.CorrelationSet(frozenset({(1, 0), (np.int64(3), np.int64(2))}))
        assert corr.edges == frozenset({(0, 1), (2, 3)})
        assert corr.correlated(0, 1) and corr.correlated(1, 0) and corr.correlated(2, 3)
        assert corr == lm.CorrelationSet.from_pairs([[0, 1], [2, 3]])
        _, data = make_ranking_data((1.5, 1.2, 1.0, 0.8, 0.6), rho=4, n=2_000, seed=6)
        direct = lm.learn_label_model(data, corr=lm.CorrelationSet(frozenset({(1, 0)})))
        sorted_pairs = lm.learn_label_model(data, corr=lm.CorrelationSet.from_pairs([(0, 1)]))
        np.testing.assert_array_equal(direct.thetas, sorted_pairs.thetas)
        independent = lm.learn_label_model(data)
        assert not np.array_equal(direct.thetas, independent.thetas)

    def test_bad_path_for_space(self):
        _, data = make_ranking_data((1.5, 1.2, 1.0), rho=4, n=100, seed=5)
        real = lm.LabelingMatrix(lm.REAL_VECTOR, np.random.default_rng(0).normal(size=(50, 3)))
        with pytest.raises(ConfigurationError):
            lm.learn_label_model(real, path="hypercube")

    def test_continuous_real_needs_prior(self):
        real = lm.LabelingMatrix(lm.REAL_VECTOR, np.random.default_rng(0).normal(size=(50, 3)))
        with pytest.raises(ConfigurationError):
            lm.learn_label_model(real, path="continuous")

    @pytest.mark.parametrize("kind, path, prior", [
        (lm.RANKING, "continuous", lm.SecondMomentPrior([2.0] * 6)),
        (lm.RANKING, "continuous", lm.SecondMomentPrior([2.0] * 7)),
        (lm.RANKING, "hypercube", lm.SecondMomentPrior(2.0)),
        (lm.RANKING, "isotropic", lm.SecondMomentPrior(1.0)),
        (lm.RANKING, "continuous", lm.TwoPointPrior(0.3)),
        (lm.RANKING, "isotropic", lm.TwoPointPrior(0.3)),
        (lm.REAL_VECTOR, "continuous", lm.TwoPointPrior(0.3)),
        (lm.FINITE_METRIC, "isotropic", lm.TwoPointPrior(0.3)),
        (lm.FINITE_METRIC, "isotropic", lm.SecondMomentPrior([5.0] * 3)),
    ], ids=["rank-cont-sm", "rank-cont-sm-wrong-length", "rank-hyper-sm", "rank-iso-sm", "rank-cont-2pt",
            "rank-iso-2pt", "real-cont-2pt", "finite-iso-2pt", "finite-iso-sm"])
    def test_prior_the_route_does_not_read_is_refused(self, kind, path, prior):
        # a ranking's +-1 coordinates have second moment 1 by construction; only the hypercube route reads p;
        # hop distances are not inner products, so the finite isotropic route has no polarization to feed
        data = six_labeler_data(kind)
        name = type(prior).__name__
        with pytest.raises(ConfigurationError, match=f"{name} is not read on the {path} route for {kind} labels"):
            lm.learn_label_model(data, path=path, prior=prior)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, [1.0, np.nan], 0.0, -1.0])
    def test_second_moments_must_be_positive_and_finite(self, value):
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            lm.SecondMomentPrior(value)

    @pytest.mark.parametrize("kind, path, given, coords", [
        (lm.REAL_VECTOR, "continuous", 2, 1), (lm.REAL_VECTOR, "isotropic", 3, 1),
        (lm.FINITE_METRIC, "continuous", 3, 8), (lm.FINITE_METRIC, "continuous", 9, 8),
    ])
    def test_prior_of_the_wrong_length_is_refused(self, kind, path, given, coords):
        # one second moment per embedded coordinate (real labels: 1; a 30-node MDS embedding: 8)
        data = six_labeler_data(kind)
        with pytest.raises(InvalidArgumentError, match=f"{given} second moments for {coords} embedded coordinates"):
            lm.learn_label_model(data, path=path, prior=lm.SecondMomentPrior(np.ones(given)))
        lm.learn_label_model(data, path=path, prior=lm.SecondMomentPrior(np.ones(coords)))


class TestLearnRegression:
    @staticmethod
    def scenario(n=20_000, seed=31):
        acc = np.array([0.9, 0.6, 0.3])
        noise = np.array([0.3, 0.5, 0.8])
        cov = np.outer(acc, acc) + np.diag(noise)
        return syn.RegressionScenario(n=n, accuracies=tuple(acc), lf_cov=tuple(map(tuple, cov)),
                                      prior_var=1.0, seed=seed)

    def test_continuous_recovers_accuracies(self):
        s = self.scenario()
        truth, data = syn.gen_regression_tasks(s)
        model = lm.learn_label_model(data, prior=lm.SecondMomentPrior(1.0))
        acc = np.array([0.9, 0.6, 0.3])
        np.testing.assert_allclose(model.accuracies, acc, atol=0.03)
        # these labelers are biased (E[lambda|y] = acc*y), so errors share the
        # bias component and the population error covariance is not diagonal
        pop_err = np.outer(1 - acc, 1 - acc) + np.diag([0.3, 0.5, 0.8])
        np.testing.assert_allclose(model.expected_distances, np.diag(pop_err), atol=0.06)
        np.testing.assert_allclose(model.thetas, np.diag(np.linalg.inv(pop_err)), rtol=0.12)

    def test_isotropic_matches_error_variances_unbiased(self):
        # additivity of squared distances needs unbiased labelers: lambda = y + eps
        noise = np.array([0.3, 0.5, 0.8])
        cov = np.ones((3, 3)) + np.diag(noise)
        s = syn.RegressionScenario(n=20_000, accuracies=(1.0, 1.0, 1.0),
                                   lf_cov=tuple(map(tuple, cov)), prior_var=1.0, seed=33)
        truth, data = syn.gen_regression_tasks(s)
        model = lm.learn_label_model(data, path="isotropic")
        np.testing.assert_allclose(model.expected_distances, noise, rtol=0.08)
        np.testing.assert_allclose(model.thetas, 1.0 / noise, rtol=0.12)

    @pytest.mark.parametrize("path", ["continuous", "isotropic"])
    def test_overflowing_label_products_are_refused(self, path):
        # finite labels near 1e160 have products near 1e320, past float64: the pair moments are inf
        values = np.random.default_rng(37).normal(size=(200, 5)) * 1e160
        data = lm.LabelingMatrix(lm.REAL_VECTOR, values)
        with pytest.raises(InvalidArgumentError, match="label products overflow float64"):
            lm.learn_label_model(data, path=path, prior=lm.SecondMomentPrior(1e300))

    def test_zero_signal_labelers(self):
        cov = np.eye(3)
        s = syn.RegressionScenario(n=30_000, accuracies=(0.0, 0.0, 0.0),
                                   lf_cov=tuple(map(tuple, cov)), prior_var=1.0, seed=35)
        truth, data = syn.gen_regression_tasks(s)
        model = lm.learn_label_model(data, prior=lm.SecondMomentPrior(1.0))
        # magnitudes decay only at the fourth-root rate on zero signal
        assert np.abs(model.accuracies).max() < 0.25


class TestTripletFallback:
    def test_first_policy_learns_every_walkthrough_seed(self):
        # the CLI walkthrough's scenario: on most seeds some labeler's first
        # lexicographic triplet has a +-1 pair moment of exactly 0
        for seed in range(20):
            thetas = syn.heterogeneous_thetas(seed, n_low=4, n_high=3)
            _, data = make_ranking_data(thetas, rho=5, n=500, seed=seed)
            model = lm.learn_label_model(data)
            assert np.isfinite(model.thetas).all()

    def test_error_names_the_labeler(self):
        # labelers 0 and 1 agree on one task and disagree on the other: zero moment
        labels = np.array([[[0, 1, 2], [0, 1, 2], [0, 2, 1]], [[0, 1, 2], [2, 1, 0], [0, 2, 1]]])
        data = lm.LabelingMatrix(lm.RANKING, labels)
        with pytest.raises(DegenerateMomentError, match="labeler 0: coordinate 0: .*floor"):
            lm.learn_label_model(data)

    def test_movies_style_continuous_learns(self):
        # m=30, two thirds near-random: once failed, every pair of a labeler having some
        # coordinate with a pair moment at the floor
        _, data = make_ranking_data(syn.movies_style_thetas(30, 1), rho=14, n=2000, seed=1)
        model = lm.learn_label_model(data)
        assert np.isfinite(model.thetas).all()

    def test_benchmark_rank_ls_seed_403_learns(self):
        # the benchmark's rank_ls scenario at --seed 403: once failed on labeler 7
        seed = 86890009
        _, data = make_ranking_data(syn.heterogeneous_thetas(seed), rho=10, n=250, seed=seed)
        model = lm.learn_label_model(data)
        assert np.isfinite(model.thetas).all()

    def test_deprecated_policy_keyword_changes_no_byte(self):
        data = near_random_data()
        for path in ("continuous", "hypercube", "isotropic"):
            want = model_bytes(lm.learn_label_model(data, path=path))
            for policy in ("first", "median"):
                with pytest.warns(DeprecationWarning, match="triplet_policy"):
                    got = lm.learn_label_model(data, path=path, triplet_policy=policy)
                assert model_bytes(got) == want


def model_bytes(model):
    """Every array field of a model as (dtype, shape, bytes), None where absent."""
    fields = (model.thetas, model.expected_distances, model.accuracies, model.pairwise_moments,
              model.theta_matrix, model.per_coordinate)
    return [None if f is None else (f.dtype, f.shape, f.tobytes()) for f in fields]


def per_triplet_reference(data, path, corr, prior=None):
    """The learner rebuilt with one public scalar solve per triplet and coordinate.

    Each labeler takes its partner pairs from ``reference_partner_pairs``,
    partners ranked by strength (summed mean |pair moment| with the others,
    or least summed pair distance), and, per coordinate, np.median over the
    pairs that solve there. Pair moments on +-1
    coordinates and finite-space pair distances are counted pair by pair;
    real-valued routes take empirical_pair_moments.
    Returns (expected_distances, accuracies, thetas, pairwise_moments).
    """
    m = data.n_lfs

    def median(strength, solve):
        # solve(a, b, c) gives one value per coordinate, None where the triplet does not solve
        free = np.array([[a != b and not corr.correlated(a, b) for b in range(m)] for a in range(m)])
        out = []
        for a, pairs in enumerate(reference_partner_pairs(strength, free)):
            solved = [solve(a, b, c) for b, c in pairs]
            out.append([np.median([v[i] for v in solved if v[i] is not None]) for i in range(len(solved[0]))])
        return np.array(out)

    def moment_strength(e):
        return [sum(np.abs(e[b, c]).mean() for c in range(m) if c != b) for b in range(m)]

    def signed(e, sm):
        def solve(a, b, c):
            out = []
            for i in range(e.shape[2]):
                if abs(e[b, c, i]) <= lm.EPS_FLOOR:
                    out.append(None)
                    continue
                try:
                    out.append(lm.continuous_triplets(e[a, b, i], e[a, c, i], e[b, c, i], sm[i])[0])
                except DegenerateMomentError:
                    # a floored e_ab or e_ac is labeler a's magnitude near 0, which the public solver refuses
                    out.append(np.sqrt(abs(e[a, b, i]) * abs(e[a, c, i]) * sm[i] / abs(e[b, c, i])))
            return out

        mags = median(moment_strength(e), solve)
        return np.stack([lm.resolve_signs(mags[:, i], e[:, :, i]) for i in range(mags.shape[1])], axis=1)

    def half_sums(strength, pair_dist):
        return median(strength, lambda a, b, c: [lm.isotropic_accuracies(pair_dist, (a, b, c))])[:, 0]

    nan = np.full(m, np.nan)
    if data.space_kind == lm.RANKING:
        g = perm.pair_sign_embed_many(data.labels).transpose(1, 0, 2)
        d = g.shape[2]
        e = np.empty((m, m, d))
        for a in range(m):
            for b in range(m):
                e[a, b] = (g[a].astype(float) * g[b]).mean(axis=0)
        if path == "continuous":
            s = signed(e, np.ones(d))
            md, acc = ((1.0 - s) / 2.0).sum(axis=1), s.mean(axis=1)
        elif path == "hypercube":
            agree = np.zeros((m, d))
            p = prior.p if isinstance(prior, lm.TwoPointPrior) else 0.5
            for coded, w in (((g > 0).astype(float), p), ((g < 0).astype(float), 1.0 - p)):
                l = coded.mean(axis=1)
                o = np.array([[(coded[a] * coded[b]).mean(axis=0) for b in range(m)] for a in range(m)])

                def pivot(a, b, c):
                    out = []
                    for i in range(d):
                        try:
                            out.append(lm.quadratic_triplets(o[b, a, i], o[b, c, i], o[a, c, i],
                                                             l[b, i], l[a, i], l[c, i], w)[1])
                        except InconsistentMomentsError:
                            out.append(None)
                    return out

                agree += w * median(moment_strength(e), pivot)
            md, acc = (1.0 - agree).sum(axis=1), (2.0 * agree - 1.0).mean(axis=1)
        else:
            pair_dist = d * (1.0 - e.mean(axis=2)) / 2.0
            np.fill_diagonal(pair_dist, 0.0)
            md = half_sums(moment_strength(e), pair_dist)
            acc = 1.0 - 2.0 * md / d
        return md, acc, np.array([lm._ranking_theta(v, data.rho) for v in md]), e.mean(axis=2)

    if data.space_kind == lm.REAL_VECTOR:
        values = data.labels.transpose(1, 0, 2)
        e = lm.empirical_pair_moments(values)
        ete = e.sum(axis=2)
        sm = prior.second_moments.sum()
        if path == "continuous":
            acc = signed(e, prior.second_moments).sum(axis=1)
            err = ete - acc[:, None] - acc[None, :] + sm
            md = np.diag(err).copy()
        else:
            sq = np.diag(ete)
            pair_dist = sq[:, None] + sq[None, :] - 2.0 * ete
            md = half_sums(moment_strength(e), pair_dist)
            err = 0.5 * (md[:, None] + md[None, :] - pair_dist)
            np.fill_diagonal(err, md)
            acc = 0.5 * (sq + sm - md)
        return md, acc, np.diag(lm.gaussian_backward_map(err)), ete

    space, labels = data.space, data.labels
    if path == "isotropic":
        pair_dist = np.array([[space.dist[labels[:, a], labels[:, b]].mean() for b in range(m)] for a in range(m)])
        np.fill_diagonal(pair_dist, 0.0)
        md = half_sums([-sum(pair_dist[b, c] for c in range(m) if c != b) for b in range(m)], pair_dist)
        return md, nan, 1.0 / np.clip(md, 1e-9 * max(1.0, space.dist.mean()), None), pair_dist
    coords = classical_mds(space, dim=min(space.size - 1, 8)).coords
    values = coords[labels].transpose(1, 0, 2)
    e = lm.empirical_pair_moments(values)
    sm = (coords**2).mean(axis=0)
    acc = signed(e, sm).sum(axis=1)
    md = np.diag(e.sum(axis=2) - acc[:, None] - acc[None, :] + sm.sum()).copy()
    return md, acc, 1.0 / np.clip(md, 1e-9 * max(1.0, sm.sum()), None), e.sum(axis=2)


def six_labeler_data(kind):
    if kind == lm.RANKING:
        return make_ranking_data((2.0, 1.2, 0.8, 0.5, 0.3, 0.1), rho=4, n=300, seed=51)[1]
    if kind == lm.REAL_VECTOR:
        acc = np.array([0.9, 0.8, 0.6, 0.5, 0.4, 0.2])
        cov = np.outer(acc, acc) + np.diag([0.2, 0.3, 0.5, 0.6, 0.8, 1.0])
        scenario = syn.RegressionScenario(n=400, accuracies=tuple(acc), lf_cov=tuple(map(tuple, cov)),
                                          prior_var=1.0, seed=53)
        return syn.gen_regression_tasks(scenario)[1]
    scenario = syn.GraphScenario(n_nodes=30, n_edges=60, n=300, thetas=(2.0, 1.5, 1.0, 0.8, 0.5, 0.3), seed=55)
    return syn.gen_graph_tasks(scenario)[2]


# the clique leaves labelers whose four strongest partners are pairwise correlated on every dataset
CORRELATION_SETS = pytest.mark.parametrize(
    "corr",
    [lm.CorrelationSet(), lm.CorrelationSet.from_pairs([(0, 1), (2, 4)]),
     lm.CorrelationSet.from_pairs(combinations(range(4), 2))],
    ids=["independent", "correlated", "clique"],
)


class TestTripletEngineEquivalence:
    @CORRELATION_SETS
    @pytest.mark.parametrize("kind, path", [
        (lm.RANKING, "continuous"), (lm.RANKING, "hypercube"), (lm.RANKING, "isotropic"),
        (lm.REAL_VECTOR, "continuous"), (lm.REAL_VECTOR, "isotropic"),
        (lm.FINITE_METRIC, "isotropic"), (lm.FINITE_METRIC, "continuous"),
    ])
    def test_matches_per_triplet_reference(self, kind, path, corr):
        prior = lm.SecondMomentPrior(1.0) if kind == lm.REAL_VECTOR else None
        self.check(six_labeler_data(kind), path, corr, prior)

    @CORRELATION_SETS
    def test_hypercube_two_point_prior(self, corr):
        # the two truth-value runs weighted (p, 1 - p) rather than halves
        self.check(six_labeler_data(lm.RANKING), "hypercube", corr, lm.TwoPointPrior(0.3))

    @staticmethod
    def check(data, path, corr, prior):
        model = lm.learn_label_model(data, corr=corr, prior=prior, path=path)
        md, acc, thetas, pairwise = per_triplet_reference(data, path, corr, prior)
        np.testing.assert_array_equal(model.expected_distances, md)
        np.testing.assert_array_equal(model.accuracies, acc)
        np.testing.assert_array_equal(model.thetas, thetas)
        np.testing.assert_array_equal(model.pairwise_moments, pairwise)


ROWS = st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 3)))


def triplet_rows(elements, count=3):
    """``count`` (rows, coords) arrays of one shape drawn from ``elements``."""
    return ROWS.flatmap(lambda shape: st.tuples(*[hnp.arrays(np.float64, shape, elements=elements)] * count))


# at most one NaN or infinite input: (argument index, value); an index past the arguments plants nothing
POISON = st.none() | st.tuples(st.integers(0, 6), st.sampled_from([np.nan, np.inf, -np.inf]))


def plant(args, poison):
    """Copies of ``args`` with the poison in the last coordinate, and the poisoned argument's index or None.

    A (rows, coords) argument takes it in row 0 only; a per-coordinate (coords,) one, in every row.
    """
    args = [np.array(x) for x in args]
    if poison is None or poison[0] >= len(args):
        return args, None
    index, value = poison
    args[index][(0, -1) if args[index].ndim == 2 else -1] = value
    return args, index


class TestMaskedCores:
    """Each masked core, evaluated on many triplet rows at once, agrees row by
    row with its public scalar function, rejected rows included. A row with a
    NaN or infinite input is refused by the public solver, naming the input."""

    @settings(max_examples=80, deadline=None)
    @given(triplet_rows(st.sampled_from([0.0, 1e-7, -1e-6, 0.02, -0.3, 0.55, 1.0])), POISON)
    def test_continuous(self, rows, poison):
        # only the denominator |e_bc| decides: a floored |e_ab| or |e_ac| is labeler a's magnitude near 0
        (e_ab, e_ac, e_bc, sm), bad = plant([*rows, np.linspace(0.5, 2.0, rows[0].shape[1])], poison)
        mags, ok = lm._continuous_core(e_ab, e_ac, e_bc, sm)
        np.testing.assert_array_equal(ok, ~(np.abs(e_bc) <= lm.EPS_FLOOR))  # a NaN passes, as in the median
        for k in range(len(e_ab)):
            if bad is not None and (k == 0 or bad == 3):
                name = ("e_ab", "e_ac", "e_bc", "second_moment")[bad]
                with pytest.raises(InvalidArgumentError, match=f"^{name} must be finite"):
                    lm.continuous_triplets(e_ab[k], e_ac[k], e_bc[k], sm)
                continue
            try:
                expect, _, _ = lm.continuous_triplets(e_ab[k], e_ac[k], e_bc[k], sm)
            except DegenerateMomentError:
                assert (np.abs(np.stack([e_ab[k], e_ac[k], e_bc[k]])) <= lm.EPS_FLOOR).any()
                for i in np.flatnonzero(ok[k]):
                    assert mags[k, i] == np.sqrt(abs(e_ab[k, i]) * abs(e_ac[k, i]) * sm[i] / abs(e_bc[k, i]))
                continue
            assert ok[k].all()
            np.testing.assert_array_equal(mags[k], expect)

    @settings(max_examples=80, deadline=None)
    @given(triplet_rows(st.floats(0.0, 1.0), count=6), st.sampled_from([0.3, 0.5, 0.8]), POISON)
    def test_quadratic(self, rows, p, poison):
        (o_ab, o_ac, o_bc, l_a, l_b, l_c), bad = plant(rows, poison)
        with np.errstate(all="ignore"):  # the learner's moments are finite; only these rows are not
            beta, ok = lm._quadratic_core(o_ab, o_bc, o_ac, l_a, l_b, l_c, p)
            reference, ref_ok = reference_quadratic_triplets(o_ab, o_ac, o_bc, l_a, l_b, l_c, p)
        np.testing.assert_array_equal(ok, ref_ok)
        np.testing.assert_array_equal(beta, reference[1])
        for r in range(len(o_ab)):
            if bad is not None and r == 0:
                name = ("o_ab", "o_ac", "o_bc", "l_a", "l_b", "l_c")[bad]
                with pytest.raises(InvalidArgumentError, match=f"^{name}: probabilities must be finite"):
                    lm.quadratic_triplets(o_ab[r], o_ac[r], o_bc[r], l_a[r], l_b[r], l_c[r], p)
                continue
            try:
                expect = lm.quadratic_triplets(o_ab[r], o_ac[r], o_bc[r], l_a[r], l_b[r], l_c[r], p)
            except InconsistentMomentsError:
                assert not ok[r].all()
                continue
            assert ok[r].all()
            np.testing.assert_array_equal(beta[r], expect[1])
            for got, want in zip(expect, reference):
                np.testing.assert_array_equal(got, want[r])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 7).flatmap(
        lambda m: hnp.arrays(np.float64, (m, m), elements=st.one_of(st.floats(0.0, 5.0), st.just(np.nan)))
    ))
    def test_half_sum(self, pair_dist):
        m = len(pair_dist)
        b, c = (np.array(x) for x in zip(*combinations(range(1, m), 2)))
        values, ok = lm._half_sum_core(pair_dist[0, b], pair_dist[0, c], pair_dist[b, c])
        for k in range(len(b)):
            try:
                expect = lm.isotropic_accuracies(pair_dist, (0, int(b[k]), int(c[k])))
            except InvalidArgumentError:
                assert not ok[k]
                continue
            assert ok[k]
            assert values[k] == expect


def every_partner_pair(m):
    """Each labeler's partner pairs (b, c), b < c, over all other labelers, as index arrays."""
    for a in range(m):
        b, c = zip(*combinations([x for x in range(m) if x != a], 2))
        yield a, np.array(b), np.array(c)


class TestGatheredPivot:
    """The learner's pivot, every partner pair of a labeler gathered from the
    joint-frequency table in one call, agrees bit for bit with the
    straight-line reference and with the public solver called once per
    triplet and coordinate, rejected coordinates included."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 7).flatmap(lambda m: st.tuples(
        hnp.arrays(np.float64, (m, m, 3), elements=st.floats(0.0, 1.0)),
        hnp.arrays(np.float64, (m, 3), elements=st.floats(0.0, 1.0)))),
        st.sampled_from([0.3, 0.5, 0.8]))
    def test_matches_public_solver_per_triplet(self, tables, p):
        o, l = tables[0], tables[1].copy()
        m = len(l)
        o = np.where(np.triu(np.ones((m, m), dtype=bool))[:, :, None], o, o.transpose(1, 0, 2))
        # coordinate 0: the outer pair (0, 2) factorizes, so pivot 1 has a degenerate lead
        o[0, 2, 0] = o[2, 0, 0] = l[0, 0] * l[2, 0]
        # coordinate 1: pivot 1 between 0 and 2 has no real solution
        l[:3, 1] = 0.2
        o[0, 1, 1] = o[1, 0, 1] = o[1, 2, 1] = o[2, 1, 1] = 0.2
        o[0, 2, 1] = o[2, 0, 1] = 0.0
        for a, b, c in every_partner_pair(m):
            beta, ok = lm._quadratic_core(*lm._triplet_gather(o, a, b, c), l[b], l[a], l[c], p)
            (_, ref_beta, _), ref_ok = reference_quadratic_triplets(o[b, a], o[b, c], o[a, c], l[b], l[a], l[c], p)
            np.testing.assert_array_equal(ok, ref_ok)
            np.testing.assert_array_equal(beta, ref_beta)
            for k in range(len(b)):
                x, z = int(b[k]), int(c[k])
                for i in range(l.shape[1]):
                    try:
                        _, expect, _ = lm.quadratic_triplets(o[x, a, i], o[x, z, i], o[a, z, i],
                                                             l[x, i], l[a, i], l[z, i], p)
                    except InconsistentMomentsError:
                        assert not ok[k, i]
                        continue
                    assert ok[k, i]
                    assert beta[k, i] == expect
        beta, ok = lm._quadratic_core(o[0, 1], o[1, 2], o[0, 2], l[0], l[1], l[2], p)
        assert beta[0] == l[1, 0]  # a degenerate lead leaves the pivot at its marginal
        assert not ok[1]


def triplets(m):
    """Every (a, b, c) with b < c, all three distinct."""
    return [(a, b, c) for a in range(m) for b, c in combinations([x for x in range(m) if x != a], 2)]


# away from 1/2 by at least 0.05: a class-conditional of exactly 1/2 makes the
# outer pair factorize and leaves the pivot underdetermined
INFORMATIVE = st.floats(0.55, 0.98)
SIGNED_RATE = st.one_of(INFORMATIVE, st.floats(0.02, 0.45))


class TestTripletExactness:
    """Each triplet route recovers the accuracies from population moments, for
    every triplet of randomly drawn labelers."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6).flatmap(lambda m: hnp.arrays(
        np.float64, (m, 3), elements=st.floats(0.05, 2.0) | st.floats(-2.0, -0.05))),
        hnp.arrays(np.float64, 3, elements=st.floats(0.2, 3.0)))
    def test_continuous(self, acc, second_moment):
        # conditional independence: e_ab = a_a a_b / E[Y^2], per coordinate
        e = acc[:, None, :] * acc[None, :, :] / second_moment
        for a, b, c in triplets(len(acc)):
            mags = lm.continuous_triplets(e[a, b], e[a, c], e[b, c], second_moment)
            np.testing.assert_allclose(mags, np.abs(acc[[a, b, c]]), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6).flatmap(lambda m: st.lists(SIGNED_RATE, min_size=m, max_size=m)),
           INFORMATIVE, st.floats(0.15, 0.85))
    def test_quadratic(self, outer, pivot, p):
        # the pivot is better than random, so the root above its marginal is the truth
        cond = np.array([pivot, *outer])
        o, l = syn.two_point_population_moments(cond, p)
        for a, c in combinations(range(1, len(cond)), 2):
            got = lm.quadratic_triplets(o[a, 0], o[a, c], o[0, c], l[a], l[0], l[c], p)
            np.testing.assert_allclose(got, cond[[a, 0, c]], rtol=0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6).flatmap(lambda m: hnp.arrays(np.float64, m, elements=st.floats(0.0, 5.0))))
    def test_half_sum(self, expected_distance):
        # additive over the truth: E[d(a, b)] = E[d(a, y)] + E[d(b, y)]
        d = expected_distance[:, None] + expected_distance[None, :]
        np.fill_diagonal(d, 0.0)
        for a, b, c in triplets(len(d)):
            assert lm.isotropic_accuracies(d, (a, b, c)) == pytest.approx(expected_distance[a], rel=1e-12, abs=1e-12)


class TestContiguousPasses:
    """Each piece of the learner's hot path agrees bit for bit with its
    reference in ``conftest``: pair signs from the comparison's bytes, row-take
    gathers, medians from one partition, and every coordinate's signs from one
    breadth-first search."""

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**32 - 1)))
    def test_pair_signs(self, case):
        n, m, rho, seed = case
        rankings = np.argsort(np.random.default_rng(seed).random((n, m, rho)), axis=-1)
        got, want = lm._pair_signs(rankings), reference_pair_signs(rankings)
        assert got.dtype == want.dtype == np.int8
        np.testing.assert_array_equal(got, want)
        # labeler-major view of coordinate-major storage
        assert got.transpose(2, 0, 1).flags.c_contiguous

    def test_pair_signs_past_the_uint8_positions(self):
        rankings = np.argsort(np.random.default_rng(3).random((2, 2, 300)), axis=-1)
        np.testing.assert_array_equal(lm._pair_signs(rankings), reference_pair_signs(rankings))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 7).flatmap(lambda m: st.tuples(
        hnp.arrays(np.float64, (m, m, 3), elements=st.floats(0.0, 1.0)),
        hnp.arrays(np.float64, (m, 3), elements=st.floats(0.0, 1.0)))),
        st.sampled_from([0.3, 0.5, 0.8]))
    def test_pivot(self, tables, p):
        # the core reads the pivot's o[b, a] from a's row: its reference takes o[b, a] by fancy index
        o, l = tables
        m = len(l)
        o = np.where(np.triu(np.ones((m, m), dtype=bool))[:, :, None], o, o.transpose(1, 0, 2))
        o[0, 2, 0] = o[2, 0, 0] = l[0, 0] * l[2, 0]  # a degenerate lead
        for a, b, c in every_partner_pair(m):
            beta, ok = lm._quadratic_core(*lm._triplet_gather(o, a, b, c), l[b], l[a], l[c], p)
            ref_beta, ref_ok = reference_quadratic_core(o[b, a], o[a, c], o[b, c], l[b], l[a], l[c], p)
            assert beta.tobytes() == ref_beta.tobytes()
            np.testing.assert_array_equal(ok, ref_ok)
        # every labeler pivots at once, as the learner calls it
        a = np.arange(m)[:, None]
        b, c = (np.stack(x) for x in zip(*((b, c) for _, b, c in every_partner_pair(m))))
        beta, ok = lm._quadratic_core(*lm._triplet_gather(o, a, b, c), l[b], l[a], l[c], p)
        ref_beta, ref_ok = reference_quadratic_core(o[b, a], o[a, c], o[b, c], l[b], l[a], l[c], p)
        assert beta.tobytes() == ref_beta.tobytes()
        np.testing.assert_array_equal(ok, ref_ok)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6).flatmap(
        lambda m: hnp.arrays(np.float64, (m, m, 2), elements=st.floats(-2.0, 2.0) | st.just(np.nan))))
    def test_triplet_gather(self, table):
        # no symmetry needed: (a, b), (a, c) are a's row and (b, c) a flat pair row
        for a, b, c in every_partner_pair(len(table)):
            for got, want in zip(lm._triplet_gather(table, a, b, c), (table[a, b], table[a, c], table[b, c])):
                assert got.tobytes() == want.tobytes()
            for got, want in zip(lm._triplet_gather(table[:, :, 0], a, b, c),
                                 (table[a, b, 0], table[a, c, 0], table[b, c, 0])):
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda k: hnp.arrays(
        np.float64, st.sampled_from([(k,), (k, 1), (k, 3)]),
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]) | st.floats(-10.0, 10.0))))
    def test_median(self, rows):
        # odd and even row counts, one row, 1-D (isotropic) rows, signed zeros, NaN
        got, count = lm._median_rows(rows[None], np.ones((1, *rows.shape), dtype=bool))
        want = np.asarray(np.median(rows, axis=0))
        assert got[0].shape == want.shape
        assert got[0].tobytes() == want.tobytes()
        assert (count == len(rows)).all()

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 7), st.integers(1, 3)).flatmap(lambda shape: st.tuples(
        hnp.arrays(np.float64, shape, elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
                   | st.floats(-10.0, 10.0)),
        hnp.arrays(bool, shape))))
    def test_masked_median(self, case):
        # per labeler and coordinate, np.median of the kept rows only, whatever the left-out rows hold
        rows, ok = case
        got, count = lm._median_rows(rows, ok)
        np.testing.assert_array_equal(count, ok.sum(axis=1))
        for a, i in zip(*np.nonzero(count)):
            want = np.median(rows[a, ok[a, :, i], i])
            assert got[a, i].tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(st.integers(1, 9), st.integers(1, 4)).flatmap(lambda md: st.tuples(
        hnp.arrays(np.float64, md, elements=st.floats(0.0, 1.0)),
        hnp.arrays(bool, (md[0], *md)),
        hnp.arrays(np.float64, (md[0], *md), elements=st.sampled_from([1e-9, -1e-9, 0.3, -0.3, 0.8, -0.6, np.nan])))))
    def test_signs(self, case):
        # sparse, asymmetric links: deep searches and unreachable labelers
        mags, links, values = case
        e = np.where(links, values, 0.0)
        self.check_signs(mags, e)

    @pytest.mark.parametrize("seed", range(8))
    def test_signs_deep_chains(self, seed):
        # each coordinate links its labelers in one random chain (depth m - 1); some lose a link
        rng = np.random.default_rng(seed)
        m, d = 8, 5
        e = np.zeros((m, m, d))
        for i in range(d):
            order = rng.permutation(m)
            for a, b in zip(order[:-1], order[1:]):
                e[a, b, i] = e[b, a, i] = rng.choice([-0.4, 0.4])
            if rng.random() < 0.4:
                a, b = order[3], order[4]
                e[a, b, i] = e[b, a, i] = 0.0
        self.check_signs(rng.random((m, d)), e)

    @staticmethod
    def check_signs(mags, e):
        d = mags.shape[1]
        want, failing = [], []
        for i in range(d):
            try:
                want.append(reference_resolve_signs(mags[:, i], e[:, :, i]))
            except SignAmbiguousError:
                failing.append(i)
        if failing:
            with pytest.raises(SignAmbiguousError, match=f"coordinate {failing[0]}: cannot reach"):
                lm.resolve_signs(mags, e)
            return
        got = lm.resolve_signs(mags, e)
        assert got.tobytes() == np.stack(want, axis=1).tobytes()
        for i in range(d):
            assert lm.resolve_signs(mags[:, i], e[:, :, i]).tobytes() == want[i].tobytes()

    def test_learner_pair_tables_are_symmetric(self, monkeypatch):
        # the core reads the pivot's o[b, a] as o[a, b]: exact because the +-1 sums are integers
        inner, read = lm._triplet_gather, []

        def checked(table, a, b, c):
            assert table.tobytes() == np.ascontiguousarray(table.swapaxes(0, 1)).tobytes()
            read.append(table.shape)
            return inner(table, a, b, c)

        monkeypatch.setattr(lm, "_triplet_gather", checked)
        for data in (six_labeler_data(lm.RANKING), near_random_data()):
            lm.learn_label_model(data, path="hypercube", prior=lm.TwoPointPrior(0.3))
        assert read == [(6, 6, 6)] * 2 + [(12, 12, 6)] * 2  # one joint-frequency table per truth value


def near_random_data():
    # movies-style: 4 good labelers, 8 near-random ones with many degenerate triplets
    return make_ranking_data(syn.movies_style_thetas(12, 5), rho=4, n=200, seed=5)[1]


REFERENCE_PIECES = {
    "_pair_signs": reference_pair_signs,
    "_partner_pairs": reference_partner_pairs,
    "_quadratic_core": reference_quadratic_core,
    "_triplet_estimates": reference_triplet_estimates,
    "_signed_accuracies": reference_signed_accuracies,
    "resolve_signs": reference_resolve_signs,
}


class TestReferencePieces:
    """The learner with every reference piece patched in learns the same bytes,
    on every route, with and without a correlation set. The learner runs with
    each value the deprecated ``triplet_policy`` keyword once took, the
    reference without it: the keyword must change no byte."""

    @pytest.fixture(scope="class")
    def datasets(self):
        return {"ranking": six_labeler_data(lm.RANKING), "near_random": near_random_data(),
                "real": six_labeler_data(lm.REAL_VECTOR), "finite": six_labeler_data(lm.FINITE_METRIC)}

    @CORRELATION_SETS
    @pytest.mark.parametrize("policy", ["first", "median"])  # values of the deprecated keyword
    @pytest.mark.parametrize("name, path, prior", [
        ("ranking", "continuous", None), ("ranking", "hypercube", None), ("ranking", "isotropic", None),
        ("ranking", "hypercube", lm.TwoPointPrior(0.3)),
        ("near_random", "continuous", None), ("near_random", "hypercube", None), ("near_random", "isotropic", None),
        ("real", "continuous", lm.SecondMomentPrior(1.0)), ("real", "isotropic", lm.SecondMomentPrior(1.0)),
        ("finite", "isotropic", None), ("finite", "continuous", None),
    ], ids=["rank-cont", "rank-hyper", "rank-iso", "rank-hyper-2pt", "near-random-cont", "near-random-hyper",
            "near-random-iso", "real-cont", "real-iso", "finite-iso", "finite-cont"])
    def test_learned_bytes_equal(self, datasets, name, path, prior, policy, corr, monkeypatch):
        data = datasets[name]
        with pytest.warns(DeprecationWarning, match="triplet_policy"):
            got = self.learn(data, corr=corr, prior=prior, path=path, triplet_policy=policy)
        for attr, reference in REFERENCE_PIECES.items():
            monkeypatch.setattr(lm, attr, reference)
        want = self.learn(data, corr=corr, prior=prior, path=path)
        assert got == want

    @staticmethod
    def learn(data, **kwargs):
        try:
            return model_bytes(lm.learn_label_model(data, **kwargs))
        except DegenerateMomentError as exc:
            return type(exc), str(exc)


class TestPartnerRule:
    """Each labeler's triplets are the uncorrelated pairs of its K strongest
    admissible partners, ranked by a stable sort (ties to the lower index), or
    its strongest uncorrelated pairs where there is none, and every labeler's
    pairs are solved in one call per truth value."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 9).flatmap(lambda m: st.tuples(
        hnp.arrays(np.float64, m, elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])),  # many ties
        st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda p: p[0] != p[1]),
                 max_size=2 * m))))
    def test_matches_plain_loops(self, case):
        strength, edges = case
        m = len(strength)
        free = lm._admissible(m, lm.CorrelationSet.from_pairs(edges))
        try:
            want = reference_partner_pairs(strength, free)
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                lm._partner_pairs(strength, free)
            return
        b, c, valid = lm._partner_pairs(strength, free)
        assert b.shape == c.shape == valid.shape == (m, math.comb(min(lm._PARTNERS, m - 1), 2))
        assert [list(zip(b[a, valid[a]].tolist(), c[a, valid[a]].tolist())) for a in range(m)] == want
        # a slot past the partners names the labeler itself
        own = np.arange(m)[:, None]
        np.testing.assert_array_equal(b == own, c == own)

    def test_strongest_partners_are_chosen(self, monkeypatch):
        # labelers 0-3 near-random, 4-7 good: the good ones are everybody's partners
        data = make_ranking_data((0.001, 0.002, 0.001, 0.003, 2.0, 1.5, 1.2, 1.0), rho=5, n=2000, seed=3)[1]
        inner, chosen = lm._partner_pairs, []
        monkeypatch.setattr(lm, "_partner_pairs", lambda strength, free: chosen.append(inner(strength, free)) or chosen[0])
        lm.learn_label_model(data)
        b, c, valid = chosen[0]
        for a in range(8):
            partners = set(b[a, valid[a]].tolist()) | set(c[a, valid[a]].tolist())
            assert len(partners) == 4 and partners >= {4, 5, 6, 7} - {a}

    @pytest.mark.parametrize("path, core, runs", [("continuous", "_continuous_core", 1),
                                                  ("hypercube", "_quadratic_core", 2),
                                                  ("isotropic", "_half_sum_core", 1)])
    def test_one_solve_call_per_truth_value(self, path, core, runs, monkeypatch):
        calls = []
        inner = getattr(lm, core)
        monkeypatch.setattr(lm, core, lambda *args: calls.append(1) or inner(*args))
        lm.learn_label_model(near_random_data(), path=path)
        assert len(calls) == runs

    def test_correlated_strongest_partners_take_the_strongest_pairs(self):
        # labelers 0-3 pairwise correlated: each of 4, 5 and 6 pairs up one of them with a weaker labeler
        thetas = (2.0, 1.8, 1.6, 1.4, 0.5, 0.4, 0.3)
        _, data = make_ranking_data(thetas, rho=5, n=1000, seed=1)
        corr = lm.CorrelationSet.from_pairs(combinations(range(4), 2))
        for path in ("continuous", "hypercube", "isotropic"):
            model = lm.learn_label_model(data, corr=corr, path=path)
            assert np.isfinite(model.thetas).all()
        np.testing.assert_allclose(lm.learn_label_model(data, corr=corr).thetas[4:], thetas[4:], atol=0.05)

    def test_clique_pairs_rank_by_the_weaker_member(self):
        # labeler 4's strongest partners 0-3 are pairwise correlated: it takes the six pairs whose
        # weaker member ranks highest, ties broken by the stronger member
        free = lm._admissible(7, lm.CorrelationSet.from_pairs(combinations(range(4), 2)))
        b, c, valid = lm._partner_pairs(np.arange(7.0)[::-1], free)
        assert valid[4].all()
        assert list(zip(b[4].tolist(), c[4].tolist())) == [(0, 5), (0, 6), (1, 5), (1, 6), (2, 5), (3, 5)]

    def test_correlated_partners_leave_no_triplet(self):
        # labeler 0's only admissible partners, 1 and 2, are declared correlated with each other
        _, data = make_ranking_data((1.5, 1.2, 1.0, 0.8), rho=4, n=500, seed=3)
        corr = lm.CorrelationSet.from_pairs([(0, 3), (1, 2)])
        with pytest.raises(ConfigurationError, match="triplet unavailable for labeler 0"):
            lm.learn_label_model(data, corr=corr)
