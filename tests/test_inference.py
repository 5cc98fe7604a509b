"""Aggregation rules through aggregate_dataset, the Kemeny solvers, Gaussian inference."""

import re
import warnings
from fractions import Fraction
from itertools import permutations as iter_permutations
from unittest import mock

import numpy as np
import pytest
from conftest import (
    brute_force_weighted_kemeny,
    fraction_kemeny_cost,
    naive_kendall,
    preference_tensor,
    ranking_positions,
    reference_aggregate_finite,
    reference_finite_costs,
    reference_kemeny_exact,
    reference_kemeny_fraction,
    reference_kemeny_cost,
    reference_kemeny_local_search,
    reference_majority_components,
    reference_preference_matrix,
    reference_subset_dp,
)
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
from uws.label_model import FINITE_METRIC, RANKING, REAL_VECTOR, LabelingMatrix, LabelModel
from uws.metric_spaces import FiniteMetricSpace, graph_hop_metric


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

    def test_one_item(self):
        # a learner refuses rho = 1; the vote has nothing to order
        assert majority_vote(ranking_problem([[0], [0], [0]])).tolist() == [0]

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

    def test_refuses_a_component_above_the_table_cap(self):
        # 16 items still fit the subset table; a component of 17 would need 18.9 MB
        assert inf.kemeny_exact([np.arange(16)[::-1]], [1.0], 16).tolist() == list(range(15, -1, -1))
        # 17 cyclic shifts of one order: item i beats the next 8 after it around the cycle, one component
        sigma = np.random.default_rng(17).permutation(17)
        shifts = sigma[(np.arange(17)[:, None] + np.arange(17)) % 17]
        pref = preference_tensor(shifts[None], np.ones(17))
        assert components(pref) == [[sorted(sigma.tolist())]]
        with pytest.raises(UseHeuristicError, match="task 1: a majority-graph component of 17 items"):
            inf.kemeny_exact(np.stack([np.tile(sigma, (17, 1)), shifts]), np.ones(17), 17)

    @pytest.mark.parametrize("rho", [17, 20])
    def test_long_rankings_with_small_components_are_exact(self, rho):
        # every labeler ranks the same blocks in the same order, each block shuffled, so no
        # component outgrows its block and an optimum keeps the blocks in order: the oracle
        # orders each block on its own. Weights in quarters sum exactly, so the orders must agree
        rng = np.random.default_rng(300 + rho)
        labels = planted_blocks(rng, rho, 7, 3, 5, 0)
        weights = rng.integers(1, 9, size=7) / 4
        got = inf.kemeny_exact(labels, weights, rho)
        for task, z in zip(labels, got):
            cuts = [p for p in range(rho + 1) if len({frozenset(lab[:p]) for lab in task.tolist()}) == 1]
            assert max(np.diff(cuts)) <= 16
            expect = []
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                items = np.sort(task[0, lo:hi])
                block = np.searchsorted(items, task[:, lo:hi])  # each labeler's order, as indices into items
                expect.extend(items[reference_kemeny_fraction(block, weights, hi - lo)[0]].tolist())
            assert z.tolist() == expect
        # unanimous labels: every item is its own component
        assert inf.kemeny_exact(np.tile(labels[0, :1], (5, 1)), np.ones(5), rho).tolist() == labels[0, 0].tolist()

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
        local = inf.kemeny_local_search(labels, weights, rho, seed=2)
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


def planted_blocks(rng, rho, m, n, n_blocks, n_noise):
    """(n, m, rho) labels with planted Condorcet structure: per task, one random split of the
    shuffled items into ``n_blocks`` blocks; each of the first m - n_noise labelers ranks the
    blocks in order, each block shuffled, and the rest rank the items at random."""
    labels = np.empty((n, m, rho), dtype=np.int64)
    for t in range(n):
        items = rng.permutation(rho)
        cuts = np.sort(rng.choice(np.arange(1, rho), size=min(n_blocks, rho) - 1, replace=False))
        blocks = np.split(items, cuts)
        for a in range(m):
            labels[t, a] = (rng.permutation(rho) if a >= m - n_noise
                            else np.concatenate([rng.permutation(b) for b in blocks]))
    return labels


def pair_sums(pref):
    """The (P, n) pair sums ``first`` and ``second`` read off an (n, rho, rho) preference tensor."""
    iu, ju = perm.pair_indices(pref.shape[1])
    return pref[:, iu, ju].T, pref[:, ju, iu].T


def components(pref):
    """Each task's components of the weak majority graph, as (n,) lists of item lists in order."""
    order, ends = inf._majority_components(*pair_sums(pref), pref.shape[1])
    out = []
    for o, e in zip(order, ends):
        cuts = np.flatnonzero(e)[:-1] + 1
        out.append([sorted(c.tolist()) for c in np.split(o, cuts)])
    return out


class TestMajorityDecomposition:
    """kemeny_exact runs the subset program on each strongly connected component of a task's weak
    majority graph; it must return what the whole-set program returns."""

    @settings(max_examples=150, deadline=None)
    @given(rho=st.integers(1, 10), m=st.integers(1, 8), n=st.integers(1, 5), n_blocks=st.integers(1, 10),
           n_noise=st.integers(0, 3), quarters=st.booleans(), label_seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_the_whole_set_program(self, rho, m, n, n_blocks, n_noise, quarters, label_seed, data):
        # integer and quarter weights sum exactly, so the orders must agree bit for bit;
        # equal weights on opposed labelers make exact pair ties, which join two items' components
        labels = planted_blocks(np.random.default_rng(label_seed), rho, m, n, n_blocks, min(n_noise, m))
        weights = np.array(data.draw(st.lists(st.integers(-4, 12), min_size=m, max_size=m)), dtype=float)
        if quarters:
            weights /= 4
        got = inf.kemeny_exact(labels, weights, rho)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_subset_dp(labels, weights, rho))

    @settings(max_examples=150, deadline=None)
    @given(rho=st.integers(1, 12), m=st.integers(1, 8), n=st.integers(1, 5), n_blocks=st.integers(1, 12),
           n_noise=st.integers(0, 3), label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_partition_is_the_strong_components(self, rho, m, n, n_blocks, n_noise, label_seed, data):
        labels = planted_blocks(np.random.default_rng(label_seed), rho, m, n, n_blocks, min(n_noise, m))
        weights = np.array(data.draw(st.lists(weight_values, min_size=m, max_size=m)))
        pref = preference_tensor(labels, weights)
        for p, comps in zip(pref, components(pref)):
            weak = (p >= p.T) & ~np.eye(rho, dtype=bool)
            k, label = connected_components(csr_matrix(weak), directed=True, connection="strong")
            assert sorted(comps) == sorted(sorted(np.flatnonzero(label == c).tolist()) for c in range(k))
            # in the graph's order: every item of a component strictly beats every later item
            for a, comp in enumerate(comps):
                later = [j for c in comps[a + 1:] for j in c]
                assert (p[np.ix_(comp, later)] > p[np.ix_(later, comp)].T).all()

    @settings(max_examples=150, deadline=None)
    @given(rho=st.integers(1, 16), n=st.integers(1, 6), top=st.integers(0, 4),
           entry_seed=st.integers(0, 2**32 - 1))
    def test_split_matches_the_prefix_table_reference(self, rho, n, top, entry_seed):
        # small-integer entries, diagonal included, not built from rankings: exact ties are common
        # and an entry need not pair with its transpose into a constant sum
        pref = np.random.default_rng(entry_seed).integers(0, top + 1, size=(n, rho, rho)).astype(float)
        order, ends = inf._majority_components(*pair_sums(pref), rho)
        expect_order, expect_ends = reference_majority_components(pref)
        assert np.array_equal(order, expect_order) and np.array_equal(ends, expect_ends)
        assert ends[:, -1].all()

    @pytest.mark.parametrize("rho", [9, 10, 11, 12])
    def test_planted_components_reach_the_exact_optimum(self, rho):
        # weights in quarters sum exactly, so orders and objectives must equal the oracle's
        rng = np.random.default_rng(200 + rho)
        labels = planted_blocks(rng, rho, 7, 2, 3, 2)
        weights = rng.integers(1, 9, size=7) / 4
        pref = preference_tensor(labels, weights)
        assert all(len(comps) > 1 for comps in components(pref))
        for task, z in zip(labels, inf.kemeny_exact(labels, weights, rho)):
            order, best = reference_kemeny_fraction(task, weights, rho)
            assert np.array_equal(z, order) and fraction_kemeny_cost(task, weights, z) == best

    def test_sixteen_items_in_one_component_fill_the_whole_table(self):
        # 16 cyclic shifts of one order: item i beats the next 7 after it around the cycle and ties
        # the one opposite, so all 16 items form one component and the program needs all 2^16 subsets
        sigma = np.random.default_rng(16).permutation(16)
        shifts = sigma[(np.arange(16)[:, None] + np.arange(16)) % 16]
        pref = preference_tensor(shifts[None], np.ones(16))
        assert components(pref) == [[sorted(sigma.tolist())]]
        got = inf.kemeny_exact(shifts, np.ones(16), 16)
        assert np.array_equal(got, reference_subset_dp(shifts[None], np.ones(16), 16)[0])

    def test_sixteen_items_in_one_component_with_a_planted_optimum(self):
        # identity (weight 3) and the identity with item 0 moved last or item 15 moved first (weight 2
        # each): item 15 beats item 0 by 1, every other pair i < j goes to i, adjacent pairs by 3. The
        # cycle 0 -> 1 -> ... -> 15 -> 0 makes one component; the identity breaks only its 15 -> 0 arc
        # (excess 1), and any other order breaks an arc i -> i + 1 (excess 3): the identity is the
        # unique optimum, relabelled here by sigma
        sigma = np.random.default_rng(61).permutation(16)
        ident = np.arange(16)
        labels = sigma[np.array([ident, np.r_[1:16, 0], np.r_[15, 0:15]])]
        weights = np.array([3.0, 2.0, 2.0])
        pref = preference_tensor(labels[None], weights)
        assert components(pref) == [[sorted(sigma.tolist())]]
        got = inf.kemeny_exact(labels, weights, 16)
        assert got.tolist() == sigma.tolist()
        lower = sum(min(3 + 2 * (i > 0) + 2 * (j < 15), 2 * (i == 0) + 2 * (j == 15))
                    for i in range(16) for j in range(i + 1, 16))
        assert fraction_kemeny_cost(labels, weights, got) == lower + 1

    @settings(max_examples=80, deadline=None)
    @given(rho=st.integers(2, 10), h=st.integers(1, 5), n=st.integers(1, 6), label_seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_two_item_components_keep_ascending_ids(self, rho, h, n, label_seed, data):
        # labelers 2a and 2a + 1 share a weight and rank a task's items alike but for some adjacent
        # pairs that one of them swaps: each swapped pair ties in the same float sum either way round
        # and is a two-item component, every other pair is unanimous. Both orders of a tied pair cost
        # the same, so it keeps ascending ids, under mv and weighted, without the subset program
        rng = np.random.default_rng(label_seed)
        labels = np.empty((n, 2 * h, rho), dtype=np.int64)
        expect = np.empty((n, rho), dtype=np.int64)
        for t in range(n):
            base = rng.permutation(rho)
            flipped = base.copy()
            expect[t] = base
            for p in range(0, rho - 1, 2):
                if rng.random() < 0.6:
                    flipped[p:p + 2] = base[p:p + 2][::-1]
                    expect[t, p:p + 2] = np.sort(base[p:p + 2])
            for a in range(h):
                labels[t, 2 * a: 2 * a + 2] = (base, flipped) if rng.random() < 0.5 else (flipped, base)
        weights = np.repeat(data.draw(st.lists(st.floats(0.01, 3.0), min_size=h, max_size=h)), 2)
        matrix = LabelingMatrix(RANKING, labels)
        with mock.patch.object(inf, "_subset_dp", side_effect=AssertionError("subset program")), \
                mock.patch.object(inf, "_preference_tensor", side_effect=AssertionError("full tensor")):
            for rule in ("mv", "weighted"):
                assert np.array_equal(inf.aggregate_dataset(matrix, weights=weights, rule=rule), expect)
            assert np.array_equal(inf.kemeny_exact(labels, weights, rho), expect)

    def test_the_subset_program_sees_no_two_item_component(self):
        # planted blocks with noise labelers: components of every size, and the answer of the whole-set
        # program, which integer and dyadic weights reach bit for bit
        labels = planted_blocks(np.random.default_rng(35), 10, 6, 200, 5, 2)
        data = LabelingMatrix(RANKING, labels)
        sizes = []
        subset_dp = inf._subset_dp

        def spy(pref, layers):
            sizes.append(pref.shape[1])
            return subset_dp(pref, layers)

        for rule, weights in (("mv", np.ones(6)), ("weighted", np.array([0.5, 1.5, 1.0, 1.0, 0.5, 0.5]))):
            comps = components(preference_tensor(labels, weights))
            sizes.clear()
            with mock.patch.object(inf, "_subset_dp", spy), \
                    mock.patch.object(inf, "_preference_tensor", side_effect=AssertionError("full tensor")):
                got = np.asarray(inf.aggregate_dataset(data, weights=weights, rule=rule))
            assert min(sizes) > 2 and {len(c) for task in comps for c in task} >= {1, 2, 3}
            assert np.array_equal(got, reference_subset_dp(labels, weights, 10))
            for z, task in zip(got, comps):
                at = np.cumsum([0] + [len(c) for c in task])
                for lo, c in zip(at, task):
                    if len(c) == 2:
                        assert z[lo:lo + 2].tolist() == c


class TestKemenyLocalSearch:
    def test_unanimous(self):
        p = [4, 1, 0, 3, 2]
        got = inf.kemeny_local_search([p, p, p], [1.0, 1.0, 1.0], 5, seed=0)
        assert got.tolist() == p

    def test_never_worse_than_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            labels = np.array([rng.permutation(12) for _ in range(5)])
            w = rng.uniform(0.1, 2.0, size=5)
            got = inf.kemeny_local_search(labels, w, 12, seed=1)
            obj = lambda z: sum(wi * naive_kendall(lab, z) for wi, lab in zip(w, labels))
            assert obj(got) <= min(obj(lab) for lab in labels) + 1e-9

    def test_restart_monotonicity(self):
        rng = np.random.default_rng(19)
        labels = np.array([rng.permutation(10) for _ in range(6)])
        w = rng.uniform(0.1, 2.0, size=6)
        obj = lambda z: sum(wi * naive_kendall(lab, z) for wi, lab in zip(w, labels))
        # the eight starts begin with the reference's one
        one = obj(reference_kemeny_local_search(labels, w, 10, restarts=1, seed=7))
        many = obj(inf.kemeny_local_search(labels, w, 10, seed=7))
        assert many <= one

    def test_close_to_exact(self):
        rng = np.random.default_rng(23)
        hits = 0
        for _ in range(30):
            labels = np.array([rng.permutation(6) for _ in range(5)])
            w = rng.uniform(0.1, 2.0, size=5)
            ls = inf.kemeny_local_search(labels, w, 6, seed=3)
            _, exact_cost = brute_force_weighted_kemeny(labels, w, 6)
            obj = sum(wi * naive_kendall(lab, ls) for wi, lab in zip(w, labels))
            if obj <= 1.02 * exact_cost + 1e-9:
                hits += 1
        assert hits >= 28

    def test_one_item_returns_the_first_label(self):
        assert inf.kemeny_local_search([[0], [0], [0]], [1.0, 2.0, 0.5], 1).tolist() == [0]
        assert inf.kemeny_local_search(np.zeros((4, 3, 1), dtype=int), np.ones(3), 1).tolist() == [[0]] * 4

    @pytest.mark.parametrize("labels", [[[0, 1, 2], [2, 1, 0], [1, 0, 2]], np.zeros((2, 3, 1), dtype=int)])
    def test_refuses_a_negative_seed(self, labels):
        with mock.patch.object(inf, "_pair_sums", side_effect=AssertionError("work before the check")):
            with pytest.raises(InvalidArgumentError, match="seed must be a non-negative integer, got -1"):
                inf.kemeny_local_search(labels, np.ones(3), np.shape(labels)[-1], seed=-1)

    def test_no_restart_count(self):
        # eight starts always: the best input label, the mean-position order and six random orders
        with pytest.raises(TypeError, match="restarts"):
            inf.kemeny_local_search([[0, 1, 2], [2, 1, 0]], np.ones(2), 3, restarts=8)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(29)
        labels = np.array([rng.permutation(11) for _ in range(5)])
        a = inf.kemeny_local_search(labels, np.ones(5), 11, seed=5)
        b = inf.kemeny_local_search(labels, np.ones(5), 11, seed=5)
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

    def test_accuracy_count_must_match_the_labelers(self):
        with pytest.raises(InvalidArgumentError, match="2 accuracies for 3 labeler values"):
            inf.gaussian_conditional_mean([1.0, 2.0, 3.0], [0.5, 0.5], np.eye(2))

    def test_singular_after_ridge(self):
        with pytest.raises(SingularCovarianceError):
            inf.gaussian_conditional_mean([1.0, 1.0], [0.5, 0.5], np.zeros((2, 2)))


class TestAggregateDataset:
    @pytest.mark.parametrize("rule", ["mv", "weighted"])
    @pytest.mark.parametrize("rho", [3, 12])
    def test_refuses_a_negative_seed_for_every_rule_and_rho(self, rule, rho):
        # refused before any work, also where no local search would run to use it
        rng = np.random.default_rng(rho)
        data = LabelingMatrix(RANKING, np.array([[rng.permutation(rho) for _ in range(4)] for _ in range(3)]))
        with mock.patch.object(inf, "_kemeny", side_effect=AssertionError("work before the check")):
            with pytest.raises(InvalidArgumentError, match="seed must be a non-negative integer, got -2"):
                inf.aggregate_dataset(data, weights=np.ones(4), rule=rule, seed=-2)

    def test_refuses_a_negative_seed_on_every_space(self):
        space = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for data in (LabelingMatrix(REAL_VECTOR, np.ones((3, 4))),
                     LabelingMatrix(FINITE_METRIC, np.zeros((3, 4), int), space)):
            with pytest.raises(InvalidArgumentError, match="seed must be a non-negative integer"):
                inf.aggregate_dataset(data, rule="mv", seed=-1)

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

    @pytest.mark.parametrize("kwargs", [{"rule": "mv"}, {"weights": [1.0, 2.0, 3.0]}], ids=["mv", "weights"])
    def test_reals_near_the_float_limit_aggregate_finite(self, kwargs):
        # three labels of 1e308 sum past float64's range; their mean is 1e308. The other rows keep the bits
        # of the plain weighted sum
        labels = np.array([[1e308] * 3, [0.1, 0.2, 0.7], [-1e308, -1.5e308, -1e308]])
        weights = np.asarray(kwargs.get("weights", np.ones(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inf.aggregate_dataset(LabelingMatrix(REAL_VECTOR, labels), **kwargs)
        assert np.isfinite(got).all()
        expected = [np.average(labels[i] / 1e308, weights=weights) * 1e308 for i in (0, 2)]
        np.testing.assert_allclose([got[0], got[2]], expected, rtol=1e-12)
        assert got[1] == (weights * labels[1]).sum() / weights.sum()

    def test_weights_whose_total_overflows_give_the_rescaled_means(self):
        # the weights' total is inf, so every row sums again; rescaling the weights leaves the result as it is
        labels = np.array([[1.0, 2.0, 6.0], [1e-10, 2e-10, 3e-10], [1e308] * 3])
        data = LabelingMatrix(REAL_VECTOR, labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inf.aggregate_dataset(data, weights=[1e308, 1e308, 0.5e308])
        np.testing.assert_allclose(got, inf.aggregate_dataset(data, weights=[2.0, 2.0, 1.0]), rtol=1e-12)
        np.testing.assert_allclose(got, [2.4, 1.8e-10, 1e308], rtol=1e-12)

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
            with pytest.raises(InvalidArgumentError, match="finite"):
                inf.aggregate_dataset(data, weights=weights)
        with pytest.raises(InvalidArgumentError, match="finite"):
            inf.kemeny_exact(labels[0], weights, 5)
        with pytest.raises(InvalidArgumentError, match="finite"):
            inf.kemeny_local_search(labels, weights, 5)

    def test_unknown_options(self):
        data = LabelingMatrix(REAL_VECTOR, np.ones((2, 3)))
        with pytest.raises(InvalidArgumentError, match="2 weights for 3 labels"):
            inf.aggregate_dataset(data, weights=[1.0, 1.0])

    @pytest.mark.parametrize("solver", [inf.kemeny_exact, inf.kemeny_local_search])
    def test_solvers_refuse_weights_of_the_wrong_length(self, solver):
        # one task's (rho,) or (m, rho) labels, or (n, m, rho) for n tasks: one weight per labeler
        rng = np.random.default_rng(67)
        labels = np.array([[rng.permutation(5) for _ in range(3)] for _ in range(2)])
        for task, m, shape in ((labels[0, 0], 1, (5,)), (labels[0], 3, (5,)), (labels, 3, (2, 5))):
            for k in (m - 1, m + 1):
                with pytest.raises(InvalidArgumentError, match=f"{k} weights for {m} labels"):
                    solver(task, np.ones(k), 5)
            assert solver(task, np.ones(m), 5).shape == shape

    @pytest.mark.parametrize("solver", [inf.kemeny_exact, inf.kemeny_local_search])
    def test_solvers_refuse_labels_of_another_length(self, solver):
        labels = np.array([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [1, 0, 2, 4, 3]])
        for rho in (4, 6):
            with pytest.raises(InvalidArgumentError, match=f"labels have length 5, expected {rho}"):
                solver(labels, np.ones(3), rho)

    @pytest.mark.parametrize("solver", [inf.kemeny_exact, inf.kemeny_local_search])
    def test_solvers_refuse_labels_that_are_not_permutations(self, solver):
        # a repeated item, an item past rho and fractional items: refused, never a non-permutation out
        for task in ([[0, 0, 1], [1, 2, 0], [2, 2, 2]], [[0, 1, 2], [1, 2, 0], [7, 0, 1]], [[0.9, 1.2, 2.0]] * 3):
            for labels in (task, [[[0, 1, 2]] * 3, task]):
                with pytest.raises(InvalidArgumentError, match="permutation of 0..rho-1|must be integers"):
                    solver(labels, np.ones(3), 3)

    def test_a_model_applies_only_to_its_own_space_dims_and_labelers(self):
        from uws import synthetic as syn
        from uws.label_model import learn_label_model

        def rankings(rho, m):
            return syn.gen_ranking_tasks(syn.RankingScenario(n=300, rho=rho, thetas=(2.0, 1.5) + (1.0,) * (m - 2),
                                                             seed=3))[1]

        def graph(n_nodes):
            return syn.gen_graph_tasks(syn.GraphScenario(n_nodes=n_nodes, n_edges=10, n=300,
                                                         thetas=(2.0, 1.5, 1.0, 1.0), seed=3))[2]

        def reals(m):
            acc = np.linspace(0.9, 0.3, m)
            return syn.gen_regression_tasks(syn.RegressionScenario(
                n=300, accuracies=tuple(acc), lf_cov=tuple(map(tuple, np.outer(acc, acc) + np.eye(m))),
                prior_var=1.0, seed=3))[1]

        rank7, graph7, reals4 = rankings(7, 4), graph(7), reals(4)
        ranking_model = learn_label_model(rank7)
        graph_model = learn_label_model(graph7)
        real_model = learn_label_model(reals4, path="isotropic")  # accuracies unknown: the theta-matrix mean
        for model, data, other in [
            (ranking_model, rankings(10, 4), "ranking/{'rho': 10} with 4"),
            (ranking_model, rankings(7, 5), "ranking/{'rho': 7} with 5"),
            (ranking_model, graph7, "finite_metric/{'n_points': 7} with 4"),
            (ranking_model, reals4, "real_vector/{'d': 1} with 4"),
            (graph_model, graph(8), "finite_metric/{'n_points': 8} with 4"),
            (real_model, reals(5), "real_vector/{'d': 1} with 5"),
            (real_model, rank7, "ranking/{'rho': 7} with 4"),
        ]:
            with pytest.raises(InvalidArgumentError,
                               match=re.escape(f"space mismatch: model is {model.space_kind}/{model.dims} with "
                                               f"4 labelers, dataset is {other} labelers")):
                inf.aggregate_dataset(data, model=model)
            # explicit weights do not read the model
            assert len(inf.aggregate_dataset(data, weights=np.ones(data.n_lfs), model=model)) == 300
        for model, data in ((ranking_model, rank7), (graph_model, graph7), (real_model, reals4)):
            assert len(inf.aggregate_dataset(data, model=model)) == 300

    def test_weighted_rule_needs_weights_or_a_model(self):
        rng = np.random.default_rng(71)
        labels = np.array([[rng.permutation(4) for _ in range(3)] for _ in range(5)])
        space = graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)
        for data in (LabelingMatrix(RANKING, labels), LabelingMatrix(FINITE_METRIC, labels[:, :, 0], space),
                     LabelingMatrix(REAL_VECTOR, labels[:, :, 0].astype(float))):
            with pytest.raises(ConfigurationError, match="weighted rule needs weights or a learned model"):
                inf.aggregate_dataset(data, rule="weighted")

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


# the datasets of the aggregation refusal table: three tasks of three labelers in each space
REFUSAL_DATA = {
    "rank": LabelingMatrix(RANKING, np.array([[[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2]]] * 3)),
    "real": LabelingMatrix(REAL_VECTOR, np.arange(9.0).reshape(3, 3)),
    "finite": LabelingMatrix(FINITE_METRIC, np.array([[0, 1, 3]] * 3), graph_hop_metric([(0, 1), (1, 2), (2, 3)], 4)),
}
REFUSAL_DIMS = {RANKING: {"rho": 4}, REAL_VECTOR: {"d": 1}, FINITE_METRIC: {"n_points": 4}}


def refusal_model(kind, thetas=(1.0, 0.5, 0.25), dims=None, accuracies=None, theta_matrix=None):
    """A label model of ``kind`` as aggregate_dataset reads it: its space, thetas and real-label moments."""
    m = len(thetas)
    accuracies = np.full(m, 0.5) if accuracies is None else np.asarray(accuracies, dtype=float)
    return LabelModel(space_kind=kind, path="isotropic", dims=dims or REFUSAL_DIMS[kind],
                      thetas=np.asarray(thetas, dtype=float), expected_distances=np.ones(m), accuracies=accuracies,
                      pairwise_moments=np.eye(m) + 0.25, embedding={}, version="test", theta_matrix=theta_matrix)


SEED = "seed must be a non-negative integer, got -1"
NO_WEIGHTS = "weighted rule needs weights or a learned model"
NO_THETA_MATRIX = "model has neither accuracies nor a theta matrix for real labels"
ZERO = "all aggregation weights are zero"
# a real model of unknown accuracies and no theta matrix
BLIND = refusal_model(REAL_VECTOR, accuracies=[np.nan] * 3)


def mismatch(model, data):
    return (f"space mismatch: model is {model.space_kind}/{model.dims} with {model.n_lfs} labelers, "
            f"dataset is {data}")


# (id, data, aggregate_dataset keywords, exception type, full message); a case where two checks can fire
# names the one that fires first
AGGREGATE_REFUSALS = [
    ("seed-mv", "rank", {"rule": "mv", "seed": -1}, InvalidArgumentError, SEED),
    ("seed-fraction", "real", {"weights": np.ones(3), "seed": 1.5}, InvalidArgumentError,
     "seed must be a non-negative integer, got 1.5"),
    ("seed-before-rule", "finite", {"rule": "plurality", "seed": -1}, InvalidArgumentError, SEED),
    ("seed-before-no-weights", "real", {"seed": -1}, InvalidArgumentError, SEED),
    ("seed-before-weights", "rank", {"weights": [np.nan], "seed": -1}, InvalidArgumentError, SEED),
    ("rule", "rank", {"rule": "plurality"}, ConfigurationError, "unknown rule 'plurality'"),
    ("rule-before-mismatch", "real", {"rule": "Weighted", "model": refusal_model(RANKING)}, ConfigurationError,
     "unknown rule 'Weighted'"),
    ("rule-before-weights", "finite", {"rule": "median", "weights": np.zeros(3)}, ConfigurationError,
     "unknown rule 'median'"),
    ("no-weights-rank", "rank", {}, ConfigurationError, NO_WEIGHTS),
    ("no-weights-real", "real", {"rule": "weighted"}, ConfigurationError, NO_WEIGHTS),
    ("no-weights-finite", "finite", {}, ConfigurationError, NO_WEIGHTS),
    ("mismatch-kind", "rank", {"model": refusal_model(FINITE_METRIC)}, InvalidArgumentError,
     mismatch(refusal_model(FINITE_METRIC), "ranking/{'rho': 4} with 3 labelers")),
    ("mismatch-dims-rank", "rank", {"model": refusal_model(RANKING, dims={"rho": 5})}, InvalidArgumentError,
     mismatch(refusal_model(RANKING, dims={"rho": 5}), "ranking/{'rho': 4} with 3 labelers")),
    ("mismatch-dims-finite", "finite", {"model": refusal_model(FINITE_METRIC, dims={"n_points": 5})},
     InvalidArgumentError, mismatch(refusal_model(FINITE_METRIC, dims={"n_points": 5}),
                                    "finite_metric/{'n_points': 4} with 3 labelers")),
    ("mismatch-labelers", "real", {"model": refusal_model(REAL_VECTOR, thetas=np.ones(4))}, InvalidArgumentError,
     mismatch(refusal_model(REAL_VECTOR, thetas=np.ones(4)), "real_vector/{'d': 1} with 3 labelers")),
    ("mismatch-before-theta-matrix", "real", {"model": refusal_model(REAL_VECTOR, thetas=[1.0, 1.0],
                                                                     accuracies=[np.nan] * 2)},
     InvalidArgumentError, mismatch(refusal_model(REAL_VECTOR, thetas=[1.0, 1.0]),
                                    "real_vector/{'d': 1} with 3 labelers")),
    ("mismatch-before-weights", "rank", {"model": refusal_model(RANKING, thetas=[0.0, np.nan], dims={"rho": 5})},
     InvalidArgumentError, mismatch(refusal_model(RANKING, thetas=[0.0, 0.0], dims={"rho": 5}),
                                    "ranking/{'rho': 4} with 3 labelers")),
    ("theta-matrix", "real", {"model": BLIND}, ConfigurationError, NO_THETA_MATRIX),
    ("theta-matrix-one-nan", "real", {"model": refusal_model(REAL_VECTOR, accuracies=[0.5, np.nan, 0.5])},
     ConfigurationError, NO_THETA_MATRIX),
    ("theta-matrix-before-weights", "real", {"model": refusal_model(REAL_VECTOR, thetas=[0.0, 0.0, np.nan],
                                                                    accuracies=[np.nan] * 3)},
     ConfigurationError, NO_THETA_MATRIX),
    ("count-rank", "rank", {"weights": [1.0, 1.0]}, InvalidArgumentError, "2 weights for 3 labels"),
    ("count-real", "real", {"weights": np.ones(4)}, InvalidArgumentError, "4 weights for 3 labels"),
    ("count-finite", "finite", {"weights": []}, InvalidArgumentError, "0 weights for 3 labels"),
    # a weight per label, but in a (3, 1) array: named by its shape, not as 3 weights for 3 labels
    ("shape-real", "real", {"weights": np.ones((3, 1))}, InvalidArgumentError,
     "weights have shape (3, 1), expected (3,)"),
    ("count-before-finite", "rank", {"weights": [np.nan, 1.0]}, InvalidArgumentError, "2 weights for 3 labels"),
    # given weights are read, not the model: neither its mismatch nor its missing theta matrix fires
    ("count-over-model", "rank", {"weights": [1.0], "model": refusal_model(REAL_VECTOR)}, InvalidArgumentError,
     "1 weights for 3 labels"),
    ("count-over-theta-matrix", "real", {"weights": [1.0] * 4, "model": BLIND}, InvalidArgumentError,
     "4 weights for 3 labels"),
    ("nan-rank", "rank", {"weights": [np.nan, 1.0, 1.0]}, InvalidArgumentError,
     "aggregation weights must be finite; weight 0 is nan"),
    ("inf-real", "real", {"weights": [1.0, np.inf, 1.0]}, InvalidArgumentError,
     "aggregation weights must be finite; weight 1 is inf"),
    ("minus-inf-finite", "finite", {"weights": [1.0, 2.0, -np.inf]}, InvalidArgumentError,
     "aggregation weights must be finite; weight 2 is -inf"),
    ("nan-model-thetas", "finite", {"model": refusal_model(FINITE_METRIC, thetas=[1.0, np.nan, np.inf])},
     InvalidArgumentError, "aggregation weights must be finite; weight 1 is nan"),
    ("nan-before-zero", "rank", {"weights": [0.0, -1.0, np.nan]}, InvalidArgumentError,
     "aggregation weights must be finite; weight 2 is nan"),
    ("zero-rank", "rank", {"weights": np.zeros(3)}, DegenerateWeightsError, ZERO),
    ("zero-negative-real", "real", {"weights": [-1.0, -0.5, 0.0]}, DegenerateWeightsError, ZERO),
    ("zero-negative-finite", "finite", {"weights": [-2.0, -1e-300, -0.0]}, DegenerateWeightsError, ZERO),
    ("zero-model-thetas", "rank", {"model": refusal_model(RANKING, thetas=[0.0, -1.0, 0.0])},
     DegenerateWeightsError, ZERO),
]


@pytest.mark.parametrize("name, kwargs, error, message", [case[1:] for case in AGGREGATE_REFUSALS],
                         ids=[case[0] for case in AGGREGATE_REFUSALS])
def test_aggregate_refusals(name, kwargs, error, message):
    # the type exactly, the message in full; where two checks can fire, the table names the one that fires first
    with pytest.raises(error) as info:
        inf.aggregate_dataset(REFUSAL_DATA[name], **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_aggregate_refusal_table_inputs_are_valid_otherwise():
    # the table's data and models aggregate once the broken rule is mended
    for name, data in REFUSAL_DATA.items():
        assert len(inf.aggregate_dataset(data, rule="mv")) == 3
        assert len(inf.aggregate_dataset(data, model=refusal_model(data.space_kind))) == 3


# weights drawn from a small pool make zeros, ties and negatives common
TIED_WEIGHTS = [0.0, 1.0, 2.5, -1.0, -0.25, 0.5]
weight_values = st.one_of(st.sampled_from(TIED_WEIGHTS), st.floats(-3.0, 3.0))


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


class TestPairOrderSums:
    """The batched pair sums, their preference tensor and candidate costs against conftest's per-task
    einsum and pair sum, bit for bit, at every chunk size; whole-number weights are counted in
    integers, the rest summed labeler by labeler."""

    weights = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.25, -0.25]),
                        st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8))
    # mv's ones, negative integers and -0.0: the integer count must give the loop's bytes, +0.0 included
    whole_weights = st.one_of(st.sampled_from([1.0, -0.0, 0.0, -1.0, 3.0]), st.integers(-2**40, 2**40).map(float))

    @settings(max_examples=150, deadline=None)
    @given(rho=st.integers(1, 12), m=st.integers(1, 30), n=st.integers(1, 4),
           chunk_bytes=st.sampled_from([1, 1 << 20]), whole=st.booleans(),
           label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_preference_tensor_and_candidate_costs(self, rho, m, n, chunk_bytes, whole, label_seed, data):
        rng = np.random.default_rng(label_seed)
        labels = np.argsort(rng.random((n, m, rho)), axis=-1)
        cands = np.argsort(rng.random((n, 5, rho)), axis=-1)
        weights = np.array(data.draw(st.lists(self.whole_weights if whole else self.weights,
                                              min_size=m, max_size=m)))
        with mock.patch.object(inf, "_CHUNK_BYTES", chunk_bytes):
            pref = preference_tensor(labels, weights)
            costs = inf._candidate_costs(pref, ranking_positions(cands))
        for t in range(n):
            assert pref[t].tobytes() == reference_preference_matrix(labels[t], weights, rho).tobytes()
            for c in range(5):
                assert costs[t, c].tobytes() == np.float64(reference_kemeny_cost(pref[t], cands[t, c])).tobytes()

    @pytest.mark.parametrize("weights", [[2.0**52, 2.0**52 - 1], [2.0**52, 2.0**52], [2.0**53, 1.0, 1.0],
                                         [-(2.0**52), 2.0**52 - 1, 0.5], [1.0] * 200, [-0.0] * 3,
                                         [7.0, -7.0, -0.0]])
    def test_counts_up_to_two_to_the_53(self, weights):
        # below 2^53 in total every whole-number partial sum is exact, so the count has the loop's bits;
        # at 2^53 or with a fraction the loop runs, and it is what the per-task einsum rounds like
        # (2^53 + 1 + 1 sums to 2^53 there, where an integer count gives 2^53 + 2)
        rng = np.random.default_rng(len(weights))
        labels = np.argsort(rng.random((3, len(weights), 6)), axis=-1)
        pref = preference_tensor(labels, weights)
        for t in range(3):
            expect = reference_preference_matrix(labels[t], weights, 6)
            assert pref[t].tobytes() == expect.tobytes()
        assert not (np.signbit(pref) & (pref == 0)).any()  # no -0.0


class TestBatchedEngineMatchesReference:
    """The batched engine against the per-task reference solvers of conftest: local search and the
    finite-space argmin bit for bit, the exact solver against the rational-arithmetic oracle."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rho=st.integers(2, 11), m=st.integers(1, 20), n=st.integers(1, 6), local=st.booleans(),
           seed=st.integers(0, 2**32 - 1), label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rankings(self, rho, m, n, local, seed, label_seed, data):
        rng = np.random.default_rng(label_seed)
        labels = np.array([[rng.permutation(rho) for _ in range(m)] for _ in range(n)])
        weights = np.array(data.draw(st.lists(weight_values, min_size=m, max_size=m)))
        clamped = np.where(weights < 0, 0.0, weights)
        assume((clamped > 0).any())
        if local:
            got = inf.kemeny_local_search(labels, clamped, rho, seed=seed)
        else:
            got = np.asarray(inf.aggregate_dataset(LabelingMatrix(RANKING, labels), weights=weights, seed=seed))
        # the largest majority-graph component of each task; up to rho = 11 a component above
        # EXACT_MAX_RHO is the whole task, which aggregate_dataset hands to local search
        pref = preference_tensor(labels, clamped)
        largest = [max(map(len, comps)) for comps in components(pref)]
        expect = []
        for i in range(n):
            if local or largest[i] > inf.EXACT_MAX_RHO:
                expect.append(reference_kemeny_local_search(labels[i], clamped, rho, seed=(seed, i)))
            else:
                expect.append(exact_or_near_tie(got[i], labels[i], clamped, rho,
                                                dyadic=set(weights) <= set(TIED_WEIGHTS)))
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(expect))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rho=st.integers(13, 16), m=st.integers(3, 9), n=st.integers(1, 3), n_noise=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_large_components_search_their_own_items(self, rho, m, n, n_noise, seed, label_seed, data):
        # a block of at least 11 items before or after the rest; the noise labelers put other items
        # between a block's, so a component's item positions are not its items' ranks among themselves
        rng = np.random.default_rng(label_seed)
        labels = np.empty((n, m, rho), dtype=np.int64)
        for t in range(n):
            items = rng.permutation(rho)
            blocks = np.split(items, [int(rng.integers(inf.EXACT_MAX_RHO + 1, rho))])[::int(rng.choice([1, -1]))]
            for a in range(m):
                labels[t, a] = (rng.permutation(rho) if a < min(n_noise, m - 1)
                                else np.concatenate([rng.permutation(b) for b in blocks]))
        weights = np.array(data.draw(st.lists(weight_values, min_size=m, max_size=m)))
        clamped = np.where(weights < 0, 0.0, weights)
        assume((clamped > 0).any())
        got = np.asarray(inf.aggregate_dataset(LabelingMatrix(RANKING, labels), weights=weights, seed=seed))
        pref = preference_tensor(labels, clamped)
        for i, comps in enumerate(components(pref)):
            start = 0
            for items in comps:
                if len(items) > inf.EXACT_MAX_RHO:
                    # each labeler's order of the component's items, as indices into the sorted items
                    local = np.argsort(np.argsort(labels[i], axis=1)[:, items], axis=1)
                    expect = reference_kemeny_local_search(local, clamped, len(items), seed=(seed, i))
                    assert got[i, start:start + len(items)].tolist() == np.asarray(items)[expect].tolist()
                start += len(items)

    @settings(max_examples=100, deadline=None)
    @given(n_nodes=st.integers(2, 12), m=st.integers(1, 20), n=st.integers(1, 6),
           graph_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_finite_space(self, n_nodes, m, n, graph_seed, data):
        rng = np.random.default_rng(graph_seed)
        chords = [tuple(rng.choice(n_nodes, size=2, replace=False)) for _ in range(int(rng.integers(0, n_nodes)))]
        space = graph_hop_metric([(v, v + 1) for v in range(n_nodes - 1)] + chords, n_nodes)
        labels = rng.integers(0, n_nodes, size=(n, m))
        weights = np.array(data.draw(st.lists(weight_values, min_size=m, max_size=m)))
        assume((weights > 0).any())
        got = inf.aggregate_dataset(LabelingMatrix(FINITE_METRIC, labels, space), weights=weights)
        clamped = np.where(weights < 0, 0.0, weights)
        expect = [reference_aggregate_finite(labels[i], clamped, space.dist) for i in range(n)]
        got = np.asarray(got)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(expect))


def near_symmetric_space(rng, n_points):
    """Distances between random points on a line, each off-diagonal entry raised by up to
    3e-10 on its own: a metric within FiniteMetricSpace's tolerance, asymmetric in the last bits."""
    x = rng.random(n_points) * 4
    dist = np.abs(x[:, None] - x[None, :]) + rng.random((n_points, n_points)) * 3e-10
    np.fill_diagonal(dist, 0.0)
    return FiniteMetricSpace(dist)


class TestFiniteCostsMatchContiguousRows:
    """The labeler-major costs have the bits of each task's contiguous row of terms summed by numpy,
    past its 128-term block too; the columns of an asymmetric matrix, not its rows, are summed."""

    @staticmethod
    def check(rng, n_points, m, n):
        space = near_symmetric_space(rng, n_points)
        labels = rng.integers(0, n_points, size=(n, m))
        weights = np.where(rng.random(m) < 0.3, 0.0, rng.random(m) * 3)
        costs = inf._finite_costs(np.ascontiguousarray(labels.T), weights, np.ascontiguousarray(space.dist.T))
        expect = np.array([reference_finite_costs(labels[i], weights, space.dist) for i in range(n)])
        assert costs.shape == (n, n_points)
        assert costs.tobytes() == expect.tobytes()
        if (weights > 0).any():
            got = inf.aggregate_dataset(LabelingMatrix(FINITE_METRIC, labels, space), weights=weights)
            assert got == [reference_aggregate_finite(labels[i], weights, space.dist) for i in range(n)]

    def test_every_labeler_count_to_300(self):
        rng = np.random.default_rng(27)
        for m in range(1, 301):
            self.check(rng, int(rng.integers(1, 61)), m, int(rng.integers(1, 4)))

    @settings(max_examples=60, deadline=None)
    @given(n_points=st.integers(1, 60), m=st.integers(1, 300), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_random(self, n_points, m, n, seed):
        self.check(np.random.default_rng(seed), n_points, m, n)

    def test_columns_not_rows(self):
        # dist[0, 1] exceeds dist[1, 0] by 1e-10: summed down the columns point 1 costs less, along the rows point 0
        space = FiniteMetricSpace(np.array([[0.0, 1.0 + 1e-10], [1.0, 0.0]]))
        data = LabelingMatrix(FINITE_METRIC, np.array([[0, 1]] * 9), space)
        assert inf.aggregate_dataset(data, weights=np.ones(2)) == [1] * 9
        assert reference_aggregate_finite([0, 1], np.ones(2), space.dist) == 1


class TestAggregationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(rho=st.integers(2, 10), m=st.integers(1, 8), n=st.integers(1, 4),
           exponent=st.integers(-6, 6) | st.integers(1000, 1021), label_seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_weight_rescaling_invariance(self, rho, m, n, exponent, label_seed, data):
        # a power-of-two scale keeps every sum exact, so even tie-breaks agree; near 2^1021 the sums
        # would leave float64's range, and the solvers scale the weights back by a power of two
        rng = np.random.default_rng(label_seed)
        weights = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
        assume((weights > 0).any())
        labels = np.array([[rng.permutation(rho) for _ in range(m)] for _ in range(n)])
        space = graph_hop_metric([(v, v + 1) for v in range(rho - 1)] + [(0, rho - 1)], rho)
        nodes = LabelingMatrix(FINITE_METRIC, rng.integers(0, rho, size=(n, m)), space)
        for solve in (lambda w: inf.aggregate_dataset(LabelingMatrix(RANKING, labels), weights=w),
                      lambda w: inf.aggregate_dataset(nodes, weights=w),
                      lambda w: inf.kemeny_local_search(labels, w, rho, seed=3)):
            assert np.array_equal(np.asarray(solve(weights)), np.asarray(solve(weights * 2.0**exponent)))

    @pytest.mark.parametrize("exponent", [0, 1000, 1019, 1020, 1021, 1022, 1023])
    def test_weights_whose_sums_overflow(self, exponent):
        # three labelers put item 1 first, two item 0: every weight 2^exponent must vote as ones do.
        # At the top, C(rho, 2) * sum |w| (or the largest distance times sum |w|) leaves float64's
        # range; the weights are scaled back by a power of two, with no overflow on the way (an
        # overflow warning fails the suite)
        labels = np.array([[1, 0]] * 3 + [[0, 1]] * 2)
        weights = np.full(5, 2.0**exponent)
        data = LabelingMatrix(RANKING, labels[None])
        assert [z.tolist() for z in inf.aggregate_dataset(data, weights=weights)] == [[1, 0]]
        assert inf.kemeny_exact(labels, weights, 2).tolist() == [1, 0]
        assert inf.kemeny_local_search(labels, weights, 2, seed=0).tolist() == [1, 0]
        # the same votes on a three-node path: node 2 costs 2 * 2 weights, node 0 3 * 2
        nodes = LabelingMatrix(FINITE_METRIC, np.array([[2, 2, 2, 0, 0]]), graph_hop_metric([(0, 1), (1, 2)], 3))
        assert inf.aggregate_dataset(nodes, weights=weights) == [2]

    def test_a_rescale_by_another_constant_can_change_the_result(self):
        # 0.1 + 0.2 rounds above 0.3, while 1 + 2 ties 3 and the tie goes to ascending ids: only a
        # power of two scales every float sum exactly
        data = LabelingMatrix(RANKING, np.array([[[1, 0], [1, 0], [0, 1]]]))
        assert inf.aggregate_dataset(data, weights=[0.1, 0.2, 0.3])[0].tolist() == [1, 0]
        assert inf.aggregate_dataset(data, weights=[1.0, 2.0, 3.0])[0].tolist() == [0, 1]

    @settings(max_examples=20, deadline=None)
    @given(rho=st.integers(11, 12), m=st.integers(1, 8), n=st.integers(1, 3), exponent=st.integers(-46, 46),
           label_seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_local_search_ignores_the_weight_scale(self, rho, m, n, exponent, label_seed, data):
        # the move and restart tolerances scale with the weight total, so even
        # weights near 1e-14 or 1e14 take the same descent; no weight is so
        # small that its scaled value loses bits. aggregate_dataset splits each
        # task into majority-graph components, and a power-of-two scale keeps
        # every preference entry and float sum exact, so the split, the subset
        # program and local search on a component above EXACT_MAX_RHO all agree
        rng = np.random.default_rng(label_seed)
        weights = np.array(data.draw(st.lists(st.just(0.0) | st.floats(2.0**-20, 3.0), min_size=m, max_size=m)))
        assume((weights > 0).any())
        labels = np.array([[rng.permutation(rho) for _ in range(m)] for _ in range(n)])
        for solve in (lambda w: inf.aggregate_dataset(LabelingMatrix(RANKING, labels), weights=w, seed=5),
                      lambda w: inf.kemeny_local_search(labels, w, rho, seed=5)):
            base = np.asarray(solve(weights))
            for k in (-46, exponent, 46):
                assert np.array_equal(base, np.asarray(solve(weights * 2.0**k)))

    @settings(max_examples=30, deadline=None)
    @given(rho=st.integers(11, 13), m=st.integers(1, 12), n=st.integers(1, 4), n_blocks=st.integers(1, 4),
           n_noise=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), label_seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_long_rankings_never_lose_to_an_input_label(self, rho, m, n, n_blocks, n_noise, seed,
                                                        label_seed, data):
        # planted blocks mix components the subset program orders with components above
        # EXACT_MAX_RHO that local search orders; either way no input label has a lower
        # objective, up to the float rounding of the sums over pairs and the restart tolerance
        labels = planted_blocks(np.random.default_rng(label_seed), rho, m, n, n_blocks, min(n_noise, m))
        weights = np.array(data.draw(st.lists(weight_values, min_size=m, max_size=m)))
        clamped = np.where(weights < 0, 0.0, weights)
        assume((clamped > 0).any())
        got = np.asarray(inf.aggregate_dataset(LabelingMatrix(RANKING, labels), weights=weights, seed=seed))
        assert got.dtype == np.int64 and np.array_equal(np.sort(got, axis=1), np.tile(np.arange(rho), (n, 1)))
        slack = (Fraction(1e-12) + Fraction(rho * (rho - 1), 2**52)) * sum(Fraction(float(w)) for w in clamped)
        for task, z in zip(labels, got):
            best = min(fraction_kemeny_cost(task, clamped, lab) for lab in task)
            assert fraction_kemeny_cost(task, clamped, z) <= best + slack

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
