"""Permutation core: the permutation check, distances and embeddings."""


import numpy as np
import pytest
from conftest import are_permutations
from hypothesis import given, settings
from hypothesis import strategies as st

from uws import mallows
from uws import permutations as perm
from uws.errors import InvalidArgumentError


def naive_kendall(a, b):
    """O(rho^2) discordant-pair count, the independent oracle."""
    a = np.asarray(a)
    b = np.asarray(b)
    pos_a = np.argsort(a)
    pos_b = np.argsort(b)
    rho = a.size
    count = 0
    for i in range(rho):
        for j in range(i + 1, rho):
            if (pos_a[i] < pos_a[j]) != (pos_b[i] < pos_b[j]):
                count += 1
    return count


def naive_pair_flags(order):
    """Whether ``order`` puts i before j, for i < j in lexicographic order, by a double loop."""
    pos = np.argsort(order)
    return [bool(pos[i] < pos[j]) for i in range(len(order)) for j in range(i + 1, len(order))]


class TestItemPositions:
    """The one permutation check: its mask is the sort-based reference's, and on the rows it
    accepts its positions are the argsort of the orders, pair-major in the smallest type."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=3), st.integers(0, 16), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 2**16), st.one_of(
               st.integers(-3, 18), st.sampled_from([-2**63, -2**62, 2**62, 2**63 - 1]))), max_size=4))
    def test_mask_and_positions_match_the_references(self, lead, rho, seed, edits):
        orders = np.argsort(np.random.default_rng(seed).random((*lead, rho)), axis=-1)
        for at, value in edits:
            if orders.size:
                orders.flat[at % orders.size] = value
        positions, ok = perm.item_positions(orders)
        want = are_permutations(orders)
        assert ok.dtype == bool and ok.shape == tuple(lead)
        np.testing.assert_array_equal(ok, want)
        assert positions.dtype == np.min_scalar_type(rho) and positions.shape == (rho, *lead[::-1])
        assert positions.flags.c_contiguous
        np.testing.assert_array_equal(positions.T[want], np.argsort(orders, axis=-1)[want])


@pytest.mark.parametrize("bad, shown", [([0.5, 1.2, 2.9], "0.5"), ([2.0, np.nan, 0.0], "nan"),
                                        ([0.0, 1.0, np.inf], "inf")], ids=["fractional", "nan", "inf"])
@pytest.mark.parametrize("enter", [
    lambda p: perm.item_positions(np.array(p)),
    perm.check_permutation,
    lambda p: mallows.MallowsModel(center=p, theta=1.0),
    lambda p: perm.kendall_tau(p, [0, 1, 2]),
    perm.pair_sign_embed,
], ids=["item_positions", "check_permutation", "mallows_center", "kendall_tau", "pair_sign_embed"])
def test_a_permutation_of_numbers_is_refused_not_truncated(enter, bad, shown):
    with pytest.raises(InvalidArgumentError, match=f"ranking labels must be integers, got {shown}"):
        enter(bad)


@pytest.mark.parametrize("many", [perm.kendall_tau_many, lambda a, b: perm.pair_sign_embed_many(a)],
                         ids=["kendall_tau_many", "pair_sign_embed_many"])
@pytest.mark.parametrize("bad", [[0, 0, 1], [0, 1, 3], [-1, 0, 1], [0, 1, 2**62]])
def test_many_refuses_a_row_that_is_no_permutation(many, bad):
    rows = np.array([[[2, 0, 1], [0, 1, 2]], [[1, 2, 0], bad]])
    with pytest.raises(InvalidArgumentError, match=r"order \[1, 1\] is not a permutation of 0..2"):
        many(rows, np.zeros_like(rows) + [0, 1, 2])


class TestPairFlags:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("rho", [1, 2, 7, 300])
    def test_matches_naive_double_loop(self, lead, rho):
        # rho = 1 has an empty pair axis; rho = 300 compares uint16 positions
        orders = np.argsort(np.random.default_rng(rho).random((*lead, rho)), axis=-1)
        flags = perm.pair_flags(orders)
        assert flags.dtype == bool
        assert flags.shape == (*lead, perm.num_pairs(rho))
        # a view of pair-major storage
        assert flags.T.flags.c_contiguous
        for idx in np.ndindex(lead):
            assert flags[idx].tolist() == naive_pair_flags(orders[idx])


class TestKendallTau:
    def test_identity_case(self):
        e = perm.identity(4)
        assert perm.kendall_tau(e, e) == 0

    def test_single_adjacent_transposition(self):
        assert perm.kendall_tau([1, 0, 2], [0, 1, 2]) == 1

    def test_full_reversal(self):
        assert perm.kendall_tau([3, 2, 1, 0], [0, 1, 2, 3]) == 6

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            perm.kendall_tau([0, 1], [0, 1, 2])

    @pytest.mark.parametrize("rho", [1, 2, 3, 5, 8, 40])
    def test_matches_naive_oracle(self, rho):
        rng = np.random.default_rng(11 + rho)
        for _ in range(25):
            a = rng.permutation(rho)
            b = rng.permutation(rho)
            assert perm.kendall_tau(a, b) == naive_kendall(a, b)

    @pytest.mark.parametrize("rho", [2, 3, 4])
    def test_metric_axioms_exhaustive(self, rho):
        perms = perm.all_permutations(rho)
        n = len(perms)
        d = np.array([[perm.kendall_tau(perms[i], perms[j]) for j in range(n)] for i in range(n)])
        assert (d >= 0).all()
        assert (d == d.T).all()
        assert ((d == 0) == np.eye(n, dtype=bool)).all()
        # triangle inequality
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()

    def test_metric_axioms_random_large(self):
        rng = np.random.default_rng(3)
        rho = 12
        for _ in range(60):
            a, b, c = (rng.permutation(rho) for _ in range(3))
            dab = perm.kendall_tau(a, b)
            assert dab == perm.kendall_tau(b, a)
            assert dab <= perm.kendall_tau(a, c) + perm.kendall_tau(c, b)

    def test_left_invariance(self):
        rng = np.random.default_rng(5)
        for rho in (3, 6, 9):
            for _ in range(20):
                a, b, c = (rng.permutation(rho) for _ in range(3))
                # c[a] is the composition c o a
                assert perm.kendall_tau(a, b) == perm.kendall_tau(c[a], c[b])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        A = np.array([rng.permutation(6) for _ in range(40)])
        B = np.array([rng.permutation(6) for _ in range(40)])
        batch = perm.kendall_tau_many(A, B)
        for k in range(40):
            assert batch[k] == perm.kendall_tau(A[k], B[k])

    def test_batch_matches_oracle_over_leading_axes(self):
        rng = np.random.default_rng(8)
        A = np.array([rng.permutation(7) for _ in range(60)]).reshape(3, 20, 7)
        B = np.array([rng.permutation(7) for _ in range(60)]).reshape(3, 20, 7)
        batch = perm.kendall_tau_many(A, B)
        assert batch.shape == (3, 20)
        for idx in np.ndindex(3, 20):
            assert batch[idx] == naive_kendall(A[idx], B[idx])

    def test_single_item(self):
        assert perm.kendall_tau_many([[0], [0]], [[0], [0]]).tolist() == [0, 0]
        assert perm.kendall_tau([0], [0]) == 0


class TestPairSignEmbed:
    def test_identity_has_no_inversions(self):
        assert perm.pair_sign_embed([0, 1, 2]).tolist() == [1, 1, 1]

    def test_full_reversal(self):
        assert perm.pair_sign_embed([2, 1, 0]).tolist() == [-1, -1, -1]

    def test_rejects_single_item(self):
        with pytest.raises(InvalidArgumentError):
            perm.pair_sign_embed([0])

    def test_dot_identity_random_pairs(self):
        # sum_i g(a)_i g(b)_i == C(rho,2) - 2 d_tau(a, b), exactly, rho=6
        rng = np.random.default_rng(19)
        c2 = perm.num_pairs(6)
        for _ in range(1000):
            a = rng.permutation(6)
            b = rng.permutation(6)
            dot = int(perm.pair_sign_embed(a) @ perm.pair_sign_embed(b))
            assert dot == c2 - 2 * naive_kendall(a, b)

    @pytest.mark.parametrize("rho", [2, 3, 4, 5, 6])
    def test_injective_exhaustive(self, rho):
        g = perm.pair_sign_embed_many(perm.all_permutations(rho))
        assert g.dtype == np.int64 and g.flags.c_contiguous
        assert len({tuple(row) for row in g.tolist()}) == len(g)


def test_all_permutations_lexicographic():
    perms = perm.all_permutations(3)
    as_tuples = [tuple(p) for p in perms]
    assert as_tuples == sorted(as_tuples)
    assert len(perms) == 6
