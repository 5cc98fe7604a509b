"""Mallows model: expected distance, backward map, sampler."""

import math
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import reference_backward_map, reference_mallows_draw
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from uws import mallows
from uws import permutations as perm
from uws.errors import DomainError, InfeasibleMeanError


def brute_force_distances(rho):
    """Kendall distances from every element of S_rho to the identity."""
    perms = perm.all_permutations(rho)
    e = perm.identity(rho)
    return perms, np.array([perm.kendall_tau(p, e) for p in perms])


def unguarded_expected_distance(theta, rho):
    """The closed form summed over every term, which raises OverflowError once theta * j passes
    about 709.78: the expected distance as it was before overflowing terms were dropped."""
    out = rho / math.expm1(theta)
    for j in range(1, rho + 1):
        out -= j / math.expm1(theta * j)
    return out


def _overflow_free(f):
    try:
        return f()
    except OverflowError:
        return None


class TestExpectedDistance:
    def test_collapses_at_large_theta(self):
        assert mallows.expected_distance(60.0, 5) == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("rho", [3, 4, 5])
    def test_matches_exhaustive_enumeration(self, theta, rho):
        _, dists = brute_force_distances(rho)
        w = np.exp(-theta * dists)
        expected = float((dists * w).sum() / w.sum())
        assert mallows.expected_distance(theta, rho) == pytest.approx(expected, rel=1e-13)

    def test_uniform_limit(self):
        # theta -> 0+ approaches rho(rho-1)/4; S_4 uniform mean inversion count is 3
        _, dists = brute_force_distances(4)
        assert dists.mean() == pytest.approx(3.0)
        assert mallows.expected_distance(1e-9, 4) == pytest.approx(3.0, rel=1e-6)
        assert mallows.uniform_mean_distance(4) == 3.0

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(DomainError):
            mallows.expected_distance(0.0, 4)
        with pytest.raises(DomainError):
            mallows.expected_distance(-1.0, 4)
        with pytest.raises(DomainError, match="nan"):
            mallows.expected_distance(math.nan, 4)

    def test_bit_identical_where_no_term_overflows(self):
        compared = 0
        for rho in range(1, 29):
            edge = 709.78 / rho  # just below the first overflowing theta * rho
            for theta in [*np.geomspace(1e-8, 60.0, 40), edge, 1.001 * edge]:
                want = _overflow_free(lambda: unguarded_expected_distance(theta, rho))
                if want is not None:
                    assert mallows.expected_distance(theta, rho).hex() == want.hex(), (theta, rho)
                    compared += 1
        assert compared > 28 * 30

    @pytest.mark.parametrize("rho", [29, 40, 60])
    def test_overflowing_terms_dropped(self, rho):
        thetas = np.geomspace(1.0, 800.0, 50)
        vals = [mallows.expected_distance(t, rho) for t in thetas]
        assert all(0.0 <= b <= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0  # e^theta itself is beyond the float range
        # the dropped terms are below 1e-300 j; the kept ones carry the value
        theta = 30.0
        assert mallows.expected_distance(theta, rho) == pytest.approx((rho - 1) * math.exp(-theta), rel=1e-9)

    @pytest.mark.parametrize("rho", range(3, 13))
    def test_strictly_decreasing_in_theta(self, rho):
        grid = np.linspace(0.01, 20.0, 120)
        vals = [mallows.expected_distance(t, rho) for t in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestBackwardMap:
    @pytest.mark.parametrize("theta", [3.0, 5.0, 8.0])
    def test_roundtrip(self, theta):
        mean = mallows.expected_distance(theta, 6)
        assert mallows.backward_map(mean, 6) == pytest.approx(theta, abs=1e-8)

    def test_roundtrip_at_lemma_boundary(self):
        theta = 4 * math.log(2) + 0.1
        mean = mallows.expected_distance(theta, 5)
        assert mallows.backward_map(mean, 5) == pytest.approx(theta, abs=1e-8)

    def test_roundtrip_grid(self):
        for rho in (5, 10):
            for theta in np.arange(3.0, 8.0 + 1e-9, 0.5):
                mean = mallows.expected_distance(theta, rho)
                assert mallows.backward_map(mean, rho) == pytest.approx(theta, abs=1e-8)

    def test_infeasible_means(self):
        with pytest.raises(InfeasibleMeanError):
            mallows.backward_map(mallows.uniform_mean_distance(5), 5)
        with pytest.raises(InfeasibleMeanError):
            mallows.backward_map(0.0, 5)
        with pytest.raises(InfeasibleMeanError):
            mallows.backward_map(-0.3, 5)

    def test_bit_identical_where_no_term_overflows(self, monkeypatch):
        means = {rho: mallows.uniform_mean_distance(rho) * np.geomspace(1e-12, 1 - 1e-9, 25)
                 for rho in (2, 3, 5, 8, 13, 20, 28)}
        guarded = {rho: [mallows.backward_map(mu, rho) for mu in mus] for rho, mus in means.items()}
        monkeypatch.setattr(mallows, "expected_distance", unguarded_expected_distance)
        compared = 0
        for rho, mus in means.items():
            for mu, got in zip(mus, guarded[rho]):
                want = _overflow_free(lambda: mallows.backward_map(mu, rho))
                if want is not None:
                    assert got.hex() == want.hex(), (mu, rho)
                    compared += 1
        assert compared > 100

    @pytest.mark.parametrize("rho", [29, 30, 40, 60])
    @pytest.mark.parametrize("theta", [0.01, 0.3, 1.0, 5.0, 25.0, 40.0])
    def test_roundtrip_above_rho_28(self, theta, rho):
        # every bisection here visits a theta whose e^{theta rho} overflows a float
        mean = mallows.expected_distance(theta, rho)
        assert mallows.backward_map(mean, rho) == pytest.approx(theta, abs=1e-8)

    def test_residual_tolerance(self):
        theta_hat = mallows.backward_map(2.0, 7)
        assert abs(mallows.expected_distance(theta_hat, 7) - 2.0) <= 1e-10


def exact_expected_distance(theta, rho):
    """The closed form at the float ``theta``, in 50-digit decimal arithmetic, every term kept."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(theta)
        out = rho / (t.exp() - 1) - sum(j / ((t * j).exp() - 1) for j in range(1, rho + 1))
        return float(out)


def reference_midpoints(mean, rho):
    """Every midpoint the plain bisection evaluates for ``mean``, in order."""
    mids, scalar = [], mallows.expected_distance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mallows, "expected_distance", lambda t, r: mids.append(t) or scalar(t, r))
        reference_backward_map(mean, rho)
    return mids


def assert_same_as_plain_bisection(means, rho):
    means = np.asarray(means, dtype=np.float64)
    want = [reference_backward_map(mu, rho) for mu in means.tolist()]
    got = mallows.backward_map(means, rho)
    assert got.shape == means.shape
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], rho
    assert [mallows.backward_map(mu, rho).hex() for mu in means.tolist()] == [x.hex() for x in want], rho


class TestCertifiedBackwardMap:
    """The certified bracket decides comparisons without evaluating; every theta must
    still be the plain bisection's, bit for bit."""

    @pytest.mark.parametrize("rho", [2, 3, 4, 5, 7, 10, 13, 20, 28, 29, 40])
    def test_bit_identical_on_a_theta_grid(self, rho):
        thetas = np.exp(np.random.default_rng(rho).uniform(math.log(1e-8), math.log(50.0), 150))
        means = [mallows.expected_distance(t, rho) for t in thetas]
        assert_same_as_plain_bisection([mu for mu in means if 0.0 < mu < mallows.uniform_mean_distance(rho)], rho)

    @pytest.mark.parametrize("rho", [2, 5, 7, 10, 29, 40])
    @pytest.mark.parametrize("theta", [3e-7, 1e-4, 0.004, 0.15, 0.9, 3.3, 18.0, 45.0])
    def test_bit_identical_at_the_plain_paths_last_midpoints(self, rho, theta):
        # a mean equal to f~ at a midpoint the bisection evaluates, or a float next to it,
        # is where a comparison is closest to going the other way
        targets = []
        for mid in reference_midpoints(mallows.expected_distance(theta, rho), rho)[-12:]:
            mu = mallows.expected_distance(mid, rho)
            targets += [np.nextafter(mu, 0.0), mu, np.nextafter(mu, np.inf)]
        assert_same_as_plain_bisection([mu for mu in targets if 0.0 < mu < mallows.uniform_mean_distance(rho)], rho)

    @settings(max_examples=150, deadline=None)
    @given(rho=st.integers(2, 40), fraction=st.floats(1e-300, 1.0, exclude_max=True))
    def test_bit_identical_on_drawn_means(self, rho, fraction):
        assert_same_as_plain_bisection([fraction * mallows.uniform_mean_distance(rho)], rho)

    @pytest.mark.parametrize("rho", [2, 3, 7, 10, 20, 40])
    def test_error_bound_holds(self, rho):
        # tiny thetas, where the closed form cancels, and theta * j past 709.78, where terms drop
        thetas = [*np.geomspace(1e-8, 50.0, 30), 709.78 / rho * 0.999, 709.78 / rho * 1.001, 49.9]
        for theta in [t for t in thetas if t <= 50.0]:
            err = abs(mallows.expected_distance(theta, rho) - exact_expected_distance(theta, rho))
            # the bound is twice its first-order derivation
            assert err <= 0.5 * mallows._error_bound(theta, rho), (theta, rho, err)

    def test_error_bound_decreases(self):
        for rho in (2, 10, 40):
            bounds = [mallows._error_bound(t, rho) for t in np.geomspace(1e-8, 50.0, 200)]
            assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_few_evaluations(self, monkeypatch):
        rng = np.random.default_rng(3)
        means = {rho: [mallows.expected_distance(t, rho) for t in np.exp(rng.uniform(math.log(0.01), math.log(10.0), 40))]
                 for rho in (3, 7, 10, 20)}
        calls = Counter()
        scalar = mallows.expected_distance
        monkeypatch.setattr(mallows, "expected_distance", lambda t, r: calls.update([r]) or scalar(t, r))
        for rho, mus in means.items():
            mallows.backward_map(np.array(mus), rho)
        # the plain bisection makes 46 calls per mean
        assert all(calls[rho] <= 8 * len(mus) for rho, mus in means.items()), calls

    def test_array_error_names_the_entry(self):
        with pytest.raises(InfeasibleMeanError, match=r"mean distance 5\.0 at index 2 "):
            mallows.backward_map(np.array([1.0, 2.0, 5.0, 0.0]), 5)
        with pytest.raises(InfeasibleMeanError, match=r"mean distance nan at index 1, 0 "):
            mallows.backward_map(np.array([[1.0, 2.0], [np.nan, 1.0]]), 5)

    def test_shapes(self):
        assert isinstance(mallows.backward_map(2.0, 7), float)
        assert isinstance(mallows.backward_map(np.float64(2.0), 7), float)
        assert mallows.backward_map(np.empty((0, 2)), 7).shape == (0, 2)
        grid = np.array([[0.5, 1.0], [2.0, 4.0]])
        assert mallows.backward_map(grid, 7).shape == (2, 2)
        assert mallows.backward_map(grid, 7)[1, 0] == mallows.backward_map(2.0, 7)


class TestSampler:
    def test_near_degenerate_returns_center(self):
        center = np.array([3, 0, 4, 1, 2])
        model = mallows.MallowsModel(center, 50.0)
        rng = np.random.default_rng(0)
        draws = mallows.sample_many(model, rng, 1000)
        assert (draws == center).all()

    def test_outputs_are_permutations(self):
        model = mallows.MallowsModel(perm.identity(6), 0.7)
        rng = np.random.default_rng(1)
        draws = mallows.sample_many(model, rng, 200)
        for d in draws:
            perm.check_permutation(d)

    def test_uniform_at_theta_zero_chi2(self):
        model = mallows.MallowsModel(perm.identity(4), 0.0)
        rng = np.random.default_rng(2)
        draws = mallows.sample_many(model, rng, 100_000)
        counts = Counter(tuple(d) for d in draws)
        assert len(counts) == 24
        expected = 100_000 / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, 23)

    def test_empirical_mean_distance(self):
        model = mallows.MallowsModel(perm.identity(6), 1.0)
        rng = np.random.default_rng(3)
        draws = mallows.sample_many(model, rng, 50_000)
        centers = np.broadcast_to(model.center, draws.shape)
        mean = perm.kendall_tau_many(draws, centers).mean()
        target = mallows.expected_distance(1.0, 6)
        assert abs(mean - target) < 0.01 * target

    @pytest.mark.parametrize("theta", [0.5, 1.5])
    def test_exact_frequencies_total_variation(self, theta):
        rho = 5
        center = np.array([4, 2, 0, 3, 1])
        perms, _ = brute_force_distances(rho)
        dists = np.array([perm.kendall_tau(p, center) for p in perms])
        w = np.exp(-theta * dists)
        probs = w / w.sum()
        model = mallows.MallowsModel(center, theta)
        rng = np.random.default_rng(4)
        draws = mallows.sample_many(model, rng, 200_000)
        counts = Counter(tuple(d) for d in draws)
        emp = np.array([counts.get(tuple(p), 0) for p in perms]) / 200_000
        tv = 0.5 * np.abs(emp - probs).sum()
        assert tv < 0.01

    def test_seed_reproducibility(self):
        model = mallows.MallowsModel(perm.identity(7), 0.8)
        a = mallows.sample_many(model, np.random.default_rng(99), 50)
        b = mallows.sample_many(model, np.random.default_rng(99), 50)
        assert (a == b).all()

    def test_single_draw_matches_batch_head(self):
        model = mallows.MallowsModel(perm.identity(5), 1.2)
        single = mallows.sample(model, np.random.default_rng(7))
        batch = mallows.sample_many(model, np.random.default_rng(7), 1)
        assert (single == batch[0]).all()

    def test_rejects_negative_theta(self):
        with pytest.raises(DomainError):
            mallows.MallowsModel(perm.identity(4), -0.1)
        with pytest.raises(DomainError, match="nan"):
            mallows.MallowsModel(perm.identity(4), math.nan)

    def test_uniform_past_a_cdf_that_ends_below_one_takes_the_last_bucket(self):
        # at this theta the 8-term insertion CDF of item 7 ends 2^-52 below 1, under the largest uniform
        theta, top = 3.647482804919992, np.nextafter(1.0, 0.0)
        w = np.exp(-theta * np.arange(8.0))
        assert (np.cumsum(w) / w.sum())[-1] < top
        u = np.full((1, 1, 7), 0.5)
        u[0, 0, 6] = top
        draw = mallows._repeated_insertion([theta], u, np.arange(8)[None])
        np.testing.assert_array_equal(draw[0, 0], [7, 0, 1, 2, 3, 4, 5, 6])


# edges of the position type: the kernel keeps positions in the smallest integer type that holds rho
POSITION_TYPE_EDGES = [2, 127, 128, 255, 256, 257]


class TestPositionTypeEdges:
    @pytest.mark.parametrize("rho", POSITION_TYPE_EDGES)
    def test_kernel_matches_reference(self, rho):
        thetas = [0.0, 0.01, 0.5]
        n = 2
        rng = np.random.default_rng(rho)
        centers = np.stack([rng.permutation(rho) for _ in range(n)])
        # item-major uniforms, as the generators lay them out, and the same values row-major
        item_major = rng.random((rho - 1, n, len(thetas))).transpose(1, 2, 0)
        want = np.array([[reference_mallows_draw(theta, item_major[i, a], centers[i])
                          for a, theta in enumerate(thetas)] for i in range(n)])
        for u in (item_major, np.ascontiguousarray(item_major)):
            got = mallows._repeated_insertion(thetas, u, centers)
            assert got.dtype == centers.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rho", POSITION_TYPE_EDGES)
    @pytest.mark.parametrize("theta", [0.0, 0.05, 2.0])
    def test_sample_many_matches_reference(self, rho, theta):
        center = np.random.default_rng(rho).permutation(rho)
        draws = mallows.sample_many(mallows.MallowsModel(center, theta), np.random.default_rng(11), 3)
        u = np.random.default_rng(11).random((rho - 1, 3))
        want = np.array([reference_mallows_draw(theta, u[:, r], center) for r in range(3)])
        np.testing.assert_array_equal(draws, want)
