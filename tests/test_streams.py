"""Batched substreams: every draw is bit-equal to one ``substream`` per path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uws import _streams
from uws.synthetic import substream

# word-count edges of the seed: 0 is one zero word, 2**32 takes two words,
# and above 2**128 the seed alone overflows the pool of four words
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**130 + 12345]),
    st.integers(0, 2**64),
    st.integers(2**128 + 1, 2**200),
)
ENTRIES = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1), st.just(2**32 - 1))
PATHS = st.integers(1, 3).flatmap(
    lambda length: st.lists(st.lists(ENTRIES, min_size=length, max_size=length), min_size=1, max_size=6)
)


# up to 18 blocks of four words: the first two rounds broadcast over the blocks and over the rows
@settings(max_examples=100, deadline=None)
@given(SEEDS, PATHS, st.integers(1, 70))
def test_uniforms_match_substream(seed, paths, count):
    got = _streams.uniforms(seed, paths, count)
    want = np.array([substream(seed, *path).random(count) for path in paths])
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 7, 2**70])
def test_empty_path_is_the_unspawned_stream(seed):
    # no spawn key, so no padding of the seed words to the pool size
    got = _streams.uniforms(seed, np.zeros((2, 0), dtype=np.int64), 5)
    np.testing.assert_array_equal(got, np.tile(substream(seed).random(5), (2, 1)))


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, "7"])
def test_bad_seed_raises_like_substream(seed):
    with pytest.raises(Exception) as want:
        substream(seed, 1, 0)
    with pytest.raises(want.type):
        _streams.uniforms(seed, [(1, 0)], 2)


@pytest.mark.parametrize("paths", [[(2**32,)], [(-1, 0)], [1, 2]])
def test_bad_paths_raise(paths):
    with pytest.raises(ValueError):
        _streams.uniforms(0, paths, 1)
