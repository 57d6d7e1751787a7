"""``_PHILOX`` reads a keyed stream by word index: the concatenated raw
``blocks`` from word ``start`` equal a new Philox stream's words from
that index, whatever the key, the start, the count and the block size,
and the blocks of several streams may be read side by side on one
thread."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_dataset, reference_mc_estimate, stream_words
from qbandit import statevector
from qbandit.bandit import BanditParams, PolicySpec, reward_probability
from qbandit.baseline import monte_carlo_estimate
from qbandit.statevector import _BLOCK_WORDS, _PHILOX
from qbandit.training import synthesize_dataset

KEYS = st.one_of(
    st.integers(0, 2**128 - 1), st.sampled_from([0, 7, 2**64 - 1, 2**64, 2**128 - 1])
)
# Starts and counts near the edges of a counter's four words and of a block.
EDGES = [0, 4, 8, _BLOCK_WORDS, 2 * _BLOCK_WORDS]
INDICES = st.one_of(
    st.integers(0, 40),
    st.builds(lambda edge, step: max(0, edge + step), st.sampled_from(EDGES), st.integers(-5, 5)),
)


def joined(blocks) -> np.ndarray:
    return np.concatenate([np.empty(0, np.uint64), *blocks])


@settings(max_examples=150, deadline=None)
@given(key=KEYS, start=INDICES, count=INDICES)
def test_words_read_from_an_index_are_a_new_streams_tail(key, start, count):
    want = stream_words(key, start, count)
    assert np.array_equal(_PHILOX.raw(key, start)(count), want)
    blocks = list(_PHILOX.blocks(key, count, start))
    assert all(0 < len(block) <= _BLOCK_WORDS and block.dtype == np.uint64 for block in blocks)
    assert len(blocks) == -(-count // _BLOCK_WORDS)
    assert np.array_equal(joined(blocks), want)


@settings(max_examples=100, deadline=None)
@given(key=KEYS, start=st.integers(0, 30), count=st.integers(0, 60), block=st.integers(1, 9))
def test_small_blocks_cover_the_same_words(key, start, count, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_BLOCK_WORDS", block)
        blocks = list(_PHILOX.blocks(key, count, start))
    assert [len(b) for b in blocks] == [min(block, count - i) for i in range(0, count, block)]
    assert np.array_equal(joined(blocks), stream_words(key, start, count))


def test_zipped_blocks_give_each_stream_its_own_words(monkeypatch):
    monkeypatch.setattr(statevector, "_BLOCK_WORDS", 5)
    first, second = zip(*zip(_PHILOX.blocks(3, 23), _PHILOX.blocks(2**128 - 1, 23, 6)))
    assert np.array_equal(np.concatenate(first), stream_words(3, 0, 23))
    assert np.array_equal(np.concatenate(second), stream_words(2**128 - 1, 6, 23))


@settings(max_examples=40, deadline=None)
@given(
    f_left=st.floats(0.0, 1.0),
    f_right=st.floats(0.0, 1.0),
    pulls=st.integers(1, 50),
    block=st.integers(1, 9),
    seed=KEYS,
)
def test_a_dataset_read_in_small_blocks_matches_its_oracle(f_left, f_right, pulls, block, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_BLOCK_WORDS", block)
        data = synthesize_dataset(f_left, f_right, pulls, seed)
    assert data.records == reference_dataset(f_left, f_right, pulls, seed)


@settings(max_examples=40, deadline=None)
@given(
    p_left=st.floats(0.0, 1.0),
    theta_left=st.floats(-2 * math.pi, 2 * math.pi),
    theta_right=st.floats(-2 * math.pi, 2 * math.pi),
    num_samples=st.integers(1, 50),
    block=st.integers(1, 9),
    seed=KEYS,
)
def test_a_monte_carlo_estimate_read_in_small_blocks_matches_its_oracle(
    p_left, theta_left, theta_right, num_samples, block, seed
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_BLOCK_WORDS", block)
        got = monte_carlo_estimate(PolicySpec(p_left), BanditParams(theta_left, theta_right), num_samples, seed)
    want = reference_mc_estimate(
        p_left, reward_probability(theta_left), reward_probability(theta_right), num_samples, seed
    )
    assert got.estimate == want
