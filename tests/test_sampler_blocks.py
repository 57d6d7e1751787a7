"""The ideal sampler reads its uniforms from the one keyed stream in
blocks of at most ``_BLOCK_WORDS`` and adds up each block's tally, with
the counts of the per-shot sampler across every block edge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_sample_counts
from qbandit import noise, statevector
from qbandit.statevector import sample_counts
from test_sampler_oracle import KINDS, SEEDS, make_state


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(1, 6),
    kind=st.sampled_from(KINDS),
    shots=st.integers(1, 3000),
    block=st.one_of(st.integers(1, 400), st.sampled_from([1, 2, 7, 300])),
    seed=SEEDS,
    layout=st.integers(0, 2**32 - 1),
)
def test_blocked_counts_match_the_per_shot_sampler(width, kind, shots, block, seed, layout):
    state = make_state(width, kind, np.random.default_rng(layout))
    want = reference_sample_counts(state, shots, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_BLOCK_WORDS", block)
        got = sample_counts(state, shots, seed)
    assert list(got.counts.items()) == list(want.items())
    assert got.total_shots == shots == sum(got.counts.values())


@pytest.mark.parametrize("shots", [1, 299, 300, 301, 1000])
def test_blocks_are_capped_and_cover_every_shot(monkeypatch, shots):
    sizes = []

    def recording(marg, uniforms):
        sizes.append(uniforms.size)
        return tally(marg, uniforms)

    tally = statevector._tally
    monkeypatch.setattr(statevector, "_tally", recording)
    monkeypatch.setattr(statevector, "_BLOCK_WORDS", 300)
    state = make_state(3, "random", np.random.default_rng(1))
    sample_counts(state, shots, 4)
    assert sum(sizes) == shots and max(sizes) <= 300
    assert len(sizes) == -(-shots // 300)


def test_the_noisy_decode_shares_the_bound():
    assert noise._BLOCK_WORDS == statevector._BLOCK_WORDS
