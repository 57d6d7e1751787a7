"""The ideal sampler, the dataset synthesizer and the Monte Carlo baseline
against per-shot oracles on new Philox streams (``tests/helpers.py``),
count for count and draw for draw."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bitstring,
    fresh_uniforms,
    reference_dataset,
    reference_mc_estimate,
    reference_sample_counts,
    reference_tally,
    stream_words,
)
from qbandit import statevector
from qbandit.baseline import monte_carlo_estimate
from qbandit.bandit import BanditParams, PolicySpec, reward_probability
from qbandit.statevector import _PHILOX, StateVector, _tally, sample_counts
from qbandit.training import synthesize_dataset

SEEDS = st.one_of(
    st.integers(0, 2**128 - 1), st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1])
)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, count=st.integers(1, 5000))
def test_rekeyed_uniforms_are_a_new_streams_bitwise(seed, count):
    # The rekeyed words are a new stream's, and the uniform each stands
    # for, (w >> 11) * 2**-53, is the one its Generator draws.
    words = np.concatenate(list(_PHILOX.blocks(seed, count)))
    assert np.array_equal(words, stream_words(seed, 0, count))
    assert np.array_equal((words >> 11) * 2.0**-53, fresh_uniforms(seed, count))


# Amplitudes as a simulated circuit leaves them, and with the bins or
# the norm that stress the CDF: zero bins, a single outcome, and a norm a
# few ulps off 1 so that an edge before the last rounds above 1.0.
KINDS = ["random", "zero bins", "single outcome", "above 1", "below 1"]


def make_state(width: int, kind: str, rng: np.random.Generator) -> StateVector:
    dim = 2**width
    if kind == "single outcome":
        amps = np.zeros(dim, dtype=complex)
        amps[rng.integers(dim)] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        return StateVector(width, amps)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if kind != "random":
        amps[rng.random(dim) < 0.5] = 0.0
        amps[-1] = 0.0  # the last edge then comes after an edge at the total
        amps[0] = amps[0] or 1.0
    amps /= np.linalg.norm(amps)
    scale = {"above 1": 1 + 8e-16, "below 1": 1 - 8e-16}.get(kind, 1.0)
    return StateVector(width, amps * scale)


def as_counts(marg: np.ndarray, tally: np.ndarray) -> dict[str, int]:
    return {bitstring(m, marg): int(c) for m, c in enumerate(tally) if c}


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 10),
    kind=st.sampled_from(KINDS),
    shots=st.one_of(st.integers(1, 10_000), st.sampled_from([1, 2, 300, 8000])),
    seed=SEEDS,
    subset_size=st.integers(0, 10),
    layout=st.integers(0, 2**32 - 1),
)
def test_sample_counts_match_the_per_shot_sampler(width, kind, shots, seed, subset_size, layout):
    rng = np.random.default_rng(layout)
    state = make_state(width, kind, rng)
    # subset_size 0 measures every qubit through the default.
    qubits = None if subset_size == 0 else rng.permutation(width)[: min(subset_size, width)].tolist()
    got = sample_counts(state, shots, seed, qubits)
    want = reference_sample_counts(state, shots, seed, qubits)
    assert list(got.counts.items()) == list(want.items())  # same order too
    assert got.total_shots == shots == sum(got.counts.values())


MARGINALS = {
    "zero bins": [0.0, 0.25, 0.0, 0.0, 0.75, 0.0, 0.0, 0.0],
    "single outcome": [0.0, 0.0, 1.0, 0.0],
    "edge above 1.0": [0.5, 0.5000000000000002, 0.0, 0.0],
    "total below 1.0": [0.25, 0.25, 0.4999999999999999, 0.0],
    "two outcomes": [0.5, 0.5],
}


@pytest.mark.parametrize("marg", MARGINALS.values(), ids=MARGINALS.keys())
@pytest.mark.parametrize("passes", [0, 4, 1024])
def test_tally_at_cdf_edges(monkeypatch, marg, passes):
    # The words at and beside every edge's integer limit ceil(e * 2**53) *
    # 2**11, the smallest and the largest word, then a stream's worth;
    # with passes over the edges, with a sort, and with the default rule.
    monkeypatch.setattr(statevector, "_EDGE_PASSES", passes)
    marg = np.array(marg)
    limits = [math.ceil(Fraction(edge) * 2**53) * 2**11 for edge in np.cumsum(marg)]
    near = {w for limit in limits for w in (limit - 1, limit, limit + 1) if 0 <= w < 2**64}
    words = np.concatenate([np.array(sorted(near | {0, 2**64 - 1}), dtype=np.uint64), stream_words(3, 0, 500)])
    assert as_counts(marg, _tally(marg, words)) == reference_tally(marg, (words >> 11) * 2.0**-53)


def test_an_edge_above_one_is_really_there():
    assert np.cumsum(MARGINALS["edge above 1.0"])[1] > 1.0


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 10),
    shots=st.integers(1, 3000),
    seed=SEEDS,
    passes=st.sampled_from([0, 1, 2, 1024]),
    layout=st.integers(0, 2**32 - 1),
)
def test_tally_rule_does_not_change_counts(width, shots, seed, passes, layout):
    state = make_state(width, "zero bins", np.random.default_rng(layout))
    want = sample_counts(state, shots, seed).counts
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_EDGE_PASSES", passes)
        assert sample_counts(state, shots, seed).counts == want


@settings(max_examples=100, deadline=None)
@given(
    f_left=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5])),
    f_right=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5])),
    pulls=st.integers(1, 2000),
    seed=SEEDS,
)
def test_synthesize_dataset_matches_its_oracle(f_left, f_right, pulls, seed):
    data = synthesize_dataset(f_left, f_right, pulls, seed)
    assert data.records == reference_dataset(f_left, f_right, pulls, seed)


@settings(max_examples=100, deadline=None)
@given(
    p_left=st.floats(0.0, 1.0),
    theta_left=st.floats(-2 * math.pi, 2 * math.pi),
    theta_right=st.floats(-2 * math.pi, 2 * math.pi),
    num_samples=st.integers(1, 5000),
    seed=SEEDS,
)
def test_monte_carlo_estimate_matches_its_oracle(p_left, theta_left, theta_right, num_samples, seed):
    got = monte_carlo_estimate(PolicySpec(p_left), BanditParams(theta_left, theta_right), num_samples, seed)
    want = reference_mc_estimate(
        p_left, reward_probability(theta_left), reward_probability(theta_right), num_samples, seed
    )
    assert got.estimate == want
