"""Each backend's ``frequency`` against the counts it stands for, and the
integer edge rule the ideal sampler counts its raw words by.

The ideal ``frequency`` reads outcome 1 off the sampler's tally with no
``MeasurementCounts``; the noisy one has its own ``frequency``, from its
noisy counts.  A raw Philox word w stands for the uniform (w >> 11) *
2**-53, and ``_tally`` counts it below a CDF edge e when w is below the
edge's limit ceil(e * 2**53) * 2**11."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit import statevector
from qbandit.backends import IdealBackend, NoisyBackend
from qbandit.bandit import REWARD_QUBIT, Arm, BanditParams, build_arm_circuit
from qbandit.noise import NoiseConfig, noisy_counts
from qbandit.statevector import Circuit, _tally, sample_counts
from test_sampler_oracle import SEEDS, make_state

NOISE = NoiseConfig(p1=0.3, p2=0.3, readout_flip=0.1)


@pytest.mark.parametrize("arm", list(Arm))
@pytest.mark.parametrize("seed", [0, 7, 2**128 - 1])
def test_noisy_frequency_is_its_noisy_counts(arm, seed):
    circ = build_arm_circuit(arm, BanditParams(1.1, 2.3))
    got = NoisyBackend(NOISE).frequency(circ, REWARD_QUBIT, 2000, seed)
    assert got == noisy_counts(circ, 2000, NOISE, seed, (REWARD_QUBIT,)).frequency("1")
    assert got != IdealBackend().frequency(circ, REWARD_QUBIT, 2000, seed)


def holding(state) -> Circuit:
    """A circuit on ``state``'s register whose final state is ``state``."""
    circ = Circuit(state.num_qubits)
    circ.__dict__["final_state"] = state  # the cached property's slot
    return circ


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(1, 4),
    kind=st.sampled_from(["zero bins", "single outcome", "above 1", "below 1"]),
    qubit=st.integers(0, 3),
    shots=st.one_of(st.integers(1, 20_000), st.sampled_from([1, 2, 300, 8000])),
    block=st.integers(40, 4000),
    seed=SEEDS,
    layout=st.integers(0, 2**32 - 1),
)
def test_ideal_frequency_is_its_sampled_counts(width, kind, qubit, shots, block, seed, layout):
    state = make_state(width, kind, np.random.default_rng(layout))
    qubit %= width
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector, "_BLOCK_WORDS", block)
        got = IdealBackend().frequency(holding(state), qubit, shots, seed)
        want = sample_counts(state, shots, seed, (qubit,)).frequency("1")
    assert type(got) is float and got == want


EDGES = [0.0, 5e-324, 2**-53, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52]


def limit_words(edge: float) -> list[int]:
    """0, the largest word, and the words at and beside ``edge``'s limit,
    those that fit in 64 bits."""
    limit = math.ceil(Fraction(edge) * 2**53) * 2**11
    return [w for w in (0, 2**64 - 1, limit - 1, limit, limit + 1) if 0 <= w < 2**64]


@pytest.mark.parametrize("passes", [0, 1024])
@pytest.mark.parametrize("edge", sorted({e for c in EDGES for e in (np.nextafter(c, -1), c, np.nextafter(c, 2))}))
def test_a_word_is_below_an_edge_exactly_when_its_uniform_is(monkeypatch, passes, edge):
    # One edge, so counts[0] is the words below it: each word alone.
    monkeypatch.setattr(statevector, "_EDGE_PASSES", passes)
    marg = np.array([edge, 0.0])
    for w in limit_words(edge):
        below = _tally(marg, np.array([w], dtype=np.uint64))[0]
        assert below == ((w >> 11) * 2**-53 < edge), (edge, w)
