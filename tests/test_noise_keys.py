"""The noise path's keys and memory: each chunk of shots derives its
Philox keys in one array pass, and the raw words are read in blocks of
bounded size, freed before the gates run."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit import noise
from qbandit.bandit import BanditParams, PolicySpec, angle_from_frequency
from qbandit.noise import NoiseConfig, noisy_counts
from qbandit.qpe import build_grover_operator, build_qpe_circuit, build_state_prep, eval_qubits
from qbandit.statevector import Circuit, _derive_seeds, derive_seed, h

# Seed parts of one, two, and three or more 32-bit words.
PARTS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**130),
)
INDICES = st.lists(
    st.integers(0, 2**32 - 1) | st.sampled_from([0, 1, 2**31, 2**32 - 1]), min_size=1, max_size=20
)


@settings(max_examples=200, deadline=None)
@given(PARTS, PARTS, INDICES)
def test_array_keys_match_derive_seed(a, b, indices):
    keys = _derive_seeds(a, b, np.array(indices, dtype=np.int64))
    assert keys.dtype == np.uint64
    assert keys.tolist() == [derive_seed(a, b, i) for i in indices]


def test_shot_counts_past_32_bits_are_refused_up_front(monkeypatch):
    # A shot's index is one 32-bit word of its key's hash.  The refusal
    # comes before any key is derived or any trajectory runs.
    def no_work(*args):
        raise AssertionError("trajectories started")

    monkeypatch.setattr(noise, "_trajectories", no_work)
    with pytest.raises(ValueError, match="shots"):
        noisy_counts(Circuit(1, (h(0),)), 2**32 + 1, NoiseConfig(), 0)


def qpe_circuit(n):
    policy = PolicySpec(0.3)
    params = BanditParams(angle_from_frequency(0.4), angle_from_frequency(0.7))
    return build_qpe_circuit(build_grover_operator(build_state_prep(policy, params)), n)


@pytest.mark.parametrize("shots", [300, 3000])
def test_word_blocks_are_capped_whatever_the_shot_count(monkeypatch, shots):
    sizes = []

    def recording(words, *args):
        sizes.append(words.size)
        return errors(words, *args)

    errors = noise._errors
    monkeypatch.setattr(noise, "_errors", recording)
    noisy_counts(qpe_circuit(3), shots, NoiseConfig(), 5, eval_qubits(3))
    assert 1 < len(sizes) and max(sizes) <= noise._BLOCK_WORDS


def test_noisy_qpe_peak_memory():
    # 300 shots of the n = 4 QPE circuit, as the qpe-noisy benchmark runs.
    circ, config, qubits = qpe_circuit(4), NoiseConfig(), eval_qubits(4)
    noisy_counts(circ, 300, config, 11, qubits)  # fills the index caches
    tracemalloc.start()
    try:
        noisy_counts(circ, 300, config, 11, qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
