"""The noise path decodes its draws from raw Philox words, one word per
slot, by index in one stream per call, and its batched Pauli errors and
readout match the one-state kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, reference_counts, reference_folded_dict, reference_trajectory
from qbandit import noise
from qbandit.bandit import BanditParams, PolicySpec, angle_from_frequency
from qbandit.noise import (
    _PAULIS,
    NoiseConfig,
    _apply_paulis,
    _draws,
    _pauli_strings,
    _Slots,
    run_trajectory,
)
from qbandit.qpe import (
    QpeConfig,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    eval_qubits,
    run_qpe,
)
from qbandit.statevector import Circuit, _apply_matrix, _draw, _marginal, h, unitary

JUNK = 0x7FF  # the low 11 bits, which no draw reads


class WordsPhilox:
    """``_PHILOX`` whose every stream is the hand-built ``words``."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def raw(self, key, start=0):
        return lambda count: self.words[start : start + count].copy()


def decode(monkeypatch, words, slots, shots, reads):
    """``_draws`` of ``shots`` shots from ``words``: (shot, slot, pauli)
    triples in stream order, and the readout words' u = w >> 11."""
    monkeypatch.setattr(noise, "_PHILOX", WordsPhilox(words))
    shot, slot, pauli, readout = _draws(0, 0, shots, slots, reads)
    return list(zip(shot.tolist(), slot.tolist(), pauli.tolist())), readout


def word(u):
    """A word whose top 53 bits are ``u``."""
    return u << 11 | JUNK


def one_qubit_gates(count, rate):
    return _Slots.of(Circuit(1, tuple(h(0) for _ in range(count))), NoiseConfig(p1=rate))


def test_hand_built_words_by_slot_and_shot(monkeypatch):
    # Rate 1/2: B = 2**52 = 3k + 1, so u = k is Pauli 0, u = k + 1 is
    # Pauli 1, B - 1 is Pauli 2 and B errs no more.  Each shot owns four
    # words: three slots, then its measurement word.
    big, k = 2**52, (2**52 - 1) // 3
    slots = one_qubit_gates(3, 0.5)
    words = [word(k), word(k + 1), word(big), word(0), word(big - 1), word(2**53 - 1), word(big), word(2**52)]
    errors, readout = decode(monkeypatch, words, slots, 2, 1)
    assert errors == [(0, 0, 0), (0, 1, 1), (1, 0, 2)]
    assert readout.tolist() == [[0], [2**52]]


def test_uniform_edges(monkeypatch):
    # Word 0 is the uniform 0.0: below any positive rate, never below 0.
    # The all-ones word is the largest uniform below 1.0, u = 2**53 - 1,
    # below rate 1, and its Pauli is Z.
    slots = _Slots.of(Circuit(2, (h(0), h(0).controlled(1))), NoiseConfig(p1=0.0, p2=1.0))
    top = 2**64 - 1
    errors, readout = decode(monkeypatch, [0, top, 0, top, 0, top], slots, 1, 3)
    assert errors == [(0, 1, 2), (0, 2, 0)]
    assert readout.tolist() == [[2**53 - 1, 0, 2**53 - 1]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(2.0**-40, 1.0))
def test_each_pauli_is_within_1_over_b_of_a_third(rate):
    # 3u // B is monotone in u, so Pauli j takes u from ceil(j B / 3) up
    # to ceil((j + 1) B / 3): the words either side of each edge decode
    # to either side of it, and each share is within 1/B of 1/3.
    b = math.ceil(rate * 2**53)
    edges = [0, -(-b // 3), -(-2 * b // 3), b]
    us = sorted({u for e in edges[1:3] for u in (e - 1, e)} | {0, b - 1})
    with pytest.MonkeyPatch.context() as patch:
        errors, _ = decode(patch, [word(u) for u in us], one_qubit_gates(len(us), rate), 1, 0)
    assert [p for _, _, p in errors] == [sum(u >= e for e in edges[1:3]) for u in us]
    for lo, hi in zip(edges, edges[1:]):
        assert abs((hi - lo) / b - 1 / 3) <= 1 / b


def test_words_past_the_rate_never_err(monkeypatch):
    b = math.ceil(0.05 * 2**53)
    errors, _ = decode(monkeypatch, [word(b), word(b - 1), word(2**53 - 1)], one_qubit_gates(3, 0.05), 1, 0)
    assert errors == [(0, 1, 2)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3),
    st.integers(1, 6),
)
def test_pauli_strings_match_the_matrices_bitwise(width, seed, paulis, batch):
    rng = np.random.default_rng(seed)
    qubits = rng.permutation(width)[: len(paulis)].tolist()
    paulis = paulis[: len(qubits)]
    amps = rng.normal(size=(2**width, batch)) + 1j * rng.normal(size=(2**width, batch))
    cols = sorted(set(rng.integers(batch, size=batch).tolist()))
    want = amps.copy()
    for qubit, pauli in zip(qubits, paulis):
        for col in cols:
            _apply_matrix(want[:, col], width, _PAULIS[pauli], (qubit,), ())
    # One gate on the qubits, erring in every slot of each listed column.
    slots = _Slots.of(Circuit(width, (unitary(np.eye(2 ** len(qubits)), qubits),)), NoiseConfig())
    slot = np.arange(len(paulis))
    found = (np.repeat(cols, len(slot)), np.tile(slot, len(cols)), np.tile(paulis, len(cols)))
    gates, *strings = _pauli_strings(width, slots, batch, *found)
    assert gates.tolist() == [0] * len(cols)
    _apply_paulis(amps, *strings)
    assert np.array_equal(amps, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_batched_marginal_and_draw_match_each_column(width, batch, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(2**width, batch)) + 1j * rng.normal(size=(2**width, batch))
    amps /= np.linalg.norm(amps, axis=0)
    qubits = tuple(rng.permutation(width)[: rng.integers(1, width + 1)].tolist())
    us = rng.integers(0, 2**53, size=batch, dtype=np.uint64)
    marg = _marginal(amps, width, qubits)
    draws = _draw(marg, us)
    for col in range(batch):
        alone = _marginal(amps[:, col].copy(), width, qubits)
        assert np.array_equal(marg[:, col], alone)
        assert draws[col] == _draw(alone[:, None], us[col : col + 1])[0]


def test_batched_draw_on_a_cdf_step():
    # A u equal to a CDF value's limit, whose uniform is that value,
    # selects the next outcome, as searchsorted(side="right") does for
    # one state; the u below it selects the outcome before.
    marg = np.array([[0.5, 0.25, 0.0], [0.5, 0.75, 1.0]])
    us = np.array([2**52, 2**51, 0], dtype=np.uint64)
    assert _draw(marg, us).tolist() == [1, 1, 1]
    assert _draw(marg[:, :2], us[:2] - 1).tolist() == [0, 0]
    for col in range(3):
        assert _draw(marg[:, col : col + 1], us[col : col + 1])[0] == 1


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_rekeyed_stream_matches_a_fresh_philox(seed):
    # Each call keys one bit generator; a wide key uses both key words.
    circ = random_circuit(3, 20, np.random.default_rng(1))
    config = NoiseConfig(p1=0.3, p2=0.3, readout_flip=0.2)
    assert run_trajectory(circ, config, seed) == reference_trajectory(circ, config, seed)


QPE_NOISE = {
    "default": NoiseConfig(),
    "high": NoiseConfig(p1=0.05, p2=0.2, readout_flip=0.1, seed=3),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("rates", QPE_NOISE, ids=QPE_NOISE)
def test_noisy_qpe_matches_reference(n, rates):
    policy = PolicySpec(0.3)
    params = BanditParams(angle_from_frequency(0.4), angle_from_frequency(0.7))
    config = QpeConfig(n=n, shots=150, backend="noisy", noise=QPE_NOISE[rates], seed=11)
    circ = build_qpe_circuit(build_grover_operator(build_state_prep(policy, params)), n)
    if n == 4:
        assert len(circ) == 276
    want = reference_folded_dict(reference_counts(circ, 150, config.noise, 11, eval_qubits(n)), n)
    assert list(run_qpe(policy, params, config).counts.items()) == list(want.items())
