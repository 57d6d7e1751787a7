"""The noise path decodes numpy's Generator draws from raw Philox words,
and its batched Pauli errors and readout match the one-state kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, reference_trajectory
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
    _fold,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    eval_qubits,
    run_qpe,
)
from qbandit.statevector import Circuit, _apply_matrix, _draw, _marginal, h, unitary
from test_noise_batched import reference_counts

ALWAYS = NoiseConfig(p1=1.0, p2=1.0, readout_flip=0.0)


def philox(words=(), key=7):
    """A Philox bit generator whose first words are ``words`` (at most
    four, placed in its output buffer), then the stream keyed by ``key``."""
    bitgen = np.random.Philox(key=key)
    state = bitgen.state
    state["buffer"] = np.zeros(4, dtype=np.uint64)
    state["buffer"][4 - len(words) :] = words
    state["buffer_pos"] = 4 - len(words)
    bitgen.state = state
    return bitgen


def generator_draws(bitgen, slots, readout):
    """A shot's errors and readout uniforms drawn gate by gate from
    numpy's Generator, as ``helpers.reference_trajectory`` draws them."""
    rng = np.random.Generator(bitgen)
    errors, start = [], 0
    while start < len(slots.rate):
        end = slots.end[start]
        for s, u in enumerate(rng.random(end - start), start=start):
            if u < slots.rate[s]:
                errors.append((s, int(rng.integers(3))))
        start = end
    return errors, rng.random(readout)


def decoded_draws(make_bitgen, slots, readout, spare):
    """A shot's errors and readout uniforms as ``noise._draws`` decodes
    them from raw words, and how many times it read the stream: a row
    too short for the shot's Pauli draws is read again from the start."""
    reads = []

    def read(i, k):
        reads.append(k)
        return make_bitgen().random_raw(k)

    found, uniforms = _draws(read, 1, slots, readout, spare)
    # One error per slot, so slot order is stream order.
    errors = sorted((int(s), int(p)) for _, slot, pauli in found for s, p in zip(slot, pauli))
    return errors, uniforms[0], len(reads)


def assert_same_draws(make_bitgen, slots, readout=2, spare=noise._SPARE):
    want_errors, want_readout = generator_draws(make_bitgen(), slots, readout)
    got_errors, got_readout, reads = decoded_draws(make_bitgen, slots, readout, spare)
    assert got_errors == want_errors
    assert np.array_equal(got_readout, want_readout)
    return got_errors, reads


def one_qubit_gates(count):
    return _Slots.of(Circuit(1, tuple(h(0) for _ in range(count))), ALWAYS)


def test_high_half_is_carried_to_the_next_gates_pauli():
    # Gate 0 errs and takes the low half of word 1.  Gate 1's uniform is
    # word 2; it errs and uses word 1's high half, so gate 2's uniform is
    # word 3.
    low, high = 0x8000_0000, 0xC000_0000
    words = [5, (high << 32) | low, 7, 9]
    errors, _ = assert_same_draws(lambda: philox(words), one_qubit_gates(3))
    assert errors[:2] == [(0, (low * 3) >> 32), (1, (high * 3) >> 32)]


def test_zero_half_is_redrawn():
    # A low half of 0 is Lemire's one rejected value for integers(3):
    # the draw moves on to the high half, and a zero word moves on twice.
    high = 0x5555_5556
    errors, _ = assert_same_draws(lambda: philox([1, high << 32, 2, 0]), one_qubit_gates(3))
    assert errors[0] == (0, (high * 3) >> 32) == (0, 1)
    errors, _ = assert_same_draws(lambda: philox([1, 0, 3 << 32]), one_qubit_gates(2))
    assert errors[0] == (0, 0)


def test_uniform_edges():
    # Word 0 is the uniform 0.0: below any positive rate, never below 0.
    # The all-ones word is the largest uniform below 1.0.
    slots = _Slots.of(Circuit(2, (h(0), h(0).controlled(1))), NoiseConfig(p1=0.0, p2=1.0))
    top = 2**64 - 1
    errors, _ = assert_same_draws(lambda: philox([0, top, 0]), slots)
    assert [s for s, _ in errors] == [1, 2]


@pytest.mark.parametrize("spare", [1, 2, 3, 5])
def test_reread_past_the_spare_words(spare):
    rng = np.random.default_rng(spare)
    for rate in (0.05, 0.4, 1.0):
        slots = _Slots.of(random_circuit(3, 12, rng), NoiseConfig(p1=rate, p2=rate))
        for key in range(20):
            _, reads = assert_same_draws(lambda: philox(key=key), slots, readout=4, spare=spare)
        # A hand-built zero half among the spare words as well.
        assert_same_draws(lambda: philox([0, 1 << 32, 0, 5]), slots, readout=4, spare=spare)
        if rate == 1.0:  # every slot errs, so the draws outrun the spare words
            assert reads > 1


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
    found = [(np.repeat(cols, len(slot)), np.tile(slot, len(cols)), np.tile(paulis, len(cols)))]
    _apply_paulis(amps, *_pauli_strings(width, slots, batch, found)[0])
    assert np.array_equal(amps, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_batched_marginal_and_draw_match_each_column(width, batch, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(2**width, batch)) + 1j * rng.normal(size=(2**width, batch))
    amps /= np.linalg.norm(amps, axis=0)
    qubits = tuple(rng.permutation(width)[: rng.integers(1, width + 1)].tolist())
    uniforms = rng.random(batch)
    marg = _marginal(amps, width, qubits)
    draws = _draw(marg, uniforms)
    for col in range(batch):
        alone = _marginal(amps[:, col].copy(), width, qubits)
        assert np.array_equal(marg[:, col], alone)
        assert draws[col] == _draw(alone, uniforms[col : col + 1])[0]


def test_batched_draw_on_a_cdf_step():
    # A uniform equal to a CDF value selects the next outcome, as
    # searchsorted(side="right") does for one state.
    marg = np.array([[0.5, 0.25, 0.0], [0.5, 0.75, 1.0]])
    uniforms = np.array([0.5, 0.25, 0.0])
    assert _draw(marg, uniforms).tolist() == [1, 1, 1]
    for col in range(3):
        assert _draw(marg[:, col], uniforms[col : col + 1])[0] == 1


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_rekeyed_stream_matches_a_fresh_philox(seed):
    # Each shot re-keys one bit generator; a wide key uses both key words.
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
    want = _fold(reference_counts(circ, 150, config.noise, 11, eval_qubits(n)), n)
    assert list(run_qpe(policy, params, config).counts.items()) == list(want.items())
