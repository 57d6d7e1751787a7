"""Batched trajectories against the gate-by-gate reference, shot for shot."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, reference_counts, reference_trajectory
from qbandit import noise
from qbandit.noise import NoiseConfig, noisy_counts, run_trajectory
from qbandit.statevector import (
    Circuit,
    StateVector,
    apply_circuit,
    circuit_unitary,
    h,
    phase,
    ry,
    x,
)

RATES = st.sampled_from([0.0, 5e-4, 0.05, 0.75, 1.0])
READOUT = st.sampled_from([0.0, 5e-3, 0.5, 1.0])


def one_qubit_circuit(num_gates: int, rng: np.random.Generator) -> Circuit:
    """``random_circuit`` needs two qubits; this covers width 1."""
    makers = (
        lambda: x(0),
        lambda: h(0),
        lambda: ry(float(rng.uniform(-np.pi, np.pi)), 0),
        lambda: phase(float(rng.uniform(-np.pi, np.pi)), 0),
    )
    return Circuit(1, tuple(makers[rng.integers(4)]() for _ in range(num_gates)))


@st.composite
def cases(draw):
    width = draw(st.integers(1, 6))
    num_gates = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if width == 1:
        circ = one_qubit_circuit(num_gates, rng)
    else:
        circ = random_circuit(width, num_gates, rng)
    config = NoiseConfig(
        p1=draw(RATES), p2=draw(RATES), readout_flip=draw(READOUT), seed=draw(st.integers(0, 99))
    )
    qubits = draw(
        st.none() | st.permutations(range(width)).flatmap(lambda p: st.integers(1, width).map(lambda k: tuple(p[:k])))
    )
    return circ, config, draw(st.integers(1, 60)), draw(st.integers(0, 10**6)), qubits


@settings(max_examples=80, deadline=None)
@given(cases())
def test_noisy_counts_match_reference(case):
    circ, config, shots, seed, qubits = case
    got = noisy_counts(circ, shots, config, seed, qubits)
    # Same outcomes in the same first-seen order, so the dict iterates alike.
    assert list(got.counts.items()) == list(reference_counts(circ, shots, config, seed, qubits).items())


@settings(max_examples=40, deadline=None)
@given(cases())
def test_run_trajectory_matches_reference(case):
    circ, config, _, seed, qubits = case
    assert run_trajectory(circ, config, seed, qubits) == reference_trajectory(circ, config, seed, qubits)


def test_chunks_and_blocks_do_not_change_counts(monkeypatch):
    rng = np.random.default_rng(5)
    circ = random_circuit(4, 40, rng)
    config = NoiseConfig(p1=0.01, p2=0.1, readout_flip=0.05, seed=2)
    whole = noisy_counts(circ, 50, config, 11).counts
    assert whole == reference_counts(circ, 50, config, 11, None)
    # Seven shots per chunk gives eight chunks, the last one short.
    monkeypatch.setattr(noise, "_CHUNK_AMPS", 7 * 2**4)
    assert noisy_counts(circ, 50, config, 11).counts == whole
    # Blocks of three shots and of two, each chunk of seven ending in a
    # short one, then of one shot, however wide.
    width = sum(len(g.qubits) for g in circ.gates) + 1 + 4
    for cap in (3 * width, 2 * width + 1, 1):
        monkeypatch.setattr(noise, "_BLOCK_WORDS", cap)
        assert noisy_counts(circ, 50, config, 11).counts == whole


def test_circuit_without_gates():
    config = NoiseConfig(p1=1.0, p2=1.0, readout_flip=0.5, seed=1)
    circ = Circuit(3, ())
    assert noisy_counts(circ, 40, config, 4).counts == reference_counts(circ, 40, config, 4, None)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 25), st.integers(0, 2**32 - 1))
def test_circuit_unitary_columns_are_basis_states_run(width, num_gates, seed):
    circ = random_circuit(width, num_gates, np.random.default_rng(seed))
    mat = circuit_unitary(circ)
    for j, basis in enumerate(np.eye(2**width, dtype=complex)):
        column = apply_circuit(StateVector(width, basis), circ).amps
        assert np.abs(mat[:, j] - column).max() < 1e-12
