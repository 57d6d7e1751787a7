"""Noisy trajectories of circuits given by runs: a run of a segment on at
most three qubits is one power step, with each erring shot's Pauli
errors conjugated back to the run's start.  Held shot for shot to the
gate-by-gate reference, amplitude by amplitude to a gate-by-gate run
with the same errors, and at rate 0 to the ideal state."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit, reference_counts, reference_slots, reference_trajectory
from qbandit import noise
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.noise import NoiseConfig, noisy_counts, run_trajectory
from qbandit.qpe import build_grover_operator, build_qpe_circuit, build_state_prep
from qbandit.statevector import Circuit, _apply_matrix, h, phase, ry, unitary, x

# (p1, p2): zero, the defaults, 0.3 and 3/4, at which one copy of one
# shot's run has several errors.
RATES = st.sampled_from([(0.0, 0.0), (5e-4, 5e-3), (0.3, 0.3), (0.75, 0.75)])
CONFIGS = st.builds(
    lambda rates, readout, seed: NoiseConfig(*rates, readout_flip=readout, seed=seed),
    RATES,
    st.sampled_from([0.0, 5e-3, 0.3]),
    st.integers(0, 99),
)
SEEDS = st.integers(0, 2**32 - 1)


def qpe_circuit(p_left, theta_left, theta_right, n):
    prep = build_state_prep(PolicySpec(p_left), BanditParams(theta_left, theta_right))
    return build_qpe_circuit(build_grover_operator(prep), n)


def narrow_segment(qubits: list[int], size: int, rng: np.random.Generator) -> tuple:
    """``size`` random gates on ``qubits`` (one to three of them), with a
    doubly controlled gate among them on three."""
    if len(qubits) == 1:
        makers = (lambda: x(qubits[0]), lambda: h(qubits[0]), lambda: ry(float(rng.uniform(-3, 3)), qubits[0]))
        return tuple(makers[rng.integers(3)]() for _ in range(size))
    place = lambda g: replace(
        g, targets=tuple(qubits[t] for t in g.targets), controls=tuple(qubits[c] for c in g.controls)
    )
    gates = [place(g) for g in random_circuit(len(qubits), size, rng).gates]
    if len(qubits) == 3:
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        gates.insert(int(rng.integers(len(gates) + 1)), unitary(u, [qubits[0]], controls=qubits[1:]))
    return tuple(gates)


@st.composite
def runs_circuits(draw):
    """Runs of random segments on one to three qubits, one to eight copies
    each, between runs of gates on four or more qubits."""
    width = draw(st.integers(4, 5))
    rng = np.random.default_rng(draw(SEEDS))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            qubits = rng.choice(width, size=draw(st.integers(1, 3)), replace=False).tolist()
            runs.append((narrow_segment(qubits, draw(st.integers(1, 6)), rng), draw(st.integers(1, 8))))
        else:
            wide = (x(0, controls=[1, 2, 3]), phase(float(rng.uniform(-3, 3)), width - 1, controls=[0, 1, 2]))
            runs.append((wide + random_circuit(width, draw(st.integers(0, 4)), rng).gates, draw(st.integers(1, 2))))
    return Circuit(width, runs=runs)


ANGLE = st.floats(0.0, np.pi)
QPE = st.builds(qpe_circuit, st.floats(0.0, 1.0), ANGLE, ANGLE, st.integers(1, 4))
CIRCUITS = QPE | runs_circuits()


def chunk_states(circ, config, shots, seed):
    """``noisy_counts`` with chunks of three shots: each chunk's errors,
    as ``_draws`` decodes them, and its amplitudes at the readout."""
    draws, states = noise._draws, noise._marginal
    found, amps = [], []

    def recording_draws(*args):
        *errors, readout = draws(*args)
        found.append(errors)
        return (*errors, readout)

    def recording_marginal(chunk, *args):
        amps.append(chunk.copy())
        return states(chunk, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "_CHUNK_AMPS", 3 << circ.num_qubits)
        mp.setattr(noise, "_draws", recording_draws)
        mp.setattr(noise, "_marginal", recording_marginal)
        counts = noisy_counts(circ, shots, config, seed)
    return counts, found, amps


def gate_by_gate_with(circ, config, found, cols):
    """The amplitudes of ``cols`` shots run one gate at a time, each gate's
    Pauli strings after it, as the trajectories run a flat gate list."""
    n = circ.num_qubits
    slots = noise._Slots.of(circ, config)
    gates, *strings = noise._pauli_strings(n, slots, cols, *found)
    amps = np.zeros((2**n, cols), dtype=complex)
    amps[0] = 1.0
    for g, gate in enumerate(circ.gates):
        _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls, gate.moves)
        a, b = np.searchsorted(gates, (g, g + 1))
        if a < b:
            noise._apply_paulis(amps, *(s[a:b] for s in strings))
    return amps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(CIRCUITS, CONFIGS, SEEDS)
def test_a_trajectory_matches_the_reference_shot_for_shot(circ, config, seed):
    assert run_trajectory(circ, config, seed) == reference_trajectory(circ, config, seed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(CIRCUITS, CONFIGS, st.integers(1, 10), SEEDS)
def test_split_chunks_keep_the_reference_counts_and_amplitudes(circ, config, shots, seed):
    counts, found, amps = chunk_states(circ, config, shots, seed)
    assert list(counts.counts.items()) == list(reference_counts(circ, shots, config, seed).items())
    assert len(amps) == -(-shots // 3)
    for errors, chunk in zip(found, amps):
        assert np.abs(chunk - gate_by_gate_with(circ, config, errors, chunk.shape[1])).max() < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(CIRCUITS, st.integers(1, 10), SEEDS)
def test_at_rate_0_every_column_is_the_ideal_state(circ, shots, seed):
    _, found, amps = chunk_states(circ, NoiseConfig(0.0, 0.0, readout_flip=0.3), shots, seed)
    assert not any(shot.size for shot, _, _ in found)
    for chunk in amps:
        assert np.abs(chunk - circ.final_state.amps[:, None]).max() < 1e-12


def assert_slots_equal(circ, config):
    got, want = noise._Slots.of(circ, config), reference_slots(circ, config)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_qpe_slots_match_the_per_gate_loop(n):
    assert_slots_equal(qpe_circuit(0.3, 1.1, 2.2, n), NoiseConfig(p1=0.01, p2=0.3))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(runs_circuits(), CONFIGS)
def test_runs_slots_match_the_per_gate_loop(circ, config):
    assert_slots_equal(circ, config)
    flat = Circuit(circ.num_qubits, circ.gates)
    assert_slots_equal(flat, config)
