"""Invariants every backend keeps, swept by hypothesis: gates preserve the
norm, shot totals are exact and outcomes have the measured width, QPE
counts lie on the folded grid, exact folded distributions sum to 1, and a
repeated call returns an equal result."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit
from qbandit.backends import ExactOracleBackend, IdealBackend, NoisyBackend
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.noise import NoiseConfig
from qbandit.qpe import QpeConfig, run_qpe
from qbandit.statevector import Circuit, apply_circuit, new_state

BACKENDS = {
    "ideal": IdealBackend(),
    "exact-oracle": ExactOracleBackend(),
    "noisy": NoisyBackend(NoiseConfig(p1=0.02, p2=0.05, readout_flip=0.03, seed=11)),
}
CIRCUIT_SEED = st.integers(0, 2**32 - 1)
SHOT_SEED = st.integers(0, 2**64 - 1)
ANGLE = st.floats(0.0, np.pi)


@st.composite
def circuits(draw, max_gates=24):
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(CIRCUIT_SEED))
    return random_circuit(n, draw(st.integers(0, max_gates)), rng)


@st.composite
def measured_qubits(draw, n):
    """None (the whole register) or a non-empty subset of the qubits, in any order."""
    if draw(st.booleans()):
        return None
    return tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])


@settings(max_examples=60, deadline=None)
@given(circ=circuits(max_gates=60))
def test_apply_circuit_keeps_the_norm(circ):
    state = apply_circuit(new_state(circ.num_qubits), circ)
    assert abs(state.norm() - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    circ=circuits(),
    name=st.sampled_from(sorted(BACKENDS)),
    shots=st.integers(1, 400),
    seed=SHOT_SEED,
    data=st.data(),
)
def test_counts_sum_to_the_shots_at_the_measured_width(circ, name, shots, seed, data):
    backend = BACKENDS[name]
    qubits = data.draw(measured_qubits(circ.num_qubits))
    width = circ.num_qubits if qubits is None else len(qubits)
    counts = backend.counts(circ, shots, seed, qubits)
    assert counts.total_shots == shots
    assert sum(counts.counts.values()) == shots
    assert all(c > 0 for c in counts.counts.values())
    assert all(len(bits) == width and set(bits) <= {"0", "1"} for bits in counts.counts)
    # The same call on the same circuit, and on a fresh copy of it.
    assert backend.counts(circ, shots, seed, qubits) == counts
    assert backend.counts(Circuit(circ.num_qubits, circ.gates), shots, seed, qubits) == counts


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BACKENDS)),
    p_left=st.floats(0.0, 1.0),
    theta_left=ANGLE,
    theta_right=ANGLE,
    n=st.integers(1, 4),
    shots=st.integers(1, 200),
    seed=st.integers(0, 2**128 - 1),
)
def test_qpe_counts_lie_on_the_folded_grid(name, p_left, theta_left, theta_right, n, shots, seed):
    backend = BACKENDS[name]
    policy, params = PolicySpec(p_left), BanditParams(theta_left, theta_right)
    config = QpeConfig(n=n, shots=shots, seed=seed)
    hist = run_qpe(policy, params, config, backend)
    grid = range(2 ** (n - 1) + 1)
    assert hist.total_shots == shots
    assert sum(hist.counts.values()) == shots
    assert set(hist.counts) <= set(grid)
    if hist.exact is None:
        assert name == "noisy"
    else:
        assert set(hist.exact) <= set(grid)
        assert abs(sum(hist.exact.values()) - 1.0) <= 1e-12
    assert run_qpe(policy, params, config, backend) == hist
