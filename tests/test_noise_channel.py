"""Noisy counts against the exact channel: ``helpers.channel_distribution``
evolves the density matrix gate by gate, sharing no random stream with
the trajectories, and every count must lie within the stated multinomial
bound of it (``helpers.assert_multinomial``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_multinomial, channel_distribution, random_circuit
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.noise import NoiseConfig, noisy_counts
from qbandit.qpe import build_grover_operator, build_qpe_circuit, build_state_prep, eval_qubits
from qbandit.statevector import Circuit, _marginal, h, phase, ry, x

DEFAULT = NoiseConfig()
RATES = st.sampled_from([0.0, DEFAULT.p1, DEFAULT.p2, 0.3, 0.75])
READOUT = st.sampled_from([0.0, DEFAULT.readout_flip, 0.3])
SHOTS = 2000


@st.composite
def small_circuits(draw):
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_gates = draw(st.integers(0, 12))
    if width == 1:
        makers = (lambda: x(0), lambda: h(0), lambda: ry(float(rng.uniform(-3, 3)), 0), lambda: phase(1.0, 0))
        return Circuit(1, tuple(makers[rng.integers(4)]() for _ in range(num_gates)))
    return random_circuit(width, num_gates, rng)


@st.composite
def cases(draw):
    circ = draw(small_circuits())
    width = circ.num_qubits
    config = NoiseConfig(draw(RATES), draw(RATES), draw(READOUT), seed=draw(st.integers(0, 99)))
    qubits = draw(st.none() | st.permutations(range(width)).flatmap(lambda p: st.integers(1, width).map(lambda k: tuple(p[:k]))))
    return circ, config, draw(st.integers(0, 2**32 - 1)), qubits


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_noisy_counts_lie_within_the_bound_of_the_channel(case):
    circ, config, seed, qubits = case
    counts = noisy_counts(circ, SHOTS, config, seed, qubits).counts
    assert_multinomial(counts, channel_distribution(circ, config, qubits), SHOTS)


@pytest.mark.parametrize("n", [2, 3])
def test_noisy_qpe_lies_within_the_bound_of_the_channel(n):
    prep = build_state_prep(PolicySpec(0.3), BanditParams(1.2, 2.1))
    circ = build_qpe_circuit(build_grover_operator(prep), n)
    config = NoiseConfig(p1=0.01, p2=0.05, readout_flip=0.02, seed=4)
    counts = noisy_counts(circ, SHOTS, config, 7, eval_qubits(n)).counts
    assert_multinomial(counts, channel_distribution(circ, config, eval_qubits(n)), SHOTS)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_circuits(), READOUT)
def test_at_rate_0_the_channel_is_the_ideal_marginal_read_out(circ, readout):
    got = channel_distribution(circ, NoiseConfig(0.0, 0.0, readout_flip=0.0))
    assert np.abs(got - _marginal(circ.final_state.amps, circ.num_qubits)).max() < 1e-12
    flipped = channel_distribution(circ, NoiseConfig(0.0, 0.0, readout_flip=readout))
    assert flipped.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.7, np.pi])
def test_at_three_quarters_a_touched_qubit_is_maximally_mixed(theta):
    # The second qubit is untouched and stays |0>.
    config = NoiseConfig(p1=0.75, p2=0.0, readout_flip=0.0)
    got = channel_distribution(Circuit(2, (ry(theta, 0),)), config)
    assert np.abs(got - [0.5, 0.5, 0.0, 0.0]).max() < 1e-15


def test_the_bound_refuses_a_wrong_distribution():
    probs = np.array([0.5, 0.5])
    assert_multinomial({"0": 1000, "1": 1000}, probs, 2000)
    with pytest.raises(AssertionError):
        assert_multinomial({"0": 1200, "1": 800}, probs, 2000)
