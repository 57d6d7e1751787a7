"""Property tests for the readout contracts every backend shares."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit.backends import ExactOracleBackend, IdealBackend
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.qpe import QpeConfig, run_qpe
from qbandit.statevector import (
    apply_circuit,
    circuit,
    h,
    new_state,
    phase,
    ry,
    sample_counts,
    swap,
    x,
    z,
)

angles = st.floats(0.0, math.pi)


@settings(max_examples=40, deadline=None)
@given(
    p_left=st.floats(0.0, 1.0),
    theta_left=angles,
    theta_right=angles,
    n=st.integers(1, 6),
    shots=st.integers(1, 1000),
)
def test_oracle_histogram_is_within_one_count_of_exact(p_left, theta_left, theta_right, n, shots):
    hist = run_qpe(
        PolicySpec(p_left),
        BanditParams(theta_left, theta_right),
        QpeConfig(n=n, shots=shots, backend="exact-oracle"),
        ExactOracleBackend(),
    )
    assert sum(hist.counts.values()) == shots
    for y in range(2 ** (n - 1) + 1):
        assert abs(hist.counts.get(y, 0) - hist.exact.get(y, 0.0) * shots) < 1


@st.composite
def small_circuits(draw):
    width = draw(st.integers(1, 4))
    qubit = st.integers(0, width - 1)
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        target = draw(qubit)
        others = [q for q in range(width) if q != target]
        controls = draw(st.lists(st.sampled_from(others), max_size=1)) if others else []
        kind = draw(st.sampled_from(["x", "h", "z", "ry", "phase", "swap"]))
        if kind in ("ry", "phase"):
            make = ry if kind == "ry" else phase
            gates.append(make(draw(st.floats(-math.pi, math.pi)), target, controls=controls))
        elif kind == "swap":
            if others:
                gates.append(swap(target, draw(st.sampled_from(others))))
        else:
            gates.append({"x": x, "h": h, "z": z}[kind](target, controls=controls))
    subset = draw(st.lists(qubit, min_size=1, max_size=width, unique=True))
    return circuit(width, gates), tuple(subset)


@settings(max_examples=60, deadline=None)
@given(case=small_circuits(), shots=st.integers(1, 500), seed=st.integers(0, 2**32))
def test_ideal_counts_equal_sampling_the_simulated_state(case, shots, seed):
    circ, qubits = case
    state = apply_circuit(new_state(circ.num_qubits), circ)
    expected = sample_counts(state, shots, seed, qubits)
    assert IdealBackend().counts(circ, shots, seed, qubits) == expected
