"""A circuit's builder declares its structure.  A flat gate list declares
none: its plan is its gates, and its state has a gate-by-gate loop's
bits, however its gates repeat.  A phase-estimation circuit declares its
runs, and its state stays within 1e-12 of its flat copy's and on the
closed form."""

import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import gate_by_gate, random_circuit
from qbandit.bandit import Arm, BanditParams, PolicySpec, build_arm_circuit, policy_value
from qbandit.qpe import _inverse_qft, build_grover_operator, build_qpe_circuit, build_state_prep, eval_qubits
from qbandit.statevector import Circuit, exact_distribution, inverse_circuit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.oracle import folded_distribution  # noqa: E402

ANGLE = st.floats(0.0, np.pi)
SEED = st.integers(0, 2**32 - 1)


def assert_gate_by_gate(circ):
    assert circ.runs is None and circ.steps is circ.gates
    assert circ.final_state.amps.tobytes() == gate_by_gate(circ).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    num_qubits=st.integers(2, 5),
    sizes=st.tuples(st.integers(0, 4), st.integers(1, 6), st.integers(0, 4)),
    copies=st.integers(1, 12),
    seed=SEED,
)
def test_a_flat_list_runs_gate_by_gate(num_qubits, sizes, copies, seed):
    """Random gates, with a random segment repeated back to back, and the
    circuits ``then`` and ``inverse_circuit`` make of them."""
    rng = np.random.default_rng(seed)
    before, segment, after = (random_circuit(num_qubits, k, rng) for k in sizes)
    circ = Circuit(num_qubits, before.gates + segment.gates * copies + after.gates)
    for flat in (circ, before.then(segment).then(after), inverse_circuit(circ)):
        assert_gate_by_gate(flat)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-10.0, 10.0), p_left=st.floats(0.0, 1.0))
@example(theta=math.pi / 2, p_left=0.5)  # training's default start
def test_equal_angles_run_gate_by_gate(theta, p_left):
    """Equal angles make the environment's (X, cRY) repeat back to back."""
    params = BanditParams(theta, theta)
    prep = build_state_prep(PolicySpec(p_left), params)
    for circ in (build_arm_circuit(Arm.LEFT, params), build_arm_circuit(Arm.RIGHT, params), prep):
        assert_gate_by_gate(circ)
    assert_gate_by_gate(build_grover_operator(prep).circuit())


def test_a_flat_copy_of_the_inverse_qft_runs_gate_by_gate():
    for n in range(1, 9):
        assert_gate_by_gate(Circuit(n + 2, tuple(_inverse_qft(n))))
        assert_gate_by_gate(Circuit(n + 2, _inverse_qft(n)))


@settings(max_examples=10, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta=ANGLE, n=st.integers(1, 11))
@example(p_left=0.5, theta=math.pi / 2, n=12)  # n = 12 takes 3 s gate by gate: one example
def test_equal_angle_qpe_matches_its_flat_copy_and_the_closed_form(p_left, theta, n):
    policy, params = PolicySpec(p_left), BanditParams(theta, theta)
    circ = build_qpe_circuit(build_grover_operator(build_state_prep(policy, params)), n)
    flat = Circuit(circ.num_qubits, circ.gates)
    assert circ.runs is not None and flat.steps is flat.gates
    assert np.abs(circ.final_state.amps - flat.final_state.amps).max() < 1e-12
    dist = exact_distribution(circ.final_state, eval_qubits(n)).array
    folded = np.bincount(np.minimum(np.arange(2**n), 2**n - np.arange(2**n)), dist, minlength=2 ** (n - 1) + 1)
    assert np.abs(folded - folded_distribution(policy_value(policy, params), n)).max() < 1e-9
