"""Phase estimation's inverse QFT as one FFT step.  ``qpe`` builds the
ladder as an ``_InverseQft``, and a circuit's runs that hold it as a
segment plan it as one ``_Fourier`` step; the same gates as a plain
tuple plan as any other run (one power step on at most three qubits,
else gate by gate), and in a flat gate list run gate by gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_steps, gate_by_gate, power_step, random_circuit, run_steps
from qbandit.bandit import Arm, BanditParams, PolicySpec, build_arm_circuit
from qbandit.qpe import (
    _inverse_qft,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    eval_qubits,
    inverse_qft_gates,
)
from qbandit.statevector import (
    Circuit,
    SimulationError,
    StateVector,
    _Fourier,
    _InverseQft,
    _Step,
    apply_circuit,
    circuit_unitary,
    h,
    x,
)

ANGLE = st.floats(0.0, np.pi)
WIDTH = st.integers(2, 8)
SEED = st.integers(0, 2**32 - 1)


def qpe_circuit(p_left, theta_left, theta_right, n):
    prep = build_state_prep(PolicySpec(p_left), BanditParams(theta_left, theta_right))
    return build_qpe_circuit(build_grover_operator(prep), n)


def random_state(num_qubits, rng):
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amps / np.linalg.norm(amps)


@settings(max_examples=20, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta_left=ANGLE, theta_right=ANGLE, n=WIDTH, seed=SEED)
def test_qpe_on_a_random_state_matches_the_gate_by_gate_reference(p_left, theta_left, theta_right, n, seed):
    circ = qpe_circuit(p_left, theta_left, theta_right, n)
    assert circ.steps[-1] == _Fourier(2, n)
    amps = random_state(n + 2, np.random.default_rng(seed))
    got = apply_circuit(StateVector(n + 2, amps), circ).amps
    assert np.abs(got - gate_by_gate(circ, amps)).max() < 1e-12


@settings(max_examples=12, deadline=None)
@given(n=WIDTH, extra=st.integers(0, 1), sizes=st.tuples(st.integers(0, 6), st.integers(0, 6)), seed=SEED)
def test_a_marked_ladder_between_random_gates_matches_the_reference(n, extra, sizes, seed):
    """A circuit of runs, wider than the register by ``extra`` qubits
    above it: its unitary, a batch of every basis state, up to 10 qubits
    (16 MB), and a random state."""
    rng = np.random.default_rng(seed)
    width = n + 2 + extra
    before, after = (random_circuit(width, k, rng).gates for k in sizes)
    circ = Circuit(width, runs=((before, 1), (_inverse_qft(n), 1), (after, 1)))
    assert_same_steps(circ.steps, [*run_steps(before, 1), _Fourier(2, n), *run_steps(after, 1)])
    if width <= 10:
        eye = np.eye(2**width, dtype=complex)
        assert np.abs(circuit_unitary(circ) - gate_by_gate(circ, eye)).max() < 1e-12
    amps = random_state(width, rng)
    assert np.abs(apply_circuit(StateVector(width, amps), circ).amps - gate_by_gate(circ, amps)).max() < 1e-12


def ladder_circuit(n):
    return Circuit(n + 2, runs=((_inverse_qft(n), 1),))


@pytest.mark.parametrize("n", range(1, 5))
def test_the_fft_is_the_ladders_unitary(n):
    ladder = ladder_circuit(n)
    want = gate_by_gate(ladder, np.eye(2 ** (n + 2), dtype=complex))
    assert np.abs(circuit_unitary(ladder) - want).max() < 1e-15
    assert ladder.steps == ((_Fourier(2, n),) if n >= 2 else ladder.gates)


@settings(max_examples=20, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta_left=ANGLE, theta_right=ANGLE, n=WIDTH)
def test_the_mark_changes_only_the_ladders_steps(p_left, theta_left, theta_right, n):
    circ = qpe_circuit(p_left, theta_left, theta_right, n)
    ladder = _inverse_qft(n)
    assert circ.runs[-1] == (ladder, 1) and circ.runs[-1][0] is ladder
    # The same runs with the ladder as a plain tuple: it plans as any run.
    unmarked = Circuit(circ.num_qubits, runs=circ.runs[:-1] + ((tuple(ladder), 1),))
    assert_same_steps(unmarked.steps, [*circ.steps[:-1], *run_steps(ladder, 1)])
    assert circ.steps[-1] == _Fourier(2, n)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_a_ladder_built_afresh_runs_gate_by_gate(n):
    """A flat list of its gates runs gate by gate; a run of them is no FFT
    step, but one power step on at most three qubits."""
    afresh = tuple(inverse_qft_gates(eval_qubits(n)))
    assert afresh == _inverse_qft(n)  # equal gates, other objects
    flat, declared = Circuit(n + 2, afresh), Circuit(n + 2, runs=((afresh, 1),))
    assert flat.steps is flat.gates
    assert_same_steps(declared.steps, run_steps(afresh, 1))
    assert (declared.steps is declared.gates) == (n > 3)
    for circ in (flat, declared):
        assert np.array_equal(circ.final_state.amps, gate_by_gate(circ))


def test_part_of_a_marked_ladder_runs_gate_by_gate():
    ladder = _inverse_qft(4)
    for gates in (ladder[:-1], ladder[:1] + ladder[2:], (ladder[0],) * 4 + ladder[1:3]):
        circ = Circuit(6, runs=((gates, 1),))
        assert_same_steps(circ.steps, run_steps(gates, 1))
        assert np.array_equal(circ.final_state.amps, gate_by_gate(circ))


def test_a_ladder_twice_is_two_steps():
    ladder, a, b = _inverse_qft(3), h(0), x(1, controls=[0])
    for runs in (((ladder, 1), (ladder, 1)), ((ladder, 2),)):
        circ = Circuit(5, runs=runs)
        assert circ.steps == (_Fourier(2, 3), _Fourier(2, 3))
        assert np.abs(circ.final_state.amps - gate_by_gate(circ)).max() < 1e-15
    circ = Circuit(5, runs=(((a, b), 1), (ladder, 1)) * 3)
    assert_same_steps(circ.steps, [power_step((a, b), 1), _Fourier(2, 3)] * 3)
    assert np.abs(circ.final_state.amps - gate_by_gate(circ)).max() < 1e-15


def test_other_circuits_have_no_fft_step():
    params = BanditParams(0.4, 0.4)  # the right arm repeats (X, cRY)
    prep = build_state_prep(PolicySpec(0.3), params)
    for circ in (
        build_arm_circuit(Arm.LEFT, params),
        build_arm_circuit(Arm.RIGHT, params),
        prep,
        build_grover_operator(prep).circuit(),
        Circuit(6, _inverse_qft(4)),  # a flat copy of a marked ladder
    ):
        assert circ.steps is circ.gates
    # A one-qubit register's ladder is one H, its own step after two power steps.
    circ = qpe_circuit(0.3, 1.1, 2.2, 1)
    assert_same_steps(circ.steps, [step for segment, copies in circ.runs for step in run_steps(segment, copies)])
    assert [type(step) for step in circ.steps] == [_Step, _Step, type(circ.gates[-1])]


def test_a_one_qubit_register_gets_no_fft_step():
    ladder = _InverseQft(inverse_qft_gates((2,)), (2,))
    assert ladder.fourier is None and ladder == (h(2),)
    circ = Circuit(3, runs=((ladder, 1),))
    assert circ.steps is circ.gates


def test_a_ladder_on_qubits_out_of_order_is_refused():
    with pytest.raises(SimulationError, match=r"consecutive increasing qubits, got \(3, 2\)"):
        _InverseQft(inverse_qft_gates((3, 2)), (3, 2))
    with pytest.raises(SimulationError, match=r"got \(0, 2\)"):
        _InverseQft(inverse_qft_gates((0, 2)), (0, 2))
