"""QPE circuits carry their repeats as runs, and their step plan is read
off the runs with no scan: the single-copy runs' gates as themselves,
each controlled Q^(2^k) with k >= 1 as one power step off one chain of
squarings of one local matrix, and the inverse QFT as one FFT step.
The build costs O(n) gates, not O(2^n)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_same_steps, gate_by_gate
from qbandit import statevector
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.qpe import build_grover_operator, build_qpe_circuit, build_state_prep
from qbandit.statevector import (
    Circuit,
    Gate,
    SimulationError,
    _apply_matrix,
    _Fourier,
    _Step,
    h,
    phase,
    ry,
    swap,
    unitary,
    x,
    z,
)

ANGLE = st.floats(0.0, np.pi)


def q_operator(p_left, theta_left, theta_right):
    return build_grover_operator(build_state_prep(PolicySpec(p_left), BanditParams(theta_left, theta_right)))


def power_reference(segment, m):
    """``segment`` repeated m times as one matrix on the qubits it
    touches, by ``np.linalg.matrix_power`` of its local matrix."""
    qubits = sorted({q for g in segment for q in g.qubits})
    local = {q: j for j, q in enumerate(qubits)}
    matrix = np.eye(2 ** len(qubits), dtype=complex)
    for g in segment:
        targets, controls = tuple(map(local.get, g.targets)), tuple(map(local.get, g.controls))
        _apply_matrix(matrix, len(qubits), g.matrix, targets, controls)
    return np.linalg.matrix_power(matrix, m), tuple(qubits)


def power_step(segment, m):
    matrix, qubits = power_reference(segment, m)
    return _Step(matrix, qubits, ())


@settings(max_examples=30, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta_left=ANGLE, theta_right=ANGLE, n=st.integers(1, 12))
@example(p_left=0.3, theta_left=1.1, theta_right=1.1, n=10)  # the preparation repeats (X, cRY) too
def test_carried_runs_plan_as_their_runs_say(p_left, theta_left, theta_right, n):
    """Each power step has matrix_power's bits, independently of the
    chain; the gates of the single-copy runs are their own steps, the
    preparation's too; and the same gates as a flat list run one by one
    to the same state within 1e-12."""
    circ = build_qpe_circuit(q_operator(p_left, theta_left, theta_right), n)
    flat = Circuit(circ.num_qubits, circ.gates)
    assert circ == flat and flat.runs is None and flat.steps is flat.gates
    (prep, _), (first, _), *powers, (ladder, _) = circ.runs
    want = [*prep, *first, *(power_step(segment, copies) for segment, copies in powers)]
    want += [_Fourier(2, n)] if n >= 2 else ladder
    assert_same_steps(circ.steps, want)
    assert [copies for _, copies in circ.runs] == [1] + [2**k for k in range(n)] + [1]
    assert np.abs(circ.final_state.amps - flat.final_state.amps).max() < 1e-12


def test_a_run_past_the_register_width_is_refused():
    with pytest.raises(SimulationError, match=r"gate X on qubits \(3,\) exceeds register width 3"):
        Circuit(3, runs=(((h(0),), 1), ((x(1), x(3)), 4)))
    q_op = q_operator(0.3, 1.1, 2.2)
    runs = build_qpe_circuit(q_op, 3).runs
    with pytest.raises(SimulationError, match="exceeds register width 4"):
        Circuit(4, runs=runs)


@pytest.mark.parametrize("runs", [(((x(0),), 0),), (((x(0),), 1.0),), (((x(0),), True),)])
def test_a_run_needs_a_positive_integer_of_copies(runs):
    with pytest.raises(ValueError, match="copies must be"):
        Circuit(1, runs=runs)


def test_gates_and_runs_together_are_refused():
    with pytest.raises(SimulationError, match="its gates or its runs, not both"):
        Circuit(1, (x(0),), runs=(((x(0),), 1),))


@pytest.mark.parametrize("copies", [2, 3, 5, 8, 12])
def test_any_number_of_copies_matches_the_flat_list(copies):
    """Powers of two come off the chain of squarings, others from
    matrix_power, each with matrix_power's bits; a segment on four qubits
    runs gate by gate."""
    segment = (h(0), ry(0.7, 1, controls=[0]), phase(0.3, 2), swap(0, 2))
    wide = (h(3), x(0, controls=[3]), z(1), x(2, controls=[1]))
    single = x(1)
    runs = ((segment, copies), ((single,), 1), (segment, 2), (wide, copies))
    circ = Circuit(4, runs=runs)
    flat = Circuit(4, circ.gates)
    assert len(circ) == 8 * copies + 9
    assert_same_steps(circ.steps, (power_step(segment, copies), single, power_step(segment, 2), *wide * copies))
    assert flat.steps is flat.gates
    assert np.abs(circ.final_state.amps - gate_by_gate(flat)).max() < 1e-12


def test_a_circuit_with_nothing_to_fold_plans_its_own_gates():
    circ = build_qpe_circuit(q_operator(0.3, 1.1, 2.2), 1)
    assert circ.steps is circ.gates


def counter(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_the_single_copy_runs_are_their_own_steps():
    q_op = q_operator(0.3, 1.1, 2.2)
    circ = build_qpe_circuit(q_op, 10)
    assert len(circ.steps) == 42
    singles = [g for segment, copies in circ.runs[:-1] if copies == 1 for g in segment]
    # Preparation and Hadamards, then the k = 0 copy of controlled Q.
    assert len(singles) == 5 + 10 + 17
    assert all(step is gate for step, gate in zip(circ.steps, singles))
    assert all(type(step) is _Step for step in circ.steps[len(singles) : -1])
    assert circ.steps[-1] == _Fourier(2, 10)


def test_planning_n10_builds_one_local_matrix(monkeypatch):
    circ = build_qpe_circuit(q_operator(0.3, 1.1, 2.2), 10)
    kernel = counter(monkeypatch, statevector, "_apply_matrix")
    squarings = counter(monkeypatch, statevector.np.linalg, "matrix_power")
    circ.steps
    # Controlled Q's 16 gates and the control's Phase(pi), once, on 3 qubits.
    assert len(kernel) == 17 and all(args[1] == 3 for args in kernel)
    assert squarings == []


def test_the_build_makes_o_n_gates(monkeypatch):
    q_op = q_operator(0.3, 1.1, 2.2)
    made = {}
    for n in (4, 10, 12):
        build_qpe_circuit(q_op, n)  # the inverse QFT is built once per register
        inits = counter(monkeypatch, Gate, "__post_init__")
        copies = counter(monkeypatch, Gate, "controlled")
        build_qpe_circuit(q_op, n)
        made[n] = len(inits) + len(copies)
        monkeypatch.undo()
    # Per evaluation qubit: its Hadamard, the Phase(pi) and Q's 16 gates under control.
    assert made == {n: 18 * n for n in made}


def every_kind():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return [
        x(0),
        ry(0.4, 0, controls=[1]),
        h(1),
        phase(-1.3, 0),
        z(2, controls=[0]),
        swap(0, 1),
        unitary(q, [1, 0]),
        unitary(np.array([[0, 1j], [1j, 0]]), [2], controls=[1]),
    ]


@pytest.mark.parametrize("base", every_kind(), ids=lambda g: g.kind)
def test_controlled_equals_a_gate_built_from_scratch(base):
    got = base.controlled(4, 3)
    want = Gate(base.kind, base.targets, base.controls + (4, 3), base.params, base.payload)
    assert type(got) is Gate and got == want and hash(got) == hash(want)
    assert got.controls == base.controls + (4, 3)
    assert got.matrix is base.matrix and np.array_equal(got.matrix, want.matrix)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert not got.matrix.flags.writeable and not want.matrix.flags.writeable
    assert repr(got) == repr(want)
