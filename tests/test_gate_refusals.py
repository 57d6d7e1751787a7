"""Gates and circuits refuse bad qubits and matrices at construction,
with a ``SimulationError`` that names what is wrong."""

import numpy as np
import pytest

from qbandit.statevector import Circuit, Gate, SimulationError, h, swap, unitary, x


@pytest.mark.parametrize("qubit", [1.5, 1.0, True, False, -1, "1", None])
def test_qubit_that_is_not_a_non_negative_integer(qubit):
    with pytest.raises(SimulationError, match=f"qubit must be a non-negative integer, got {qubit!r}"):
        x(qubit)


@pytest.mark.parametrize("make", [lambda q: h(0, controls=(q,)), lambda q: swap(0, q)])
def test_bad_qubit_among_controls_and_second_targets(make):
    with pytest.raises(SimulationError, match="got -2"):
        make(-2)


def test_fractional_qubit_is_refused_before_the_circuit_runs():
    with pytest.raises(SimulationError, match="got 1.5"):
        Circuit(2, (x(1.5),))


def test_numpy_integer_qubits_are_accepted():
    gate = x(np.int64(1), controls=(np.uint8(0),))
    assert gate.qubits == (1, 0)
    assert Circuit(2, (gate,)).gates == (gate,)


def test_unitary_payload_holding_nan():
    with pytest.raises(SimulationError, match="not unitary"):
        unitary(np.array([[np.nan, 0], [0, 1]]), [0])


def test_duplicate_targets():
    with pytest.raises(SimulationError, match=r"duplicate target qubits: \(1, 1\)"):
        swap(1, 1)


def test_unitary_without_payload():
    with pytest.raises(SimulationError, match="needs a matrix payload"):
        Gate("UNITARY", (0,))


def test_unitary_on_more_than_three_targets():
    with pytest.raises(SimulationError, match="at most 3 target qubits"):
        unitary(np.eye(16), [0, 1, 2, 3])


def test_circuit_refuses_a_qubit_past_its_width():
    gates = (h(0), x(1), x(3, controls=(0,)), x(1))
    with pytest.raises(SimulationError, match=r"gate X on qubits \(3, 0\) exceeds register width 3"):
        Circuit(3, gates)
    assert Circuit(4, gates).gates == gates


def test_repeated_gate_objects_are_all_kept():
    gate = h(1)
    assert Circuit(2, (gate, x(0), gate)).gates == (gate, x(0), gate)
    with pytest.raises(SimulationError, match="register width 1"):
        Circuit(1, (x(0), gate, gate))


def test_then_refuses_circuits_of_other_widths():
    with pytest.raises(SimulationError, match="cannot join circuits on 2 and 3 qubits"):
        Circuit(2, (h(0),)).then(Circuit(3, (h(2),)))
