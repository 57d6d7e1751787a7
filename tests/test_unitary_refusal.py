"""``circuit_unitary`` refuses a register whose 4^n-entry matrix would
outgrow the largest state, 2^MAX_QUBITS amplitudes, before it allocates
anything; the message names ``num_qubits`` and the bytes it would take."""

import numpy as np
import pytest

from qbandit import statevector
from qbandit.statevector import MAX_QUBITS, Circuit, SimulationError, circuit_unitary, h


def forbid_allocation(monkeypatch):
    def eye(*args, **kwargs):
        raise AssertionError("circuit_unitary allocated its matrix")

    monkeypatch.setattr(statevector.np, "eye", eye)


@pytest.mark.parametrize("width", [MAX_QUBITS // 2 + 1, MAX_QUBITS])
def test_a_matrix_larger_than_the_largest_state_is_refused_unallocated(monkeypatch, width):
    circ = Circuit(width, (h(0),))
    forbid_allocation(monkeypatch)
    message = rf"num_qubits <= {MAX_QUBITS // 2}, got {width}: "
    message += rf"its matrix would take {16 * 4**width} bytes"
    with pytest.raises(SimulationError, match=message):
        circuit_unitary(circ)


def test_twelve_qubits_pass_the_check(monkeypatch):
    sizes, real_eye = [], np.eye

    def eye(size, dtype):
        sizes.append(size)
        return real_eye(1, dtype=dtype)

    monkeypatch.setattr(statevector.np, "eye", eye)
    monkeypatch.setattr(statevector, "_apply_gates", lambda matrix, circ: matrix)
    assert MAX_QUBITS // 2 == 12
    assert circuit_unitary(Circuit(12, (h(0),))).shape == (1, 1)
    assert sizes == [2**12]
