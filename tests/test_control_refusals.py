"""A gate refuses a control given twice when it is built, whether from
scratch or by ``Gate.controlled``, and ``controlled`` refuses bad new
controls with the message a gate built from scratch gives."""

import re

import numpy as np
import pytest

from qbandit.statevector import Circuit, Gate, SimulationError, unitary, x


@pytest.mark.parametrize(
    "make, controls",
    [
        (lambda: Gate("X", (0,), (1, 1)), "(1, 1)"),
        (lambda: x(0, controls=[2, 1, 2]), "(2, 1, 2)"),
        (lambda: x(0).controlled(1, 1), "(1, 1)"),
        (lambda: x(0, controls=[3]).controlled(2, 3), "(3, 2, 3)"),
        (lambda: unitary(np.eye(2), [0], controls=[1, 1]), "(1, 1)"),
    ],
)
def test_a_control_given_twice_is_refused_by_name(make, controls):
    with pytest.raises(SimulationError, match=re.escape(f"duplicate control qubits: {controls}")):
        make()


def test_distinct_controls_still_simulate():
    gate = x(0).controlled(1, 2)
    assert gate.controls == (1, 2)
    amps = Circuit(3, (x(1), x(2), gate)).final_state.amps
    assert amps[0b111] == 1


@pytest.mark.parametrize(
    "base, extra",
    [
        (x(0), (0,)),  # overlaps the target
        (x(0, controls=[1]), (2, 0)),
        (x(0), (-1,)),
        (x(0), (True,)),
        (x(0), (1.0,)),
        (x(0), ("1",)),
        (x(0), (1, 1)),
        (x(0, controls=[1]), (1,)),
    ],
)
def test_controlled_refuses_as_a_gate_built_from_scratch(base, extra):
    with pytest.raises(SimulationError) as scratch:
        Gate(base.kind, base.targets, base.controls + extra, base.params, base.payload)
    with pytest.raises(SimulationError, match=re.escape(str(scratch.value))):
        base.controlled(*extra)
