"""A circuit holds its gates and each run's segment as tuples of its own:
a list given for them is copied, so the circuit equals and hashes as one
given a tuple, and a later change to the caller's list cannot reach it.
An entry that is not a ``Gate`` is refused, named, when the circuit is
made."""

import pytest

from qbandit.statevector import Circuit, SimulationError, h, x


def test_a_gate_list_is_held_as_a_tuple():
    gates = [x(0)]
    circ = Circuit(2, gates)
    assert type(circ.gates) is tuple
    assert circ == Circuit(2, (x(0),)) and hash(circ) == hash(Circuit(2, (x(0),)))
    gates.append(x(5))  # past the register's width
    assert circ.gates == (x(0),) and len(circ) == 1
    assert abs(circ.final_state.amps[1]) == 1.0


def test_a_run_segment_list_is_held_as_a_tuple():
    segment = [h(0), x(1)]
    circ = Circuit(2, runs=[(segment, 2)])
    assert circ.runs == (((h(0), x(1)), 2),) and type(circ.runs[0][0]) is tuple
    segment.append(x(5))
    assert len(circ) == 4 and circ.gates == (h(0), x(1)) * 2
    circ.final_state  # simulates the two copies it was given


@pytest.mark.parametrize(
    "make",
    [
        lambda: Circuit(2, [x(0), "h"]),
        lambda: Circuit(2, (x(0), None)),
        lambda: Circuit(2, runs=[([x(0), "h"], 1)]),
    ],
    ids=["list", "tuple", "run"],
)
def test_an_entry_that_is_not_a_gate_is_refused_by_name(make):
    with pytest.raises(SimulationError, match="must be Gate objects, got ('h'|None)"):
        make()
