"""The gate model: each gate resolves a read-only matrix once, at construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit.statevector import Circuit, Gate, SimulationError, circuit_unitary, unitary

TARGETS = {"X": 1, "RY": 1, "H": 1, "PHASE": 1, "Z": 1, "SWAP": 2}


@st.composite
def gates(draw):
    """Any gate kind with 0-2 controls, on a register with 0-2 spare qubits."""
    kind = draw(st.sampled_from(sorted(TARGETS) + ["UNITARY"]))
    k = TARGETS.get(kind) or draw(st.integers(1, 3))
    num_controls = draw(st.integers(0, 2))
    width = k + num_controls + draw(st.integers(0, 2))
    qubits = draw(st.permutations(range(width)))
    targets, controls = tuple(qubits[:k]), tuple(qubits[k : k + num_controls])
    params, payload = (), None
    if kind in ("RY", "PHASE"):
        params = (draw(st.floats(-2 * np.pi, 2 * np.pi)),)
    if kind == "UNITARY":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        payload = np.linalg.qr(m)[0]
    return width, Gate(kind, targets, controls, params, payload)


@settings(max_examples=150, deadline=None)
@given(gates())
def test_gate_then_adjoint_is_identity(drawn):
    width, gate = drawn
    mat = circuit_unitary(Circuit(width, (gate, gate.adjoint())))
    assert np.abs(mat - np.eye(2**width)).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(gates())
def test_matrix_is_read_only(drawn):
    _, gate = drawn
    for matrix in (gate.matrix, gate.adjoint().matrix):
        with pytest.raises(ValueError):
            matrix[0, 0] = 2.0


def test_caller_writes_do_not_reach_unitary_gate():
    source = np.eye(2, dtype=complex)
    gate = unitary(source, [0])
    source[1, 1] = 2.0
    np.testing.assert_array_equal(gate.matrix, np.eye(2))
    np.testing.assert_array_equal(gate.controlled(1).matrix, np.eye(2))


def test_unknown_kind_fails_at_construction():
    with pytest.raises(SimulationError, match="FOO"):
        Gate("FOO", (0,))


def test_missing_angle_fails_at_construction():
    with pytest.raises(SimulationError, match="RY"):
        Gate("RY", (0,))
