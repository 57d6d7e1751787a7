"""Gate equality covers a UNITARY gate's matrix, and the hash agrees."""

import numpy as np

from qbandit.statevector import circuit, h, ry, unitary, x

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_unitary_gates_with_different_matrices_differ():
    assert unitary(X, [0]) != unitary(Z, [0])
    assert len({unitary(X, [0]), unitary(Z, [0])}) == 2


def test_unitary_gates_with_equal_matrices_are_equal():
    a, b = unitary(X, [0], controls=[1]), unitary(X.copy(), [0], controls=[1])
    assert a == b and hash(a) == hash(b)


def test_adjoint_of_adjoint_is_equal():
    gate = unitary(np.array([[0, 1j], [1j, 0]]), [1])
    twice = gate.adjoint().adjoint()
    assert twice == gate and hash(twice) == hash(gate)
    assert gate.adjoint() != gate


def test_named_gates_compare_as_before():
    assert x(0) == x(0) and hash(x(0)) == hash(x(0))
    assert x(0) != h(0)
    assert ry(0.5, 0) != ry(0.25, 0)
    assert x(0) != "X"


def test_circuits_differing_in_one_unitary_differ():
    a = circuit(2, [h(0), unitary(X, [1], controls=[0])])
    b = circuit(2, [h(0), unitary(Z, [1], controls=[0])])
    assert a != b
    assert a == circuit(2, [h(0), unitary(X, [1], controls=[0])])
