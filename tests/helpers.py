"""Shared test utilities."""

import numpy as np

from qbandit.noise import _PAULIS
from qbandit.statevector import (
    Circuit,
    _apply_matrix,
    _bitstring,
    _draw,
    _marginal,
    h,
    new_state,
    phase,
    ry,
    swap,
    unitary,
    x,
    z,
)


def random_circuit(num_qubits: int, num_gates: int, rng: np.random.Generator) -> Circuit:
    """Mixed-gate random circuit touching every gate kind, controls included."""
    gates = []
    for _ in range(num_gates):
        kind = rng.integers(7)
        qubits = rng.permutation(num_qubits)
        target, other = int(qubits[0]), int(qubits[1])
        if kind == 0:
            gates.append(x(target))
        elif kind == 1:
            gates.append(ry(float(rng.uniform(-np.pi, np.pi)), target))
        elif kind == 2:
            gates.append(h(target))
        elif kind == 3:
            gates.append(phase(float(rng.uniform(-np.pi, np.pi)), target))
        elif kind == 4:
            gates.append(z(target, controls=[other]))
        elif kind == 5:
            gates.append(swap(target, other))
        else:
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            gates.append(unitary(q, [target], controls=[other]))
    return Circuit(num_qubits, tuple(gates))


def reference_trajectory(circ: Circuit, config, seed: int, qubits=None) -> str:
    """One noisy shot, gate by gate: the independent oracle for the
    batched trajectories in ``qbandit.noise``.  Per gate it applies the
    gate, draws one uniform per touched qubit and, for each one below the
    rate, one Pauli index; then it measures and flips readout bits."""
    n = circ.num_qubits
    rng = np.random.Generator(np.random.Philox(key=seed))
    amps = new_state(n).amps
    for gate in circ.gates:
        _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls)
        touched = gate.qubits
        rate = config.p1 if len(touched) == 1 else config.p2
        draws = rng.random(len(touched))
        for qubit, u in zip(touched, draws):
            if u < rate:
                _apply_matrix(amps, n, _PAULIS[rng.integers(3)], (qubit,), ())
    marg = _marginal(amps, n, qubits)
    m = int(_draw(marg, rng.random(1))[0])
    flips = rng.random(marg.size.bit_length() - 1) < config.readout_flip
    for j, flip in enumerate(flips):
        if flip:
            m ^= 1 << j
    return _bitstring(m, marg)
