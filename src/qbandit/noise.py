"""Trajectory-based gate and readout noise for the state-vector simulator.

After every gate, each touched qubit independently suffers a uniformly
random Pauli error (X, Y, or Z) with probability ``p1`` for one-qubit
gates or ``p2`` for wider ones; measured bits then flip independently
with probability ``readout_flip``.  Averaged over trajectories this
realizes a depolarizing channel — note the convention: error
probability p applies ONE Pauli, so p = 3/4 is maximal mixing.

Default rates are invented (no hardware calibration behind them),
chosen so that deeper circuits visibly degrade more.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .statevector import (
    Circuit,
    MeasurementCounts,
    _apply_matrix,
    _bitstring,
    _draw,
    _marginal,
    check_number,
    derive_seed,
    new_state,
)

# The Pauli error with index i: X, Y, Z.
_PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
_PAULIS.setflags(write=False)


@dataclass(frozen=True)
class NoiseConfig:
    """Depolarizing and readout error rates, all probabilities in [0, 1]."""

    p1: float = 5e-4
    p2: float = 5e-3
    readout_flip: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("p1", "p2", "readout_flip"):
            value = getattr(self, name)
            check_number(name, value, numbers.Real)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        check_number("seed", self.seed)


def run_trajectory(
    circ: Circuit,
    config: NoiseConfig,
    seed: int,
    qubits: tuple[int, ...] | None = None,
) -> str:
    """Execute one noisy shot; returns the measured bitstring.

    Pauli errors are unitary insertions, so the trajectory state stays
    normalized.  Only the listed qubits are measured (default: all);
    readout flips apply to those bits.
    """
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


def noisy_counts(
    circ: Circuit,
    shots: int,
    config: NoiseConfig,
    seed: int,
    qubits: tuple[int, ...] | None = None,
) -> MeasurementCounts:
    """Aggregate independent trajectories; trajectory i is keyed by
    (config.seed, seed, i), so runs are reproducible shot by shot."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts: dict[str, int] = {}
    for i in range(shots):
        bits = run_trajectory(circ, config, derive_seed(config.seed, seed, i), qubits)
        counts[bits] = counts.get(bits, 0) + 1
    return MeasurementCounts(counts, shots)
