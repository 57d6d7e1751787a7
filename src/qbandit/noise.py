"""Trajectory-based gate and readout noise for the state-vector simulator.

After every gate, each touched qubit independently suffers a uniformly
random Pauli error (X, Y, or Z) with probability ``p1`` for one-qubit
gates or ``p2`` for wider ones; measured bits then flip independently
with probability ``readout_flip``.  Averaged over trajectories this
realizes a depolarizing channel — note the convention: error
probability p applies ONE Pauli, so p = 3/4 is maximal mixing.

Every shot has its own Philox stream.  A shot first draws all of its
randomness from that stream, in the order a gate-by-gate loop would:
per gate one uniform per touched qubit and one ``integers(3)`` per
uniform below the rate, then one uniform for the measurement and one
per measured bit for the readout flips.  The shots then go through the
circuit together, one state per column, in chunks of at most
``_CHUNK_AMPS`` amplitudes: each gate is one update of the whole chunk
and each error one update of its shot's column.  So the counts a seed
gives are those of running the shots one at a time.

Default rates are invented (no hardware calibration behind them),
chosen so that deeper circuits visibly degrade more.
"""

from __future__ import annotations

import numbers
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

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

# A chunk of shots holds at most this many amplitudes (16 MB of
# complex128), so memory does not grow with shots or register width.
_CHUNK_AMPS = 2**20

# A shot draws its error uniforms in windows of at most this many
# slots, so its draws stay linear in the gate count whatever the rates.
_WINDOW = 256


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


@dataclass(frozen=True)
class _Slots:
    """One slot per (gate, touched qubit), in the order a shot draws its
    error uniforms: the gate's error rate, the gate's index, the qubit,
    ``end`` (one past the last slot of the slot's gate) and ``stop`` (one
    past the last slot of a window that starts at this slot).

    A window reaches about one expected error ahead, at most ``_WINDOW``
    slots, rounded up to a whole gate.
    """

    rate: np.ndarray
    gate: list[int]
    qubit: list[int]
    end: list[int]
    stop: list[int]

    @classmethod
    def of(cls, circ: Circuit, config: NoiseConfig) -> _Slots:
        widths = [len(gate.qubits) for gate in circ.gates]
        gate = np.repeat(np.arange(len(widths)), widths)
        rate = np.repeat(np.array([config.p1 if k == 1 else config.p2 for k in widths]), widths)
        end = np.cumsum(widths, dtype=np.intp)[gate]
        hazard = np.concatenate(([0.0], np.cumsum(rate)))
        reach = np.searchsorted(hazard, hazard[:-1] + 1.0)
        reach = np.minimum(reach, np.minimum(np.arange(rate.size) + _WINDOW, rate.size))
        qubits = [q for g in circ.gates for q in g.qubits]
        return cls(rate, gate.tolist(), qubits, end.tolist(), end[reach - 1].tolist())


def _draw_errors(rng: np.random.Generator, slots: _Slots) -> list[tuple[int, int, int]]:
    """One shot's Pauli errors as (gate, qubit, Pauli index).

    Uniforms are drawn a window at a time.  When one falls below its rate
    in a gate before the window's last, the stream is rewound and re-drawn
    to the end of that gate.  The gate's ``integers(3)`` draws follow, so
    the stream is consumed word for word as a gate-by-gate loop would.
    """
    errors = []
    pos = 0
    while pos < len(slots.stop):
        stop = slots.stop[pos]
        # A window of one gate is never rewound, so it needs no snapshot.
        saved = rng.bit_generator.state if stop > slots.end[pos] else None
        hits = pos + np.flatnonzero(rng.random(stop - pos) < slots.rate[pos:stop])
        if hits.size:
            end = slots.end[hits[0]]
            if end < stop:
                rng.bit_generator.state = saved
                rng.random(end - pos)
                hits = hits[hits < end]
            stop = end
        for s in hits:
            errors.append((slots.gate[s], slots.qubit[s], int(rng.integers(3))))
        pos = stop
    return errors


def _trajectories(
    circ: Circuit,
    config: NoiseConfig,
    keys: Iterable[int],
    qubits: tuple[int, ...] | None,
) -> Iterator[str]:
    """The measured bitstring of each shot, one shot per Philox key, in
    key order.  This is the only trajectory path."""
    n = circ.num_qubits
    ground = new_state(n).amps
    slots = _Slots.of(circ, config)
    qubits = None if qubits is None else tuple(qubits)
    # Checks the subset before any work, and counts the measured bits.
    num_bits = _marginal(ground, n, qubits).size.bit_length() - 1
    keys = iter(keys)
    while chunk := list(islice(keys, max(1, _CHUNK_AMPS >> n))):
        errors = defaultdict(list)  # gate -> [(column, qubit, Pauli index)]
        readout = []  # per column: measurement uniform, then flip uniforms
        for col, key in enumerate(chunk):
            rng = np.random.Generator(np.random.Philox(key=key))
            for g, qubit, pauli in _draw_errors(rng, slots):
                errors[g].append((col, qubit, pauli))
            readout.append(rng.random(1 + num_bits))
        amps = np.repeat(ground[:, None], len(chunk), axis=1)
        for g, gate in enumerate(circ.gates):
            _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls)
            for col, qubit, pauli in errors.get(g, ()):
                _apply_matrix(amps[:, col], n, _PAULIS[pauli], (qubit,), ())
        for col, u in enumerate(readout):
            marg = _marginal(amps[:, col], n, qubits)
            m = int(_draw(marg, u[:1])[0])
            for j, flip in enumerate(u[1:] < config.readout_flip):
                if flip:
                    m ^= 1 << j
            yield _bitstring(m, marg)


def run_trajectory(
    circ: Circuit,
    config: NoiseConfig,
    seed: int,
    qubits: tuple[int, ...] | None = None,
) -> str:
    """Execute one noisy shot from the Philox stream keyed by ``seed``;
    returns the measured bitstring.

    Pauli errors are unitary insertions, so the trajectory state stays
    normalized.  Only the listed qubits are measured (default: all);
    readout flips apply to those bits.
    """
    check_number("seed", seed)
    return next(_trajectories(circ, config, (seed,), qubits))


def noisy_counts(
    circ: Circuit,
    shots: int,
    config: NoiseConfig,
    seed: int,
    qubits: tuple[int, ...] | None = None,
) -> MeasurementCounts:
    """Aggregate independent trajectories; trajectory i is keyed by
    (config.seed, seed, i), so runs are reproducible shot by shot."""
    check_number("shots", shots)
    check_number("seed", seed)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    keys = (derive_seed(config.seed, seed, i) for i in range(shots))
    counts: dict[str, int] = {}
    for bits in _trajectories(circ, config, keys, qubits):
        counts[bits] = counts.get(bits, 0) + 1
    return MeasurementCounts(counts, shots)
