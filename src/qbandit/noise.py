"""Trajectory-based gate and readout noise for the state-vector simulator.

After every gate, each touched qubit independently suffers a uniformly
random Pauli error (X, Y, or Z) with probability ``p1`` for one-qubit
gates or ``p2`` for wider ones; measured bits then flip independently
with probability ``readout_flip``.  Averaged over trajectories this
realizes a depolarizing channel — note the convention: error
probability p applies ONE Pauli, so p = 3/4 is maximal mixing.

Every shot has its own Philox stream, and the counts a seed gives are
those of a gate-by-gate loop that draws from
``np.random.Generator(np.random.Philox(key))``: per gate one ``random``
uniform per touched qubit and one ``integers(3)`` Pauli index per
uniform below the rate, then one uniform for the measurement and one
per measured bit for the readout flips.  Philox is counter-based
(Salmon et al., SC'11), so a shot decodes those draws itself from the
stream's raw 64-bit words (``random_raw`` of the re-keyed stream that
``statevector._PHILOX`` keeps per thread, read in refills of at most
``_WINDOW`` words), by numpy's rules:

* a uniform is one word w: ``(w >> 11) * 2**-53``;
* a Pauli index is Lemire's multiply-shift (ACM TOMACS 2019) on a 32-bit
  half x: ``(x * 3) >> 32``.  A draw takes the low half of a fresh word
  and leaves the high half for the shot's next Pauli draw, in whatever
  gate that comes; uniforms never use a left half.  The draw is redone
  on the next half when ``(x * 3) & 0xFFFFFFFF == 0``, that is x = 0.

``tests/helpers.reference_trajectory`` is the gate-by-gate loop, drawing
from numpy's ``Generator``, and the tests hold the two to the same
counts; ``tests/test_noise_decode.py`` also feeds both hand-built words.

The shots then go through the circuit together, one state per column,
in chunks of at most ``_CHUNK_AMPS`` amplitudes.  Each gate is one
``_apply_matrix`` on the whole chunk.  A gate's Pauli errors are one
update of the columns they hit: a Pauli string only permutes amplitudes
and multiplies them by ±1 or ±i, so this is exact.  The readout is one
marginal, one draw and one XOR of the flipped bits for the whole chunk.

Default rates are invented (no hardware calibration behind them),
chosen so that deeper circuits visibly degrade more.
"""

from __future__ import annotations

import numbers
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .statevector import (
    _PHILOX,
    Circuit,
    MeasurementCounts,
    _apply_matrix,
    _bitstring,
    _derive_seed,
    _draw,
    _marginal,
    _subset,
    check_number,
    check_seed,
    new_state,
)

# The Pauli error with index i: X, Y, Z, as the gate-by-gate reference
# in the tests applies them.
_PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
_PAULIS.setflags(write=False)

# The same Paulis as signed permutations of a qubit's basis states,
# (flip, negate, factor): P|b> = factor * (-1)**(negate * b) |b ^ flip>.
# The batched update applies them in this form.
_SIGNED_PERMUTATIONS = ((1, 0, 1), (1, 1, 1j), (0, 1, 1))
_SIGNS = np.array([1, -1])  # (-1)**parity

# A chunk of shots holds at most this many amplitudes (16 MB of
# complex128), so memory does not grow with shots or register width.
_CHUNK_AMPS = 2**20

# A shot reads its raw words at most this many at a time.
_WINDOW = 1024


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
        check_seed("seed", self.seed)


@dataclass(frozen=True)
class _Slots:
    """One slot per (gate, touched qubit), in the order a shot draws its
    error uniforms: the gate's error rate, the gate's index, the qubit
    and ``end``, one past the last slot of the slot's gate."""

    rate: np.ndarray
    gate: list[int]
    qubit: list[int]
    end: list[int]

    @classmethod
    def of(cls, circ: Circuit, config: NoiseConfig) -> _Slots:
        rate, gate, qubit, end = [], [], [], []
        for g, op in enumerate(circ.gates):
            touched = op.qubits
            rate += [config.p1 if len(touched) == 1 else config.p2] * len(touched)
            gate += [g] * len(touched)
            qubit += touched
            end += [len(qubit)] * len(touched)
        return cls(np.array(rate), gate, qubit, end)


class _Stream:
    """One shot's Philox words, decoded as numpy's ``Generator`` would
    draw from them (see the module docstring)."""

    def __init__(self, raw: Callable[[int], np.ndarray], window: int):
        self._raw = raw  # the next k raw words of the stream
        self._window = window  # words per read
        self._words = np.empty(0, dtype=np.uint64)  # read from the stream
        self._uniforms = np.empty(0)  # the same words as uniforms
        self._next = 0  # the first word not yet used
        self._half = None  # the high half a Pauli draw left over

    def _refill(self) -> None:
        self._words = np.concatenate((self._words[self._next :], self._raw(self._window)))
        self._uniforms = (self._words >> 11) * 2.0**-53
        self._next = 0

    def ahead(self) -> np.ndarray:
        """The words read but not yet used, at least one, as uniforms."""
        if self._next == len(self._words):
            self._refill()
        return self._uniforms[self._next :]

    def uniforms(self, k: int) -> np.ndarray:
        """Use the next ``k`` words as uniforms."""
        while len(self._words) - self._next < k:
            self._refill()
        self._next += k
        return self._uniforms[self._next - k : self._next]

    def pauli(self) -> int:
        """A Pauli index: one ``integers(3)`` draw."""
        while True:
            if self._half is None:
                if self._next == len(self._words):
                    self._refill()
                word = int(self._words[self._next])
                self._next += 1
                x, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                x, self._half = self._half, None
            if (x * 3) & 0xFFFFFFFF:
                return (x * 3) >> 32


def _errors(stream: _Stream, slots: _Slots) -> list[tuple[int, int]]:
    """One shot's Pauli errors as (slot, Pauli index), in stream order.

    The words already read are scanned as uniforms up to the first one
    below its rate.  That slot's gate is then used up to its end, and
    its Pauli draws follow, so later uniforms start after them.
    """
    errors = []
    pos = 0
    while pos < len(slots.rate):
        ahead = stream.ahead()[: len(slots.rate) - pos]
        below = ahead < slots.rate[pos : pos + len(ahead)]
        first = pos + int(below.argmax())
        if not below[first - pos]:
            stream.uniforms(len(ahead))
            pos += len(ahead)
            continue
        end = slots.end[first]
        drawn = stream.uniforms(end - pos)
        for s in range(first, end):
            if drawn[s - pos] < slots.rate[s]:
                errors.append((s, stream.pauli()))
        pos = end
    return errors


def _apply_paulis(amps: np.ndarray, hits: dict[int, list]) -> None:
    """One gate's Pauli errors on a batch of states, in place.  ``hits``
    maps a column to its Pauli string as [flipped bits, negated bits,
    factor]: amplitude k of the column becomes factor * (-1)**parity(src
    & negated) * amplitude src, where src = k ^ flipped."""
    flip, negate, factor = zip(*hits.values())
    src = np.arange(len(amps))[:, None] ^ np.array(flip)
    sign = _SIGNS[np.bitwise_count(src & np.array(negate)) & 1]
    cols = list(hits)
    amps[:, cols] = amps[src, cols] * (sign * np.array(factor))


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
    qubits = _subset(n, qubits)  # checked before any work
    # A shot without errors uses one word per slot and 1 + len(qubits) for
    # its readout; eight more cover a few Pauli draws.
    window = min(_WINDOW, len(slots.rate) + len(qubits) + 9)
    keys = iter(keys)
    while chunk := list(islice(keys, max(1, _CHUNK_AMPS >> n))):
        errors = defaultdict(dict)  # gate -> {column: Pauli string}
        readout = np.empty((len(chunk), 1 + len(qubits)))  # measurement, then flips
        for col, key in enumerate(chunk):
            stream = _Stream(_PHILOX.raw(key), window)
            for s, pauli in _errors(stream, slots):
                flip, negate, factor = _SIGNED_PERMUTATIONS[pauli]
                string = errors[slots.gate[s]].setdefault(col, [0, 0, 1])
                string[0] |= flip << slots.qubit[s]
                string[1] |= negate << slots.qubit[s]
                string[2] *= factor
            readout[col] = stream.uniforms(1 + len(qubits))
        amps = np.repeat(ground[:, None], len(chunk), axis=1)
        for g, gate in enumerate(circ.gates):
            _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls)
            if g in errors:
                _apply_paulis(amps, errors[g])
        marg = _marginal(amps, n, qubits)
        flips = (readout[:, 1:] < config.readout_flip) @ (1 << np.arange(len(qubits)))
        for m in _draw(marg, readout[:, 0]) ^ flips:
            yield _bitstring(m, marg[:, 0])


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
    check_seed("seed", seed, key=True)
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
    check_seed("config.seed", config.seed)
    check_seed("seed", seed)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    # derive_seed(config.seed, seed, i), with the parts checked once.
    keys = (_derive_seed(config.seed, seed, i) for i in range(shots))
    counts: dict[str, int] = {}
    for bits in _trajectories(circ, config, keys, qubits):
        counts[bits] = counts.get(bits, 0) + 1
    return MeasurementCounts(counts, shots)
