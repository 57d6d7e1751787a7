"""Trajectory-based gate and readout noise for the state-vector simulator.

After every gate, each touched qubit independently suffers a uniformly
random Pauli error (X, Y, or Z) with probability ``p1`` for one-qubit
gates or ``p2`` for wider ones; measured bits then flip independently
with probability ``readout_flip``.  Averaged over trajectories this
realizes a depolarizing channel — note the convention: error
probability p applies ONE Pauli, so p = 3/4 is maximal mixing.

Each call reads one Philox stream (Salmon et al., SC'11), keyed for
``noisy_counts`` by ``derive_seed(config.seed, seed)`` and for
``run_trajectory`` by its seed.  Shot i owns raw 64-bit words [i W, (i
+ 1) W) of that stream, W being one word per (gate, touched qubit) slot,
one for the measurement and one per measured qubit, in that order.
Philox is counter-based, so a shot's words are read by index, in blocks
of whole shots through ``statevector._PHILOX.raw``, at most
``_BLOCK_WORDS`` words (or one shot, if that is more), and a shot's
draws do not depend on its chunk or block.  A word w stands for u = w >>
11, a uniform integer below 2**53:

* slot word w errs when u < B, B = ceil(rate * 2**53), which is the
  uniform u * 2**-53 below the rate;
* an erring slot's Pauli is X, Y or Z by its index 3u // B.  Given an
  error, u is uniform on [0, B), so each Pauli comes up for floor(B/3)
  or ceil(B/3) of its values: its probability is within 1/B of 1/3, and
  its absolute probability within 2**-53 of rate / 3;
* the measurement and readout words are uniforms u * 2**-53; a measured
  bit flips when its word's uniform is below ``readout_flip``.

So a block's errors are one comparison and one ``nonzero``.
``tests/helpers.reference_trajectory`` reads the same words by index,
one gate at a time, and the tests hold the two to the same counts.

The shots then go through the circuit together, one state per column,
in chunks of at most ``_CHUNK_AMPS`` amplitudes.  The chunk's errors
are grouped by (gate, shot) into Pauli strings, sorted by gate, and a
gate's or a run's strings are a slice found by ``searchsorted``.  A circuit given by
runs (``Circuit.runs``) takes each run whose segment has two or more
gates on at most ``statevector._FOLD_QUBITS`` qubits as one
``_apply_matrix`` of U^m on the whole chunk, U being the segment's
matrix and m its copies, from the same local products and squarings as
the ideal step plan, so a shot with no error there gets the ideal
plan's matrix.  An erring shot first takes its run's errors, moved to
the run's start (``_apply_run_errors``): an error P after the gate that
completes V of the run becomes V^dagger P V before it, an identity, so
each trajectory stays exact.  Every other gate, and every gate of a
flat gate list, is one ``_apply_matrix`` on the whole chunk, and its
strings are one gather, multiply and scatter of the columns they hit: a
Pauli string only permutes amplitudes and multiplies them by ±1 or ±i,
so this is exact.  The readout is one marginal, draw, readout-flip XOR
and tally per chunk; a bitstring is rendered once per outcome, never
per shot.

Default rates are invented (no hardware calibration behind them),
chosen so that deeper circuits visibly degrade more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .statevector import (
    _BLOCK_WORDS,
    _PHILOX,
    Circuit,
    MeasurementCounts,
    _apply_matrix,
    _bitstring,
    _draw,
    _gate_rows,
    _Local,
    _local,
    _marginal,
    _outcomes,
    _subset,
    check_number,
    check_real,
    check_seed,
    derive_seed,
)

# The Pauli error with index i: X, Y, Z, as the gate-by-gate reference
# in the tests applies them.
_PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
_PAULIS.setflags(write=False)

# i**k for k = 0..3: a Pauli string multiplies each amplitude by one.
_I_POWERS = np.array([1, 1j, -1, -1j])

# A chunk of shots holds at most this many amplitudes (16 MB of
# complex128), so memory does not grow with shots or register width.
_CHUNK_AMPS = 2**20


@dataclass(frozen=True)
class NoiseConfig:
    """Depolarizing and readout error rates, all probabilities in [0, 1]."""

    p1: float = 5e-4
    p2: float = 5e-3
    readout_flip: float = 5e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("p1", "p2", "readout_flip"):
            check_real(name, getattr(self, name), 0, 1)
        check_seed("seed", self.seed)


class _Slots(NamedTuple):
    """One slot per (gate, touched qubit), in the order of a shot's slot
    words: the gate's index, the qubit, and ``below``, the gate's error
    rate on a word's top 53 bits, ceil(rate * 2**53)."""

    gate: np.ndarray
    qubit: np.ndarray
    below: np.ndarray

    @classmethod
    def of(cls, circ: Circuit, config: NoiseConfig) -> _Slots:
        """The slots of ``circ``, built run by run: a segment's widths and
        qubits once, repeated per copy."""
        widths, qubits = [], []
        for segment, copies in circ.runs or ((circ.gates, 1),):
            widths.append(np.tile(np.array([len(g.qubits) for g in segment], np.intp), copies))
            qubits.append(np.tile(np.array([q for g in segment for q in g.qubits], np.intp), copies))
        width = np.concatenate(widths)
        wide = np.repeat(width > 1, width).astype(np.intp)
        gate = np.repeat(np.arange(len(width)), width)
        bounds = np.array([math.ceil(config.p1 * 2**53), math.ceil(config.p2 * 2**53)], dtype=np.uint64)
        return cls(gate, np.concatenate(qubits), bounds[wide])


def _draws(key: int, first: int, shots: int, slots: _Slots, reads: int) -> tuple:
    """Shots ``first`` to ``first + shots - 1`` of ``key``'s stream: their
    Pauli errors, as ``(shot, slot, pauli)`` arrays with shots counted
    from ``first``, and their ``(shots, reads)`` readout uniforms.  The
    words are read in blocks of whole shots, each shifted to u = w >> 11
    in place."""
    size = len(slots.below)
    width = size + reads
    rows = max(1, _BLOCK_WORDS // width)
    found, readout = [], np.empty((shots, reads))
    for start in range(0, shots, rows):
        count = min(rows, shots - start)
        words = _PHILOX.raw(key, (first + start) * width)(count * width).reshape(count, width)
        words >>= 11
        row, slot = np.divmod(np.flatnonzero(words[:, :size] < slots.below), size)
        found.append((row + start, slot, 3 * words[row, slot] // slots.below[slot]))
        readout[start : start + count] = words[:, size:] * 2.0**-53
    shot, slot, pauli = (np.concatenate(v) for v in zip(*found))
    return shot, slot, pauli, readout


def _pauli_strings(n: int, slots: _Slots, shots: int, shot, slot, pauli) -> tuple:
    """The errors grouped by (gate, shot) into Pauli strings, as arrays
    sorted by gate, then shot: the gate, the shot's column, the flipped
    bits, the negated bits and the Y count.  X flips its qubit, Z negates
    it and Y = iXZ does both; the qubits of one gate are distinct, so a
    sum of bits is their OR, exact in any order."""
    key, string = np.unique(slots.gate[slot] * shots + shot, return_inverse=True)
    qubit = slots.qubit[slot]
    bits = (pauli < 2).astype(np.intp) << qubit | (pauli > 0).astype(np.intp) << (qubit + n)
    code = np.bincount(string, weights=bits).astype(np.intp)  # exact: 2n < 53 bits
    flip, negate = code & (2**n - 1), code >> n
    gate, col = np.divmod(key, shots)
    return gate, col, flip, negate, np.bitwise_count(flip & negate)


def _apply_paulis(amps: np.ndarray, cols, flip, negate, ys) -> None:
    """One gate's Pauli strings on a batch of states, in place: column
    cols[j]'s amplitude k becomes i**ys[j] * (-1)**parity(src &
    negate[j]) * amplitude src, where src = k ^ flip[j]."""
    src = np.arange(len(amps))[:, None] ^ flip
    power = (2 * np.bitwise_count(src & negate) + ys) & 3
    amps[:, cols] = amps[src, cols] * _I_POWERS[power]


def _apply_run_errors(amps: np.ndarray, n: int, local: _Local, length: int, time, cols, flip, negate, ys) -> None:
    """The Pauli strings of one run of ``local``'s segment (``length``
    gates a copy), moved to the run's start and applied in place there,
    so that the run's power step U^m then takes each column where the
    gate-by-gate loop would, up to rounding.

    Error e comes after gate j = time[e] % length of copy c = time[e] //
    length, with a string P as in ``_apply_paulis``.  The run has then
    applied V = A_j U^c, A_j being the segment's product through gate j
    (``local.prefix[j]``), and P V = V K for K = V^dagger P V: the error
    is K at the run's start.  A column's errors K_1, ..., K_e, in time
    order, become W = K_e ... K_1 on the run's qubits.

    The erring columns are taken in slices of whole columns with at most
    ``_BLOCK_WORDS // (8 d^2)`` errors in all, d = 2^len(qubits), or one
    column if it alone has more: the slice's stacks of one complex d x d
    matrix per error or per pair, at most four at once, then hold no more
    words than a block of raw words, beside its columns' amplitudes.  V
    is formed once per distinct (copy, gate) pair of a slice."""
    d = len(local.chain[0])
    # The strings on the run's qubits: bit b of a local index is qubits[b].
    lflip, lneg = (_outcomes(n, local.qubits)[mask] for mask in (flip, negate))
    # The columns with the most errors first, so that those still
    # multiplying in a round of a slice are a prefix; each column's
    # errors in time order, as given.
    order = np.lexsort((cols, -np.bincount(cols)[cols]))
    time, cols = time[order], cols[order]
    src = np.arange(d) ^ lflip[order, None]  # row k of P V is a phase times row src[k] of V
    phase = _I_POWERS[(2 * np.bitwise_count(src & lneg[order, None]) + ys[order, None]) & 3]
    bounds = np.flatnonzero(np.diff(cols, prepend=-1, append=-1))  # each column's first error, then the end
    top = int(time.max()) // length  # U^c for every copy c up to the last erring one
    powers = np.eye(d, dtype=complex)[None]
    for k in range(top.bit_length()):
        powers = np.concatenate((powers, powers[: top + 1 - len(powers)] @ local.power(1 << k)))
    limit = max(1, _BLOCK_WORDS // (8 * d * d))
    flat, rows = amps.reshape(-1), _gate_rows(n, local.qubits, ()) * amps.shape[1]
    a = 0
    while a < len(bounds) - 1:
        b = max(a + 1, int(np.searchsorted(bounds, bounds[a] + limit, "right")) - 1)
        lo, hi = bounds[a], bounds[b]
        pairs, pair = np.unique(time[lo:hi], return_inverse=True)
        copy, gate = np.divmod(pairs, length)
        v = np.take(local.prefix, gate, axis=0) @ np.take(powers, copy, axis=0)
        k = np.take(np.conjugate(v.swapaxes(1, 2), order="C"), pair, axis=0)
        k *= phase[lo:hi, None, :]  # V^dagger P
        k = k @ np.take(v.reshape(-1, d), pair[:, None] * d + src[lo:hi], axis=0)
        count, head = np.diff(bounds[a : b + 1]), bounds[a:b] - lo
        w = k[head]  # W = K_e ... K_1
        for r in range(1, count[0]):
            live = np.count_nonzero(count > r)
            w[:live] = k[head[:live] + r] @ w[:live]
        at = cols[bounds[a:b], None, None] + rows  # (column, local index, rest)
        flat[at] = w @ flat[at]
        a = b


def _trajectories(
    circ: Circuit,
    config: NoiseConfig,
    shots: int,
    key: int,
    qubits: Iterable[int] | None,
) -> dict[str, int]:
    """Each measured bitstring's shot count, in order of its first shot,
    for shots 0 to ``shots`` - 1 of ``key``'s stream.  This is the only
    trajectory path.  A chunk's outcomes are tallied in one pass; a
    bitstring is rendered once per outcome."""
    n = circ.num_qubits
    slots = _Slots.of(circ, config)
    qubits = _subset(n, qubits)  # checked before any work
    # (index of the run's first gate, segment, copies, local, step): a run
    # with a _Local is one power step; any other runs gate by gate, as
    # every gate of a flat gate list does.
    plan, cache, offset = [], {}, 0
    for segment, copies in circ.runs or ((circ.gates, 1),):
        local = _local(segment, cache) if circ.runs and len(segment) > 1 else None
        plan.append((offset, segment, copies, local, local.step(copies) if local else None))
        offset += len(segment) * copies
    size = max(1, _CHUNK_AMPS >> n)
    tally: dict[int, int] = {}
    for start in range(0, shots, size):
        cols = min(shots, start + size) - start
        *found, readout = _draws(key, start, cols, slots, 1 + len(qubits))
        gates, *strings = _pauli_strings(n, slots, cols, *found)
        amps = np.zeros((2**n, cols), dtype=complex)
        amps[0] = 1.0  # every column starts in |0...0>
        for offset, segment, copies, local, step in plan:
            stop = offset + len(segment) * copies
            if local is None:
                cuts = np.searchsorted(gates, np.arange(offset, stop + 1)).tolist()
                for gate, a, b in zip(segment * copies, cuts, cuts[1:]):
                    _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls)
                    if a < b:
                        _apply_paulis(amps, *(s[a:b] for s in strings))
                continue
            a, b = np.searchsorted(gates, (offset, stop))
            if a < b:  # some shot errs in the run
                _apply_run_errors(amps, n, local, len(segment), gates[a:b] - offset, *(s[a:b] for s in strings))
            _apply_matrix(amps, n, *step)
        marg = _marginal(amps, n, qubits)
        flips = (readout[:, 1:] < config.readout_flip).dot(1 << np.arange(len(qubits)))
        outcomes = _draw(marg, readout[:, 0]) ^ flips
        seen, first, reps = np.unique(outcomes, return_index=True, return_counts=True)
        order = np.argsort(first)  # first-seen order
        for m, c in zip(seen[order].tolist(), reps[order].tolist()):
            tally[m] = tally.get(m, 0) + c
    return {_bitstring(m, marg[:, 0]): c for m, c in tally.items()}


def run_trajectory(
    circ: Circuit,
    config: NoiseConfig,
    seed: int,
    qubits: Iterable[int] | None = None,
) -> str:
    """Execute one noisy shot, shot 0 of the Philox stream keyed by
    ``seed``; returns the measured bitstring.

    Pauli errors are unitary insertions, so the trajectory state stays
    normalized.  Only the listed qubits are measured (default: all);
    readout flips apply to those bits.
    """
    check_seed("seed", seed, key=True)
    (bits,) = _trajectories(circ, config, 1, seed, qubits)
    return bits


def noisy_counts(
    circ: Circuit,
    shots: int,
    config: NoiseConfig,
    seed: int,
    qubits: Iterable[int] | None = None,
) -> MeasurementCounts:
    """Aggregate independent trajectories: shots 0 to ``shots`` - 1 of the
    stream keyed by ``derive_seed(config.seed, seed)``, so runs are
    reproducible shot by shot."""
    check_number("shots", shots, low=1, high=2**32)
    check_seed("config.seed", config.seed)
    check_seed("seed", seed)
    key = derive_seed(config.seed, seed)
    return MeasurementCounts(_trajectories(circ, config, shots, key, qubits), shots)
