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
(Salmon et al., SC'11), so those draws are decoded from the stream's
raw 64-bit words (``random_raw`` of the re-keyed stream that
``statevector._PHILOX`` keeps per thread), by numpy's rules:

* a uniform is one word w: ``(w >> 11) * 2**-53``, below a rate r
  exactly when ``w >> 11 < ceil(r * 2**53)``;
* a Pauli index is Lemire's multiply-shift (ACM TOMACS 2019) on a 32-bit
  half x: ``(x * 3) >> 32``.  A draw takes the low half of a fresh word
  and leaves the high half for the shot's next Pauli draw, in whatever
  gate that comes; uniforms never use a left half.  The draw is redone
  on the next half when ``(x * 3) & 0xFFFFFFFF == 0``, that is x = 0.

The decode works on a chunk of shots at once.  The keys of
``noisy_counts`` (``derive_seed(config.seed, seed, i)``) come from one
array pass of ``SeedSequence``'s hash, ``statevector._derive_seeds``.
Each shot's first words fill one row of a block of at most
``_BLOCK_WORDS`` words: one per (gate, qubit) slot and per readout
draw, and ``_SPARE`` more for its Pauli draws, which come before the
readout words.  A shot with no word below its slot's rate needs no
more decoding: its readout words follow its slots'.  The
others are decoded in rounds (``_errors``): each round takes every such
shot to its next erring gate, found by ``searchsorted`` among the
block's hits, shifted by the words its Pauli draws have used, and makes
that gate's draws for all of them.  A block in which some shot's draws
outrun its spare words is read again whole, with wider rows.  The block
is freed before the gates run.

``tests/helpers.reference_trajectory`` is the gate-by-gate loop, drawing
from numpy's ``Generator``, and the tests hold the two to the same
counts; ``tests/test_noise_decode.py`` also feeds both hand-built words.

The shots then go through the circuit together, one state per column,
in chunks of at most ``_CHUNK_AMPS`` amplitudes.  The chunk's errors
are grouped by (gate, shot) into Pauli strings.  A circuit given by
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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .statevector import (
    _BLOCK_WORDS,
    _PHILOX,
    Circuit,
    MeasurementCounts,
    _apply_matrix,
    _bitstring,
    _derive_seeds,
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

# Each shot's row has this many words past its slots and readout for
# its Pauli draws; a block in which some shot's draws need more is read
# again whole, with this spare doubled.
_SPARE = 8


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
    """One slot per (gate, touched qubit), in the order a shot draws its
    error uniforms: the gate's error rate, the gate's index, the qubit
    and ``end``, one past the last slot of the slot's gate.  ``below``
    is the rate on a word's top 53 bits: the uniform (w >> 11) * 2**-53
    is below the rate exactly when w >> 11 < ceil(rate * 2**53)."""

    rate: np.ndarray
    gate: np.ndarray
    qubit: np.ndarray
    end: np.ndarray
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
        end = np.repeat(np.cumsum(width), width)
        rates = np.array([config.p1, config.p2])
        bounds = np.array([math.ceil(config.p1 * 2**53), math.ceil(config.p2 * 2**53)], dtype=np.uint64)
        return cls(rates[wide], gate, np.concatenate(qubits), end, bounds[wide])


def _errors(words: np.ndarray, slots: _Slots, spare: int, used: np.ndarray) -> tuple | None:
    """The Pauli errors of each row's shot, decoded from the row's raw
    words, as ``(row, slot, pauli)`` arrays.  ``used[r]`` becomes the
    number of words row r's Pauli draws used.  None as soon as a row
    needs more than ``spare``: the block must be read again wider.

    Each round takes every row still decoding to its next slot whose
    word is below the rate, past the words its Pauli draws have used
    (its shift).  The hits of every shift in use are kept in one sorted
    array of flat (shift, row, slot) indices, so a round is two
    ``searchsorted`` calls.  The rest of that slot's gate is used, then
    its Pauli draws are made, the j-th of every row at once."""
    rows, size = len(words), len(slots.rate)
    hits = (words[:, :size] >> 11 < slots.below).ravel().nonzero()[0]
    if not hits.size:  # no shot errs: nothing to decode
        return hits, hits, hits
    last = 2**62  # past every flat index
    hits, shifts = np.append(hits, last), 1
    half = np.zeros(rows, dtype=np.uint64)  # a high half left over, or 0
    pos = np.zeros(rows, dtype=np.intp)  # the row's next slot
    live = np.arange(rows)
    found = []
    while live.size:
        shift = used[live]
        if shifts <= (top := shift.max()):
            new = [
                (words[:, d : d + size] >> 11 < slots.below).ravel().nonzero()[0] + d * rows * size
                for d in range(shifts, top + 1)
            ]
            hits, shifts = np.concatenate([hits[:-1], *new, [last]]), top + 1
        base = (shift * rows + live) * size
        first = np.searchsorted(hits, base + pos[live])
        slot = hits[first] - base
        going = slot < size  # otherwise no word below its rate is left
        live, base, first, slot = live[going], base[going], first[going], slot[going]
        end = slots.end[slot]
        count = np.searchsorted(hits, base + end) - first  # the gate's errors
        pos[live] = end
        for j in range(count.max(initial=0)):
            step = count > j
            drawn, at = live[step], end[step]
            erred = hits[first[step] + j] - base[step]
            # integers(3) takes the next nonzero 32-bit half: a carried
            # half, else a fresh word's low half, else its high half.
            # A carried half of 0 would be redrawn, so 0 means none.
            x, half[drawn] = half[drawn], 0
            todo = np.flatnonzero(x == 0)
            while todo.size:
                r = drawn[todo]
                if used[r].max() >= spare:  # a fresh word would pass the spare
                    return None
                word = words[r, at[todo] + used[r]]
                used[r] += 1
                lo, hi = word & 0xFFFFFFFF, word >> 32
                x[todo], half[r] = np.where(lo, lo, hi), np.where(lo, hi, 0)
                todo = todo[x[todo] == 0]
            found.append((drawn, erred, x * 3 >> 32))
    row, slot, pauli = (np.concatenate(v) for v in zip(*found))
    return row, slot, pauli


def _draws(read: Callable[[int, int], np.ndarray], shots: int, slots: _Slots, reads: int, spare: int):
    """Every shot's Pauli errors, as a list of ``(shot, slot, pauli)``
    arrays, and its ``(shots, reads)`` readout uniforms.  ``read(i, k)``
    gives the first k raw words of shot i's stream.

    The shots are decoded in blocks of at most ``_BLOCK_WORDS`` raw
    words, one row per shot: its slots' words, its readout words and
    ``spare`` words for its Pauli draws, which come before the readout.
    A block in which some shot's draws need more is read again whole,
    with the spare doubled (by at least one word)."""
    size = len(slots.rate)
    found, readout, start = [], np.empty((shots, reads)), 0
    while start < shots:
        width = size + reads + spare
        rows = min(max(1, _BLOCK_WORDS // width), shots - start)
        words = np.empty((rows, width), dtype=np.uint64)
        for r in range(rows):
            words[r] = read(start + r, width)
        used = np.zeros(rows, dtype=np.intp)
        if (errors := _errors(words, slots, spare, used)) is None:
            spare = max(2 * spare, spare + 1)
            continue
        row, slot, pauli = errors
        if row.size:
            found.append((row + start, slot, pauli))
        at = size + used[:, None] + np.arange(reads)
        readout[start : start + rows] = (np.take_along_axis(words, at, 1) >> 11) * 2.0**-53
        start += rows
    return found, readout


def _pauli_strings(n: int, slots: _Slots, shots: int, found: list) -> dict:
    """The errors grouped by (gate, shot) into Pauli strings: for each
    gate that has any, the shots' columns, flipped bits, negated bits
    and Y counts.  X flips its qubit, Z negates it and Y = iXZ does
    both; the qubits of one gate are distinct, so a sum of bits is
    their OR, exact in any order."""
    shot, slot, pauli = (np.concatenate(v) for v in zip(*found))
    key, string = np.unique(slots.gate[slot] * shots + shot, return_inverse=True)
    qubit = slots.qubit[slot]
    bits = (pauli < 2).astype(np.intp) << qubit | (pauli > 0).astype(np.intp) << (qubit + n)
    code = np.bincount(string, weights=bits).astype(np.intp)  # exact: 2n < 53 bits
    flip, negate = code & (2**n - 1), code >> n
    ys = np.bitwise_count(flip & negate)
    gate, col = np.divmod(key, shots)
    cuts = [0, *(np.flatnonzero(gate[1:] != gate[:-1]) + 1).tolist(), len(gate)]
    return {
        int(gate[a]): (col[a:b], flip[a:b], negate[a:b], ys[a:b])
        for a, b in zip(cuts, cuts[1:])
    }


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
    keys: Callable[[int, int], Sequence[int]],
    qubits: Iterable[int] | None,
) -> dict[str, int]:
    """Each measured bitstring's shot count, in order of its first shot,
    where ``keys(start, stop)`` gives the Philox keys of shots start to
    stop - 1.  This is the only trajectory path.  A chunk's outcomes are
    tallied in one pass; a bitstring is rendered once per outcome."""
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
        chunk = keys(start, min(shots, start + size))
        read = lambda i, k: _PHILOX.raw(chunk[i])(k)  # shot i's first k words
        found, readout = _draws(read, len(chunk), slots, 1 + len(qubits), _SPARE)
        strings = _pauli_strings(n, slots, len(chunk), found) if found else {}
        erring = np.fromiter(strings, np.intp, len(strings))  # increasing
        amps = np.zeros((2**n, len(chunk)), dtype=complex)
        amps[0] = 1.0  # every column starts in |0...0>
        for offset, segment, copies, local, step in plan:
            if local is None:
                for g, gate in enumerate(segment * copies, offset):
                    _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls, gate.moves)
                    if g in strings:
                        _apply_paulis(amps, *strings[g])
                continue
            a, b = np.searchsorted(erring, (offset, offset + len(segment) * copies))
            if a < b:  # some shot errs in the run
                gates = erring[a:b]
                parts = [strings[g] for g in gates.tolist()]
                times = np.repeat(gates - offset, [len(cols) for cols, *_ in parts])
                _apply_run_errors(amps, n, local, len(segment), times, *map(np.concatenate, zip(*parts)))
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
    """Execute one noisy shot from the Philox stream keyed by ``seed``;
    returns the measured bitstring.

    Pauli errors are unitary insertions, so the trajectory state stays
    normalized.  Only the listed qubits are measured (default: all);
    readout flips apply to those bits.
    """
    check_seed("seed", seed, key=True)
    (bits,) = _trajectories(circ, config, 1, lambda start, stop: (seed,), qubits)
    return bits


def noisy_counts(
    circ: Circuit,
    shots: int,
    config: NoiseConfig,
    seed: int,
    qubits: Iterable[int] | None = None,
) -> MeasurementCounts:
    """Aggregate independent trajectories; trajectory i is keyed by
    (config.seed, seed, i), so runs are reproducible shot by shot."""
    # Shot indices are one 32-bit word of each key's hash.
    check_number("shots", shots, low=1, high=2**32)
    check_seed("config.seed", config.seed)
    check_seed("seed", seed)
    keys = lambda start, stop: _derive_seeds(config.seed, seed, np.arange(start, stop))
    return MeasurementCounts(_trajectories(circ, config, shots, keys, qubits), shots)
