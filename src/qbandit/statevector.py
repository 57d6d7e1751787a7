"""Dense state-vector simulation of small gate-based quantum circuits.

Conventions used throughout the package:

* Qubit 0 is the least-significant bit of the basis-state index, so the
  basis state with qubit 0 = a and qubit 1 = b has index a + 2*b.
* Bitstrings render the basis index in binary, i.e. the rightmost
  character is qubit 0.
* For multi-target gates, ``targets[0]`` is the least-significant bit of
  the gate-matrix index.

Each gate resolves its matrix once, when it is constructed, and every
amplitude update (ideal circuits, noisy trajectories and
``circuit_unitary``) goes through one kernel, ``_apply_matrix``, which
takes one state or a batch of states held as columns and writes
``matrix @ block`` for every gate, with no special case for any matrix;
the one other is the ideal plan's FFT for phase estimation's inverse
QFT, below.  The marginal and the inverse-CDF draw (``_draw``) take a
batch too, one state and one word's u per column.

A circuit given as a flat gate list runs gate by gate, with the same
bits as a gate-by-gate loop.  A builder that knows its structure, as
phase estimation does, gives the circuit its runs, ``(segment, copies)``
pairs, and the circuit plans them once per circuit object
(``Circuit.run_plan``) by one rule: a run of two or more gates,
counting copies, on at most three qubits folds, such as each of the 2^k
copies of a controlled Grover operator, k = 0 included.  A folded run
is one kernel call with the segment's matrix raised to the number of
copies by repeated squaring.  Segments with the same local matrix under
different qubits share it, built once, and one chain of its squarings:
the 2^k-th power is the k-th squaring, the product
``np.linalg.matrix_power`` makes.  The ideal paths (``apply_circuit``,
``Circuit.final_state`` and ``circuit_unitary``) run the step plan,
``Circuit.steps``, read off that plan: a segment built as an
``_InverseQft``, as phase estimation builds its inverse QFT, runs as
one orthonormal FFT along the register's axis of the amplitudes
(``_Fourier``), each folded run as its power, and every other gate as
its own step, with its own matrix.  Noisy trajectories read the same
plan, so they fold the same runs with the same matrices, and move each
erring shot's errors to the run's start (``noise._apply_run_errors``).

Every random stream is Philox (Salmon et al., SC'11) keyed by a seed,
and its words are addressed by index.  A stream's key comes from
``derive_seed``: the 64 bits numpy's ``SeedSequence`` would give for
its parts (after O'Neill's ``seed_seq_fe``, 2015), hashed from their
32-bit words by ``_entropy_hash`` with no SeedSequence built.  The hash
takes a uint32 array for any word, so ``training`` derives a block of
evaluation keys in one pass.  ``_PHILOX`` holds one bit generator per
thread and, for each read, sets its key and the counter of the first
word, which gives the words a new ``np.random.Philox`` with that key
would give from that index without building one.  Every reader holds
at most ``_BLOCK_WORDS`` words of a stream at once.  No word is
decoded to a float: word w stands for u = w >> 11, a uniform integer
below 2**53, and u * 2**-53 < e exactly when u < ``_limit(e)`` =
ceil(e * 2**53), so every reader compares words with integer limits.
The ideal sampler, the synthesized dataset and the Monte Carlo baseline
read raw words through ``_PHILOX.blocks``; the sampler counts each
block at the limits of the CDF's edges, so its memory is O(block +
outcomes), not O(shots).  Noisy trajectories read one stream per call
too, its raw words in blocks of whole shots (``noise._draws``).

All operations are pure: they take a state in and return a new one.
A circuit object simulates itself from |0...0> at most once, on first
use of ``Circuit.final_state``, and every caller shares that read-only
state.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

MAX_QUBITS = 24

_SQ2 = 1.0 / np.sqrt(2.0)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _angle(kind: str, value):
    """``value``, once it is known to be a finite angle for a ``kind``
    gate: NaN, infinities and integers too large for a float are refused.
    A value that is not a real number raises TypeError."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise SimulationError(f"{kind} gate angle must convert to a finite float, got {_shown(value)}")
    return value


def _ry(theta: float) -> np.ndarray:
    _angle("RY", theta)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


# kind -> the gate's matrix, built from its params; UNITARY takes its
# matrix from the payload instead.  A gate's angle is checked in its
# builder, after the call has checked how many params it takes.
_MATRICES = {
    "X": lambda: _X,
    "RY": _ry,
    "H": lambda: _H,
    "PHASE": lambda phi: np.array([[1, 0], [0, np.exp(1j * _angle("PHASE", phi))]], dtype=complex),
    "Z": lambda: _Z,
    "SWAP": lambda: _SWAP,
}


# The constants of numpy's SeedSequence (after O'Neill's seed_seq_fe,
# 2015): its pool holds four 32-bit words.
_MASK32 = 2**32 - 1
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_words(part: int) -> list[int]:
    """A non-negative int's 32-bit words, least significant first, as
    SeedSequence splits an entropy integer: 0 is one word."""
    words = [part & _MASK32]
    while part := part >> 32:
        words.append(part & _MASK32)
    return words


def _hashmix(value, const: int, mult: int) -> tuple:
    """(``value`` hashed with the running constant, the next constant)."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _entropy_hash(words: Sequence) -> tuple:
    """(low, high): the first two 32-bit words that
    ``np.random.SeedSequence(entropy).generate_state`` gives for the
    entropy whose words are ``words``, so the key it would draw as one
    uint64 is ``low | high << 32``.

    Each word is a Python int below 2**32 or a uint32 array, never a
    numpy scalar, whose overflow warns.  Arrays hash element by element,
    so one pass derives a block of keys; ints stay ints.  Every product
    is reduced to 32 bits before it meets an array.  The running
    constants do not depend on the words, so entropy shorter than the
    pool hashes as if padded with zero words."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_WORDS):
        value, const = _hashmix(words[i] if i < len(words) else 0, const, _MULT_A)
        pool.append(value)

    def mix(x, word):
        nonlocal const
        y, const = _hashmix(word, const, _MULT_A)
        value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
        return value ^ value >> 16

    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], pool[src])
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], word)
    low, const = _hashmix(pool[0], _INIT_B, _MULT_B)
    high, _ = _hashmix(pool[1], const, _MULT_B)
    return low, high


def derive_seed(*parts: int) -> int:
    """Deterministically derive a child seed from integer components: the
    uint64 that ``np.random.SeedSequence(list(parts)).generate_state(1,
    np.uint64)`` gives, hashed here from the parts' 32-bit words with no
    SeedSequence built.

    Used to give every (iteration, arm) evaluation and every noisy call
    its own reproducible random stream.
    """
    for i, part in enumerate(parts):
        check_seed(f"seed part {i}", part)
    low, high = _entropy_hash([w for part in parts for w in _seed_words(int(part))])
    return low | high << 32


class SimulationError(ValueError):
    """Raised for invalid circuits, gates, or simulator inputs."""


def _shown(value) -> str:
    """``value`` as a refusal message gives it.  An integer too long for
    ``str`` (Python refuses over 4,300 digits by default) is given by its
    size in bits, so that the message still names its field."""
    try:
        return str(value)
    except ValueError:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {abs(int(value)).bit_length()} bits"


def check_number(name: str, value, kind: type = numbers.Integral, low=None, high=None) -> None:
    """Raise ValueError unless ``value`` is a ``kind`` (numbers.Integral or
    numbers.Real) in [low, high], a bound of None being open.  Bools, NaN
    and infinities are refused; numpy scalars are accepted.  Integers skip
    the finiteness test, which overflows on one too large for a float;
    ``check_real`` refuses those in a real field."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {kind.__name__.lower()}, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f"in [{low}, {high}]" if high is not None else f">= {low}" if low else "non-negative"
        raise ValueError(f"{name} must be {bounds}, got {_shown(value)}")


def check_real(name: str, value, low=None, high=None) -> None:
    """``check_number`` for a real field, whose value is used as a float:
    an integer too large for one is refused too."""
    check_number(name, value, numbers.Real, low, high)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must convert to a finite float, got an integer too large for one") from None


def check_seed(name: str, value, key: bool = False) -> None:
    """Raise ValueError unless ``value`` is a non-negative integer, as
    ``check_number`` reads one.  A ``key``, used as a Philox key itself
    rather than hashed into one, must also be below 2**128."""
    check_number(name, value, low=0)
    if key and value >= 2**128:
        raise ValueError(f"{name} must be below 2**128, got {_shown(value)}")


class _Philox(threading.local):
    """Philox streams by key, read by word index, from one bit generator
    per thread.

    Setting its key and counter starts the stream a new
    ``np.random.Philox`` with that key would, at about a fifth of the
    cost: that constructor first gathers OS entropy for a seed that the
    key then replaces.  Each read sets both afresh, so reads of several
    streams may interleave on one thread; each thread has its own
    generator, so streams on different threads cannot interleave."""

    # Any fixed seed will do, since every read sets the key and counter;
    # a prebuilt one spares the constructor the OS entropy as well.
    _SEED = np.random.SeedSequence(0)

    def __init__(self):
        self._bitgen = np.random.Philox(self._SEED)
        self._start = self._bitgen.state  # counter 0, nothing buffered

    def raw(self, key: int, start: int = 0) -> Callable[[int], np.ndarray]:
        """``random_raw`` of ``key``'s stream from word ``start`` on, good
        on this thread until the next call.  numpy increments the counter
        before it makes four words, so word w comes from counter w // 4 +
        1: the counter is set to ``start // 4`` and the first ``start %
        4`` words of its block are dropped."""
        high, low = divmod(int(key), 2**64)
        state = self._start["state"]  # written in place: cheaper than new arrays
        state["key"][0], state["key"][1] = low, high
        state["counter"][0] = start // 4
        self._bitgen.state = self._start
        if start % 4:
            self._bitgen.random_raw(start % 4)
        return self._bitgen.random_raw

    def blocks(self, key: int, count: int, start: int = 0) -> Iterator[np.ndarray]:
        """Raw words ``start`` to ``start + count - 1`` of ``key``'s stream
        in consecutive blocks of at most ``_BLOCK_WORDS``.  Each block is
        read afresh, so the blocks of two streams may be interleaved on one
        thread."""
        for first in range(start, start + count, _BLOCK_WORDS):
            yield self.raw(key, first)(min(_BLOCK_WORDS, start + count - first))


_PHILOX = _Philox()

# A block of raw words holds at most this many (512 KB of uint64), so a
# reader's memory does not grow with the stream it reads.  The ideal
# sampler, the dataset and the baseline read their words in blocks of
# this size (``_Philox.blocks``); the noisy draws read as many whole
# shots' words in one block as fit, or one shot if that is longer.
_BLOCK_WORDS = 2**16


def _limit(e) -> np.ndarray:
    """ceil(e * 2**53) as uint64, for a scalar or an array of floats: a
    53-bit uniform integer u, the word w >> 11, stands for u * 2**-53,
    and u * 2**-53 < e exactly when u < _limit(e).  Both products are
    exact, a power of two times a float.  The package's only decode.
    numpy's scalar types convert an array whole, and a scalar at a third
    of ``np.asarray``'s cost, which the ideal sampler pays per edge."""
    return np.uint64(np.ceil(np.float64(e) * 2.0**53))


@dataclass(frozen=True)
class Gate:
    """One elementary unitary on named qubits, with optional controls.

    ``kind`` is one of X, RY, H, PHASE, Z, SWAP, UNITARY.  Rotation and
    phase gates carry their angle in ``params``; UNITARY carries an
    explicit matrix on up to 3 target qubits.  ``matrix`` is the
    read-only dense matrix on the targets (controls not included),
    resolved once at construction.  Two gates are equal when their kind,
    qubits, params and matrix are.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    payload: np.ndarray | None = field(default=None, compare=False)
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_qubits(self.kind, self.targets, self.controls, self.qubits)
        if self.kind == "UNITARY":
            if self.payload is None:
                raise SimulationError("UNITARY gate needs a matrix payload")
            if len(self.targets) > 3:
                raise SimulationError("UNITARY supports at most 3 target qubits")
            # A copy, so a later write to the caller's array cannot undo
            # the unitarity check below.
            m = np.array(self.payload, dtype=complex)
        elif self.kind in _MATRICES:
            try:
                m = _MATRICES[self.kind](*self.params)
            except TypeError as exc:
                raise SimulationError(f"{self.kind} gate cannot take params {self.params}") from exc
        else:
            raise SimulationError(f"unknown gate kind {self.kind!r}")
        dim = 2 ** len(self.targets)
        if m.shape != (dim, dim):
            raise SimulationError(
                f"{self.kind} matrix shape {m.shape} does not fit targets {self.targets}"
            )
        if self.kind == "UNITARY":
            err = np.abs(m.conj().T @ m - np.eye(dim)).max()
            if not err <= 1e-12:  # NaN too
                raise SimulationError(f"matrix is not unitary (deviation {err:.2e})")
            object.__setattr__(self, "payload", m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        # Equal gates have equal keys, so the hash may leave the matrix out.
        return hash(self._key())

    def _key(self) -> tuple:
        return (self.kind, self.targets, self.controls, self.params)

    @property
    def qubits(self) -> tuple[int, ...]:
        """All qubits the gate touches (targets plus controls)."""
        return self.targets + self.controls

    def adjoint(self) -> Gate:
        """Inverse gate: angles negated, payload conjugate-transposed."""
        payload = None if self.payload is None else self.payload.conj().T
        return replace(self, params=tuple(-p for p in self.params), payload=payload)

    def controlled(self, *extra_controls: int) -> Gate:
        """Same gate with additional control qubits.  Its matrix does not
        depend on the controls, so the new gate shares it, and only the new
        controls are checked."""
        controls = self.controls + extra_controls
        _check_qubits(self.kind, self.targets, controls, extra_controls)
        gate = object.__new__(Gate)
        gate.__dict__.update(self.__dict__, controls=controls)
        return gate


def _is_index(value) -> bool:
    """Whether ``value`` may count qubits or name one: an int or a numpy
    integer, and not a bool."""
    return type(value) is int or isinstance(value, np.integer)


def _check_qubits(kind: str, targets: tuple, controls: tuple, new: tuple) -> None:
    """Refuse a gate's qubits: any of ``new`` (those not checked before)
    that is not a non-negative integer, targets that overlap controls, and
    a target or a control given twice."""
    for q in new:
        if not _is_index(q) or q < 0:
            raise SimulationError(f"{kind} gate qubit must be a non-negative integer, got {q!r}")
    if set(targets) & set(controls):
        raise SimulationError(f"targets {targets} and controls {controls} overlap")
    if len(set(targets)) != len(targets):
        raise SimulationError(f"duplicate target qubits: {targets}")
    if len(set(controls)) != len(controls):
        raise SimulationError(f"duplicate control qubits: {controls}")


def x(target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("X", (target,), tuple(controls))


def ry(theta: float, target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("RY", (target,), tuple(controls), (float(_angle("RY", theta)),))


def h(target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("H", (target,), tuple(controls))


def phase(phi: float, target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("PHASE", (target,), tuple(controls), (float(_angle("PHASE", phi)),))


def z(target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("Z", (target,), tuple(controls))


def swap(a: int, b: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("SWAP", (a, b), tuple(controls))


def unitary(matrix: np.ndarray, targets: Iterable[int], *, controls: Iterable[int] = ()) -> Gate:
    return Gate("UNITARY", tuple(targets), tuple(controls), payload=matrix)


def _check_width(n) -> None:
    """Refuse a register width that is not an integer in [1, MAX_QUBITS];
    numpy integers are accepted, bools are not."""
    if not _is_index(n) or not 1 <= n <= MAX_QUBITS:
        raise SimulationError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a fixed-width qubit register.

    A builder declares its circuit's structure by giving ``runs`` instead
    of ``gates``: ``(segment, copies)`` pairs, each a sequence of gates
    applied ``copies`` times back to back, held as tuples (an
    ``_InverseQft`` segment stays one).  ``gates`` is then their flat
    list, and the runs shape only ``steps``; they take no part in
    equality.  A circuit given by ``gates`` has no structure to use, and
    its plan is its gates.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    runs: tuple[tuple[tuple[Gate, ...], int], ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        _check_width(self.num_qubits)
        distinct = self.gates
        if self.runs is not None:
            if self.gates:
                raise SimulationError("a circuit takes its gates or its runs, not both")
            runs = []
            for segment, copies in self.runs:
                check_number("copies", copies, low=1)
                runs.append((segment if isinstance(segment, tuple) else tuple(segment), int(copies)))
            object.__setattr__(self, "runs", tuple(runs))
            object.__setattr__(self, "gates", sum((segment * copies for segment, copies in runs), ()))
            distinct = (g for segment, _ in runs for g in segment)
        # Gates check their own qubits are non-negative; a circuit repeats
        # gate objects, so each distinct one is checked once.
        for gate in {id(g): g for g in distinct}.values():
            if (qubits := gate.qubits) and max(qubits) >= self.num_qubits:
                raise SimulationError(
                    f"gate {gate.kind} on qubits {gate.qubits} exceeds "
                    f"register width {self.num_qubits}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def run_plan(self) -> tuple[tuple[int, tuple[Gate, ...], int, _Local | None], ...]:
        """``(first, segment, copies, local)`` for each run, made on first
        use and read by the ideal and the noisy paths alike: the index of
        the run's first gate, its segment and copies, and the segment's
        ``_Local`` if the run folds, else None.  The one fold rule: a run
        folds when it holds two or more gates, counting copies, on at
        most ``_FOLD_QUBITS`` qubits.  Runs whose segments have the same
        local matrix share it and one chain of its squarings.  A circuit
        given by ``gates`` is one run of them that never folds."""
        plan, cache, first = [], {}, 0
        for segment, copies in self.runs or ((self.gates, 1),):
            local = _local(segment, cache) if self.runs and len(segment) * copies > 1 else None
            plan.append((first, segment, copies, local))
            first += len(segment) * copies
        return tuple(plan)

    @functools.cached_property
    def steps(self) -> tuple[Gate | _Step | _Fourier, ...]:
        """The kernel calls that simulate this circuit, planned on first
        use from ``run_plan``: ``gates`` itself when nothing folds, as for
        every circuit given by ``gates``.

        An ``_InverseQft`` segment of two or more qubits is one FFT step
        per copy; every other run that folds is one step, its ``_Local`` U
        raised to the copies; the gates of a run that does not fold are
        their own steps."""
        if self.runs is None:
            return self.gates
        steps: list[Gate | _Step | _Fourier] = []
        for _, segment, copies, local in self.run_plan:
            if isinstance(segment, _InverseQft) and segment.fourier:
                steps += [segment.fourier] * copies
            else:
                steps += segment * copies if local is None else [local.step(copies)]
        return self.gates if len(steps) == len(self.gates) else tuple(steps)

    @functools.cached_property
    def final_state(self) -> StateVector:
        """The state this circuit makes from |0...0>, simulated on first use
        and then shared, read-only, by every later caller of this object."""
        state = apply_circuit(new_state(self.num_qubits), self)
        state.amps.setflags(write=False)
        return state

    def then(self, other: Circuit) -> Circuit:
        """Concatenation: self first, then other."""
        if other.num_qubits != self.num_qubits:
            raise SimulationError(
                f"cannot join circuits on {self.num_qubits} and {other.num_qubits} qubits"
            )
        return Circuit(self.num_qubits, self.gates + other.gates)


def circuit(num_qubits: int, gates: Iterable[Gate] = ()) -> Circuit:
    return Circuit(num_qubits, tuple(gates))


def inverse_circuit(circ: Circuit) -> Circuit:
    """Adjoint circuit: reversed order, each gate replaced by its adjoint."""
    return Circuit(circ.num_qubits, tuple(g.adjoint() for g in reversed(circ.gates)))


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the 2**num_qubits basis states."""

    num_qubits: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def new_state(num_qubits: int) -> StateVector:
    """The all-zeros state |0...0> on ``num_qubits`` qubits."""
    _check_width(num_qubits)
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


@functools.lru_cache(maxsize=4096)
def _gate_rows(num_qubits: int, targets: tuple[int, ...], controls: tuple[int, ...]) -> np.ndarray:
    """Index table for a gate: rows[b] lists the basis indices whose target
    bits spell b (targets[0] least significant) and whose control bits are
    all 1.  Cached per (register, targets, controls) signature; the rows
    are read-only, so every caller can share them."""
    fixed = set(targets) | set(controls)
    free = [q for q in range(num_qubits) if q not in fixed]
    base = np.zeros(2 ** len(free), dtype=np.intp)
    enum = np.arange(2 ** len(free), dtype=np.intp)
    for i, q in enumerate(free):
        base |= ((enum >> i) & 1) << q
    base += sum(1 << c for c in controls)
    k = len(targets)
    rows = np.empty((2**k, base.size), dtype=np.intp)
    for b in range(2**k):
        rows[b] = base + sum(((b >> j) & 1) << t for j, t in enumerate(targets))
    rows.setflags(write=False)
    return rows


def _apply_matrix(
    amps: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
    arena: np.ndarray | None = None,
) -> None:
    """The one amplitude update, ``matrix @ block``: ``matrix`` on
    ``targets`` wherever every control is 1, written in place into
    ``amps``, which is one state ``(2**n,)`` or a batch ``(2**n, B)`` with
    one state per column.

    A batch's block and product are held in ``arena``, a flat complex
    array of at least ``2 * amps.size`` entries, so that a caller looping
    over gates allocates them once; without one, the call makes its own."""
    rows = _gate_rows(num_qubits, targets, controls)
    if amps.ndim == 1:
        # A single state skips the reshapes and the arena, which made
        # ideal runs slower.
        amps[rows] = matrix @ amps[rows]
        return
    size = rows.size * amps.shape[1]
    if arena is None:
        arena = np.empty(2 * size, dtype=complex)
    # mode="clip" (the rows are always in range) writes straight into
    # ``out``; the default mode buffers it in a temporary as large.
    block = amps.take(rows, axis=0, mode="clip", out=arena[:size].reshape(*rows.shape, -1))
    prod = np.matmul(matrix, arena[:size].reshape(len(rows), -1), out=arena[size : 2 * size].reshape(len(rows), -1))
    amps[rows] = prod.reshape(block.shape)


def apply_circuit(state: StateVector, circ: Circuit) -> StateVector:
    """Apply ``circ.steps`` in order, which is every gate with each
    repeated segment folded; returns a new state."""
    if circ.num_qubits != state.num_qubits:
        raise SimulationError(
            f"circuit on {circ.num_qubits} qubits cannot act on a "
            f"{state.num_qubits}-qubit state"
        )
    return StateVector(state.num_qubits, _apply_gates(state.amps.copy(), circ))


def _apply_gates(amps: np.ndarray, circ: Circuit) -> np.ndarray:
    """Every step of ``circ.steps`` in order, in place on one state or a
    batch, which must be C-contiguous."""
    for step in circ.steps:
        if type(step) is _Fourier:
            _apply_fourier(amps, circ.num_qubits, step)
        else:
            _apply_matrix(amps, circ.num_qubits, step.matrix, step.targets, step.controls)
    return amps


class _Fourier(NamedTuple):
    """One step for the gates of an ``_InverseQft``: the transform on the
    ``width`` qubits from ``first`` on."""

    first: int
    width: int


def _apply_fourier(amps: np.ndarray, num_qubits: int, step: _Fourier) -> None:
    """The inverse QFT of ``step`` in place on one state or a batch, as
    one orthonormal FFT.  Viewed as (higher qubits, register, lower
    qubits, columns), the amplitudes' register axis holds its integer y
    (bit j on qubit first + j), which goes to sum_x exp(-2 pi i x y /
    2^width) |x> / sqrt(2^width): numpy's forward FFT."""
    view = amps.reshape(2 ** (num_qubits - step.first - step.width), 2**step.width, 2**step.first, -1)
    view[...] = np.fft.fft(view, axis=1, norm="ortho")


class _InverseQft(tuple):
    """The gates of an inverse QFT on the consecutive increasing ``qubits``
    (qubits[j] holding bit j), as a tuple that carries its plan step:
    each copy of a run of this segment is one ``_Fourier`` step, its
    ``fourier``, in the ideal step plan, whether or not the fold rule
    folds the run.  The builder vouches that the gates are that
    transform.  A register narrower than 2 qubits gets no step
    (``fourier`` is None), since its transform is one Hadamard.  Noisy
    trajectories take the run by the fold rule like any other, as both
    plans take the gates sliced or joined into a plain tuple; in a flat
    gate list they run one by one."""

    def __new__(cls, gates: Iterable[Gate], qubits: Sequence[int]) -> _InverseQft:
        first, width = qubits[0], len(qubits)
        if tuple(qubits) != tuple(range(first, first + width)):
            raise SimulationError(f"an inverse QFT step needs consecutive increasing qubits, got {tuple(qubits)}")
        self = super().__new__(cls, gates)
        self.fourier = _Fourier(first, width) if width >= 2 else None
        return self


class _Step(NamedTuple):
    """One kernel call for a folded run of gates: the fields of ``Gate``
    that ``_apply_matrix`` reads."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[int, ...]


# A folded run may touch at most this many qubits, UNITARY's limit: its
# matrix is at most 8 x 8.
_FOLD_QUBITS = 3


class _Local(NamedTuple):
    """A segment's gates on its ``qubits``, at most ``_FOLD_QUBITS``, the
    lowest one least significant: ``prefix[j]`` is the product of its
    gates 0 to j, so ``prefix[-1]`` is the segment's ``circuit_unitary``
    U on those qubits, and ``chain`` holds U and its squarings so far."""

    qubits: tuple[int, ...]
    prefix: np.ndarray
    chain: list[np.ndarray]

    def power(self, m: int) -> np.ndarray:
        """U^m, read-only.  m = 2^k takes the k-th squaring, which is the
        product ``np.linalg.matrix_power`` makes for it; any other m takes
        ``matrix_power`` itself."""
        chain = self.chain
        if m & (m - 1):
            matrix = np.linalg.matrix_power(chain[0], m)
        else:
            while len(chain) < m.bit_length():
                chain.append(chain[-1] @ chain[-1])
            matrix = chain[m.bit_length() - 1]
        matrix.setflags(write=False)
        return matrix

    def step(self, m: int) -> _Step:
        """One kernel call for ``m`` copies of the segment."""
        return _Step(self.power(m), self.qubits, ())


def _local(segment: tuple[Gate, ...], cache: dict[tuple, tuple]) -> _Local | None:
    """``segment``'s ``_Local``, or None if it touches more than
    ``_FOLD_QUBITS`` qubits.

    ``cache`` maps the bytes of the segment's gate matrices, placed on its
    local qubits, to the prefix products and the chain, so segments that
    differ only in which qubits they touch share them."""
    qubits = sorted({q for g in segment for q in g.qubits})
    if len(qubits) > _FOLD_QUBITS:
        return None
    local = {q: j for j, q in enumerate(qubits)}
    placed = [(g, tuple(map(local.get, g.targets)), tuple(map(local.get, g.controls))) for g in segment]
    key = tuple((g.matrix.tobytes(), targets, controls) for g, targets, controls in placed)
    shared = cache.get(key)
    if shared is None:
        unitary = np.eye(2 ** len(qubits), dtype=complex)
        prefix = np.empty((len(segment), *unitary.shape), dtype=complex)
        for j, (g, targets, controls) in enumerate(placed):
            _apply_matrix(unitary, len(qubits), g.matrix, targets, controls)
            prefix[j] = unitary
        prefix.setflags(write=False)
        shared = cache[key] = (prefix, [unitary])
    return _Local(tuple(qubits), *shared)


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit: column j is the circuit applied
    to basis state j, all columns in one batched pass.

    Intended for verification on small registers; O(4^n * steps).  The
    matrix holds 4^n amplitudes, so a register wider than MAX_QUBITS // 2,
    whose matrix would outgrow the largest state, is refused before
    anything is allocated.
    """
    n = circ.num_qubits
    if n > MAX_QUBITS // 2:
        raise SimulationError(
            f"circuit_unitary needs num_qubits <= {MAX_QUBITS // 2}, got {n}: "
            f"its matrix would take {16 * 4**n} bytes"
        )
    return _apply_gates(np.eye(2**n, dtype=complex), circ)


def _subset(num_qubits: int, qubits: Iterable[int] | None) -> tuple[int, ...]:
    """The measured qubits (default: all), checked: non-empty, distinct
    integers (as ``_is_index`` reads them) within the register."""
    qs = tuple(range(num_qubits)) if qubits is None else tuple(qubits)
    if not qs or not all(_is_index(q) and 0 <= q < num_qubits for q in qs) or len(set(qs)) != len(qs):
        raise SimulationError(
            f"qubit subset {qs} must be non-empty, distinct integers within the {num_qubits}-qubit register"
        )
    return qs


@functools.lru_cache(maxsize=64)
def _outcomes(num_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """out[k] is the outcome basis index k reads on ``qubits``: bit j is
    the value of qubits[j].  Cached and read-only, like ``_gate_rows``."""
    idx = np.arange(2**num_qubits, dtype=np.intp)
    out = np.zeros(2**num_qubits, dtype=np.intp)
    for j, q in enumerate(qubits):
        out |= ((idx >> q) & 1) << j
    out.setflags(write=False)
    return out


def _marginal(
    amps: np.ndarray, num_qubits: int, qubits: Iterable[int] | None = None, arena: np.ndarray | None = None
) -> np.ndarray:
    """Born probabilities of ``amps`` marginalized onto ``qubits`` (default:
    all); outcome m has bit j equal to the measured value of qubits[j].
    For a batch ``(2**n, B)`` of states, column c of the result is the
    marginal of column c; its probabilities and bin indices are held in
    ``arena``, a flat complex array of at least ``amps.size`` entries, if
    one is given.  Every readout path comes through here to have its
    subset checked."""
    qs = _subset(num_qubits, qubits)
    out = _outcomes(num_qubits, qs)
    if amps.ndim == 1:
        return np.bincount(out, weights=np.abs(amps) ** 2, minlength=2 ** len(qs))
    if arena is None:
        arena = np.empty(amps.size, dtype=complex)
    probs, index = arena.view(np.float64)[: 2 * amps.size].reshape(2, *amps.shape)
    np.abs(amps, out=probs)
    probs *= probs  # the bits of ** 2
    # Column c of outcome m is bin m * B + c.  bincount adds each bin's
    # terms in index order, so every column sums as it would alone.
    cols = amps.shape[1]
    index = np.add(out[:, None] * cols, np.arange(cols), out=index.view(np.intp))
    marg = np.bincount(index.ravel(), weights=probs.ravel(), minlength=2 ** len(qs) * cols)
    return marg.reshape(-1, cols)


def _draw(marg: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling of a batch ``(outcomes, B)`` of marginals: the
    outcome each column's 53-bit uniform integer ``us[c]`` selects, the
    number of CDF values at or below u * 2**-53."""
    cdf = np.cumsum(marg, axis=0)
    cdf[-1] = 1.0
    # searchsorted(side="right")'s answer.  Only the last value can break
    # the order, and its limit, 2**53, is above every u.
    return (_limit(cdf) <= us).sum(axis=0)


# Up to this many CDF edges, one pass over the uint64 words per edge
# beats sorting them.  On a 2-vCPU x86 VM a ``_tally`` of 8,000 words
# took about 4.5 µs more per edge with passes and 52 µs with the sort,
# and at 300 words 1.3 µs per edge and 11 µs: passes win up to about 10
# edges at 8,000 words and 5 at 300.
_EDGE_PASSES = 4


def _tally(marg: np.ndarray, words: np.ndarray) -> np.ndarray:
    """counts[k]: how many of the raw Philox ``words`` select outcome k of
    ``marg``, the outcome ``_draw`` gives each word's u = w >> 11.

    Outcome <= k exactly when u < ``_limit(cdf[k])``, so counts[k] =
    below[k] - below[k - 1], with below[k] the words under edge k.  The
    words are counted as they are, never shifted: u < L exactly when w <
    L * 2**11.  An edge that is not below 1.0, whose limit would be 2**64
    or more, is above every word; the last edge is 1.0.  Only the edges
    are counted, never a per-shot outcome, so memory is O(words +
    outcomes).
    """
    edges = marg.cumsum()[:-1]  # the method: ``np.cumsum`` costs a µs more
    if edges.size <= _EDGE_PASSES:
        below = [0]
        for e in edges.tolist():
            below.append(np.count_nonzero(words < (_limit(e) << 11)) if e < 1.0 else words.size)
        below = np.array([*below, words.size])
    else:
        inside = edges < 1.0
        below = np.full(edges.size + 2, words.size)
        below[0] = 0
        below[1:-1][inside] = np.searchsorted(np.sort(words), _limit(edges[inside]) << 11)  # strictly below
    return below[1:] - below[:-1]


def _bitstring(outcome: int, marg: np.ndarray) -> str:
    """Outcome index of ``marg`` rendered with one character per measured qubit."""
    return format(int(outcome), f"0{marg.size.bit_length() - 1}b")


class ExactDistribution(Mapping):
    """A read-only mapping from bitstring (qubits[0] rightmost) to Born
    probability, zero outcomes left out, keys in increasing outcome order:
    the dict ``{bits: float(p)}`` of the marginal, with its ``repr`` and
    its ``==``, held as the marginal itself.

    ``marginal`` is the read-only float64 array over every outcome and
    ``outcomes`` the increasing indices of its nonzero entries, both set
    at construction and never changed.  Keys are rendered only when the
    mapping is iterated; a lookup parses its one key, so a key of the
    wrong width, with a character other than 0 or 1, or not a string at
    all is missing, as it is from the dict.
    """

    __slots__ = ("marginal", "outcomes")

    def __init__(self, marg: np.ndarray):
        marg.setflags(write=False)
        self.marginal = marg
        self.outcomes = np.flatnonzero(marg > 0.0)
        self.outcomes.setflags(write=False)

    def __getitem__(self, bits) -> float:
        hash(bits)  # an unhashable key is a TypeError, as in a dict
        width = self.marginal.size.bit_length() - 1
        if isinstance(bits, str) and len(bits) == width and not bits.strip("01"):
            p = self.marginal[int(bits, 2)]
            if p > 0.0:
                return float(p)
        raise KeyError(bits)

    def __iter__(self) -> Iterator[str]:
        return (_bitstring(m, self.marginal) for m in self.outcomes)

    def __len__(self) -> int:
        return self.outcomes.size

    def __repr__(self) -> str:
        return repr(dict(self))


def exact_distribution(
    state: StateVector, qubits: Iterable[int] | None = None
) -> ExactDistribution:
    """Marginal Born probabilities over the given qubits (default: all),
    as a read-only ``ExactDistribution`` on the marginal array.

    Keys are bitstrings with qubits[0] rightmost; zero-probability
    outcomes are omitted.
    """
    return ExactDistribution(_marginal(state.amps, state.num_qubits, qubits))


@dataclass(frozen=True)
class MeasurementCounts:
    """Shot counts per measured bitstring."""

    counts: dict[str, int]
    total_shots: int

    def frequency(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.total_shots


def _sample_tally(
    state: StateVector, shots: int, seed: int, qubits: Iterable[int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """The marginal ``sample_counts`` samples and its tally, the count of
    every outcome, from the same checks: the counts with no bitstring or
    ``MeasurementCounts`` made."""
    check_number("shots", shots)
    check_seed("seed", seed, key=True)
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    marg = _marginal(state.amps, state.num_qubits, qubits)
    return marg, sum(_tally(marg, words) for words in _PHILOX.blocks(seed, shots))


def sample_counts(
    state: StateVector,
    shots: int,
    seed: int,
    qubits: Iterable[int] | None = None,
) -> MeasurementCounts:
    """Draw i.i.d. measurement shots from the exact distribution.

    Shot i is a pure function of (seed, i): the i-th word of the Philox
    stream keyed by ``seed`` selects the outcome whose CDF step its
    uniform (w >> 11) * 2**-53 falls in, so results do not depend on
    evaluation order.  The raw words are read through ``_PHILOX.blocks``
    and each block is counted at the integer limits of the CDF's edges
    (``_tally``) rather than shot by shot; the blocks' counts add up to
    those of the per-shot inverse CDF.  Outcomes appear in increasing
    index order, those with no shot left out.
    """
    marg, tally = _sample_tally(state, shots, seed, qubits)
    counts = {_bitstring(m, marg): int(tally[m]) for m in np.flatnonzero(tally)}
    return MeasurementCounts(counts, shots)


def measure_all(state: StateVector, shots: int, seed: int) -> MeasurementCounts:
    """Measure every qubit ``shots`` times; deterministic given seed."""
    return sample_counts(state, shots, seed, qubits=None)
