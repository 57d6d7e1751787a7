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
QFT, below.  The marginal and the sampler take a batch too, one state
and one uniform per column.

The ideal paths (``apply_circuit``, ``Circuit.final_state`` and
``circuit_unitary``) run a circuit's step plan, ``Circuit.steps``, made
once per circuit object from the structure its builder declares.  A
circuit given as a flat gate list runs gate by gate, with the same bits
as a gate-by-gate loop.  A builder that knows its structure, as phase
estimation does, gives the circuit its runs, ``(segment, copies)``
pairs.  A run of two or more copies of a segment on at most three
qubits, such as the 2^k copies of a controlled Grover operator, is one
kernel call with the segment's matrix raised to the number of copies by
repeated squaring.  Segments with the same local matrix under different
qubits share it, built once, and one chain of its squarings: the 2^k-th
power is the k-th squaring, the product ``np.linalg.matrix_power``
makes.  A segment built as an ``_InverseQft``, as phase estimation builds
its inverse QFT, runs as one orthonormal FFT along the register's axis
of the amplitudes (``_Fourier``).  Every other gate is its own step, with
its own matrix.  Noisy trajectories read a run's power from the same
local products (``_local``), for single-copy runs too, and move each
erring shot's errors to the run's start (``noise._apply_run_errors``).

Every random stream is Philox (Salmon et al., SC'11) keyed by a seed,
and its words are addressed by index.  ``_PHILOX`` holds one bit
generator per thread and, for each read, sets its key and the counter of
the first word, which gives the words a new ``np.random.Philox`` with
that key would give from that index without building one.  The ideal
sampler, the synthesized dataset and the Monte Carlo baseline hold at
most ``_BLOCK_WORDS`` words of a stream at once: they read their
uniforms through ``_PHILOX.blocks``, and the sampler counts each block
at the CDF's edges, so its memory is O(block + outcomes), not O(shots).
Noisy trajectories read one stream per call too, its raw words in
blocks of whole shots (``noise._draws``).

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


def derive_seed(*parts: int) -> int:
    """Deterministically derive a child seed from integer components.

    Used to give every (iteration, arm) evaluation and every noisy call
    its own reproducible random stream.
    """
    for i, part in enumerate(parts):
        check_seed(f"seed part {i}", part)
    seq = np.random.SeedSequence([int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


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

    def uniforms(self, key: int, count: int, start: int = 0) -> np.ndarray:
        """Uniforms ``start`` to ``start + count - 1`` of ``key``'s stream,
        as numpy's ``Generator.random`` draws them from a new Philox with
        that key: word w is ``(w >> 11) * 2**-53``.  The only decode of
        words to uniforms outside ``noise``."""
        return (self.raw(key, start)(count) >> 11) * 2.0**-53

    def blocks(self, key: int, count: int, start: int = 0) -> Iterator[np.ndarray]:
        """``uniforms(key, count, start)`` in consecutive blocks of at most
        ``_BLOCK_WORDS``.  Each block is read afresh, so the blocks of two
        streams may be interleaved on one thread."""
        for first in range(start, start + count, _BLOCK_WORDS):
            yield self.uniforms(key, min(_BLOCK_WORDS, start + count - first), first)


_PHILOX = _Philox()

# A block of raw words holds at most this many (512 KB of uint64), so a
# sampler's memory does not grow with the stream it reads.  Every reader
# of uniforms takes them in blocks of this size (``_Philox.blocks``); the
# noisy draws read as many whole shots' words in one block as fit, or
# one shot if that is longer.
_BLOCK_WORDS = 2**16


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
    def steps(self) -> tuple[Gate | _Step | _Fourier, ...]:
        """The kernel calls that simulate this circuit, planned on first
        use: ``gates`` itself when nothing folds, as for every circuit
        given by ``gates``.

        A circuit given by runs takes its plan from them, with no scan:
        each run of two or more copies of a segment on at most
        ``_FOLD_QUBITS`` qubits is one step, its ``_Local`` U raised to the
        copies, an ``_InverseQft`` segment of two or more qubits is one FFT
        step per copy, and every other run's gates are their own steps.
        Runs whose segments have the same local matrix share it and one
        chain of its squarings."""
        if self.runs is None:
            return self.gates
        steps: list[Gate | _Step | _Fourier] = []
        cache: dict[tuple, tuple] = {}
        for segment, copies in self.runs:
            if isinstance(segment, _InverseQft) and segment.fourier:
                steps += [segment.fourier] * copies
            elif copies == 1 or (local := _local(segment, cache)) is None:
                steps += segment * copies
            else:
                steps.append(local.step(copies))
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
) -> None:
    """The one amplitude update, ``matrix @ block``: ``matrix`` on
    ``targets`` wherever every control is 1, written in place into
    ``amps``, which is one state ``(2**n,)`` or a batch ``(2**n, B)`` with
    one state per column."""
    rows = _gate_rows(num_qubits, targets, controls)
    if amps.ndim == 1:
        amps[rows] = matrix @ amps[rows]
    else:
        # One product for every column.  A single state skips these
        # reshapes, which would add about a fifth to each of its calls.
        block = amps[rows]
        amps[rows] = (matrix @ block.reshape(len(rows), -1)).reshape(block.shape)


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
    ``fourier``.  The builder vouches that the gates are that transform.
    A register narrower than 2 qubits gets no step (``fourier`` is None),
    since its transform is one Hadamard.  Anywhere else, in a flat gate
    list or sliced or joined into a plain tuple, the gates run one by
    one."""

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
    amps: np.ndarray, num_qubits: int, qubits: Iterable[int] | None = None
) -> np.ndarray:
    """Born probabilities of ``amps`` marginalized onto ``qubits`` (default:
    all); outcome m has bit j equal to the measured value of qubits[j].
    For a batch ``(2**n, B)`` of states, column c of the result is the
    marginal of column c.  Every readout path comes through here to have
    its subset checked."""
    qs = _subset(num_qubits, qubits)
    probs = np.abs(amps) ** 2
    out = _outcomes(num_qubits, qs)
    if amps.ndim == 1:
        return np.bincount(out, weights=probs, minlength=2 ** len(qs))
    # Column c of outcome m is bin m * B + c.  bincount adds each bin's
    # terms in index order, so every column sums as it would alone.
    cols = amps.shape[1]
    out = (out[:, None] * cols + np.arange(cols)).ravel()
    marg = np.bincount(out, weights=probs.ravel(), minlength=2 ** len(qs) * cols)
    return marg.reshape(-1, cols)


def _draw(marg: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling: the outcome index each uniform in [0, 1)
    selects.  One marginal ``(outcomes,)`` takes any number of uniforms; a
    batch ``(outcomes, B)`` of marginals takes one uniform per column."""
    cdf = np.cumsum(marg, axis=0)
    cdf[-1] = 1.0
    # searchsorted(side="right")'s answer: the CDF values at or below the uniform.
    # Only the last can break the order, and it is 1.0, above every uniform.
    return (cdf.reshape(len(cdf), -1) <= uniforms).sum(axis=0)


# Up to this many CDF edges, one pass over the uniforms per edge beats
# sorting them.  On a 2-vCPU x86 VM a pass took about 3 µs and the sort
# 36 µs at 8,000 uniforms, and 1.2 µs and 3 µs at 300.
_EDGE_PASSES = 4


def _tally(marg: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """counts[k]: how many of ``uniforms`` select outcome k of ``marg``,
    the outcome ``_draw`` gives each one.

    Outcome <= k exactly when u < cdf[k], so counts[k] = below[k] -
    below[k - 1], with below[k] the uniforms under edge k.  Only the
    edges are counted, never a per-shot outcome, so memory is
    O(uniforms + outcomes).  The last edge is 1.0, above every uniform;
    an earlier one that rounds above 1.0 is above every uniform too.
    """
    edges = np.cumsum(marg)[:-1]
    if len(edges) <= _EDGE_PASSES:
        below = [np.count_nonzero(uniforms < edge) for edge in edges]
    else:
        below = np.searchsorted(np.sort(uniforms), edges)  # strictly below
    below = np.concatenate(([0], below, [len(uniforms)]))
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


def sample_counts(
    state: StateVector,
    shots: int,
    seed: int,
    qubits: Iterable[int] | None = None,
) -> MeasurementCounts:
    """Draw i.i.d. measurement shots from the exact distribution.

    Shot i is a pure function of (seed, i): the i-th uniform of the
    Philox stream keyed by ``seed`` selects the outcome whose CDF step it
    falls in, so results do not depend on evaluation order.  The shots
    are counted at the CDF's edges (``_tally``) rather than one by one,
    in the blocks of ``_PHILOX.blocks``, whose counts add up; the counts
    are those of the per-shot inverse CDF.  Outcomes appear in
    increasing index order, those with no shot left out.
    """
    check_number("shots", shots)
    check_seed("seed", seed, key=True)
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    marg = _marginal(state.amps, state.num_qubits, qubits)
    tally = sum(_tally(marg, uniforms) for uniforms in _PHILOX.blocks(seed, shots))
    counts = {_bitstring(m, marg): int(tally[m]) for m in np.flatnonzero(tally)}
    return MeasurementCounts(counts, shots)


def measure_all(state: StateVector, shots: int, seed: int) -> MeasurementCounts:
    """Measure every qubit ``shots`` times; deterministic given seed."""
    return sample_counts(state, shots, seed, qubits=None)
