"""Dense state-vector simulation of small gate-based quantum circuits.

Conventions used throughout the package:

* Qubit 0 is the least-significant bit of the basis-state index, so the
  basis state with qubit 0 = a and qubit 1 = b has index a + 2*b.
* Bitstrings render the basis index in binary, i.e. the rightmost
  character is qubit 0.
* For multi-target gates, ``targets[0]`` is the least-significant bit of
  the gate-matrix index.

Each gate resolves its matrix once, when it is constructed, and every
gate (ideal circuits, noisy trajectories and ``circuit_unitary``) goes
through one kernel, ``_apply_matrix``, which takes one state or a batch
of states held as columns.  The marginal and the sampler take a batch
too, one state and one uniform per column.

Every random stream is Philox (Salmon et al., SC'11) keyed by a seed.
``_PHILOX`` holds one bit generator per thread and re-keys it for each
stream, which gives the words a new ``np.random.Philox`` with that key
would give without building one.

All operations are pure: they take a state in and return a new one.
A circuit object simulates itself from |0...0> at most once, on first
use of ``Circuit.final_state``, and every caller shares that read-only
state.
"""

from __future__ import annotations

import functools
import numbers
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

MAX_QUBITS = 24

_SQ2 = 1.0 / np.sqrt(2.0)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


# kind -> the gate's matrix, built from its params; UNITARY takes its
# matrix from the payload instead.
_MATRICES = {
    "X": lambda: _X,
    "RY": _ry,
    "H": lambda: _H,
    "PHASE": lambda phi: np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=complex),
    "Z": lambda: _Z,
    "SWAP": lambda: _SWAP,
}


def derive_seed(*parts: int) -> int:
    """Deterministically derive a child seed from integer components.

    Used to give every (iteration, arm) evaluation and every noise
    trajectory its own reproducible random stream.
    """
    for i, part in enumerate(parts):
        check_seed(f"seed part {i}", part)
    return _derive_seed(*parts)


def _derive_seed(*parts: int) -> int:
    """``derive_seed`` for parts the caller has already checked."""
    seq = np.random.SeedSequence([int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


class SimulationError(ValueError):
    """Raised for invalid circuits, gates, or simulator inputs."""


def check_number(name: str, value, kind: type = numbers.Integral) -> None:
    """Raise ValueError unless ``value`` is a ``kind`` (numbers.Integral or
    numbers.Real).  Bools are refused; numpy scalars are accepted."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {kind.__name__.lower()}, got {value!r}")


def check_seed(name: str, value, key: bool = False) -> None:
    """Raise ValueError unless ``value`` is a non-negative integer, as
    ``check_number`` reads one.  A ``key``, used as a Philox key itself
    rather than hashed into one, must also be below 2**128."""
    check_number(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    if key and value >= 2**128:
        raise ValueError(f"{name} must be below 2**128, got {value}")


class _Philox(threading.local):
    """Philox streams by key, from one bit generator per thread.

    Re-keying it starts the stream a new ``np.random.Philox`` with that
    key would, at about a fifth of the cost: that constructor first
    gathers OS entropy for a seed that the key then replaces.  Each
    thread has its own generator, so streams on different threads cannot
    interleave."""

    # Any fixed seed will do, since every stream is re-keyed before use;
    # a prebuilt one spares the constructor the OS entropy as well.
    _SEED = np.random.SeedSequence(0)

    def __init__(self):
        self._bitgen = np.random.Philox(self._SEED)
        self._start = self._bitgen.state  # counter 0, nothing buffered

    def raw(self, key: int) -> Callable[[int], np.ndarray]:
        """``random_raw`` of ``key``'s stream, good on this thread until
        the next call."""
        high, low = divmod(int(key), 2**64)
        self._start["state"]["key"] = np.array([low, high], dtype=np.uint64)
        self._bitgen.state = self._start
        return self._bitgen.random_raw

    def uniforms(self, key: int, count: int) -> np.ndarray:
        """The first ``count`` uniforms of ``key``'s stream, as numpy's
        ``Generator.random(count)`` draws them from a new Philox with that
        key: word w is ``(w >> 11) * 2**-53``."""
        return (self.raw(key)(count) >> 11) * 2.0**-53


_PHILOX = _Philox()


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
        if set(self.targets) & set(self.controls):
            raise SimulationError(
                f"targets {self.targets} and controls {self.controls} overlap"
            )
        if len(set(self.targets)) != len(self.targets):
            raise SimulationError(f"duplicate target qubits: {self.targets}")
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
            if err > 1e-12:
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
        """Same gate with additional control qubits."""
        return replace(self, controls=self.controls + tuple(extra_controls))


def x(target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("X", (target,), tuple(controls))


def ry(theta: float, target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("RY", (target,), tuple(controls), (float(theta),))


def h(target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("H", (target,), tuple(controls))


def phase(phi: float, target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("PHASE", (target,), tuple(controls), (float(phi),))


def z(target: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("Z", (target,), tuple(controls))


def swap(a: int, b: int, *, controls: Iterable[int] = ()) -> Gate:
    return Gate("SWAP", (a, b), tuple(controls))


def unitary(matrix: np.ndarray, targets: Iterable[int], *, controls: Iterable[int] = ()) -> Gate:
    return Gate("UNITARY", tuple(targets), tuple(controls), payload=matrix)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a fixed-width qubit register."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for gate in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in gate.qubits):
                raise SimulationError(
                    f"gate {gate.kind} on qubits {gate.qubits} exceeds "
                    f"register width {self.num_qubits}"
                )

    def __len__(self) -> int:
        return len(self.gates)

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

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def new_state(num_qubits: int) -> StateVector:
    """The all-zeros state |0...0> on ``num_qubits`` qubits."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise SimulationError(
            f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
        )
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
        offset = sum(((b >> j) & 1) << t for j, t in enumerate(targets))
        rows[b] = base + offset
    rows.setflags(write=False)
    return rows


def _apply_matrix(
    amps: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    targets: tuple[int, ...],
    controls: tuple[int, ...],
) -> None:
    """The one amplitude update: ``matrix`` on ``targets`` wherever every
    control is 1, written in place into ``amps``, which is one state
    ``(2**n,)`` or a batch ``(2**n, B)`` with one state per column."""
    rows = _gate_rows(num_qubits, targets, controls)
    if amps.ndim == 1:
        amps[rows] = matrix @ amps[rows]
    else:
        # One product for every column.  A single state skips these
        # reshapes, which would add about a fifth to each of its calls.
        block = amps[rows]
        amps[rows] = (matrix @ block.reshape(len(rows), -1)).reshape(block.shape)


def apply_circuit(state: StateVector, circ: Circuit) -> StateVector:
    """Apply every gate of ``circ`` in order; returns a new state."""
    if circ.num_qubits != state.num_qubits:
        raise SimulationError(
            f"circuit on {circ.num_qubits} qubits cannot act on a "
            f"{state.num_qubits}-qubit state"
        )
    return StateVector(state.num_qubits, _apply_gates(state.amps.copy(), circ))


def _apply_gates(amps: np.ndarray, circ: Circuit) -> np.ndarray:
    """Every gate of ``circ`` in order, in place on one state or a batch."""
    for gate in circ.gates:
        _apply_matrix(amps, circ.num_qubits, gate.matrix, gate.targets, gate.controls)
    return amps


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit: column j is the circuit applied
    to basis state j, all columns in one batched pass.

    Intended for verification on small registers; O(4^n * gates).
    """
    return _apply_gates(np.eye(2**circ.num_qubits, dtype=complex), circ)


def _subset(num_qubits: int, qubits: Iterable[int] | None) -> tuple[int, ...]:
    """The measured qubits (default: all), checked: non-empty, distinct
    and within the register."""
    qs = tuple(range(num_qubits)) if qubits is None else tuple(qubits)
    if not qs or len(set(qs)) != len(qs) or not all(0 <= q < num_qubits for q in qs):
        raise SimulationError(
            f"qubit subset {qs} must be non-empty, distinct and within the {num_qubits}-qubit register"
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


def exact_distribution(
    state: StateVector, qubits: Iterable[int] | None = None
) -> dict[str, float]:
    """Marginal Born probabilities over the given qubits (default: all).

    Keys are bitstrings with qubits[0] rightmost; zero-probability
    outcomes are omitted.
    """
    marg = _marginal(state.amps, state.num_qubits, qubits)
    return {_bitstring(m, marg): float(p) for m, p in enumerate(marg) if p > 0.0}


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
    are counted at the CDF's edges (``_tally``) rather than one by one;
    the counts are those of the per-shot inverse CDF.  Outcomes appear in
    increasing index order, those with no shot left out.
    """
    check_number("shots", shots)
    check_seed("seed", seed, key=True)
    if shots < 1:
        raise SimulationError(f"shots must be >= 1, got {shots}")
    marg = _marginal(state.amps, state.num_qubits, qubits)
    tally = _tally(marg, _PHILOX.uniforms(seed, shots))
    counts = {_bitstring(m, marg): int(tally[m]) for m in np.flatnonzero(tally)}
    return MeasurementCounts(counts, shots)


def measure_all(state: StateVector, shots: int, seed: int) -> MeasurementCounts:
    """Measure every qubit ``shots`` times; deterministic given seed."""
    return sample_counts(state, shots, seed, qubits=None)
