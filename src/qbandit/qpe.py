"""Quantum policy evaluation: phase estimation of the Grover operator.

The state-preparation circuit A (policy followed by environment) puts
probability a = policy value on the reward qubit.  Its Grover operator

    Q = -A S0 Adj(A) S_chi

rotates the plane spanned by the good and bad components of A|00> by
2*arcsin(sqrt(a)), so phase estimation with an n-qubit evaluation
register reads an integer y whose folded value sin^2(pi*y/2^n)
approximates a.  The global -1 is implemented as a Phase(pi) on the
control qubit each time Q is applied under control.

Outcomes y and 2^n - y alias the same estimate; histograms fold them
onto y in [0, 2^(n-1)], giving 2^(n-1)+1 distinct grid values.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backends import Backend, ExactOracleBackend, apportion, get_backend
from .bandit import ACTION_QUBIT, REWARD_QUBIT, BanditParams, PolicySpec
from .bandit import build_environment_circuit, build_policy_circuit
from .noise import NoiseConfig
from .statevector import (
    Circuit,
    ExactDistribution,
    Gate,
    _InverseQft,
    check_number,
    check_real,
    check_seed,
    circuit_unitary,
    h,
    inverse_circuit,
    phase,
    swap,
    x,
    z,
)

MAX_EVAL_QUBITS = 12


def _qft_ladder(qubits: Sequence[int]) -> list[Gate]:
    gates = []
    for j in reversed(range(len(qubits))):
        gates.append(h(qubits[j]))
        for m in range(j):
            gates.append(
                phase(math.pi / 2 ** (j - m), qubits[j], controls=[qubits[m]])
            )
    return gates


def _reversal_swaps(qubits: Sequence[int]) -> list[Gate]:
    n = len(qubits)
    return [swap(qubits[i], qubits[n - 1 - i]) for i in range(n // 2)]


def qft_gates(qubits: Sequence[int]) -> list[Gate]:
    """Quantum Fourier transform |y> -> sum_x exp(2*pi*i*x*y/2^n)|x>/sqrt(2^n),
    with qubits[j] holding bit j of the integer."""
    return _qft_ladder(qubits) + _reversal_swaps(qubits)


def inverse_qft_gates(qubits: Sequence[int]) -> list[Gate]:
    """Inverse Fourier transform: the Hadamard/Phase(-pi/2^j) ladder with the
    qubit-reversal swaps at the end."""
    reversed_qubits = list(reversed(qubits))
    ladder = [g.adjoint() for g in reversed(_qft_ladder(reversed_qubits))]
    return ladder + _reversal_swaps(qubits)


def build_state_prep(policy: PolicySpec, params: BanditParams) -> Circuit:
    """Policy then environment on the 2-qubit system register; the
    probability of reward = 1 equals the policy value."""
    return build_policy_circuit(policy).then(build_environment_circuit(params))


@dataclass(frozen=True)
class GroverOperator:
    """Gate-level Q = -A S0 Adj(A) S_chi on the 2-qubit system register.

    ``gates`` is the composed list WITHOUT the global -1; callers that
    need the sign (dense checks, controlled applications) account for
    it explicitly.  The good states are those with the reward qubit 1.
    """

    state_prep: Circuit
    gates: tuple[Gate, ...]

    def circuit(self) -> Circuit:
        return Circuit(self.state_prep.num_qubits, self.gates)

    def dense(self) -> np.ndarray:
        """Matrix of Q including the global -1."""
        return -circuit_unitary(self.circuit())

    def controlled_gates(self, control: int) -> list[Gate]:
        """One application of Q under a control qubit; the global -1
        becomes a Phase(pi) on the control."""
        return [phase(math.pi, control)] + [g.controlled(control) for g in self.gates]


def build_grover_operator(prep: Circuit) -> GroverOperator:
    """Assemble Q from the 2-qubit state-preparation circuit.

    S_chi flips the sign of reward-1 states (Z on the reward qubit);
    S0 flips the sign of |00> (X pair around a controlled Z).
    """
    if prep.num_qubits != 2:
        raise ValueError(
            f"state preparation must act on 2 qubits, got {prep.num_qubits}"
        )
    s_chi = (z(REWARD_QUBIT),)
    s_zero = (
        x(ACTION_QUBIT),
        x(REWARD_QUBIT),
        z(REWARD_QUBIT, controls=[ACTION_QUBIT]),
        x(ACTION_QUBIT),
        x(REWARD_QUBIT),
    )
    gates = s_chi + inverse_circuit(prep).gates + s_zero + prep.gates
    return GroverOperator(state_prep=prep, gates=gates)


def eval_qubits(n: int) -> tuple[int, ...]:
    """Evaluation-register qubits in the (n+2)-qubit QPE circuit; qubit
    2+k carries bit k of the measured integer."""
    return tuple(range(2, 2 + n))


def build_qpe_circuit(q_op: GroverOperator, n: int) -> Circuit:
    """Phase-estimation circuit on n + 2 qubits.

    Hadamards on the evaluation register, then controlled Q^(2^k) from
    evaluation qubit k realized as 2^k repetitions of Q's gate list,
    then the inverse Fourier transform on the evaluation register.

    The circuit declares its structure as runs: the 2^k copies are one
    run of the same gate objects.  The noisy backend draws errors after
    every gate of every copy and applies each controlled Q^(2^k) as one
    8 x 8 power, with an erring shot's errors moved to its start.  The
    ideal simulator's step plan (``Circuit.steps``), read off the runs
    with no scan of the gates, applies each controlled Q^(2^k) as one 8 x
    8 matrix and, for n >= 2, the inverse QFT run, an ``_InverseQft``, as
    one FFT: 26 kernel calls for the 17,466 gates at n = 10.  Both read
    the circuit's one run plan (``Circuit.run_plan``).  Controlled Q has
    the same local matrix under every control, so it is built once, and
    each power is one more squaring of the last.
    The same gates as a flat list run gate by gate.
    """
    check_number("n", n, low=1, high=MAX_EVAL_QUBITS)
    register = eval_qubits(n)
    runs = [((*q_op.state_prep.gates, *(h(q) for q in register)), 1)]
    runs += [(q_op.controlled_gates(control), 2**k) for k, control in enumerate(register)]
    runs.append((_inverse_qft(n), 1))
    return Circuit(n + 2, runs=runs)


@functools.lru_cache(maxsize=MAX_EVAL_QUBITS)
def _inverse_qft(n: int) -> tuple[Gate, ...]:
    """``inverse_qft_gates`` on the n-qubit evaluation register, built
    once: gates are immutable, so every circuit can share them.  It is an
    ``_InverseQft``, so a run of it says what it is, and the ideal step
    plan runs it as one FFT."""
    register = eval_qubits(n)
    return _InverseQft(inverse_qft_gates(register), register)


def outcome_to_value(y: int, n: int) -> float:
    """Estimate encoded by register outcome y: sin^2(pi * y / 2^n), for a
    width n in [1, MAX_EVAL_QUBITS]."""
    check_number("n", n, low=1, high=MAX_EVAL_QUBITS)
    check_number("y", y, low=0, high=2**n - 1)
    return math.sin(math.pi * y / 2**n) ** 2


def fold_outcome(y: int, n: int) -> int:
    """Canonical representative of the aliased pair {y, 2^n - y}, for a
    register outcome y in [0, 2^n - 1] and a width n in [1,
    MAX_EVAL_QUBITS]."""
    check_number("n", n, low=1, high=MAX_EVAL_QUBITS)
    check_number("y", y, low=0, high=2**n - 1)
    return min(y, 2**n - y)


def value_grid(n: int) -> list[float]:
    """The 2^(n-1) + 1 distinct estimates reachable with an n-qubit
    evaluation register, sorted ascending, for n in [1, MAX_EVAL_QUBITS]."""
    check_number("n", n, low=1, high=MAX_EVAL_QUBITS)
    return [outcome_to_value(y, n) for y in range(2 ** (n - 1) + 1)]


def error_bound(n: int, a: float) -> float:
    """Estimation-error radius that holds with probability >= 8/pi^2:
    2*pi*sqrt(a(1-a))*s + pi^2*s^2, s = 2^-n as an exact float (no overflow)."""
    check_number("n", n, low=1)
    check_real("a", a, 0, 1)
    scale = math.ldexp(1.0, -n)
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) * scale + math.pi**2 * scale**2


def qsample_count(n: int) -> int:
    """Environment-circuit applications in one run: one initial A plus an
    A and an Adj(A) inside each of the 2^n - 1 Grover applications.  n
    is refused above 1022, the largest n whose count converts to a finite
    float, before 2**n is built."""
    check_number("n", n, low=1, high=1022)
    return 2 * (2**n - 1) + 1


@dataclass(frozen=True)
class QpeConfig:
    """One ``run_qpe``, checked when it is made: a register width in [1,
    ``MAX_EVAL_QUBITS``], a seed that is a Philox key, a known backend
    with a NoiseConfig or None, and shots from 1 to that backend's
    ``max_shots``, so that ``run_qpe`` on that backend takes its shots."""

    n: int
    shots: int = 300
    backend: str = "ideal"
    noise: NoiseConfig | None = None
    seed: int = 0

    def __post_init__(self):
        check_number("n", self.n, low=1, high=MAX_EVAL_QUBITS)
        check_seed("seed", self.seed, key=True)
        limit = get_backend(self.backend, self.noise).max_shots
        check_number("shots", self.shots, low=1, high=limit)


class FoldedDistribution(Mapping):
    """A run's exact folded distribution: a read-only mapping from grid
    point y to its probability, held as one float64 array over the
    2^(n-1)+1 grid points, about 4 KB at n = 10 where a dict takes 38 KB.

    Built from a backend's exact distribution over the register, read
    from its marginal array with no key rendered: its nonzero outcomes y,
    in increasing order, fold onto min(y, 2^n - y).  Its keys and values
    are ``_fold``'s over the same distribution: the points some outcome
    folds onto, which are the nonzero ones, and each value adds its
    outcomes in the same order, so with the same bits.
    """

    __slots__ = ("_probs",)

    def __init__(self, outcomes: ExactDistribution, n: int):
        ys, weights = outcomes.outcomes, outcomes.marginal[outcomes.outcomes]
        # bincount adds each bin's weights in input order, as ``_fold`` does.
        probs = np.bincount(np.minimum(ys, 2**n - ys), weights, minlength=2 ** (n - 1) + 1)
        probs.setflags(write=False)
        self._probs = probs

    def __getitem__(self, y) -> float:
        if isinstance(y, numbers.Integral) and 0 <= y < self._probs.size and self._probs[y]:
            return float(self._probs[y])
        raise KeyError(y)

    def __iter__(self):
        return iter(np.flatnonzero(self._probs).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._probs))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


@dataclass(frozen=True)
class ValueHistogram:
    """Shot counts over the folded estimate grid, plus the exact
    distribution when the backend can supply one."""

    n: int
    total_shots: int
    counts: dict[int, int]
    exact: Mapping[int, float] | None
    qsamples: int

    def value(self, y: int) -> float:
        return outcome_to_value(y, self.n)

    def mode_value(self) -> float:
        """Estimate with the highest count (exact probability breaks ties)."""
        best = max(
            sorted(self.counts),
            key=lambda y: (self.counts[y], (self.exact or {}).get(y, 0.0)),
        )
        return self.value(best)

    def rows(self) -> list[tuple[int, float, int, float | None]]:
        """(y, v_tilde, count, exact_prob) per folded grid point."""
        out = []
        for y in range(2 ** (self.n - 1) + 1):
            exact = None if self.exact is None else self.exact.get(y, 0.0)
            out.append((y, self.value(y), self.counts.get(y, 0), exact))
        return out


def _fold(outcomes: dict[str, float], n: int) -> dict[int, float]:
    """Sum register outcomes (bitstring keys, counts or probabilities) onto
    their folded grid point y in [0, 2^(n-1)]."""
    folded: dict[int, float] = {}
    size = 2**n
    for bits, weight in outcomes.items():
        y = int(bits, 2)  # an n-bit outcome: fold_outcome's checks hold
        y = min(y, size - y)
        folded[y] = folded.get(y, 0) + weight
    return folded


def run_qpe(
    policy: PolicySpec,
    params: BanditParams,
    config: QpeConfig,
    backend: Backend | None = None,
) -> ValueHistogram:
    """Estimate the policy value by sampling the evaluation register.

    Only the evaluation register is measured; the system qubits are
    marginalized out.  On backends with closed-form output the exact
    folded distribution is recorded alongside the counts.

    ``config`` checked its shots against its own backend's limit, and a
    given ``backend`` may take fewer, so ``config.shots`` is checked
    against ``backend.max_shots`` on entry, before any circuit is built.
    A backend that declares no ``max_shots``, as a wrapper around one
    need not, is left to refuse in its own ``counts``.
    """
    if backend is None:
        backend = get_backend(config.backend, config.noise)
    check_number("shots", config.shots, low=1, high=getattr(backend, "max_shots", None))
    prep = build_state_prep(policy, params)
    q_op = build_grover_operator(prep)
    circ = build_qpe_circuit(q_op, config.n)
    register = eval_qubits(config.n)

    exact = backend.exact_probabilities(circ, qubits=register)
    if exact is not None:
        exact = FoldedDistribution(exact, config.n)
    if isinstance(backend, ExactOracleBackend):
        # Oracle mode: the histogram is the folded exact distribution
        # apportioned to the shot count, no sampling anywhere.  Folding
        # after apportioning the raw outcomes would let a bin drift a
        # count or more from p * shots.
        counts = apportion(exact, config.shots)
    else:
        measured = backend.counts(circ, config.shots, config.seed, qubits=register)
        counts = _fold(measured.counts, config.n)
    return ValueHistogram(
        n=config.n,
        total_shots=config.shots,
        counts=counts,
        exact=exact,
        qsamples=qsample_count(config.n),
    )


def exact_value_distribution(
    policy: PolicySpec, params: BanditParams, n: int
) -> FoldedDistribution:
    """Closed-path helper: exact folded distribution over register
    outcomes for the ideal circuit (no sampling)."""
    return run_qpe(policy, params, QpeConfig(n=n), ExactOracleBackend()).exact
