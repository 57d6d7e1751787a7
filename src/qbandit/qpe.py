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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backends import Backend, ExactOracleBackend, apportion, check_backend, get_backend
from .bandit import ACTION_QUBIT, REWARD_QUBIT, BanditParams, PolicySpec
from .bandit import build_environment_circuit, build_policy_circuit
from .noise import NoiseConfig
from .statevector import (
    Circuit,
    Gate,
    check_number,
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
    """
    if not 1 <= n <= MAX_EVAL_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_EVAL_QUBITS}], got {n}")
    register = eval_qubits(n)
    gates: list[Gate] = []
    gates.extend(q_op.state_prep.gates)
    gates.extend(h(q) for q in register)
    for k, control in enumerate(register):
        controlled_q = q_op.controlled_gates(control)
        for _ in range(2**k):
            gates.extend(controlled_q)
    gates.extend(inverse_qft_gates(register))
    return Circuit(n + 2, tuple(gates))


def outcome_to_value(y: int, n: int) -> float:
    """Estimate encoded by register outcome y: sin^2(pi * y / 2^n)."""
    if not 0 <= y < 2**n:
        raise ValueError(f"outcome {y} outside [0, {2**n})")
    return math.sin(math.pi * y / 2**n) ** 2


def fold_outcome(y: int, n: int) -> int:
    """Canonical representative of the aliased pair {y, 2^n - y}."""
    return min(y, 2**n - y)


def value_grid(n: int) -> list[float]:
    """The 2^(n-1) + 1 distinct estimates reachable with an n-qubit
    evaluation register, sorted ascending."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [outcome_to_value(y, n) for y in range(2 ** (n - 1) + 1)]


def error_bound(n: int, a: float) -> float:
    """Estimation-error radius that holds with probability >= 8/pi^2:
    2*pi*sqrt(a(1-a))/2^n + pi^2/2^(2n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must be in [0, 1], got {a}")
    m = 2**n
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / m + math.pi**2 / m**2


def qsample_count(n: int) -> int:
    """Environment-circuit applications in one run: one initial A plus an
    A and an Adj(A) inside each of the 2^n - 1 Grover applications."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2 * (2**n - 1) + 1


@dataclass(frozen=True)
class QpeConfig:
    n: int
    shots: int = 300
    backend: str = "ideal"
    noise: NoiseConfig | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "shots"):
            check_number(name, getattr(self, name))
        check_seed("seed", self.seed)
        check_backend(self.backend, self.noise)
        if not 1 <= self.n <= MAX_EVAL_QUBITS:
            raise ValueError(f"n must be in [1, {MAX_EVAL_QUBITS}], got {self.n}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True)
class ValueHistogram:
    """Shot counts over the folded estimate grid, plus the exact
    distribution when the backend can supply one."""

    n: int
    total_shots: int
    counts: dict[int, int]
    exact: dict[int, float] | None
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
    for bits, weight in outcomes.items():
        y = fold_outcome(int(bits, 2), n)
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
    """
    if backend is None:
        backend = get_backend(config.backend, config.noise)
    prep = build_state_prep(policy, params)
    q_op = build_grover_operator(prep)
    circ = build_qpe_circuit(q_op, config.n)
    register = eval_qubits(config.n)

    exact = backend.exact_probabilities(circ, qubits=register)
    if exact is not None:
        exact = _fold(exact, config.n)
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
) -> dict[int, float]:
    """Closed-path helper: exact folded distribution over register
    outcomes for the ideal circuit (no sampling)."""
    return run_qpe(policy, params, QpeConfig(n=n), ExactOracleBackend()).exact
