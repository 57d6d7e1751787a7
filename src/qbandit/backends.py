"""Execution backends: ideal sampling, exact oracle, and noisy trajectories.

All three expose the same surface:

* ``counts(circuit, shots, seed, qubits)`` — integer shot counts.
* ``frequency(circuit, qubit, shots, seed)`` — P(qubit = 1) estimate.
* ``exact_probabilities(circuit, qubits)`` — closed-form distribution,
  or None when the backend cannot provide one (noisy).

``IdealBackend`` implements all three once, always sampling, as hardware
would.  The other two subclass it and override two methods each.  The
exact oracle never samples: ``counts`` apportions the exact distribution
to ``shots`` by largest remainder and ``frequency`` is the exact Born
probability; it exists for tests and shot-free baselines.  The noisy
backend's ``counts`` runs Pauli trajectories, and it has no
``exact_probabilities``.

The ideal and oracle backends read a circuit's state from
``Circuit.final_state``, so each circuit object is simulated once.  Its
read-only amplitudes serve every later ``counts``,
``exact_probabilities`` and ``frequency`` call on that object, and go
when the circuit goes; the backends themselves hold no state.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

from .noise import NoiseConfig, noisy_counts
from .statevector import (
    Circuit,
    MeasurementCounts,
    exact_distribution,
    sample_counts,
)


_Key = TypeVar("_Key", str, int)


def apportion(probabilities: dict[_Key, float], shots: int) -> dict[_Key, int]:
    """Largest-remainder rounding of ``probabilities * shots`` to integers
    that sum exactly to ``shots``; deterministic (ties break on key, so
    keys must be mutually comparable: bitstrings or integers)."""
    items = sorted(probabilities.items())
    raw = [(key, p * shots) for key, p in items]
    counts = {key: int(v) for key, v in raw}
    leftover = shots - sum(counts.values())
    remainders = sorted(raw, key=lambda kv: (-(kv[1] - int(kv[1])), kv[0]))
    for key, _ in remainders[:leftover]:
        counts[key] += 1
    return {key: c for key, c in counts.items() if c > 0}


class IdealBackend:
    """Noise-free simulation with seeded measurement sampling."""

    name = "ideal"

    def counts(
        self,
        circ: Circuit,
        shots: int,
        seed: int,
        qubits: Iterable[int] | None = None,
    ) -> MeasurementCounts:
        return sample_counts(circ.final_state, shots, seed, qubits)

    def exact_probabilities(
        self, circ: Circuit, qubits: Iterable[int] | None = None
    ) -> dict[str, float] | None:
        return exact_distribution(circ.final_state, qubits)

    def frequency(self, circ: Circuit, qubit: int, shots: int, seed: int) -> float:
        return self.counts(circ, shots, seed, qubits=(qubit,)).frequency("1")


class ExactOracleBackend(IdealBackend):
    """Shot-free oracle: exact Born probabilities instead of sampling."""

    name = "exact-oracle"

    def counts(
        self,
        circ: Circuit,
        shots: int,
        seed: int,
        qubits: Iterable[int] | None = None,
    ) -> MeasurementCounts:
        probs = self.exact_probabilities(circ, qubits)
        return MeasurementCounts(apportion(probs, shots), shots)

    def frequency(self, circ: Circuit, qubit: int, shots: int, seed: int) -> float:
        return self.exact_probabilities(circ, qubits=(qubit,)).get("1", 0.0)


class NoisyBackend(IdealBackend):
    """Pauli-trajectory noise plus readout flips around the ideal simulator."""

    name = "noisy"

    def __init__(self, noise: NoiseConfig | None = None):
        check_backend(self.name, noise)
        self.noise = noise or NoiseConfig()

    def counts(
        self,
        circ: Circuit,
        shots: int,
        seed: int,
        qubits: Iterable[int] | None = None,
    ) -> MeasurementCounts:
        qs = None if qubits is None else tuple(qubits)
        return noisy_counts(circ, shots, self.noise, seed, qs)

    def exact_probabilities(
        self, circ: Circuit, qubits: Iterable[int] | None = None
    ) -> dict[str, float] | None:
        return None


Backend = IdealBackend | ExactOracleBackend | NoisyBackend

BACKENDS = {
    "ideal": lambda noise: IdealBackend(),
    "noisy": NoisyBackend,
    "exact": lambda noise: ExactOracleBackend(),
    "exact-oracle": lambda noise: ExactOracleBackend(),
}


def check_backend(name: str, noise: NoiseConfig | None = None) -> None:
    """Raise ValueError unless ``name`` is a key of ``BACKENDS`` and
    ``noise`` is a NoiseConfig or None; the message names the field."""
    if not isinstance(name, str) or name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}")
    if noise is not None and not isinstance(noise, NoiseConfig):
        raise ValueError(f"noise must be a NoiseConfig or None, got {noise!r}")


def get_backend(name: str, noise: NoiseConfig | None = None) -> Backend:
    check_backend(name, noise)
    return BACKENDS[name](noise)
