"""Execution backends: ideal sampling, exact oracle, and noisy trajectories.

All three expose the same surface:

* ``counts(circuit, shots, seed, qubits)`` — integer shot counts, a
  ``MeasurementCounts`` whose ``counts`` is an ``OutcomeMap`` on the
  integer tally of every outcome.
* ``frequency(circuit, qubit, shots, seed)`` — P(qubit = 1) estimate.
* ``exact_probabilities(circuit, qubits)`` — closed-form distribution,
  an ``OutcomeMap`` on the marginal array, or None when the backend
  cannot provide one (noisy).

Outcomes stay integers here: every ``frequency`` reads outcome 1 of a
one-qubit tally or marginal by index, and the ``OutcomeMap`` renders
bitstring keys only if a caller iterates it.

Each backend class's ``max_shots`` is the most shots its ``counts``
takes, the one constant that ``counts`` checks: None for the ideal
sampler, ``MAX_APPORTION_SHOTS`` (2**53) for the exact oracle, whose
``counts`` apportions, and ``noise.MAX_NOISY_SHOTS`` (2**32) for the
noisy backend.  ``QpeConfig``, and ``qbandit train`` per evaluation,
refuse more shots than their backend's.

``IdealBackend`` implements all three once, always sampling, as hardware
would; its ``frequency`` reads outcome 1 off the sampler's tally of the
one-qubit marginal, the counts ``counts`` would give, with no
``MeasurementCounts`` built.  The other two subclass it.  The exact
oracle overrides ``counts`` and ``frequency`` and never samples:
``counts`` apportions the exact distribution to ``shots`` by largest
remainder, over integer outcomes, and ``frequency`` is the exact Born
probability of outcome 1, yet both refuse the shots and seeds the
sampler refuses; it exists for tests and shot-free baselines.  The
noisy backend overrides all three: its ``counts`` runs Pauli
trajectories, its ``frequency`` reads outcome 1 of those noisy counts'
tally, and it has no ``exact_probabilities``.

The ideal and oracle backends read a circuit's state from
``Circuit.final_state``, so each circuit object is simulated once.  Its
read-only amplitudes serve every later ``counts``,
``exact_probabilities`` and ``frequency`` call on that object, and go
when the circuit goes; the backends themselves hold no state.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

import numpy as np

from .noise import MAX_NOISY_SHOTS, NoiseConfig, noisy_counts
from .statevector import (
    Circuit,
    MeasurementCounts,
    OutcomeMap,
    _sample_tally,
    check_number,
    check_seed,
    exact_distribution,
    sample_counts,
)


_Key = TypeVar("_Key", str, int)

# The most shots ``apportion`` takes: past 2**53 a float product
# p * shots no longer holds every integer.
MAX_APPORTION_SHOTS = 2**53


def apportion(probabilities: dict[_Key, float], shots: int) -> dict[_Key, int]:
    """Largest-remainder rounding of ``probabilities * shots`` to integers
    that sum exactly to ``shots``; deterministic (ties break on key, so
    keys must be mutually comparable: bitstrings or integers).  Shots
    above ``MAX_APPORTION_SHOTS`` are refused with a ValueError, and so
    are probabilities too far from summing to 1 for the remainders to
    make up the difference."""
    check_number("shots", shots, low=0, high=MAX_APPORTION_SHOTS)
    items = sorted(probabilities.items())
    raw = [(key, p * shots) for key, p in items]
    counts = {key: int(v) for key, v in raw}
    leftover = shots - sum(counts.values())
    if not 0 <= leftover <= len(raw):
        raise ValueError(f"cannot apportion {shots} shots: probabilities sum to {sum(probabilities.values())!r}")
    remainders = sorted(raw, key=lambda kv: (-(kv[1] - int(kv[1])), kv[0]))
    for key, _ in remainders[:leftover]:
        counts[key] += 1
    return {key: c for key, c in counts.items() if c > 0}


class IdealBackend:
    """Noise-free simulation with seeded measurement sampling."""

    name = "ideal"
    max_shots: int | None = None

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
    ) -> OutcomeMap | None:
        return exact_distribution(circ.final_state, qubits)

    def frequency(self, circ: Circuit, qubit: int, shots: int, seed: int) -> float:
        _, tally = _sample_tally(circ.final_state, shots, seed, (qubit,))
        return int(tally[1]) / shots


class ExactOracleBackend(IdealBackend):
    """Shot-free oracle: exact Born probabilities instead of sampling."""

    name = "exact-oracle"
    max_shots = MAX_APPORTION_SHOTS

    def counts(
        self,
        circ: Circuit,
        shots: int,
        seed: int,
        qubits: Iterable[int] | None = None,
    ) -> MeasurementCounts:
        check_number("shots", shots, low=1)
        check_seed("seed", seed, key=True)
        probs = self.exact_probabilities(circ, qubits)
        ys = probs.outcomes.tolist()
        counts = apportion(dict(zip(ys, probs.array[ys].tolist())), shots)
        tally = np.zeros(probs.array.size, np.int64)
        tally[list(counts)] = list(counts.values())
        return MeasurementCounts(OutcomeMap(tally), shots)

    def frequency(self, circ: Circuit, qubit: int, shots: int, seed: int) -> float:
        check_number("shots", shots, low=1)
        check_seed("seed", seed, key=True)
        return self.exact_probabilities(circ, qubits=(qubit,)).array[1].item()


class NoisyBackend(IdealBackend):
    """Pauli-trajectory noise plus readout flips around the ideal simulator."""

    name = "noisy"
    max_shots = MAX_NOISY_SHOTS

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
        return noisy_counts(circ, shots, self.noise, seed, qubits)

    def frequency(self, circ: Circuit, qubit: int, shots: int, seed: int) -> float:
        return self.counts(circ, shots, seed, qubits=(qubit,)).counts.array[1].item() / shots

    def exact_probabilities(
        self, circ: Circuit, qubits: Iterable[int] | None = None
    ) -> OutcomeMap | None:
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
