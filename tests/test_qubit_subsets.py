"""Every readout path refuses a bad qubit subset, naming the subset."""

import re

import pytest

from qbandit.backends import ExactOracleBackend, IdealBackend, NoisyBackend
from qbandit.noise import NoiseConfig, run_trajectory
from qbandit.statevector import SimulationError, circuit, h, new_state, sample_counts

BELL = circuit(2, [h(0), h(1)])
BAD_SUBSETS = [(5,), (0, 0), (-1,), (), (True,), (1.5,), ("1",), (1.0,)]


def _sample(qs):
    return sample_counts(new_state(2), 10, 0, qubits=qs)


def _ideal_counts(qs):
    return IdealBackend().counts(BELL, 10, 0, qubits=qs)


def _oracle_counts(qs):
    return ExactOracleBackend().counts(BELL, 10, 0, qubits=qs)


def _noisy_counts(qs):
    return NoisyBackend(NoiseConfig()).counts(BELL, 10, 0, qubits=qs)


def _trajectory(qs):
    return run_trajectory(BELL, NoiseConfig(), 0, qubits=qs)


PATHS = [_sample, _ideal_counts, _oracle_counts, _noisy_counts, _trajectory]


@pytest.mark.parametrize("qubits", BAD_SUBSETS, ids=str)
@pytest.mark.parametrize("path", PATHS, ids=lambda f: f.__name__.lstrip("_"))
def test_bad_subset_is_refused(path, qubits):
    with pytest.raises(SimulationError, match=re.escape(str(qubits))):
        path(qubits)


@pytest.mark.parametrize("qubit", [7, -1])
@pytest.mark.parametrize(
    "backend", [IdealBackend(), ExactOracleBackend(), NoisyBackend(NoiseConfig())], ids=lambda b: b.name
)
def test_frequency_refuses_a_qubit_outside_the_register(backend, qubit):
    with pytest.raises(SimulationError, match=re.escape(str((qubit,)))):
        backend.frequency(BELL, qubit, 10, 0)
