"""A circuit refuses a register width that is not an integer in
[1, MAX_QUBITS] when it is built; every backend's ``counts`` refuses the
same shot counts; a QPE seed is a Philox key, below 2**128."""

import numpy as np
import pytest

from qbandit.backends import ExactOracleBackend, IdealBackend, NoisyBackend
from qbandit.qpe import QpeConfig
from qbandit.statevector import Circuit, SimulationError, h, x


@pytest.mark.parametrize("width", [1.5, True, 0, 25])
def test_circuit_refuses_width(width):
    with pytest.raises(SimulationError, match=rf"num_qubits must be in \[1, 24\], got {width}"):
        Circuit(width, ())


def test_circuit_refuses_bool_width_with_gates():
    with pytest.raises(SimulationError, match="num_qubits"):
        Circuit(True, (x(0),))


def test_circuit_accepts_numpy_width():
    circ = Circuit(np.int64(3), (h(2),))
    assert circ.final_state.amps.shape == (8,)


@pytest.mark.parametrize("backend", [IdealBackend(), ExactOracleBackend(), NoisyBackend()], ids=lambda b: b.name)
@pytest.mark.parametrize("shots", [0, -5, True, 2.5])
def test_counts_refuse_shots(backend, shots):
    with pytest.raises(ValueError, match="shots must be"):
        backend.counts(Circuit(2, (h(0),)), shots, 1)


def test_qpe_seed_is_a_philox_key():
    assert QpeConfig(n=3, seed=2**128 - 1).seed == 2**128 - 1
    with pytest.raises(ValueError, match="seed must be below 2"):
        QpeConfig(n=3, seed=2**128)
    with pytest.raises(ValueError, match="seed must be below 2"):
        QpeConfig(n=3, backend="noisy", seed=2**128)
