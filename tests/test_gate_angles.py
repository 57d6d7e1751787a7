"""Gate angles must be finite floats: NaN, infinities and integers too
large for a float are refused at construction with a ``SimulationError``
that names the gate kind and the value, before any matrix is built."""

import math

import numpy as np
import pytest

from qbandit.backends import ExactOracleBackend, IdealBackend
from qbandit.statevector import Gate, SimulationError, circuit, phase, ry

BAD = [math.nan, math.inf, -math.inf, np.float64("nan"), 10**400, -(10**400)]
IDS = ["nan", "inf", "-inf", "numpy-nan", "10**400", "-10**400"]


def shown(value) -> str:
    return "nan" if value != value else str(value)


@pytest.mark.parametrize("value", BAD, ids=IDS)
@pytest.mark.parametrize("kind, make", [("RY", ry), ("PHASE", phase)])
def test_the_gate_helpers_refuse_a_non_finite_angle(kind, make, value):
    with pytest.raises(SimulationError, match=f"^{kind} gate angle must convert to a finite float, got {shown(value)}$"):
        make(value, 0)


@pytest.mark.parametrize("value", BAD, ids=IDS)
@pytest.mark.parametrize("kind", ["RY", "PHASE"])
def test_a_gate_built_directly_refuses_a_non_finite_angle(kind, value):
    with pytest.raises(SimulationError, match=f"^{kind} gate angle must convert to a finite float"):
        Gate(kind, (0,), params=(value,))


def test_an_integer_past_str_is_named_by_its_size():
    with pytest.raises(SimulationError, match="an integer of 16610 bits"):
        ry(10**5000, 0)


def test_a_refused_angle_never_reaches_a_sampler():
    # A NaN matrix once sampled as {'1': 100} where the exact readout was {}.
    with pytest.raises(SimulationError, match="RY gate angle"):
        circuit(1, [ry(math.nan, 0)])
    assert IdealBackend().frequency(circuit(1, [ry(math.pi, 0)]), 0, 100, 1) == 1.0
    assert ExactOracleBackend().frequency(circuit(1, [ry(0.0, 0)]), 0, 100, 1) == 0.0


@pytest.mark.parametrize(
    "kind, params", [("X", (math.nan,)), ("RY", ()), ("RY", (0.1, 0.2)), ("PHASE", ("a",))]
)
def test_the_params_count_and_type_messages_stay(kind, params):
    with pytest.raises(SimulationError, match=f"{kind} gate cannot take params"):
        Gate(kind, (0,), params=params)


def test_finite_angles_still_build_their_matrices():
    assert ry(10**300, 0).params == (1e300,)
    assert np.array_equal(Gate("RY", (0,), params=(1,)).matrix, ry(1.0, 0).matrix)
    assert phase(np.float64(0.5), 0) == phase(0.5, 0)
