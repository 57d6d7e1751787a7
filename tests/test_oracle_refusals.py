"""The exact oracle draws no shot, yet refuses the shots and seeds that
the ideal backend's sampler refuses, with the same message."""

import pytest

from qbandit.backends import ExactOracleBackend, IdealBackend
from qbandit.statevector import Circuit, h

BAD = [
    (0, 1),
    (-5, 1),
    (True, 1),
    (2.5, 1),
    (10, -1),
    (10, 2**128),
]
CALLS = {
    "counts": lambda backend, shots, seed: backend.counts(Circuit(1, (h(0),)), shots, seed),
    "frequency": lambda backend, shots, seed: backend.frequency(Circuit(1, (h(0),)), 0, shots, seed),
}


def refusal(call, backend, shots, seed) -> str:
    with pytest.raises(ValueError) as info:
        call(backend, shots, seed)
    return str(info.value)


@pytest.mark.parametrize("shots, seed", BAD)
@pytest.mark.parametrize("method", CALLS)
def test_oracle_refuses_what_the_ideal_backend_refuses(method, shots, seed):
    call = CALLS[method]
    expected = refusal(call, IdealBackend(), shots, seed)
    assert refusal(call, ExactOracleBackend(), shots, seed) == expected


def test_oracle_accepts_the_largest_key_seed():
    oracle, circ = ExactOracleBackend(), Circuit(1, (h(0),))
    assert oracle.counts(circ, 4, 2**128 - 1).counts == {"0": 2, "1": 2}
    assert oracle.frequency(circ, 0, 1, 2**128 - 1) == pytest.approx(0.5)
