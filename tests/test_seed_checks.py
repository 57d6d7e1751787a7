"""Seeds and shot counts must be integers; the error names the argument."""

import numpy as np
import pytest

from qbandit.noise import NoiseConfig, noisy_counts, run_trajectory
from qbandit.statevector import Circuit, derive_seed, h, new_state, sample_counts

CIRC = Circuit(1, (h(0),))


@pytest.mark.parametrize("part", [1.5, 1.0, True, "1", None])
def test_derive_seed_refuses_non_integer_part(part):
    with pytest.raises(ValueError, match="seed part 1"):
        derive_seed(0, part)


def test_derive_seed_accepts_numpy_integers():
    assert derive_seed(np.int64(3), np.uint32(2)) == derive_seed(3, 2)


CASES = {
    "noisy_counts-float-shots": (lambda: noisy_counts(CIRC, 2.0, NoiseConfig(), 0), "shots"),
    "noisy_counts-bool-shots": (lambda: noisy_counts(CIRC, True, NoiseConfig(), 0), "shots"),
    "noisy_counts-float-seed": (lambda: noisy_counts(CIRC, 2, NoiseConfig(), 1.5), "seed"),
    "noisy_counts-bool-seed": (lambda: noisy_counts(CIRC, 2, NoiseConfig(), True), "seed"),
    "run_trajectory-float-seed": (lambda: run_trajectory(CIRC, NoiseConfig(), 1.5), "seed"),
    "run_trajectory-bool-seed": (lambda: run_trajectory(CIRC, NoiseConfig(), False), "seed"),
    "sample_counts-float-shots": (lambda: sample_counts(new_state(1), 2.0, 0), "shots"),
    "sample_counts-float-seed": (lambda: sample_counts(new_state(1), 2, 1.5), "seed"),
    "sample_counts-bool-seed": (lambda: sample_counts(new_state(1), 2, True), "seed"),
}


@pytest.mark.parametrize("call, field", CASES.values(), ids=CASES.keys())
def test_non_integer_seed_or_shots_named(call, field):
    with pytest.raises(ValueError, match=field):
        call()


def test_numpy_integer_seed_and_shots_accepted():
    assert noisy_counts(CIRC, np.int64(5), NoiseConfig(), np.int32(2)).total_shots == 5
    assert sample_counts(new_state(1), np.int64(5), np.uint8(2)).counts == {"0": 5}
