"""A training run keeps its evaluation keys: every trace entry's loss
reproduces through ``measured_frequencies`` and ``derive_seed(config.seed,
k)``, and ``shots_per_eval`` is checked against the backend on entry."""

import math

import numpy as np
import pytest

from qbandit import training
from qbandit.backends import ExactOracleBackend, IdealBackend, NoisyBackend
from qbandit.bandit import BanditParams
from qbandit.statevector import derive_seed
from qbandit.training import (
    TrainConfig,
    empirical_frequencies,
    measured_frequencies,
    mse_loss,
    optimize,
    synthesize_dataset,
)

DATA = synthesize_dataset(0.7, 0.2, 2000, seed=4)

BACKENDS = {
    "ideal": (IdealBackend, {"max_iterations": 30}),
    "oracle": (ExactOracleBackend, {"max_iterations": 30}),
    "noisy": (NoisyBackend, {"max_iterations": 12, "shots_per_eval": 40}),
}


def assert_reproduces(result, config, make_backend):
    target = empirical_frequencies(DATA)
    for entry in result.trace:
        meas = measured_frequencies(
            BanditParams(entry.theta_left, entry.theta_right),
            config.shots_per_eval,
            make_backend(),
            derive_seed(config.seed, entry.iteration),
        )
        assert mse_loss(meas, target) == entry.loss


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("optimizer", ["cobyla", "nelder-mead"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**100], ids=["0", "2**64-1", "2**100"])
def test_every_entry_reproduces_from_its_key(seed, optimizer, backend):
    make_backend, fields = BACKENDS[backend]
    config = TrainConfig(seed=seed, optimizer=optimizer, **fields)
    result = optimize(DATA, config, make_backend())
    assert [e.iteration for e in result.trace] == list(range(result.iterations))
    assert_reproduces(result, config, make_backend)


@pytest.mark.parametrize(
    "seed",
    [np.int32(5), np.uint8(5), np.int64(5), np.uint64(5), np.uint64(2**64 - 1)],
    ids=["int32", "uint8", "int64", "uint64", "uint64-max"],
)
def test_numpy_seed_gives_the_python_int_trace(seed):
    """A numpy integer seed or budget keys the same streams as the Python
    int of the same value, and raises no overflow or warning."""
    fields = {"max_iterations": 12, "optimizer": "cobyla"}
    expected = optimize(DATA, TrainConfig(seed=int(seed), **fields), IdealBackend()).trace
    config = TrainConfig(seed=seed, **{**fields, "max_iterations": np.int32(12)})
    assert optimize(DATA, config, IdealBackend()).trace == expected


def test_signed_zeros_keep_their_own_entries():
    config = TrainConfig(initial_theta=(-0.0, 0.0), max_iterations=20, seed=6)
    result = optimize(DATA, config, IdealBackend())
    first = result.trace[0]
    assert math.copysign(1.0, first.theta_left) == -1.0
    assert math.copysign(1.0, first.theta_right) == 1.0
    assert_reproduces(result, config, IdealBackend)


class _Built(Exception):
    pass


@pytest.fixture
def no_circuits(monkeypatch):
    """``_arm_circuits`` and the key derivation, patched to fail, so a
    refusal is seen to come before either."""

    def fail(*args):
        raise _Built

    monkeypatch.setattr(training, "_arm_circuits", fail)
    monkeypatch.setattr(training, "_evaluation_keys", fail)


@pytest.mark.parametrize(
    "backend, shots",
    [(ExactOracleBackend, 2**53 + 1), (NoisyBackend, 2**32 + 1)],
)
def test_shots_past_the_backend_limit_refused_on_entry(no_circuits, backend, shots):
    config = TrainConfig(shots_per_eval=shots, max_iterations=3)
    with pytest.raises(ValueError, match=rf"^shots_per_eval must be in \[1, {backend.max_shots}\], got {shots}$"):
        optimize(DATA, config, backend())


@pytest.mark.parametrize(
    "backend, shots",
    [(ExactOracleBackend, 2**53), (NoisyBackend, 2**32), (IdealBackend, 2**53 + 1)],
)
def test_shots_within_the_limit_reach_the_circuits(no_circuits, backend, shots):
    with pytest.raises(_Built):
        optimize(DATA, TrainConfig(shots_per_eval=shots, max_iterations=3), backend())


def test_oracle_trains_at_its_limit():
    result = optimize(DATA, TrainConfig(shots_per_eval=2**53, max_iterations=3), ExactOracleBackend())
    assert result.iterations == 3
