"""Negative seeds, and Philox keys of 2**128 or more, are refused up front,
with an error that names the field."""

import numpy as np
import pytest

from qbandit.baseline import monte_carlo_estimate
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.cli import main
from qbandit.noise import NoiseConfig, noisy_counts, run_trajectory
from qbandit.qpe import QpeConfig
from qbandit.statevector import Circuit, derive_seed, h, new_state, sample_counts
from qbandit.training import TrainConfig, synthesize_dataset

CIRC = Circuit(1, (h(0),))

CASES = {
    "derive_seed": (lambda: derive_seed(0, -1), "seed part 1"),
    "NoiseConfig": (lambda: NoiseConfig(seed=-1), "seed"),
    "QpeConfig": (lambda: QpeConfig(n=3, seed=-2), "seed"),
    "TrainConfig": (lambda: TrainConfig(seed=-2), "seed"),
    "noisy_counts": (lambda: noisy_counts(CIRC, 5, NoiseConfig(), -1), "seed"),
    "sample_counts": (lambda: sample_counts(new_state(1), 5, -1), "seed"),
    "run_trajectory": (lambda: run_trajectory(CIRC, NoiseConfig(), -3), "seed"),
    "synthesize_dataset": (lambda: synthesize_dataset(0.5, 0.5, 10, -1), "seed"),
    "monte_carlo_estimate": (
        lambda: monte_carlo_estimate(PolicySpec(0.5), BanditParams(1.0, 2.0), 10, -1),
        "seed",
    ),
}


@pytest.mark.parametrize("call, field", CASES.values(), ids=CASES.keys())
def test_negative_seed_named(call, field):
    with pytest.raises(ValueError, match=f"{field} must be non-negative"):
        call()


KEYS = {
    "sample_counts": lambda key: sample_counts(new_state(1), 5, key),
    "run_trajectory": lambda key: run_trajectory(CIRC, NoiseConfig(), key),
    "synthesize_dataset": lambda key: synthesize_dataset(0.5, 0.5, 10, key),
    "monte_carlo_estimate": lambda key: monte_carlo_estimate(
        PolicySpec(0.5), BanditParams(1.0, 2.0), 10, key
    ),
}


@pytest.mark.parametrize("call", KEYS.values(), ids=KEYS.keys())
def test_key_range(call):
    call(2**128 - 1)
    with pytest.raises(ValueError, match="seed must be below 2"):
        call(2**128)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["qpe", "--theta-left", "1", "--theta-right", "2", "--seed", "-1"],
            "qpe.seed: must be non-negative",
        ),
        (["baseline", "--v", "0.5", "--n-range", "3..4", "--seed", "-1"], "seed: must be non-negative"),
        (["train", "--data", "unused.jsonl", "--seed", "-1"], "train: seed must be non-negative"),
    ],
)
def test_cli_negative_seed_named(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numpy_integer_seeds_accepted():
    assert derive_seed(np.uint64(2**63), np.int32(0)) == derive_seed(2**63, 0)
    assert NoiseConfig(seed=np.int64(4)).seed == 4
    assert QpeConfig(n=3, seed=np.uint8(2)).seed == 2
    assert noisy_counts(CIRC, 5, NoiseConfig(), np.uint32(1)).total_shots == 5
    assert run_trajectory(CIRC, NoiseConfig(), np.int16(0)) in ("0", "1")
    assert sample_counts(new_state(1), 3, np.int64(0)).counts == {"0": 3}
