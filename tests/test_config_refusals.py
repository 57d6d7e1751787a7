"""A real field refuses an integer too large for a float, and ``qbandit
qpe`` range-checks its shot count and seed, each before anything is
written and with an error that names the field."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qbandit.bandit import BanditParams
from qbandit.cli import main
from qbandit.statevector import check_real, derive_seed
from qbandit.training import TrainConfig, synthesize_dataset, write_dataset

ROOT = Path(__file__).resolve().parent.parent
HUGE = 10**400


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: BanditParams(HUGE, 0), "theta_left"),
        (lambda: BanditParams(0, -HUGE), "theta_right"),
        (lambda: TrainConfig(rho_start=HUGE), "rho_start"),
        (lambda: TrainConfig(initial_theta=(0.0, HUGE)), "initial_theta"),
    ],
)
def test_real_fields_refuse_integers_too_large_for_a_float(make, field):
    with pytest.raises(ValueError, match=f"{field} must convert to a finite float"):
        make()


def test_float_sized_integers_pass_and_integer_fields_are_unchanged():
    check_real("x", int(sys.float_info.max))
    with pytest.raises(ValueError, match="x must convert"):
        check_real("x", 2**1024)
    assert isinstance(derive_seed(2**2000), int)


def test_train_refuses_a_401_digit_rho_start(tmp_path):
    data = tmp_path / "data.jsonl"
    write_dataset(synthesize_dataset(0.7, 0.2, 50, seed=1), data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"rho_start": HUGE}}))
    out = tmp_path / "out"
    run = subprocess.run(
        [sys.executable, "-m", "qbandit.cli", "train", "--data", str(data), "--config", str(config), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1
    assert "rho_start must convert to a finite float" in run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "qpe, message",
    [
        ({"shots": 0}, "qpe.shots: must be >= 1, got 0"),
        ({"seed": -1}, "qpe.seed: must be non-negative, got -1"),
        ({"seed": 1.5}, "qpe.seed: must be integral"),
    ],
)
def test_qpe_refuses_shots_and_seed_before_writing(qpe, message, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"qpe": qpe}))
    out = tmp_path / "out"
    argv = ["qpe", "--theta-left", "1", "--theta-right", "2", "--config", str(config), "--out", str(out)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists() and not out.exists()


def test_qpe_refuses_a_huge_env_angle(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"env": {"theta_left": HUGE, "theta_right": 0.5}}))
    out = tmp_path / "out"
    assert main(["qpe", "--config", str(config), "--out", str(out)]) == 1
    assert "env.theta_left: must convert to a finite float" in capsys.readouterr().err
    assert not out.exists()
