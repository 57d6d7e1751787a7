"""Every numeric input goes through one range check: a real must be a
finite number in its range, an integer an integer in its range, and the
error names the field.  The CLI refuses a baseline range and a qpe grid
it could not run in full before it makes the output directory."""

import json
import math
import numbers

import numpy as np
import pytest

from qbandit.bandit import BanditParams, PolicySpec, angle_from_frequency
from qbandit.baseline import mc_samples_needed
from qbandit.cli import main
from qbandit.noise import NoiseConfig
from qbandit.qpe import QpeConfig, error_bound, outcome_to_value, qsample_count, value_grid
from qbandit.statevector import check_number, derive_seed
from qbandit.training import (
    Frequencies,
    TrainConfig,
    synthesize_dataset,
    write_dataset,
)

# field -> a call that passes ``value`` as that field and valid values
# everywhere else.
REAL_FIELDS = {
    "p1": lambda v: NoiseConfig(p1=v),
    "p2": lambda v: NoiseConfig(p2=v),
    "readout_flip": lambda v: NoiseConfig(readout_flip=v),
    "a": lambda v: error_bound(3, v),
    "f_left": lambda v: Frequencies(v, 0.5),
    "f_right": lambda v: Frequencies(0.5, v),
    "rho_start": lambda v: TrainConfig(rho_start=v),
    "rho_end": lambda v: TrainConfig(rho_end=v),
    "initial_theta": lambda v: TrainConfig(initial_theta=(0.0, v)),
    "synthesize_dataset-f_left": lambda v: synthesize_dataset(v, 0.5, 10, 0),
    "synthesize_dataset-f_right": lambda v: synthesize_dataset(0.5, v, 10, 0),
    "delta": lambda v: mc_samples_needed(0.1, v),
    "theta_left": lambda v: BanditParams(v, 1.0),
    "theta_right": lambda v: BanditParams(1.0, v),
    "p_left": lambda v: PolicySpec(v),
    "frequency": angle_from_frequency,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5", True])
@pytest.mark.parametrize("field", REAL_FIELDS)
def test_real_fields_refuse_non_finite_and_non_numbers(field, value):
    with pytest.raises(ValueError, match=rf"^{field.split('-')[-1]} must be"):
        REAL_FIELDS[field](value)


INTEGER_CASES = {
    "qsample_count(2.5)": (lambda: qsample_count(2.5), "n"),
    "error_bound(2.5, 0.3)": (lambda: error_bound(2.5, 0.3), "n"),
    "value_grid(0)": (lambda: value_grid(0), "n"),
    "value_grid(13)": (lambda: value_grid(13), "n"),
    "value_grid(20)": (lambda: value_grid(20), "n"),
    "outcome_to_value(0, 13)": (lambda: outcome_to_value(0, 13), "n"),
    "outcome_to_value(0, 10**8)": (lambda: outcome_to_value(0, 10**8), "n"),
    "outcome_to_value(0, 0)": (lambda: outcome_to_value(0, 0), "n"),
    "outcome_to_value(1.5, 3)": (lambda: outcome_to_value(1.5, 3), "y"),
    "outcome_to_value(8, 3)": (lambda: outcome_to_value(8, 3), "y"),
    "outcome_to_value(-1, 3)": (lambda: outcome_to_value(-1, 3), "y"),
}


@pytest.mark.parametrize("call, field", INTEGER_CASES.values(), ids=INTEGER_CASES.keys())
def test_register_widths_and_outcomes_are_integers_in_range(call, field):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        call()


def test_outcome_range_is_closed():
    assert outcome_to_value(7, 3) == pytest.approx(math.sin(math.pi * 7 / 8) ** 2)
    assert outcome_to_value(0, 3) == 0.0


def test_mc_samples_needed_names_a_nan_delta():
    with pytest.raises(ValueError, match="delta must be finite"):
        mc_samples_needed(0.1, math.nan)


def test_check_number_bounds_are_closed():
    check_number("x", 1, low=1, high=2)
    check_number("x", 2.0, numbers.Real, 1, 2)
    with pytest.raises(ValueError, match=r"x must be in \[1, 2\], got 3"):
        check_number("x", 3, low=1, high=2)
    with pytest.raises(ValueError, match="x must be >= 1, got 0"):
        check_number("x", 0, low=1)


def test_huge_integers_skip_the_finiteness_test():
    assert isinstance(derive_seed(2**2000), int)
    check_number("x", 2**2000, numbers.Real, low=0)


def test_numpy_scalars_are_accepted():
    assert PolicySpec(np.float64(0.25)).p_left == 0.25
    assert BanditParams(np.float32(1.0), np.float64(2.0)).theta_right == 2.0
    assert NoiseConfig(p1=np.float64(0.1)).p1 == 0.1
    assert QpeConfig(n=np.int64(3), shots=np.int32(10)).n == 3
    assert Frequencies(np.float64(0.2), np.int64(1)).f_right == 1
    assert qsample_count(np.int64(3)) == 15
    assert TrainConfig(rho_start=np.float64(0.4), initial_theta=(np.float64(1.0), 2)).rho_start == 0.4
    assert mc_samples_needed(0.1, np.float64(0.05)) == mc_samples_needed(0.1, 0.05)


def test_train_refuses_an_infinite_radius_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"train": {"rho_start": Infinity}}')
    data = tmp_path / "data.jsonl"
    write_dataset(synthesize_dataset(0.7, 0.2, 50, seed=1), data)
    out = tmp_path / "out"
    code = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "rho_start" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_baseline_refuses_a_range_that_starts_too_short(tmp_path, capsys):
    out = tmp_path / "base"
    code = main(["baseline", "--v", "0.45", "--n-range", "1..3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "n-range: need 3 <= a <= b" in err and "error bound" in err
    assert not out.exists()
    assert main(["baseline", "--v", "0.45", "--n-range", "3..5", "--out", str(out)]) == 0
    assert (out / "scaling.csv").exists()


THETAS = ["--theta-left", "1.9823", "--theta-right", "0.9273"]


@pytest.mark.parametrize(
    "section, run_id",
    [
        ({"policy": {"p_left": [0.1234561, 0.1234564]}}, "qpe_pleft0.123456_n3_ideal"),
        ({"policy": {"p_left": [0.5, 0.5]}}, "qpe_pleft0.5_n3_ideal"),
        ({"qpe": {"n": [3, 4, 3]}}, "qpe_pleft0.5_n3_ideal"),
        ({"backend": ["ideal", "ideal"]}, "qpe_pleft0.5_n3_ideal"),
    ],
)
def test_qpe_refuses_a_grid_whose_runs_share_a_file(section, run_id, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qpe": {"n": 3, "shots": 20}, **section}))
    out = tmp_path / "out"
    code = main(["qpe", "--config", str(cfg), "--out", str(out)] + THETAS)
    assert code == 1
    assert f"{run_id}.csv" in capsys.readouterr().err
    assert not out.exists()
