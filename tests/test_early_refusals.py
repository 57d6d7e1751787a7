"""Dataset synthesis and the Monte Carlo baseline refuse bad arguments up
front, with an error that names the field."""

import numpy as np
import pytest

from qbandit.baseline import monte_carlo_estimate
from qbandit.bandit import Arm, BanditParams, PolicySpec
from qbandit.training import synthesize_dataset


@pytest.mark.parametrize("value", [1.5, -0.1, float("nan"), float("inf"), True, "0.5", None])
@pytest.mark.parametrize("field", ["f_left", "f_right"])
def test_synthesize_dataset_refuses_a_frequency_outside_the_unit_interval(field, value):
    args = {"f_left": 0.5, "f_right": 0.5, field: value}
    with pytest.raises(ValueError, match=field):
        synthesize_dataset(args["f_left"], args["f_right"], 10, 0)


@pytest.mark.parametrize("pulls", [0, -1, True, False, 2.5, 3.0, "10", None])
def test_synthesize_dataset_refuses_pulls_that_are_not_a_positive_integer(pulls):
    with pytest.raises(ValueError, match="pulls_per_arm"):
        synthesize_dataset(0.5, 0.5, pulls, 0)


def test_synthesize_dataset_accepts_the_edges_and_numpy_values():
    data = synthesize_dataset(np.float64(0.0), 1, np.int64(3), 0)
    assert data.wins == {Arm.LEFT: 0, Arm.RIGHT: 3}


@pytest.mark.parametrize("num_samples", [True, False, 2.5, 10.0, "10", None])
def test_monte_carlo_estimate_refuses_a_non_integer_sample_count(num_samples):
    with pytest.raises(ValueError, match="num_samples"):
        monte_carlo_estimate(PolicySpec(0.5), BanditParams(1.0, 2.0), num_samples, 0)


def test_monte_carlo_estimate_accepts_a_numpy_integer():
    est = monte_carlo_estimate(PolicySpec(0.5), BanditParams(1.0, 2.0), np.int64(7), 0)
    assert est.samples_used == 7
