"""``qpe.fold_outcome`` refuses an outcome outside the register and a
width outside [1, MAX_EVAL_QUBITS], and ``bandit.reward_probability`` an
angle that is not a finite float, each naming its field, where they once
returned a wrong number, raised a bare math error or ran for a second."""

import math

import numpy as np
import pytest

from qbandit.bandit import reward_probability
from qbandit.qpe import _fold, fold_outcome, outcome_to_value


@pytest.mark.parametrize(
    "y, n, message",
    [
        (9, 3, r"y must be in \[0, 7\], got 9"),
        (8, 3, r"y must be in \[0, 7\], got 8"),
        (-1, 3, r"y must be in \[0, 7\], got -1"),
        (3, 0, r"n must be in \[1, 12\], got 0"),
        (0, -2, r"n must be in \[1, 12\], got -2"),
        (0, 13, r"n must be in \[1, 12\], got 13"),
        # Refused before any 2**n is built: it once took a second and 47 MB.
        (0, 10**8, r"n must be in \[1, 12\], got 100000000"),
        (1.0, 3, "y must be integral"),
        (True, 3, "y must be integral"),
        (1, 2.0, "n must be integral"),
    ],
)
def test_fold_outcome_refuses_what_is_not_an_outcome(y, n, message):
    with pytest.raises(ValueError, match=message):
        fold_outcome(y, n)


def refusal(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


@pytest.mark.parametrize("y", [8, -1, 2**70])
def test_fold_outcome_names_y_as_outcome_to_value_does(y):
    assert refusal(fold_outcome, y, 3) == refusal(outcome_to_value, y, 3)


@pytest.mark.parametrize("n", [1, 3, 10, 12])
def test_fold_outcome_keeps_every_register_outcome(n):
    size = 2**n
    assert [fold_outcome(y, n) for y in range(size)] == [min(y, size - y) for y in range(size)]
    assert fold_outcome(np.int64(size - 1), n) == 1


def test_fold_checks_no_outcome(monkeypatch):
    """``_fold`` sees register outcomes only, so it folds them inline."""
    monkeypatch.setattr("qbandit.qpe.fold_outcome", None)
    assert _fold({"000": 0.25, "111": 0.5, "001": 0.25}, 3) == {0: 0.25, 1: 0.75}


@pytest.mark.parametrize(
    "theta, message",
    [
        (math.nan, "theta must be finite, got nan"),
        (math.inf, "theta must be finite, got inf"),
        (-math.inf, "theta must be finite, got -inf"),
        (10**400, "theta must convert to a finite float"),
        ("1.0", "theta must be real"),
        (None, "theta must be real"),
        (True, "theta must be real"),
        (1j, "theta must be real"),
    ],
)
def test_reward_probability_refuses_an_angle_that_is_not_a_finite_float(theta, message):
    with pytest.raises(ValueError, match=message):
        reward_probability(theta)


def test_reward_probability_keeps_its_values():
    assert reward_probability(0) == 0.0
    assert reward_probability(np.float32(math.pi)) == math.sin(float(np.float32(math.pi)) / 2.0) ** 2
    assert reward_probability(10**300) == math.sin(1e300 / 2.0) ** 2
