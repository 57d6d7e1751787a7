"""The closed-form amplitude-estimation oracle against the simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench import oracle
from qbandit import BanditParams, PolicySpec, exact_value_distribution, policy_value

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    p_left=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    theta_left=angles,
    theta_right=angles,
    n=st.integers(min_value=1, max_value=6),
)
def test_oracle_matches_simulated_distribution(p_left, theta_left, theta_right, n):
    policy, params = PolicySpec(p_left), BanditParams(theta_left, theta_right)
    simulated = exact_value_distribution(policy, params, n)
    closed = oracle.folded_distribution(policy_value(policy, params), n)
    assert set(simulated) <= set(range(closed.size))
    for y in range(closed.size):
        assert simulated.get(y, 0.0) == pytest.approx(closed[y], abs=1e-9)
    assert closed.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_oracle_handles_outcomes_on_the_grid(a):
    # a = 0, 1/2 and 1 put all the weight on one folded outcome at n = 2.
    closed = oracle.folded_distribution(a, 2)
    assert closed.max() == pytest.approx(1.0)


def test_tv_distance():
    exact = np.array([0.5, 0.5, 0.0])
    assert oracle.tv_distance({0: 10}, 10, exact) == pytest.approx(0.5)
    assert oracle.tv_distance({0: 5, 1: 5}, 10, exact) == pytest.approx(0.0)
