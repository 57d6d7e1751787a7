"""The exact oracle's frequencies and the angle/probability round trip
against 40-digit references evaluated with mpmath from the float inputs,
so every difference is the package's own rounding.

Each tolerance comes from measured errors.  On a 2-vCPU x86 VM with
numpy 2.4, the worst absolute errors, in machine epsilons, were: 0.75
for ``reward_probability`` over 1,000,000 angles in (-7, 7); 0.74 for an
arm circuit's ``ExactOracleBackend.frequency`` and 1.58 for the
state-preparation circuit's, over 50,000 random policies and angles; 1.50
for ``reward_probability(angle_from_frequency(f))`` against f over
1,200,000 frequencies, a sixth of them within 1e-3 of 0 or 1.  Each
tolerance below is at least 2.5 times its measured worst case."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbandit.backends import ExactOracleBackend
from qbandit.bandit import (
    REWARD_QUBIT,
    Arm,
    BanditParams,
    PolicySpec,
    angle_from_frequency,
    build_arm_circuit,
    reward_probability,
)
from qbandit.qpe import build_state_prep

mpmath = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
ANGLE = st.floats(-7.0, 7.0)
FREQUENCY = st.floats(0.0, 1.0)


def mp_reward(theta: float):
    with mpmath.workdps(40):
        return mpmath.sin(mpmath.mpf(theta) / 2) ** 2


def error(got: float, want) -> float:
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(got) - want))


@settings(max_examples=200, deadline=None)
@given(theta=ANGLE)
@example(theta=0.0)
@example(theta=np.pi)
@example(theta=-np.pi)
@example(theta=2 * np.pi)
def test_reward_probability_is_within_2_eps(theta):
    assert error(reward_probability(theta), mp_reward(theta)) <= 2 * EPS


@settings(max_examples=300, deadline=None)
@given(f=FREQUENCY)
@example(f=0.0)
@example(f=1.0)
@example(f=0.5)
@example(f=1e-300)
@example(f=1.0 - 2**-53)
def test_the_round_trip_is_within_4_eps_of_the_frequency(f):
    # The 40-digit round trip sin^2(arcsin(sqrt(f))) is f itself.
    with mpmath.workdps(40):
        angle = 2 * mpmath.asin(mpmath.sqrt(mpmath.mpf(f)))
        want = mpmath.sin(angle / 2) ** 2
        assert abs(want - f) < mpmath.mpf(10) ** -35
    assert error(reward_probability(angle_from_frequency(f)), want) <= 4 * EPS


@settings(max_examples=60, deadline=None)
@given(theta_left=ANGLE, theta_right=ANGLE)
@example(theta_left=0.0, theta_right=np.pi)
@example(theta_left=1.1, theta_right=1.1)
def test_an_arm_circuits_exact_frequency_is_within_2_eps(theta_left, theta_right):
    params, oracle = BanditParams(theta_left, theta_right), ExactOracleBackend()
    for arm, theta in ((Arm.LEFT, theta_left), (Arm.RIGHT, theta_right)):
        got = oracle.frequency(build_arm_circuit(arm, params), REWARD_QUBIT, 1, 0)
        assert error(got, mp_reward(theta)) <= 2 * EPS


@settings(max_examples=60, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta_left=ANGLE, theta_right=ANGLE)
@example(p_left=1.0, theta_left=np.pi, theta_right=0.0)
@example(p_left=0.0, theta_left=0.0, theta_right=np.pi)
def test_the_policy_values_exact_frequency_is_within_4_eps(p_left, theta_left, theta_right):
    policy, params = PolicySpec(p_left), BanditParams(theta_left, theta_right)
    got = ExactOracleBackend().frequency(build_state_prep(policy, params), REWARD_QUBIT, 1, 0)
    with mpmath.workdps(40):
        chosen = mpmath.cos(mpmath.mpf(policy.theta_policy) / 2) ** 2
        want = chosen * mp_reward(theta_left) + (1 - chosen) * mp_reward(theta_right)
    assert error(got, want) <= 4 * EPS


NEAR_EDGES = st.floats(0.0, 1e-9) | st.floats(1.0 - 1e-9, 1.0)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(NEAR_EDGES)
@example(0.0)
@example(1.0)
@example(1.0 - EPS / 2)
@example(5e-324)
def test_the_angle_is_within_3_eps_near_0_and_1(f):
    # 2*asin(sqrt(f)) erred by up to 2e5 eps within 1e-9 of 1, where
    # asin's slope is unbounded; the atan2 form's worst relative error
    # there and within 1e-9 of 0 was 1.15 eps on 4,000 draws.
    with mpmath.workdps(40):
        exact = 2 * mpmath.asin(mpmath.sqrt(mpmath.mpf(f)))
        got = angle_from_frequency(f)
        assert abs(mpmath.mpf(got) - exact) <= 3 * EPS * exact
