"""Both arm circuits come from one environment gate list, with the same
gates in the same order as the hand-written lists; a training result's
final point is its trace's last entry."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gate_by_gate
from qbandit import bandit
from qbandit.backends import ExactOracleBackend
from qbandit.bandit import (
    ACTION_QUBIT,
    REWARD_QUBIT,
    Arm,
    BanditParams,
    _arm_circuits,
    _FLIP_ACTION,
    build_arm_circuit,
)
from qbandit.training import (
    TraceEntry,
    TrainConfig,
    TrainingResult,
    measured_frequencies,
    optimize,
    synthesize_dataset,
)

ANGLE = st.floats(-10.0, 10.0, allow_nan=False)


def hand_written(arm, params):
    """The arm's gates as (flip) or ("RY", targets, controls, params) items,
    in the order the environment's layout gives them."""
    left = ["flip", ("RY", (REWARD_QUBIT,), (ACTION_QUBIT,), (params.theta_left,)), "flip"]
    if arm is Arm.LEFT:
        return left
    return ["flip", *left, ("RY", (REWARD_QUBIT,), (ACTION_QUBIT,), (params.theta_right,))]


def described(gate):
    if gate.kind == "X":
        assert gate is _FLIP_ACTION
        return "flip"
    return (gate.kind, gate.targets, gate.controls, gate.params)


@settings(max_examples=60, deadline=None)
@given(theta_left=ANGLE, theta_right=ANGLE, same=st.booleans())
def test_arm_gates_match_the_hand_written_lists(theta_left, theta_right, same):
    params = BanditParams(theta_left, theta_left if same else theta_right)
    for arm in Arm:
        circ = build_arm_circuit(arm, params)
        assert circ.num_qubits == 2
        assert [described(g) for g in circ.gates] == hand_written(arm, params)
        assert np.abs(circ.final_state.amps - gate_by_gate(circ)).max() < 1e-12
    right = build_arm_circuit(Arm.RIGHT, params)
    # Equal angles make (X, cRY) repeat back to back, but a flat gate list
    # declares no structure: the plan is its gates, with their bits.
    assert right.steps is right.gates
    assert np.array_equal(right.final_state.amps, gate_by_gate(right))


def test_the_pair_is_left_then_right():
    params = BanditParams(0.7, 1.9)
    left, right = _arm_circuits(params)
    assert left == build_arm_circuit(Arm.LEFT, params)
    assert right == build_arm_circuit(Arm.RIGHT, params)
    # The right arm runs the whole environment list after its first X.
    assert right.gates[1:] == bandit.build_environment_circuit(params).gates


@pytest.mark.parametrize("arm", ["left", "right", 0, 1, None, True])
def test_build_arm_circuit_refuses_a_non_arm(arm):
    with pytest.raises(ValueError, match="arm must be an Arm"):
        build_arm_circuit(arm, BanditParams(1.2, 0.4))


def test_one_measurement_builds_two_rotations(monkeypatch):
    built, real_ry = [], bandit.ry

    def counting_ry(*args, **kwargs):
        built.append(args)
        return real_ry(*args, **kwargs)

    monkeypatch.setattr(bandit, "ry", counting_ry)
    meas = measured_frequencies(BanditParams(1.2, 0.4), 100, ExactOracleBackend(), 3)
    assert len(built) == 2
    assert [args[0] for args in built] == [1.2, 0.4]
    assert meas.f_left == pytest.approx(bandit.reward_probability(1.2), abs=1e-12)
    assert meas.f_right == pytest.approx(bandit.reward_probability(0.4), abs=1e-12)


def test_training_result_holds_only_its_trace():
    assert [f.name for f in dataclasses.fields(TrainingResult)] == ["trace"]
    result = TrainingResult((TraceEntry(0, 1.0, 2.0, 0.5), TraceEntry(1, 0.25, 0.75, 0.01)))
    assert result.final_theta == (0.25, 0.75)
    assert result.final_loss == 0.01
    assert result.iterations == 2


def test_optimize_ends_on_the_rescored_best_point():
    data = synthesize_dataset(0.3, 0.8, 500, seed=4)
    result = optimize(data, TrainConfig(max_iterations=20, shots_per_eval=500, seed=9))
    last = result.trace[-1]
    assert result.final_theta == (last.theta_left, last.theta_right)
    assert result.final_loss == last.loss
    assert result.iterations == len(result.trace) <= 20
    assert [e.iteration for e in result.trace] == list(range(result.iterations))
