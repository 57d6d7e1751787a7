"""Two-armed-bandit policy and environment circuits.

The bandit lives on two qubits: qubit 0 carries the action (|0> = left
arm, |1> = right arm) and qubit 1 carries the Bernoulli reward.  Each
arm's winning probability is sin^2(theta/2) for its rotation angle, so
probabilities and angles convert back and forth in closed form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .statevector import Circuit, Gate, check_real, ry, x

ACTION_QUBIT = 0
REWARD_QUBIT = 1

# Built once: a Gate is frozen and its matrix read-only, so every circuit
# can share it, and each evaluation builds only its RY gates.
_FLIP_ACTION = x(ACTION_QUBIT)


class Arm(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class BanditParams:
    """Environment rotation angles per arm; unbounded reals in radians."""

    theta_left: float
    theta_right: float

    def __post_init__(self):
        check_real("theta_left", self.theta_left)
        check_real("theta_right", self.theta_right)


@dataclass(frozen=True)
class PolicySpec:
    """Arm-selection rule: pick the left arm with probability ``p_left``.

    Realized as the one-parameter rotation RY(theta_policy) on the action
    qubit with p_left = cos^2(theta_policy / 2), so theta_policy is in
    [0, pi] and p_left = 0 maps to a full RY(pi) rotation rather than a
    bare X gate.
    """

    p_left: float
    theta_policy: float = field(init=False)

    def __post_init__(self):
        check_real("p_left", self.p_left, 0, 1)
        object.__setattr__(
            self, "theta_policy", 2.0 * math.acos(math.sqrt(self.p_left))
        )


def angle_from_frequency(f: float) -> float:
    """Rotation angle whose arm wins with probability ``f``: 2*arcsin(sqrt(f)),
    computed as 2*atan2(sqrt(f), sqrt(1 - f)), which stays within a few
    ulps near f = 1, where arcsin's slope is unbounded."""
    check_real("frequency", f, 0, 1)
    return 2.0 * math.atan2(math.sqrt(f), math.sqrt(1.0 - f))


def reward_probability(theta: float) -> float:
    """Winning probability of an arm with rotation angle ``theta``: sin^2(theta/2).
    An angle that is not a finite float is refused, naming ``theta``."""
    check_real("theta", theta)
    return math.sin(theta / 2.0) ** 2


def build_policy_circuit(policy: PolicySpec) -> Circuit:
    """RY(theta_policy) on the action qubit of the 2-qubit register."""
    return Circuit(2, (ry(policy.theta_policy, ACTION_QUBIT),))


def _environment_gates(params: BanditParams) -> tuple[Gate, ...]:
    # The X pair temporarily flips the action qubit so the left-arm
    # rotation triggers on |0>_A; the trailing controlled rotation then
    # handles the right arm on the restored action qubit.
    return (
        _FLIP_ACTION,
        ry(params.theta_left, REWARD_QUBIT, controls=[ACTION_QUBIT]),
        _FLIP_ACTION,
        ry(params.theta_right, REWARD_QUBIT, controls=[ACTION_QUBIT]),
    )


def build_environment_circuit(params: BanditParams) -> Circuit:
    """Reward-generating segment acting after a policy's action selection."""
    return Circuit(2, _environment_gates(params))


def _arm_circuits(params: BanditParams) -> tuple[Circuit, Circuit]:
    """(left, right) fixed-action circuits from |00>, both cut from one
    environment gate list.

    Left: its first three gates, X, controlled-RY(theta_left), X.  Right:
    an X first prepares |1> on the action qubit, then the whole list runs
    with the left-arm rotation inactive.  Either way the action qubit ends
    in the chosen arm's state and only that arm's angle can affect the
    reward qubit.
    """
    env = _environment_gates(params)
    return Circuit(2, env[:3]), Circuit(2, (_FLIP_ACTION, *env))


def build_arm_circuit(arm: Arm, params: BanditParams) -> Circuit:
    """Fixed-action circuit for one arm, starting from |00>; ``arm`` must
    be an ``Arm``."""
    if not isinstance(arm, Arm):
        raise ValueError(f"arm must be an Arm, got {arm!r}")
    return _arm_circuits(params)[arm is Arm.RIGHT]


def policy_value(policy: PolicySpec, params: BanditParams) -> float:
    """Expected reward of the policy: sum of arm probabilities weighted by
    the arm-selection probabilities."""
    return policy.p_left * reward_probability(params.theta_left) + (
        1.0 - policy.p_left
    ) * reward_probability(params.theta_right)
