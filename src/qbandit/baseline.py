"""Classical Monte Carlo value estimation and sample-complexity accounting.

Plays the bandit episode by episode (draw an arm from the policy, draw
a Bernoulli reward from that arm) and compares the samples needed for a
given accuracy against the environment-circuit applications one
phase-estimation run spends: Hoeffding forces ~1/eps^2 classical
episodes, while the quantum run uses ~1/eps circuit applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import BanditParams, PolicySpec, reward_probability
from .qpe import qsample_count
from .statevector import _PHILOX, _limit, check_number, check_real, check_seed


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    samples_used: int
    seed: int


def monte_carlo_estimate(
    policy: PolicySpec, params: BanditParams, num_samples: int, seed: int
) -> McEstimate:
    """Mean reward over ``num_samples`` i.i.d. episodes.  Episode i picks
    the left arm when word i of the Philox stream keyed by ``seed``, as
    its uniform (w >> 11) * 2**-53, is below ``p_left``, and wins when
    word ``num_samples + i``'s is below the arm's win probability: each
    compares w >> 11 with the probability's ``_limit``."""
    check_number("num_samples", num_samples, low=1)
    check_seed("seed", seed, key=True)
    left = _limit(policy.p_left)
    win_left = _limit(reward_probability(params.theta_left))
    win_right = _limit(reward_probability(params.theta_right))
    wins = sum(
        int(np.count_nonzero((rewards >> 11) < np.where((arms >> 11) < left, win_left, win_right)))
        for arms, rewards in zip(
            _PHILOX.blocks(seed, num_samples), _PHILOX.blocks(seed, num_samples, num_samples)
        )
    )
    return McEstimate(wins / num_samples, num_samples, seed)


def mc_samples_needed(epsilon: float, delta: float) -> int:
    """Hoeffding sample count for |estimate - v| <= epsilon with failure
    probability at most delta, in (0, 1]: ceil(ln(2/delta) / (2
    epsilon^2)), clamped to at least one sample."""
    check_real("epsilon", epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    check_real("delta", delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be {'positive' if delta <= 0.0 else 'at most 1'}, got {delta}")
    count = math.log(2.0 / delta) / (2.0 * epsilon**2) if epsilon**2 else math.inf
    check_real("epsilon's Hoeffding count", count)
    return max(1, math.ceil(count))


# Environment-circuit applications in one phase-estimation run with an
# n-qubit evaluation register, under the name the comparison reports.
qpe_qsample_count = qsample_count
