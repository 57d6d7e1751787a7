"""Classical Monte Carlo estimation and the quadratic sample-count gap."""

import math

import numpy as np
import pytest

from qbandit.bandit import BanditParams, PolicySpec, angle_from_frequency, policy_value
from qbandit.baseline import mc_samples_needed, monte_carlo_estimate, qpe_qsample_count
from qbandit.qpe import error_bound

ARMS = BanditParams(angle_from_frequency(0.7), angle_from_frequency(0.2))
PI_50 = PolicySpec(0.5)
CONFIDENCE = 8.0 / math.pi**2


class TestMonteCarloEstimate:
    def test_deterministic_environment(self):
        policy = PolicySpec(1.0)
        params = BanditParams(math.pi, 0.0)
        assert monte_carlo_estimate(policy, params, 50, seed=0).estimate == 1.0

    def test_concentration(self):
        est = monte_carlo_estimate(PI_50, ARMS, 100_000, seed=1)
        assert est.estimate == pytest.approx(0.45, abs=0.006)
        assert est.samples_used == 100_000

    def test_single_sample_is_bernoulli(self):
        for seed in range(8):
            est = monte_carlo_estimate(PI_50, ARMS, 1, seed=seed)
            assert est.estimate in (0.0, 1.0)

    def test_seeded_reproducibility(self):
        a = monte_carlo_estimate(PI_50, ARMS, 1000, seed=3)
        b = monte_carlo_estimate(PI_50, ARMS, 1000, seed=3)
        assert a.estimate == b.estimate

    def test_unbiased_over_seeds(self):
        n = 2000
        estimates = [
            monte_carlo_estimate(PI_50, ARMS, n, seed=s).estimate for s in range(100)
        ]
        v = policy_value(PI_50, ARMS)
        stderr = math.sqrt(v * (1 - v) / n) / math.sqrt(len(estimates))
        assert abs(np.mean(estimates) - v) < 3 * stderr

    def test_rmse_scaling(self):
        v = policy_value(PI_50, ARMS)
        rmse = {}
        for n in (100, 1000, 10000):
            sq = [
                (monte_carlo_estimate(PI_50, ARMS, n, seed=s).estimate - v) ** 2
                for s in range(60)
            ]
            rmse[n] = math.sqrt(np.mean(sq))
        for n in (100, 1000, 10000):
            expected = math.sqrt(v * (1 - v) / n)
            assert rmse[n] / expected < 1.5
            assert rmse[n] / expected > 1 / 1.5


class TestMcSamplesNeeded:
    def test_reference_value(self):
        assert mc_samples_needed(0.05, 1 - CONFIDENCE) == 472

    def test_halving_epsilon_quadruples(self):
        coarse = mc_samples_needed(0.1, 0.05)
        fine = mc_samples_needed(0.05, 0.05)
        assert fine / coarse == pytest.approx(4.0, rel=0.01)

    def test_degenerate_delta_clamped(self):
        assert mc_samples_needed(0.3, 1.0) >= 1

    @pytest.mark.parametrize("delta", [1.5, 5.0])
    def test_a_failure_probability_above_one_is_refused(self, delta):
        with pytest.raises(ValueError, match=f"delta must be at most 1, got {delta}"):
            mc_samples_needed(0.1, delta)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2])
    def test_invalid_epsilon(self, eps):
        with pytest.raises(ValueError):
            mc_samples_needed(eps, 0.1)


class TestQsampleCount:
    def test_values(self):
        assert qpe_qsample_count(1) == 3
        assert qpe_qsample_count(3) == 15

    def test_scaling_is_one_over_epsilon(self):
        # Doubling the register resolution doubles the circuit count:
        # 2^(n+1)-1 structure, i.e. 1/eps rather than 1/eps^2.
        ratios = [
            qpe_qsample_count(n + 1) / qpe_qsample_count(n) for n in range(1, 10)
        ]
        assert all(2.0 < r <= 7 / 3 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)


class TestQuadraticGap:
    def test_ratio_growth(self):
        ratios = []
        for n in range(3, 9):
            eps = error_bound(n, 0.45)
            ratios.append(
                mc_samples_needed(eps, 1 - CONFIDENCE) / qpe_qsample_count(n)
            )
        # The classical count grows ~4x per qubit against ~2x quantum,
        # so the advantage ratio roughly doubles per increment.
        total = ratios[-1] / ratios[0]
        per_step = total ** (1 / (len(ratios) - 1))
        assert 1.7 <= per_step <= 2.3
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
