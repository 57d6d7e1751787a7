"""Derivative-free minimizers: convergence, budget, determinism."""

import numpy as np
import pytest

from qbandit.optimizers import OPTIMIZERS, LinearTrustRegion, NelderMead


def quadratic(theta):
    return float((theta[0] - 1.2) ** 2 + 3.0 * (theta[1] + 0.4) ** 2)


def bandit_like(f_left, f_right):
    def loss(theta):
        dl = np.sin(theta[0] / 2) ** 2 - f_left
        dr = np.sin(theta[1] / 2) ** 2 - f_right
        return (dl * dl + dr * dr) / 2.0

    return loss


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_quadratic_convergence(name):
    opt = OPTIMIZERS[name]()
    res = opt.minimize(
        quadratic, np.zeros(2), rho_start=0.5, rho_end=1e-9, max_evals=500
    )
    np.testing.assert_allclose(res.x, [1.2, -0.4], atol=1e-4)
    assert res.fun < 1e-8


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_budget_respected(name):
    calls = []

    def counting(theta):
        calls.append(theta.copy())
        return quadratic(theta)

    res = OPTIMIZERS[name]().minimize(
        counting, np.zeros(2), rho_start=0.5, rho_end=1e-9, max_evals=17
    )
    assert len(calls) == res.num_evals <= 17


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_deterministic(name):
    runs = [
        OPTIMIZERS[name]().minimize(
            bandit_like(0.3, 0.6), np.array([1.0, 1.0]), rho_start=0.5, rho_end=1e-6, max_evals=200
        )
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0].x, runs[1].x)
    assert runs[0].fun == runs[1].fun


def test_zero_budget_returns_start():
    res = LinearTrustRegion().minimize(
        quadratic, np.array([2.0, 2.0]), rho_start=0.5, rho_end=1e-6, max_evals=0
    )
    np.testing.assert_array_equal(res.x, [2.0, 2.0])
    assert res.num_evals == 0


def test_trust_region_grid_convergence():
    # Boundary frequencies make the loss quartic around the optimum; the
    # axis polls must still drive it below 1e-12 within budget.
    for f_left in (0.0, 0.5, 1.0):
        for f_right in (0.0, 0.25, 1.0):
            res = LinearTrustRegion().minimize(
                bandit_like(f_left, f_right),
                np.array([np.pi / 2, np.pi / 2]),
                rho_start=0.5,
                rho_end=1e-8,
                max_evals=400,
            )
            assert res.fun < 1e-12, (f_left, f_right, res.fun)


def test_invalid_radii():
    with pytest.raises(ValueError):
        LinearTrustRegion().minimize(
            quadratic, np.zeros(2), rho_start=1e-4, rho_end=1e-3, max_evals=10
        )


def test_states_recorded_with_radius_in_range():
    res = LinearTrustRegion().minimize(
        quadratic,
        np.zeros(2),
        rho_start=0.5,
        rho_end=1e-3,
        max_evals=100,
        keep_states=True,
    )
    assert res.states
    for state in res.states:
        assert 1e-3 <= state.radius <= 0.5 * 4.0 + 1e-12
        assert state.points.shape == (3, 2)


def test_noisy_objective_still_localizes():
    rng = np.random.default_rng(0)
    noisy = lambda th: bandit_like(0.7, 0.2)(th) + 1e-5 * rng.normal()
    res = LinearTrustRegion().minimize(
        noisy, np.array([np.pi / 2, np.pi / 2]), rho_start=0.5, rho_end=1e-3, max_evals=150
    )
    clean = bandit_like(0.7, 0.2)(res.x)
    assert clean < 1e-3


def test_nelder_mead_shrink_path():
    # A narrow valley exercises contraction and shrink moves.
    valley = lambda th: float((th[0] - 0.5) ** 2 + 100.0 * (th[1] - th[0] ** 2) ** 2)
    res = NelderMead().minimize(
        valley, np.zeros(2), rho_start=0.3, rho_end=1e-10, max_evals=2000
    )
    assert res.fun < 1e-6


@pytest.mark.parametrize("rho_start, rho_end", [(1e-4, 1e-3), (1e-3, 1e-3), (0.5, 0.0)])
def test_nelder_mead_invalid_radii(rho_start, rho_end):
    with pytest.raises(ValueError, match="rho_start > rho_end > 0"):
        NelderMead().minimize(
            quadratic, np.zeros(2), rho_start=rho_start, rho_end=rho_end, max_evals=10
        )
