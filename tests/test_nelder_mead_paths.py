"""Nelder-Mead's shrink step, and a budget that runs out mid-expansion."""

import numpy as np

from qbandit.optimizers import NelderMead


def recording(fn, calls):
    def wrapped(theta):
        calls.append(theta.copy())
        return fn(theta)

    return wrapped


def test_flat_objective_shrinks_the_simplex_toward_its_best_vertex():
    # On a flat objective no reflection or contraction is better than the
    # worst vertex, so every iteration shrinks the simplex by half.
    calls = []
    res = NelderMead().minimize(
        recording(lambda th: 1.0, calls), np.zeros(2), rho_start=0.5, rho_end=1e-3, max_evals=500
    )
    # Simplex (0, 0), (0.5, 0), (0, 0.5); reflection; contraction; then
    # the two shrunk vertices.
    np.testing.assert_array_equal(calls[3], [0.5, -0.5])
    np.testing.assert_array_equal(calls[4], [0.125, 0.25])
    np.testing.assert_array_equal(calls[5:7], [[0.25, 0.0], [0.0, 0.25]])
    # Four evaluations per halving, until the simplex is below rho_end.
    assert res.num_evals == 3 + 4 * 9 < 500
    assert res.fun == 1.0


def test_budget_spent_during_an_expansion_returns_the_best_point_seen():
    # Downhill along (1, 1): the first reflection beats every vertex, so
    # the search expands, and the fifth evaluation is over budget.
    calls = []
    res = NelderMead().minimize(
        recording(lambda th: -float(th.sum()), calls), np.zeros(2), rho_start=0.5, rho_end=1e-6, max_evals=4
    )
    assert res.num_evals == len(calls) == 4
    np.testing.assert_array_equal(calls[-1], [0.5, 0.5])  # the reflection
    np.testing.assert_array_equal(res.x, [0.5, 0.5])
    assert res.fun == -1.0 == min(-c.sum() for c in calls)
