"""Derivative-free optimizers for noisy objectives.

One entry point, ``minimize``, checks the radii, counts evaluations against
the budget and returns the best point seen; two searches plug into it:

* ``LinearTrustRegion`` — COBYLA-style: keeps a simplex of d+1
  interpolation points, fits a linear model to them, and steps from the
  best vertex along the model's descent direction within a trust
  region.  The resolution radius only shrinks, from ``rho_start`` down
  to ``rho_end``.
* ``NelderMead`` — classic reflect/expand/contract simplex search.

Both are fully deterministic: the sequence of proposals depends only on
the observed objective values, and they never evaluate the objective
more than ``max_evals`` times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], float]


@dataclass
class OptimizerState:
    """Snapshot of the trust-region search after one model step."""

    current: np.ndarray
    proposed_step: np.ndarray
    points: np.ndarray
    values: np.ndarray
    model_gradient: np.ndarray | None
    radius: float


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    num_evals: int
    states: list[OptimizerState] = field(default_factory=list)


class _BudgetExhausted(Exception):
    pass


class _Budget:
    """Objective wrapper that counts evaluations and tracks the incumbent."""

    def __init__(self, fn: Objective, max_evals: int, x0: np.ndarray):
        self.fn = fn
        self.max_evals = max_evals
        self.used = 0
        self.best_x = np.asarray(x0, dtype=float).copy()
        self.best_f = math.inf

    def __call__(self, point: np.ndarray) -> float:
        if self.used >= self.max_evals:
            raise _BudgetExhausted
        self.used += 1
        point = np.asarray(point, dtype=float)
        value = float(self.fn(point))
        if value < self.best_f:
            self.best_f = value
            self.best_x = point.copy()
        return value


def check_radii(rho_start: float, rho_end: float) -> None:
    """Raise ValueError unless rho_start > rho_end > 0."""
    if not rho_start > rho_end > 0:
        raise ValueError(f"need rho_start > rho_end > 0, got {rho_start}, {rho_end}")


class _Minimizer:
    """The one ``minimize``; a subclass supplies ``_search``, which appends to
    ``states`` unless it is None."""

    def minimize(
        self,
        fn: Objective,
        x0: np.ndarray,
        *,
        rho_start: float,
        rho_end: float,
        max_evals: int,
        keep_states: bool = False,
    ) -> OptimizeResult:
        """Search from ``x0`` until the resolution radius falls from
        ``rho_start`` to ``rho_end`` or ``max_evals`` evaluations are
        spent.  With ``keep_states``, the result lists an
        ``OptimizerState`` per trust-region model step; Nelder-Mead
        builds no model, so its list stays empty."""
        check_radii(rho_start, rho_end)
        budget = _Budget(fn, max_evals, x0)
        states: list[OptimizerState] | None = [] if keep_states else None
        try:
            self._search(budget, np.asarray(x0, dtype=float), rho_start, rho_end, states)
        except _BudgetExhausted:
            pass
        return OptimizeResult(budget.best_x, budget.best_f, budget.used, states or [])


def _initial_simplex(x0: np.ndarray, scale: float) -> np.ndarray:
    d = x0.size
    points = np.tile(np.asarray(x0, dtype=float), (d + 1, 1))
    for j in range(d):
        points[j + 1, j] += scale
    return points


class LinearTrustRegion(_Minimizer):
    """Linear-interpolation trust-region search (COBYLA-style, unconstrained).

    A simplex of d+1 points carries a linear model of the objective;
    each iteration steps from the best vertex along the model's descent
    direction.  Two radii steer the search: the working radius grows on
    successful steps and halves on failures, floored by the resolution
    radius, which itself only shrinks (from ``rho_start`` to
    ``rho_end``).  When the model step fails, the axes around the
    incumbent are polled before any radius is reduced; curvature can
    swamp a linear model near flat optima, but axis polls still make
    progress there, and the poll points keep the interpolation set well
    poised as a side effect.
    """

    GROW = 1.6
    SHRINK = 0.5

    def _search(
        self,
        budget: _Budget,
        x0: np.ndarray,
        rho_start: float,
        rho_end: float,
        states: list[OptimizerState] | None,
    ) -> None:
        d = x0.size
        rho = rho_start  # resolution radius, monotone decreasing
        delta = rho_start  # working radius, delta >= rho

        points = _initial_simplex(x0, rho_start)
        values = np.array([budget(p) for p in points])

        def rebuild(center: np.ndarray, f_center: float, scale: float) -> None:
            nonlocal points, values
            points = _initial_simplex(center, scale)
            values = np.concatenate([[f_center], [budget(p) for p in points[1:]]])

        def absorb(point: np.ndarray, value: float) -> None:
            worst = int(np.argmax(values))
            if value < values[worst]:
                points[worst] = point
                values[worst] = value

        while True:
            b = int(np.argmin(values))
            spread = max(np.linalg.norm(p - points[b]) for p in points)
            degenerate = (
                spread > 10.0 * delta
                or np.linalg.matrix_rank(
                    np.delete(points, b, axis=0) - points[b],
                    tol=1e-12 * max(spread, 1.0),
                )
                < d
            )
            if degenerate:
                rebuild(points[b], values[b], delta)
                continue

            diffs = np.delete(points, b, axis=0) - points[b]
            dvals = np.delete(values, b) - values[b]
            grad, *_ = np.linalg.lstsq(diffs, dvals, rcond=None)
            gnorm = float(np.linalg.norm(grad))

            improved = False
            if gnorm > 1e-300:
                step = -delta * grad / gnorm
                candidate = points[b] + step
                f_cand = budget(candidate)
                if states is not None:
                    states.append(
                        OptimizerState(
                            points[b].copy(),
                            step,
                            points.copy(),
                            values.copy(),
                            grad,
                            delta,
                        )
                    )
                absorb(candidate, f_cand)
                improved = f_cand < values[b]

            if not improved:
                center, f_center = points[b].copy(), values[b]
                for j in range(d):
                    for sign in (1.0, -1.0):
                        poll = center.copy()
                        poll[j] += sign * delta
                        f_poll = budget(poll)
                        absorb(poll, f_poll)
                        if f_poll < f_center:
                            improved = True
                            break
                    if improved:
                        break

            if improved:
                delta = min(delta * self.GROW, rho_start * 4.0)
                continue
            if delta > rho:
                delta = max(delta * self.SHRINK, rho)
                continue
            # Working radius is down at the resolution floor.
            if rho <= rho_end:
                return
            rho = max(rho * self.SHRINK, rho_end)
            delta = rho
            b = int(np.argmin(values))
            rebuild(points[b], values[b], rho)


class NelderMead(_Minimizer):
    """Downhill-simplex search with standard coefficients."""

    def _search(
        self,
        budget: _Budget,
        x0: np.ndarray,
        rho_start: float,
        rho_end: float,
        states: list[OptimizerState] | None,
    ) -> None:
        alpha, gamma, beta, sigma = 1.0, 2.0, 0.5, 0.5
        d = x0.size
        points = _initial_simplex(x0, rho_start)
        values = np.array([budget(p) for p in points])

        while True:
            order = np.argsort(values, kind="stable")
            points, values = points[order], values[order]
            if max(np.linalg.norm(p - points[0]) for p in points) < rho_end:
                return

            centroid = points[:-1].mean(axis=0)
            reflected = centroid + alpha * (centroid - points[-1])
            f_r = budget(reflected)
            if values[0] <= f_r < values[-2]:
                points[-1], values[-1] = reflected, f_r
                continue
            if f_r < values[0]:
                expanded = centroid + gamma * (reflected - centroid)
                f_e = budget(expanded)
                if f_e < f_r:
                    points[-1], values[-1] = expanded, f_e
                else:
                    points[-1], values[-1] = reflected, f_r
                continue
            contracted = centroid + beta * (points[-1] - centroid)
            f_c = budget(contracted)
            if f_c < values[-1]:
                points[-1], values[-1] = contracted, f_c
                continue
            for i in range(1, d + 1):
                points[i] = points[0] + sigma * (points[i] - points[0])
                values[i] = budget(points[i])


OPTIMIZERS: dict[str, type[_Minimizer]] = {
    "cobyla": LinearTrustRegion,
    "nelder-mead": NelderMead,
}
