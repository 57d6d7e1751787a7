"""Closed-form distribution of phase-estimation amplitude estimation.

Brassard, Hoyer, Mosca and Tapp (2002, arXiv:quant-ph/0005055, Thm. 11):
with M = 2^n evaluation states and phi = arcsin(sqrt(a)) / pi, the
register reads y with probability

    P(y) = (F(y/M - phi) + F(y/M + phi)) / 2,
    F(d) = sin^2(M pi d) / (M^2 sin^2(pi d))   (F = 1 where sin(pi d) = 0).

The benchmark checks ideal phase-estimation output against this without
a second simulation.
"""

from __future__ import annotations

import math

import numpy as np

from qbandit.qpe import fold_outcome


def _fejer(delta: np.ndarray, m: int) -> np.ndarray:
    s = np.sin(np.pi * delta)
    on_grid = np.abs(s) < 1e-12
    safe = np.where(on_grid, 1.0, s)
    return np.where(on_grid, 1.0, np.sin(m * np.pi * delta) ** 2 / (m * m * safe * safe))


def folded_distribution(a: float, n: int) -> np.ndarray:
    """P(folded outcome = y) for y in [0, 2^(n-1)], policy value ``a``."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must be in [0, 1], got {a}")
    m = 2**n
    phi = math.asin(math.sqrt(a)) / math.pi
    y = np.arange(m)
    raw = 0.5 * (_fejer(y / m - phi, m) + _fejer(y / m + phi, m))
    folded = [fold_outcome(int(v), n) for v in y]
    return np.bincount(folded, weights=raw, minlength=m // 2 + 1)


def tv_distance(counts: dict[int, int], shots: int, exact: np.ndarray) -> float:
    """Total-variation distance between shot frequencies and ``exact``."""
    freq = np.zeros_like(exact)
    for y, c in counts.items():
        freq[y] += c / shots
    return 0.5 * float(np.abs(freq - exact).sum())
