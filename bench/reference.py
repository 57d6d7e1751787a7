"""A fixed reference kernel that tracks how fast the machine is right now.

On a shared machine the same task can take 15-20% longer from one minute
to the next, and a few seconds of contention stretch every task that
falls in them.  The timed run measures this kernel before every task
and after the last one, and reports each latency in units of the mean
of the two measurements around it (``ref``), which cancels most of that
drift.

The kernel mixes the two kinds of work qbandit does: the simulator's
inner loop (gather, 2x2 matrix product, scatter) on a 12-qubit and a
2-qubit vector, and small-object Python (a validated frozen dataclass, a
dict, a ``SeedSequence``), in about equal time.  It is written with
numpy and the standard library alone, so no change to qbandit moves it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

_VECTOR_ROUNDS = 160
_OBJECT_ROUNDS = 900


def _rows(width: int) -> list[np.ndarray]:
    index = np.arange(2**width)
    return [
        np.stack([index[(index >> q) & 1 == 0], index[(index >> q) & 1 == 1]])
        for q in range(width)
    ]


_WIDE, _NARROW = _rows(12), _rows(2)
_MIX = np.array([[0.6, -0.8j], [-0.8j, 0.6]], dtype=complex)


@dataclass(frozen=True)
class _Record:
    angle: float
    index: int

    def __post_init__(self):
        if not 0 <= self.index or self.angle != self.angle:
            raise ValueError("bad record")


def reference_seconds() -> float:
    """Wall time of one run of the kernel."""
    wide = np.full(2**12, 2.0**-6, dtype=complex)
    narrow = np.full(4, 0.5, dtype=complex)
    start = time.perf_counter()
    for r in range(_VECTOR_ROUNDS):
        for amps, table in ((wide, _WIDE), (narrow, _NARROW), (narrow, _NARROW)):
            rows = table[r % len(table)]
            amps[rows] = np.tensordot(_MIX, amps[rows], axes=(1, 0))
    tally: dict[int, float] = {}
    for i in range(_OBJECT_ROUNDS):
        record = _Record(float(i), i)
        tally[record.index % 7] = tally.get(record.index % 7, 0.0) + record.angle
        np.random.SeedSequence([i, 3]).generate_state(1)
    return time.perf_counter() - start
