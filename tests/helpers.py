"""Shared test utilities."""

import gc
import math
import tracemalloc

import numpy as np

from qbandit.bandit import Arm
from qbandit.noise import _PAULIS
from qbandit.statevector import (
    Circuit,
    Gate,
    _Fourier,
    _apply_matrix,
    _bitstring,
    _draw,
    _marginal,
    h,
    new_state,
    phase,
    ry,
    swap,
    unitary,
    x,
    z,
)


def random_circuit(num_qubits: int, num_gates: int, rng: np.random.Generator) -> Circuit:
    """Mixed-gate random circuit touching every gate kind, controls included."""
    gates = []
    for _ in range(num_gates):
        kind = rng.integers(7)
        qubits = rng.permutation(num_qubits)
        target, other = int(qubits[0]), int(qubits[1])
        if kind == 0:
            gates.append(x(target))
        elif kind == 1:
            gates.append(ry(float(rng.uniform(-np.pi, np.pi)), target))
        elif kind == 2:
            gates.append(h(target))
        elif kind == 3:
            gates.append(phase(float(rng.uniform(-np.pi, np.pi)), target))
        elif kind == 4:
            gates.append(z(target, controls=[other]))
        elif kind == 5:
            gates.append(swap(target, other))
        else:
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(m)
            gates.append(unitary(q, [target], controls=[other]))
    return Circuit(num_qubits, tuple(gates))


def gate_by_gate(circ: Circuit, amps: np.ndarray | None = None) -> np.ndarray:
    """The amplitudes ``circ`` makes from |0...0>, or from a copy of
    ``amps`` (one state or a batch of columns), one ``_apply_matrix`` per
    gate in order: the oracle for ``Circuit.steps``."""
    amps = new_state(circ.num_qubits).amps if amps is None else np.array(amps, dtype=complex)
    for gate in circ.gates:
        _apply_matrix(amps, circ.num_qubits, gate.matrix, gate.targets, gate.controls, gate.moves)
    return amps


def assert_same_steps(got, want):
    """Two step plans are the same: the same gate objects, equal FFT
    steps, and power steps with read-only matrices of the same bytes on
    the same qubits."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, Gate):
            assert a is b
        elif isinstance(b, _Fourier):
            assert type(a) is _Fourier and a == b
        else:
            assert np.array_equal(a.matrix, b.matrix) and a.matrix.tobytes() == b.matrix.tobytes()
            assert not a.matrix.flags.writeable
            assert (a.targets, a.controls, a.moves) == (b.targets, b.controls, b.moves)


def reference_trajectory(circ: Circuit, config, seed: int, qubits=None) -> str:
    """One noisy shot, gate by gate: the independent oracle for the
    batched trajectories in ``qbandit.noise``.  Per gate it applies the
    gate, draws one uniform per touched qubit and, for each one below the
    rate, one Pauli index; then it measures and flips readout bits."""
    n = circ.num_qubits
    rng = np.random.Generator(np.random.Philox(key=seed))
    amps = new_state(n).amps
    for gate in circ.gates:
        _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls)
        touched = gate.qubits
        rate = config.p1 if len(touched) == 1 else config.p2
        draws = rng.random(len(touched))
        for qubit, u in zip(touched, draws):
            if u < rate:
                _apply_matrix(amps, n, _PAULIS[rng.integers(3)], (qubit,), ())
    marg = _marginal(amps, n, qubits)
    m = int(_draw(marg, rng.random(1))[0])
    flips = rng.random(marg.size.bit_length() - 1) < config.readout_flip
    for j, flip in enumerate(flips):
        if flip:
            m ^= 1 << j
    return _bitstring(m, marg)


def reference_slots(circ: Circuit, config) -> tuple[np.ndarray, ...]:
    """``(rate, gate, qubit, end, below)``, one entry per (gate, touched
    qubit), read off ``circ.gates`` one gate at a time: the oracle for
    ``noise._Slots.of``, which builds them run by run."""
    rate, gate, qubit, end, below = [], [], [], [], []
    bounds = (math.ceil(config.p1 * 2**53), math.ceil(config.p2 * 2**53))
    for g, op in enumerate(circ.gates):
        touched = op.qubits
        k = len(touched)
        rate += [config.p1 if k == 1 else config.p2] * k
        below += [bounds[k > 1]] * k
        gate += [g] * k
        qubit += touched
        end += [len(qubit)] * k
    ints = (np.array(v, dtype=np.intp) for v in (gate, qubit, end))
    return (np.array(rate, dtype=float), *ints, np.array(below, dtype=np.uint64))


def fresh_uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of a new Philox stream keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed)).random(count)


def reference_tally(marg: np.ndarray, uniforms: np.ndarray) -> dict[str, int]:
    """Shot by shot: each uniform's outcome by ``searchsorted`` into the
    CDF (last entry pinned to 1.0), counted by ``np.unique``."""
    cdf = np.cumsum(marg)
    cdf[-1] = 1.0
    values, reps = np.unique(np.searchsorted(cdf, uniforms, side="right"), return_counts=True)
    return {_bitstring(m, marg): int(c) for m, c in zip(values, reps)}


def reference_sample_counts(state, shots: int, seed: int, qubits=None) -> dict[str, int]:
    """The per-shot sampler: the oracle for ``statevector.sample_counts``."""
    marg = _marginal(state.amps, state.num_qubits, qubits)
    return reference_tally(marg, fresh_uniforms(seed, shots))


def reference_exact_distribution(state, qubits=None) -> dict[str, float]:
    """The dict ``statevector.exact_distribution`` stands for: every
    nonzero outcome's bitstring, in increasing order, to its probability."""
    marg = _marginal(state.amps, state.num_qubits, qubits)
    return {_bitstring(m, marg): float(p) for m, p in enumerate(marg) if p > 0.0}


def reference_folded(outcomes: dict[str, float], n: int) -> np.ndarray:
    """Register outcomes parsed back from their bitstrings and folded onto
    the 2^(n-1)+1 grid points, each adding its outcomes in key order."""
    ys = np.array([int(bits, 2) for bits in outcomes], dtype=np.intp)
    weights = np.fromiter(outcomes.values(), dtype=float, count=len(outcomes))
    return np.bincount(np.minimum(ys, 2**n - ys), weights, minlength=2 ** (n - 1) + 1)


def mp_folded_distribution(policy, params, n: int) -> list:
    """The folded phase-estimation distribution evaluated with mpmath at 40
    digits, from the float angles the circuit is built with.

    Brassard, Hoyer, Mosca and Tapp (2002, arXiv:quant-ph/0005055, Thm.
    11): with M = 2^n and phi = arcsin(sqrt(a)) / pi for the policy value
    a, outcome y has probability (F(y/M - phi) + F(y/M + phi)) / 2, where
    F(d) = sin^2(M pi d) / (M^2 sin^2(pi d)), and F = 1 where sin(pi d) =
    0.  Outcomes y and M - y share the grid point min(y, M - y).
    """
    import mpmath

    with mpmath.workdps(40):
        mpf, pi, sin = mpmath.mpf, mpmath.pi, mpmath.sin
        p_left = mpmath.cos(mpf(policy.theta_policy) / 2) ** 2
        a = p_left * sin(mpf(params.theta_left) / 2) ** 2 + (1 - p_left) * sin(
            mpf(params.theta_right) / 2
        ) ** 2
        phi = mpmath.asin(mpmath.sqrt(a)) / pi
        m = 2**n

        def fejer(d):
            s = sin(pi * d)
            return mpf(1) if s == 0 else sin(m * pi * d) ** 2 / (m * m * s * s)

        folded = [mpf(0)] * (m // 2 + 1)
        for y in range(m):
            folded[min(y, m - y)] += (fejer(mpf(y) / m - phi) + fejer(mpf(y) / m + phi)) / 2
        return folded


def reference_dataset(f_left: float, f_right: float, pulls_per_arm: int, seed: int):
    """The oracle for ``training.synthesize_dataset``: each arm's pulls
    are one ``random`` call on a Generator over a new Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    records = []
    for arm, f in ((Arm.LEFT, f_left), (Arm.RIGHT, f_right)):
        records.extend((arm, int(r)) for r in (rng.random(pulls_per_arm) < f).astype(int))
    return tuple(records)


def reference_mc_estimate(
    p_left: float, win_left: float, win_right: float, num_samples: int, seed: int
) -> float:
    """The oracle for ``baseline.monte_carlo_estimate``: arm draws, then
    reward draws, from a Generator over a new Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    pick_left = rng.random(num_samples) < p_left
    wins = rng.random(num_samples) < np.where(pick_left, win_left, win_right)
    return float(wins.mean())


def traced_bytes(call) -> tuple[int, int]:
    """``(kept, peak)`` of one ``call()``, by tracemalloc: the bytes that
    dropping its result frees, after a ``gc.collect()`` on each side, and
    the traced peak while it ran.  ``call`` runs once untraced first, so
    that the caches it fills are not counted."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        kept = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return kept, peak
