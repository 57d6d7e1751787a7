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
    _Step,
    _apply_matrix,
    _marginal,
    derive_seed,
    h,
    new_state,
    phase,
    ry,
    swap,
    unitary,
    x,
    z,
)


def bitstring(outcome: int, marg: np.ndarray) -> str:
    """Outcome ``outcome`` of the marginal ``marg`` in binary, one
    character per measured qubit, qubits[0] rightmost: the keys an
    ``OutcomeMap`` renders, written out independently."""
    return format(int(outcome), f"0{marg.size.bit_length() - 1}b")


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
        _apply_matrix(amps, circ.num_qubits, gate.matrix, gate.targets, gate.controls)
    return amps


def power_step(segment, m) -> _Step:
    """``segment`` repeated m times as one step on the qubits it touches,
    lowest first: ``np.linalg.matrix_power`` of its local matrix, built
    gate by gate on those qubits alone."""
    qubits = sorted({q for g in segment for q in g.qubits})
    local = {q: j for j, q in enumerate(qubits)}
    matrix = np.eye(2 ** len(qubits), dtype=complex)
    for g in segment:
        targets, controls = tuple(map(local.get, g.targets)), tuple(map(local.get, g.controls))
        _apply_matrix(matrix, len(qubits), g.matrix, targets, controls)
    return _Step(np.linalg.matrix_power(matrix, m), tuple(qubits), ())


def folds(segment, copies) -> bool:
    """The one fold rule, read off the run: two or more gates, counting
    copies, on at most three qubits."""
    return len(segment) * copies > 1 and len({q for g in segment for q in g.qubits}) <= 3


def run_steps(segment, copies) -> list:
    """The steps a run of a plain segment plans as: one ``power_step`` if
    it ``folds``, else its gates, one step each."""
    return [power_step(segment, copies)] if folds(segment, copies) else list(segment * copies)


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
            assert (a.targets, a.controls) == (b.targets, b.controls)


def stream_words(key: int, start: int, count: int) -> np.ndarray:
    """Raw words ``start`` to ``start + count - 1`` of a new Philox stream
    keyed by ``key``, by numpy's own ``advance``: four words a counter."""
    bitgen = np.random.Philox(key=key)
    bitgen.advance(start // 4)
    bitgen.random_raw(start % 4)
    return bitgen.random_raw(count)


def reference_trajectory(circ: Circuit, config, seed: int, qubits=None, shot: int = 0) -> str:
    """Shot ``shot`` of the stream keyed by ``seed``, gate by gate: the
    oracle for the batched trajectories in ``qbandit.noise``.  The shot
    reads its W words from word shot * W on, W being one per (gate,
    touched qubit), one for the measurement and one per measured qubit.
    Per gate it applies the gate and, for each touched qubit whose word
    has u = w >> 11 below B = ceil(rate * 2**53), the Pauli 3u // B; then
    it measures with the next word's uniform u * 2**-53, by its own float
    inverse CDF, and flips each measured bit whose word's uniform is below
    the readout rate."""
    n = circ.num_qubits
    amps = new_state(n).amps
    measured = n if qubits is None else len(tuple(qubits))
    width = sum(len(gate.qubits) for gate in circ.gates) + 1 + measured
    words = iter(int(w) >> 11 for w in stream_words(seed, shot * width, width))
    for gate in circ.gates:
        _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls)
        touched = gate.qubits
        below = math.ceil((config.p1 if len(touched) == 1 else config.p2) * 2**53)
        for qubit, u in zip(touched, words):
            if u < below:
                _apply_matrix(amps, n, _PAULIS[3 * u // below], (qubit,), ())
    marg = _marginal(amps, n, qubits)
    cdf = np.cumsum(marg)
    cdf[-1] = 1.0
    m = int(np.searchsorted(cdf, next(words) * 2.0**-53, side="right"))
    for j, u in enumerate(words):
        if u * 2.0**-53 < config.readout_flip:
            m ^= 1 << j
    return bitstring(m, marg)


def reference_counts(circ: Circuit, shots: int, config, seed: int, qubits=None) -> dict[str, int]:
    """``noisy_counts``' counts, in first-seen order, one
    ``reference_trajectory`` a shot from the stream keyed by
    ``derive_seed(config.seed, seed)``."""
    key, counts = derive_seed(config.seed, seed), {}
    for i in range(shots):
        bits = reference_trajectory(circ, config, key, qubits, shot=i)
        counts[bits] = counts.get(bits, 0) + 1
    return counts


def channel_distribution(circ: Circuit, config, qubits=None) -> np.ndarray:
    """The exact outcome distribution of ``circ`` under ``config``'s noise,
    from density-matrix evolution: the independent oracle for the noise
    channel, which shares no random stream with the trajectories.

    rho is a vector on 2w qubits, rho[i + 2**w * j] = <i|rho|j>, so a gate
    U is U on its qubits and conj(U) on the same qubits shifted by w.
    After each gate every touched qubit q takes the depolarizing map
    (1 - p) I + (p/3) sum_P conj(P) (x) P on (q, q + w), one Pauli with
    probability p (Nielsen & Chuang, ch. 8).  The diagonal's marginal on
    ``qubits`` (bit j is qubits[j]) then takes each readout flip as a
    confusion map."""
    w = circ.num_qubits
    qubits = tuple(range(w)) if qubits is None else tuple(qubits)
    rho = np.zeros(4**w, dtype=complex)
    rho[0] = 1.0
    pauli_sum = sum(np.kron(p.conj(), p) for p in _PAULIS)
    maps = {
        rate: (1 - rate) * np.eye(4) + rate / 3 * pauli_sum for rate in {config.p1, config.p2}
    }
    shift = lambda qs: tuple(q + w for q in qs)
    for gate in circ.gates:
        _apply_matrix(rho, 2 * w, gate.matrix, gate.targets, gate.controls)
        _apply_matrix(rho, 2 * w, gate.matrix.conj(), shift(gate.targets), shift(gate.controls))
        depolarize = maps[config.p1 if len(gate.qubits) == 1 else config.p2]
        for q in gate.qubits:
            _apply_matrix(rho, 2 * w, depolarize, (q, q + w), ())
    diagonal = rho[:: 2**w + 1].real
    index = np.arange(2**w)
    outcome = sum(((index >> q) & 1) << j for j, q in enumerate(qubits))
    marg = np.bincount(outcome, weights=diagonal, minlength=2 ** len(qubits))
    r = config.readout_flip
    for j in range(len(qubits)):
        marg = (1 - r) * marg + r * marg[np.arange(marg.size) ^ (1 << j)]
    return marg


# Each outcome's count misses its mean by less than Bernstein's bound at
# this probability, so a case with k outcomes fails by chance with
# probability below k times it.
MULTINOMIAL_DELTA = 1e-6


def assert_multinomial(counts: dict[str, int], probs: np.ndarray, shots: int) -> None:
    """``counts`` of ``shots`` independent draws are consistent with the
    distribution ``probs`` over bitstrings (outcome m rendered in binary,
    as the counts render it).  Bernstein's inequality: a count c with
    mean N p and variance v = N p (1 - p) has P(|c - N p| >= t) <= 2
    exp(-t^2 / (2 (v + t / 3))), which is ``MULTINOMIAL_DELTA`` at t =
    L/3 + sqrt(L^2/9 + 2 v L), L = ln(2 / delta)."""
    width = probs.size.bit_length() - 1
    assert sum(counts.values()) == shots
    assert all(len(bits) == width for bits in counts)
    got = np.zeros(probs.size)
    for bits, c in counts.items():
        got[int(bits, 2)] = c
    mean, var = shots * probs, np.maximum(shots * probs * (1 - probs), 0.0)
    log = math.log(2 / MULTINOMIAL_DELTA)
    bound = log / 3 + np.sqrt(log * log / 9 + 2 * var * log)
    assert np.all(np.abs(got - mean) < bound), (got, mean, bound)


def reference_slots(circ: Circuit, config) -> tuple[np.ndarray, ...]:
    """``(gate, qubit, below)``, one entry per (gate, touched qubit), read
    off ``circ.gates`` one gate at a time: the oracle for
    ``noise._Slots.of``, which builds them run by run."""
    gate, qubit, below = [], [], []
    bounds = (math.ceil(config.p1 * 2**53), math.ceil(config.p2 * 2**53))
    for g, op in enumerate(circ.gates):
        touched = op.qubits
        below += [bounds[len(touched) > 1]] * len(touched)
        gate += [g] * len(touched)
        qubit += touched
    ints = (np.array(v, dtype=np.intp) for v in (gate, qubit))
    return (*ints, np.array(below, dtype=np.uint64))


def fresh_uniforms(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of a new Philox stream keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed)).random(count)


def reference_tally(marg: np.ndarray, uniforms: np.ndarray) -> dict[str, int]:
    """Shot by shot: each uniform's outcome by ``searchsorted`` into the
    CDF (last entry pinned to 1.0), counted by ``np.unique``."""
    cdf = np.cumsum(marg)
    cdf[-1] = 1.0
    values, reps = np.unique(np.searchsorted(cdf, uniforms, side="right"), return_counts=True)
    return {bitstring(m, marg): int(c) for m, c in zip(values, reps)}


def reference_sample_counts(state, shots: int, seed: int, qubits=None) -> dict[str, int]:
    """The per-shot sampler: the oracle for ``statevector.sample_counts``."""
    marg = _marginal(state.amps, state.num_qubits, qubits)
    return reference_tally(marg, fresh_uniforms(seed, shots))


def reference_exact_distribution(state, qubits=None) -> dict[str, float]:
    """The dict ``statevector.exact_distribution`` stands for: every
    nonzero outcome's bitstring, in increasing order, to its probability."""
    marg = _marginal(state.amps, state.num_qubits, qubits)
    return {bitstring(m, marg): float(p) for m, p in enumerate(marg) if p > 0.0}


def reference_folded(outcomes: dict[str, float], n: int) -> np.ndarray:
    """Register outcomes parsed back from their bitstrings and folded onto
    the 2^(n-1)+1 grid points, each adding its outcomes in key order."""
    ys = np.array([int(bits, 2) for bits in outcomes], dtype=np.intp)
    weights = np.fromiter(outcomes.values(), dtype=float, count=len(outcomes))
    return np.bincount(np.minimum(ys, 2**n - ys), weights, minlength=2 ** (n - 1) + 1)


def reference_folded_dict(outcomes: dict[str, float], n: int) -> dict[int, float]:
    """``reference_folded`` as the dict of its nonzero grid points, in
    increasing order: what ``run_qpe`` keeps of folded counts, and what a
    ``FoldedDistribution`` stands for."""
    grid = reference_folded(outcomes, n)
    return {y: grid[y].item() for y in np.flatnonzero(grid).tolist()}


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
