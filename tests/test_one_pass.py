"""Ideal QPE simulates its circuit once: ``Circuit.final_state`` is
computed on first use and shared, read-only, by every backend call on
that circuit object.  Results equal a two-pass oracle that simulates the
circuit afresh for the distribution and again for the shots."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit import statevector
from qbandit.backends import ExactOracleBackend, IdealBackend, apportion
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.qpe import (
    QpeConfig,
    _fold,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    eval_qubits,
    run_qpe,
)
from qbandit.statevector import apply_circuit, exact_distribution, new_state, sample_counts

THREADS = 4


def qpe_circuit(p_left, theta_left, theta_right, n):
    prep = build_state_prep(PolicySpec(p_left), BanditParams(theta_left, theta_right))
    return build_qpe_circuit(build_grover_operator(prep), n)


def two_pass(p_left, theta_left, theta_right, config, oracle):
    """``run_qpe``'s histogram from two independent simulations."""
    circ = qpe_circuit(p_left, theta_left, theta_right, config.n)
    register = eval_qubits(config.n)

    def simulate():
        return apply_circuit(new_state(circ.num_qubits), circ)

    exact = _fold(exact_distribution(simulate(), register), config.n)
    if oracle:
        counts = apportion(exact, config.shots)
    else:
        measured = sample_counts(simulate(), config.shots, config.seed, register)
        counts = _fold(measured.counts, config.n)
    return counts, exact


@pytest.mark.parametrize("n", [3, 6])
def test_ideal_run_qpe_applies_each_gate_once(monkeypatch, n):
    calls = []
    kernel = statevector._apply_matrix

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(statevector, "_apply_matrix", counting)
    run_qpe(PolicySpec(0.3), BanditParams(1.1, 2.2), QpeConfig(n=n, shots=50), IdealBackend())
    assert len(calls) == len(qpe_circuit(0.3, 1.1, 2.2, n))


ANGLE = st.floats(0.0, np.pi)


@settings(max_examples=30, deadline=None)
@given(
    p_left=st.floats(0.0, 1.0),
    theta_left=ANGLE,
    theta_right=ANGLE,
    n=st.integers(1, 7),
    shots=st.integers(1, 400),
    seed=st.integers(0, 2**64),
    oracle=st.booleans(),
)
def test_one_pass_equals_two_pass_oracle(p_left, theta_left, theta_right, n, shots, seed, oracle):
    config = QpeConfig(n=n, shots=shots, seed=seed)
    backend = ExactOracleBackend() if oracle else IdealBackend()
    hist = run_qpe(PolicySpec(p_left), BanditParams(theta_left, theta_right), config, backend)
    assert (hist.counts, hist.exact) == two_pass(p_left, theta_left, theta_right, config, oracle)


def test_final_state_is_read_only_and_shared():
    circ = qpe_circuit(0.6, 0.7, 2.5, 4)
    state = circ.final_state
    assert state is circ.final_state
    assert np.array_equal(state.amps, apply_circuit(new_state(circ.num_qubits), circ).amps)
    with pytest.raises(ValueError, match="read-only"):
        state.amps[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        state.amps *= 2.0


@pytest.mark.parametrize("backend", [IdealBackend(), ExactOracleBackend()], ids=lambda b: b.name)
def test_repeated_calls_on_one_circuit_agree(backend):
    circ = qpe_circuit(0.6, 0.7, 2.5, 4)
    register = eval_qubits(4)
    first = (
        backend.exact_probabilities(circ, register),
        backend.counts(circ, 300, 9, register).counts,
        backend.frequency(circ, 2, 300, 9),
    )
    again = (
        backend.exact_probabilities(circ, register),
        backend.counts(circ, 300, 9, register).counts,
        backend.frequency(circ, 2, 300, 9),
    )
    assert first == again


def test_threads_sharing_one_circuit_match_serial_calls():
    backend = IdealBackend()
    register = eval_qubits(5)
    angles = np.random.default_rng(5).uniform(0.0, np.pi, (6, 3))

    def results(circ, thread):
        exact = backend.exact_probabilities(circ, register)
        return exact, backend.counts(circ, 500, 100 + thread, register).counts

    # Serial answers from circuits of their own, so nothing is shared.
    serial = [
        [results(qpe_circuit(a / np.pi, b, c, 5), t) for t in range(THREADS)]
        for a, b, c in angles
    ]
    # Each round, all threads touch one fresh circuit at once.
    shared = [qpe_circuit(a / np.pi, b, c, 5) for a, b, c in angles]
    found = [[None] * THREADS for _ in shared]
    errors = []
    start = threading.Barrier(THREADS)

    def worker(thread):
        try:
            for round_, circ in enumerate(shared):
                start.wait(timeout=30)
                found[round_][thread] = results(circ, thread)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert found == serial
