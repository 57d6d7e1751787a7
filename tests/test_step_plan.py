"""The ideal simulator's step plan: a run of two or more gates (counting
copies) on at most three qubits runs as one matrix power, every other
gate as itself.
Ideal QPE stays on the closed form, small circuits on a gate-by-gate
reference, a noisy trajectory takes each narrow run as one step, and a
kept histogram holds its exact distribution at its information size."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_same_steps, gate_by_gate, random_circuit, run_steps, traced_bytes
from qbandit import noise, statevector
from qbandit.backends import apportion
from qbandit.bandit import Arm, BanditParams, PolicySpec, build_arm_circuit, policy_value
from qbandit.noise import NoiseConfig, run_trajectory
from qbandit.qpe import (
    QpeConfig,
    _fold,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    eval_qubits,
    qft_gates,
    run_qpe,
)
from qbandit.statevector import Circuit, _Fourier, _Step, exact_distribution, h, x

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.oracle import folded_distribution  # noqa: E402

ANGLE = st.floats(0.0, np.pi)


def qpe_circuit(p_left, theta_left, theta_right, n):
    prep = build_state_prep(PolicySpec(p_left), BanditParams(theta_left, theta_right))
    return build_qpe_circuit(build_grover_operator(prep), n)


@settings(max_examples=25, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta_left=ANGLE, theta_right=ANGLE, n=st.integers(1, 12))
def test_ideal_qpe_matches_the_closed_form(p_left, theta_left, theta_right, n):
    policy, params = PolicySpec(p_left), BanditParams(theta_left, theta_right)
    hist = run_qpe(policy, params, QpeConfig(n=n, shots=10))
    want = folded_distribution(policy_value(policy, params), n)
    got = np.array([hist.exact.get(y, 0.0) for y in range(len(want))])
    assert np.abs(got - want).max() < 1e-9
    assert set(hist.exact) <= set(range(len(want)))


@settings(max_examples=60, deadline=None)
@given(
    num_qubits=st.integers(2, 5),
    sizes=st.tuples(st.integers(0, 4), st.integers(2, 6), st.integers(0, 4)),
    copies=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_qubits=2, sizes=(2, 2, 2), copies=2, seed=1129762002)  # ``after`` equals the segment
def test_a_repeated_segment_matches_the_gate_by_gate_reference(num_qubits, sizes, copies, seed):
    """The segment's copies are declared as one run, so they fold on at
    most three qubits; the runs before and after it fold by the same
    rule, even when equal to it, and never together with it."""
    rng = np.random.default_rng(seed)
    before, segment, after = (random_circuit(num_qubits, k, rng).gates for k in sizes)
    circ = Circuit(num_qubits, runs=((before, 1), (segment, copies), (after, 1)))
    assert circ.gates == before + segment * copies + after
    want = gate_by_gate(circ)
    assert np.abs(circ.final_state.amps - want).max() < 1e-12
    assert_same_steps(circ.steps, [*run_steps(before, 1), *run_steps(segment, copies), *run_steps(after, 1)])


POOL = (x(0), h(1), x(1, controls=[0]), h(0), x(2, controls=[1]))


@settings(max_examples=200, deadline=None)
@given(picks=st.lists(st.integers(0, len(POOL) - 1), max_size=16))
def test_recurring_gate_objects_match_the_reference(picks):
    """Gate objects drawn from a small pool recur in any order.  A flat
    gate list folds nothing, so the state has the reference's bits."""
    circ = Circuit(3, tuple(POOL[i] for i in picks))
    assert circ.steps is circ.gates
    assert np.array_equal(circ.final_state.amps, gate_by_gate(circ))


def test_circuits_without_a_repeated_segment_plan_their_own_gates():
    prep = build_state_prep(PolicySpec(0.3), BanditParams(1.1, 2.2))
    q_op = build_grover_operator(prep)
    params = BanditParams(0.4, 2.9)
    for circ in (
        build_arm_circuit(Arm.LEFT, params),
        build_arm_circuit(Arm.RIGHT, params),  # its X gate recurs, with no repeat
        prep,
        q_op.circuit(),
        Circuit(5, tuple(qft_gates(range(5)))),
    ):
        assert circ.steps is circ.gates
        assert np.array_equal(circ.final_state.amps, gate_by_gate(circ))


def test_each_controlled_power_of_q_is_one_step():
    circ = qpe_circuit(0.3, 1.1, 2.2, 10)
    folded = [s for s in circ.steps if isinstance(s, _Step)]
    assert len(circ) == 17_466 and len(circ.steps) == 26
    # k = 0 .. 9: Q's 16 gates and the control's Phase(pi), 2^k times.
    assert [s.targets for s in folded] == [(0, 1, 2 + k) for k in range(10)]
    assert all(s.matrix.shape == (8, 8) and not s.matrix.flags.writeable for s in folded)
    # The inverse QFT's 60 gates: one FFT on the evaluation register.
    assert circ.steps[-1] == _Fourier(2, 10)


def test_a_noisy_trajectory_takes_each_narrow_run_as_one_step(monkeypatch):
    """At n = 4 the trajectory's kernel calls are the 9 gates of the
    preparation run, one power step per controlled run and the 12 gates of
    the inverse QFT; the controlled runs share one local product, built
    gate by gate once."""
    calls, builds = [], []
    kernel = noise._apply_matrix

    def counting(into):
        def call(amps, num_qubits, matrix, targets, controls, *arena):
            into.append((targets, controls))
            return kernel(amps, num_qubits, matrix, targets, controls, *arena)

        return call

    monkeypatch.setattr(noise, "_apply_matrix", counting(calls))
    monkeypatch.setattr(statevector, "_apply_matrix", counting(builds))
    circ = qpe_circuit(0.3, 1.1, 2.2, 4)
    run_trajectory(circ, NoiseConfig(p1=0.3, p2=0.3), seed=7, qubits=eval_qubits(4))
    (prep, _), *controlled, (qft, _) = circ.runs
    assert [len(prep), len(qft)] == [9, 12] and len(calls) == 9 + 4 + 12
    assert calls[:9] == [(g.targets, g.controls) for g in prep]
    assert calls[9:13] == [((0, 1, 2 + k), ()) for k in range(4)]
    assert calls[13:] == [(g.targets, g.controls) for g in qft]
    assert [copies for _, copies in controlled] == [1, 2, 4, 8]
    assert len(builds) == len(controlled[0][0]) == 17
    assert len(circ) == 276


def test_the_exact_distribution_is_a_compact_read_only_mapping():
    circ = qpe_circuit(0.6, 0.7, 2.5, 5)
    hist = run_qpe(PolicySpec(0.6), BanditParams(0.7, 2.5), QpeConfig(n=5, shots=300))
    folded = _fold(exact_distribution(circ.final_state, eval_qubits(5)), 5)
    assert hist.exact == folded and folded == hist.exact
    assert sorted(hist.exact.items()) == sorted(folded.items())
    assert all(type(y) is int and type(p) is float for y, p in hist.exact.items())
    assert hist.exact.get(99, -1.0) == -1.0 and "1" not in hist.exact
    assert apportion(hist.exact, 300) == apportion(folded, 300)
    with pytest.raises(TypeError):
        hist.exact[0] = 1.0


def test_a_kept_n10_histogram_is_small():
    run = lambda: run_qpe(PolicySpec(0.3), BanditParams(1.1, 2.2), QpeConfig(n=10, shots=300))
    kept, _ = traced_bytes(run)
    assert kept <= 8 * 1024
