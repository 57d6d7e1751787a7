"""One fold rule for both simulators.  A circuit's runs are planned once
per circuit object (``Circuit.run_plan``), and the ideal step plan and
the noisy trajectories both read that plan: the runs the ideal plan
folds into power steps are the runs an error-free noisy shot applies as
one kernel call, with the same matrix, and a circuit's local products
are built once whichever backend runs it first."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import folds, random_circuit
from qbandit import noise, statevector
from qbandit.backends import IdealBackend, NoisyBackend
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.noise import NoiseConfig, run_trajectory
from qbandit.qpe import build_grover_operator, build_qpe_circuit, build_state_prep, eval_qubits, inverse_qft_gates
from qbandit.statevector import Circuit, Gate, _InverseQft, _Step, h

ANGLE = st.floats(0.0, np.pi)
ERROR_FREE = NoiseConfig(p1=0.0, p2=0.0, readout_flip=0.0)


def qpe_circuit(p_left, theta_left, theta_right, n):
    prep = build_state_prep(PolicySpec(p_left), BanditParams(theta_left, theta_right))
    return build_qpe_circuit(build_grover_operator(prep), n)


def gates_on(qubits, count, rng):
    """``count`` random gates of every kind on two or more of ``qubits``."""
    gates = random_circuit(len(qubits), count, rng).gates
    place = lambda qs: tuple(qubits[q] for q in qs)
    return tuple(Gate(g.kind, place(g.targets), place(g.controls), g.params, g.payload) for g in gates)


@st.composite
def declared_circuits(draw):
    """A circuit of runs of each kind: narrow single-copy runs, one gate
    repeated, runs on four or more qubits and an ``_InverseQft``."""
    width = draw(st.integers(4, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = []
    for kind in draw(st.lists(st.sampled_from(["narrow", "single", "wide", "ladder"]), min_size=1, max_size=6)):
        qubits = [int(q) for q in rng.permutation(width)]
        if kind == "narrow":
            runs.append((gates_on(qubits[:3], draw(st.integers(2, 5)), rng), 1))
        elif kind == "single":
            runs.append((gates_on(qubits[:2], 1, rng), draw(st.integers(2, 6))))
        elif kind == "wide":
            segment = tuple(h(q) for q in qubits[:4]) + gates_on(qubits, draw(st.integers(0, 3)), rng)
            runs.append((segment, draw(st.integers(1, 3))))
        else:
            first = draw(st.integers(0, width - 2))
            register = tuple(range(first, draw(st.integers(first + 2, width))))
            runs.append((_InverseQft(inverse_qft_gates(register), register), draw(st.integers(1, 2))))
    return Circuit(width, runs=runs)


def ideal_folds(circ):
    """Per run: the ``_Step`` the ideal plan folds it into, or None."""
    steps, at, found = circ.steps, 0, []
    for segment, copies in circ.runs:
        if isinstance(segment, _InverseQft) and segment.fourier:
            found.append(None)
            at += copies
        elif at < len(steps) and type(steps[at]) is _Step:
            found.append(steps[at])
            at += 1
        else:
            found.append(None)
            at += len(segment) * copies
    assert at == len(steps)
    return found


def noisy_folds(circ):
    """Per run: the matrix an error-free noisy shot applies it with in one
    kernel call, a matrix no gate of the circuit holds, or None if the
    shot applies the run's gates one by one."""
    calls, kernel = [], noise._apply_matrix

    def counting(amps, num_qubits, matrix, *args):
        calls.append(matrix)
        return kernel(amps, num_qubits, matrix, *args)

    with mock.patch.object(noise, "_apply_matrix", counting):
        run_trajectory(circ, ERROR_FREE, seed=1)
    own = {id(g.matrix) for g in circ.gates}
    at, found = 0, []
    for segment, copies in circ.runs:
        if at < len(calls) and id(calls[at]) not in own:
            found.append(calls[at])
            at += 1
        else:
            found.append(None)
            at += len(segment) * copies
    assert at == len(calls)
    return found


def assert_one_fold_rule(circ):
    """The ideal plan's folds are the noisy ones, run for run, with the
    same matrix bytes, and both are the runs ``folds`` names; a marked
    ladder, which the ideal plan takes as FFT steps, is left out."""
    ideal, noisy = ideal_folds(circ), noisy_folds(circ)
    for (segment, copies), step, matrix in zip(circ.runs, ideal, noisy):
        if isinstance(segment, _InverseQft) and segment.fourier:
            assert step is None and (matrix is not None) == folds(segment, copies)
            continue
        assert (step is not None) == (matrix is not None) == folds(segment, copies)
        if step is not None:
            assert step.matrix.tobytes() == matrix.tobytes()


@settings(max_examples=40, deadline=None)
@given(circ=declared_circuits())
def test_declared_runs_fold_alike_in_both_simulators(circ):
    assert_one_fold_rule(circ)


@settings(max_examples=12, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta_left=ANGLE, theta_right=ANGLE, n=st.integers(1, 6))
def test_qpe_runs_fold_alike_in_both_simulators(p_left, theta_left, theta_right, n):
    assert_one_fold_rule(qpe_circuit(p_left, theta_left, theta_right, n))


def test_both_backends_build_controlled_q_once(monkeypatch):
    """An n = 4 circuit run ideal, then noisy: one gate-by-gate build of
    controlled Q's local product, its 16 gates and the control's
    Phase(pi) on three qubits, shared through the circuit's plan."""
    circ = qpe_circuit(0.3, 1.1, 2.2, 4)
    builds, kernel = [], statevector._apply_matrix

    def counting(amps, num_qubits, *args):
        builds.append(num_qubits)
        return kernel(amps, num_qubits, *args)

    monkeypatch.setattr(statevector, "_apply_matrix", counting)
    IdealBackend().counts(circ, 50, 1, eval_qubits(4))
    NoisyBackend().counts(circ, 50, 1, eval_qubits(4))
    assert builds.count(3) == 17
