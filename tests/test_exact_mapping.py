"""An exact distribution is a read-only mapping on the marginal array: it
is the dict of nonzero outcomes, key for key, bit for bit, in order and in
``repr``, and a folded QPE distribution read from the array is the one
the bitstring parse gave.  Keys are rendered only when something iterates
them, so ideal QPE renders no more of them than its sampled counts hold."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_exact_distribution, reference_folded
from qbandit import statevector
from qbandit.backends import ExactOracleBackend, IdealBackend
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.qpe import (
    FoldedDistribution,
    QpeConfig,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    eval_qubits,
    run_qpe,
)
from qbandit.statevector import StateVector, exact_distribution

ANGLE = st.floats(0.0, np.pi)


@st.composite
def states(draw):
    """A random state on 1-8 qubits, some amplitudes exactly zero, some
    whose probability is subnormal and some whose probability underflows
    to zero; it need not be normalized."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    mix = draw(st.sampled_from([(1, 0, 0, 0), (0.4, 0.2, 0.2, 0.2), (0, 0.5, 0.5, 0)]))
    kind = rng.choice(4, size=2**n, p=mix)
    amps[kind == 1] = 0.0
    amps[kind == 2] *= 1e-157  # |a|^2 near 1e-316: subnormal
    amps[kind == 3] *= 1e-170  # |a|^2 underflows to 0.0
    return StateVector(n, amps)


@st.composite
def states_and_subsets(draw):
    state = draw(states())
    n = state.num_qubits
    if draw(st.booleans()):
        return state, None
    return state, tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])


def lookup(mapping, key):
    """What ``mapping[key]``, ``.get`` and ``in`` give, exceptions by type."""
    out = []
    for read in (lambda: mapping[key].hex(), lambda: mapping.get(key, "absent"), lambda: key in mapping):
        try:
            got = read()
        except (KeyError, TypeError) as err:
            got = type(err).__name__
        out.append(got.hex() if isinstance(got, float) else got)
    return out


def probe_keys(width):
    """Every bitstring of the register's width, then keys of the wrong
    width, with characters other than 0 and 1, and of other types."""
    keys = [format(m, f"0{width}b") for m in range(2**width)]
    one = "1" * width
    keys += ["", "0" + one, one[1:], "2" * width, " " + one[1:], "+" + one[1:], one + " "]
    keys += ["0b" + one[2:] if width > 2 else "0b", one[:1] + "_" + one[2:], "１" * width]
    keys += [0, 1, 2**width - 1, True, np.int64(1), 1.0, np.str_(one), b"1" * width, ("1",) * width]
    return keys + [[], {}]


@settings(max_examples=150, deadline=None)
@given(states_and_subsets())
def test_the_mapping_is_the_dict_of_nonzero_outcomes(case):
    state, qubits = case
    got = exact_distribution(state, qubits)
    want = reference_exact_distribution(state, qubits)
    assert list(got) == list(want)
    assert [got[k].hex() for k in got] == [p.hex() for p in want.values()]
    assert [(k, p.hex()) for k, p in got.items()] == [(k, p.hex()) for k, p in want.items()]
    assert len(got) == len(want)
    assert repr(got) == repr(want) and str(got) == str(want)
    assert got == want and want == got and not got != want and not want != got
    assert got == exact_distribution(state, qubits)
    width = got.marginal.size.bit_length() - 1
    for key in probe_keys(width):
        assert lookup(got, key) == lookup(want, key), key


@settings(max_examples=20, deadline=None)
@given(states_and_subsets())
def test_the_backing_arrays_are_read_only(case):
    got = exact_distribution(*case)
    for array in (got.marginal, got.outcomes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(TypeError):
        got["0" * got.marginal.size.bit_length()] = 1.0


def test_a_changed_entry_makes_the_mapping_unequal():
    state = StateVector(2, np.full(4, 0.5, dtype=complex))
    got, want = exact_distribution(state), reference_exact_distribution(state)
    want["11"] = 0.5 + 2**-53
    assert got != want and want != got
    del want["11"]
    assert got != want and want != got


@settings(max_examples=40, deadline=None)
@given(p_left=st.floats(0.0, 1.0), theta_left=ANGLE, theta_right=ANGLE, n=st.integers(1, 12))
@example(p_left=0.3, theta_left=1.1, theta_right=1.1, n=10)
@example(p_left=0.5, theta_left=0.0, theta_right=0.0, n=5)
@example(p_left=0.5, theta_left=np.pi, theta_right=np.pi, n=6)
@example(p_left=0.0, theta_left=0.0, theta_right=np.pi, n=12)
@example(p_left=1.0, theta_left=np.pi, theta_right=0.0, n=1)
def test_the_fold_from_the_array_is_the_fold_of_the_parsed_dict(p_left, theta_left, theta_right, n):
    policy, params = PolicySpec(p_left), BanditParams(theta_left, theta_right)
    circ = build_qpe_circuit(build_grover_operator(build_state_prep(policy, params)), n)
    want = reference_folded(reference_exact_distribution(circ.final_state, eval_qubits(n)), n)
    got = FoldedDistribution(exact_distribution(circ.final_state, eval_qubits(n)), n)
    hist = run_qpe(policy, params, QpeConfig(n=n, shots=5))
    ys = np.flatnonzero(want).tolist()
    for folded in (got, hist.exact):
        assert list(folded) == ys
        assert [folded[y].hex() for y in folded] == [float(want[y]).hex() for y in ys]


def counting_renders(monkeypatch):
    renders = []
    render = statevector._bitstring

    def counting(outcome, marg):
        renders.append(outcome)
        return render(outcome, marg)

    monkeypatch.setattr(statevector, "_bitstring", counting)
    return renders


def test_ideal_qpe_renders_only_its_sampled_outcomes(monkeypatch):
    policy, params, config = PolicySpec(0.3), BanditParams(1.1, 2.2), QpeConfig(n=10, shots=300)
    circ = build_qpe_circuit(build_grover_operator(build_state_prep(policy, params)), config.n)
    sampled = IdealBackend().counts(circ, config.shots, config.seed, eval_qubits(config.n)).counts
    renders = counting_renders(monkeypatch)
    run_qpe(policy, params, config)
    assert sorted(renders) == sorted(int(bits, 2) for bits in sampled)
    assert len(renders) < 2**config.n


def test_oracle_qpe_renders_no_key(monkeypatch):
    renders = counting_renders(monkeypatch)
    config = QpeConfig(n=10, shots=300)
    hist = run_qpe(PolicySpec(0.3), BanditParams(1.1, 2.2), config, ExactOracleBackend())
    assert renders == []
    assert sum(hist.counts.values()) == 300 and len(hist.exact) > 0
