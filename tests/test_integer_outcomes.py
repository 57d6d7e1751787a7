"""Outcomes stay integers inside the package: ``run_qpe`` folds every
backend's counts from their integer tally and renders or parses no
bitstring, iterating counts renders each outcome once, a fold of counts
is exact at any size, and the noisy and oracle ``frequency`` read outcome
1 by index, with the values the bitstring lookups give."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit
from qbandit.backends import ExactOracleBackend, IdealBackend, NoisyBackend
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.noise import NoiseConfig
from qbandit.qpe import FoldedDistribution, QpeConfig, run_qpe
from qbandit.statevector import Circuit, MeasurementCounts, OutcomeMap, h

BACKENDS = {
    "ideal": IdealBackend,
    "noisy": lambda: NoisyBackend(NoiseConfig(p1=0.05, p2=0.2, readout_flip=0.1, seed=3)),
    "oracle": ExactOracleBackend,
}


def counting_keys(monkeypatch) -> tuple[list, list]:
    """(renders, parses) of bitstring keys, as ``OutcomeMap`` makes them
    from here on; ``FoldedDistribution``'s int keys are neither."""
    renders, parses = [], []
    render, parse = OutcomeMap._key, OutcomeMap._index

    def rendering(self, outcome):
        renders.append(outcome)
        return render(self, outcome)

    def parsing(self, key):
        parses.append(key)
        return parse(self, key)

    monkeypatch.setattr(OutcomeMap, "_key", rendering)
    monkeypatch.setattr(OutcomeMap, "_index", parsing)
    return renders, parses


@pytest.mark.parametrize("name", BACKENDS)
def test_run_qpe_renders_and_parses_no_bitstring(monkeypatch, name):
    n = 4 if name == "noisy" else 8
    renders, parses = counting_keys(monkeypatch)
    hist = run_qpe(PolicySpec(0.3), BanditParams(1.1, 2.2), QpeConfig(n=n, shots=300), BACKENDS[name]())
    assert renders == [] and parses == []
    assert sum(hist.counts.values()) == 300
    assert list(hist.counts) == sorted(hist.counts)
    assert all(type(y) is int and type(c) is int for y, c in hist.counts.items())


@pytest.mark.parametrize("name", BACKENDS)
def test_iterating_counts_renders_each_outcome_once(monkeypatch, name):
    circ = random_circuit(3, 12, np.random.default_rng(4))
    got = BACKENDS[name]().counts(circ, 500, 9, (2, 0, 1))
    renders, _ = counting_keys(monkeypatch)
    items = list(got.counts.items())
    assert renders == got.counts.outcomes.tolist()
    assert [bits for bits, _ in items] == [format(m, "03b") for m in renders]
    assert all(type(c) is int for _, c in items) and sum(c for _, c in items) == 500


def test_a_fold_of_counts_is_exact_past_2_to_the_53():
    # Outcomes 1 and 3 alias on a 2-qubit register: 2**53 + 1 is no float.
    folded = FoldedDistribution(OutcomeMap(np.array([0, 2**53, 0, 1])), 2)
    assert dict(folded) == {1: 2**53 + 1}
    assert type(folded[1]) is int


@pytest.mark.parametrize(
    "size, n, message",
    [
        (8, 1, "n=1 folds the 2 outcomes of an n-qubit register, got 8"),
        (8, 2, "n=2 folds the 4 outcomes of an n-qubit register, got 8"),
        (8, 4, "n=4 folds the 16 outcomes of an n-qubit register, got 8"),
        (8, 0, r"n must be in \[1, 12\], got 0"),
        (8, 10**8, r"n must be in \[1, 12\], got 100000000"),
    ],
)
def test_a_fold_refuses_outcomes_that_are_not_its_registers(size, n, message):
    with pytest.raises(ValueError, match=message):
        FoldedDistribution(OutcomeMap(np.full(size, 1 / size)), n)


class HugeTally(IdealBackend):
    """An ideal backend whose counts are a fixed tally on 2 qubits."""

    def counts(self, circ, shots, seed, qubits=None):
        return MeasurementCounts(OutcomeMap(np.array([0, 2**53, 0, 1])), shots)


def test_run_qpe_folds_counts_past_2_to_the_53_exactly():
    config = QpeConfig(n=2, shots=2**53 + 1)
    hist = run_qpe(PolicySpec(0.3), BanditParams(1.1, 2.2), config, HugeTally())
    assert hist.counts == {1: 2**53 + 1}


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(2, 4),
    gates=st.integers(1, 15),
    layout=st.integers(0, 2**32 - 1),
    qubit=st.integers(0, 3),
    shots=st.integers(1, 400),
    seed=st.integers(0, 2**64 - 1),
    rates=st.sampled_from([(0.0, 0.0, 0.0), (5e-4, 5e-3, 5e-3), (0.3, 0.3, 0.2)]),
)
def test_noisy_and_oracle_frequency_read_outcome_1(width, gates, layout, qubit, shots, seed, rates):
    circ = random_circuit(width, gates, np.random.default_rng(layout))
    qubit %= width
    noisy = NoisyBackend(NoiseConfig(*rates))
    got = noisy.frequency(circ, qubit, shots, seed)
    assert type(got) is float
    assert got == noisy.counts(circ, shots, seed, (qubit,)).frequency("1")
    oracle = ExactOracleBackend()
    got = oracle.frequency(circ, qubit, shots, seed)
    assert type(got) is float
    assert got == oracle.exact_probabilities(circ, (qubit,)).get("1", 0.0)


def test_the_oracle_counts_apportion_integer_outcomes_in_bitstring_tie_order():
    """Equal remainders break on the outcome, as they did on its bitstring:
    of four equally likely outcomes and 2 shots, 00 and 01 get one each."""
    circ = Circuit(2, (h(0), h(1)))
    probs = ExactOracleBackend().exact_probabilities(circ)
    assert len(set(probs.values())) == 1 and len(probs) == 4
    assert ExactOracleBackend().counts(circ, 2, 0).counts == {"00": 1, "01": 1}
    assert list(ExactOracleBackend().counts(circ, 7, 0).counts.items()) == [("00", 2), ("01", 2), ("10", 2), ("11", 1)]
