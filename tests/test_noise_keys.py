"""The noise path's stream and memory: each call reads one keyed Philox
stream, its raw words in blocks of bounded size, freed before the gates
run."""

import tracemalloc

import pytest

from qbandit import noise
from qbandit.bandit import BanditParams, PolicySpec, angle_from_frequency
from qbandit.noise import NoiseConfig, noisy_counts, run_trajectory
from qbandit.qpe import build_grover_operator, build_qpe_circuit, build_state_prep, eval_qubits
from qbandit.statevector import Circuit, SimulationError, derive_seed, h

def test_shot_counts_past_32_bits_are_refused_up_front(monkeypatch):
    # The refusal comes before any key is derived or any trajectory runs.
    def no_work(*args):
        raise AssertionError("trajectories started")

    monkeypatch.setattr(noise, "_trajectories", no_work)
    with pytest.raises(ValueError, match="shots"):
        noisy_counts(Circuit(1, (h(0),)), 2**32 + 1, NoiseConfig(), 0)


@pytest.mark.parametrize("qubits", [(), (0, 0), (2,), (True,)])
def test_a_bad_subset_is_refused_before_the_slots_are_built(monkeypatch, qubits):
    def no_slots(*args):
        raise AssertionError("slots built")

    monkeypatch.setattr(noise._Slots, "of", no_slots)
    circ = Circuit(2, (h(0),))
    with pytest.raises(SimulationError, match="qubit subset"):
        noisy_counts(circ, 10, NoiseConfig(), 0, qubits)
    with pytest.raises(SimulationError, match="qubit subset"):
        run_trajectory(circ, NoiseConfig(), 0, qubits)


def qpe_circuit(n):
    policy = PolicySpec(0.3)
    params = BanditParams(angle_from_frequency(0.4), angle_from_frequency(0.7))
    return build_qpe_circuit(build_grover_operator(build_state_prep(policy, params)), n)


class RecordingPhilox:
    """``_PHILOX`` that records each read's key, first word and size."""

    def __init__(self, inner):
        self.inner, self.reads = inner, []

    def raw(self, key, start=0):
        read = self.inner.raw(key, start)

        def recorded(count):
            self.reads.append((key, start, count))
            return read(count)

        return recorded


@pytest.mark.parametrize("shots", [300, 3000])
def test_word_blocks_are_capped_whatever_the_shot_count(monkeypatch, shots):
    philox = RecordingPhilox(noise._PHILOX)
    monkeypatch.setattr(noise, "_PHILOX", philox)
    config = NoiseConfig()
    noisy_counts(qpe_circuit(3), shots, config, 5, eval_qubits(3))
    # One stream, read from word 0 to the last shot's last word, in order.
    keys, starts, sizes = zip(*philox.reads)
    assert set(keys) == {derive_seed(config.seed, 5)}
    assert 1 < len(sizes) and max(sizes) <= noise._BLOCK_WORDS
    assert starts == tuple(sum(sizes[:i]) for i in range(len(sizes)))
    width = len(noise._Slots.of(qpe_circuit(3), config).gate) + 1 + 3
    assert sum(sizes) == shots * width and all(size % width == 0 for size in sizes)


def test_noisy_qpe_peak_memory():
    # 300 shots of the n = 4 QPE circuit, as the qpe-noisy benchmark runs.
    circ, config, qubits = qpe_circuit(4), NoiseConfig(), eval_qubits(4)
    noisy_counts(circ, 300, config, 11, qubits)  # fills the index caches
    tracemalloc.start()
    try:
        noisy_counts(circ, 300, config, 11, qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
