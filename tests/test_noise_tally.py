"""Noisy shots are tallied as integer outcomes: the counts keep the
first-seen order of the shot-by-shot loop across chunk boundaries, and a
bitstring is rendered once per distinct outcome, not once per shot."""

import numpy as np
import pytest

from helpers import random_circuit, reference_counts
from qbandit import noise
from qbandit.noise import NoiseConfig, noisy_counts
from qbandit.statevector import Circuit, h


@pytest.mark.parametrize("per_chunk", [1, 3, 7])
def test_first_seen_order_holds_across_chunks(monkeypatch, per_chunk):
    circ = random_circuit(3, 12, np.random.default_rng(8))
    config = NoiseConfig(p1=0.05, p2=0.2, readout_flip=0.2, seed=3)
    want = list(reference_counts(circ, 40, config, 0, (2, 0)).items())
    # Shots 0, 1 and 3 read 00, 11 and 01, out of increasing order, and
    # 10 comes first at shot 24, past the first chunk at every size.
    assert [bits for bits, _ in want] == ["00", "11", "01", "10"]
    monkeypatch.setattr(noise, "_CHUNK_AMPS", per_chunk * 2**3)
    assert list(noisy_counts(circ, 40, config, 0, (2, 0)).counts.items()) == want


def test_bitstrings_are_rendered_per_outcome_not_per_shot(monkeypatch):
    renders = []

    def counting(outcome, marg):
        renders.append(outcome)
        return render(outcome, marg)

    render = noise._bitstring
    monkeypatch.setattr(noise, "_bitstring", counting)
    got = noisy_counts(Circuit(1, (h(0),)), 8000, NoiseConfig(), 2)
    chunks = -(-8000 // max(1, noise._CHUNK_AMPS >> 1))
    assert sum(got.counts.values()) == 8000
    assert 0 < len(renders) <= len(got.counts) * chunks
