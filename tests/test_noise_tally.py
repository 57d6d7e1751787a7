"""Noisy shots are tallied as integer outcomes: the counts keep the
first-seen order of the shot-by-shot loop across chunk boundaries, and a
bitstring is rendered only when the counts are iterated, once per
distinct outcome, never per shot."""

import numpy as np
import pytest

from helpers import random_circuit, reference_counts
from qbandit import noise
from qbandit.noise import NoiseConfig, noisy_counts
from qbandit.statevector import Circuit, OutcomeMap, h


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
    """None while the counts are made; one per outcome when they are
    iterated."""
    renders = []

    def counting(self, outcome):
        renders.append(outcome)
        return render(self, outcome)

    render = OutcomeMap._key
    monkeypatch.setattr(OutcomeMap, "_key", counting)
    got = noisy_counts(Circuit(1, (h(0),)), 8000, NoiseConfig(), 2)
    assert renders == []
    assert sum(got.counts.values()) == 8000
    assert sorted(renders) == [0, 1] and len(got.counts) == 2
