"""The Monte Carlo baseline and the dataset synthesizer read their
uniforms in blocks of at most ``_BLOCK_WORDS``, so the traced peak of
``helpers.traced_bytes`` stays near a block's size plus the result."""

from helpers import traced_bytes
from qbandit.bandit import BanditParams, PolicySpec
from qbandit.baseline import monte_carlo_estimate
from qbandit.training import synthesize_dataset


def test_monte_carlo_peak_memory_does_not_grow_with_samples():
    _, peak = traced_bytes(
        lambda: monte_carlo_estimate(PolicySpec(0.3), BanditParams(1.0, 2.0), 10**6, 5)
    )
    assert peak < 4e6


def test_a_synthesized_dataset_peaks_near_its_own_size():
    # The result alone is 2 * 10**6 pointers, 16 MB.
    _, peak = traced_bytes(lambda: synthesize_dataset(0.7, 0.2, 10**6, 1))
    assert peak < 20e6
