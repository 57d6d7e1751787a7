"""``derive_seed`` hashes its parts as numpy's SeedSequence does, with no
SeedSequence built, and a training run's block of evaluation keys equals
``derive_seed(derive_seed(seed, k), arm)`` key for key."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit import training
from qbandit.statevector import _BLOCK_WORDS, derive_seed
from qbandit.training import _arm_keys, _evaluation_keys

EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**2000]
EDGE_IDS = ["0", "2**32-1", "2**32", "2**64-1", "2**64", "2**96", "2**2000"]
PART = st.one_of(st.integers(0, 2**200), st.sampled_from(EDGES))


def reference(*parts) -> int:
    """The key numpy's SeedSequence draws from the parts."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


def reference_keys(seed: int, ks) -> list[list[int]]:
    return [[derive_seed(derive_seed(seed, k), arm) for arm in (0, 1)] for k in ks]


@settings(max_examples=300, deadline=None)
@given(st.lists(PART, min_size=1, max_size=5))
def test_derive_seed_is_seed_sequence_hash(parts):
    assert derive_seed(*parts) == reference(*parts)


@pytest.mark.parametrize("part", EDGES, ids=EDGE_IDS)
def test_each_word_edge_alone_and_paired(part):
    assert derive_seed(part) == reference(part)
    assert derive_seed(part, 1) == reference(part, 1)
    assert derive_seed(7, part, 0) == reference(7, part, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**63 - 1).map(np.int64),
            st.integers(0, 2**64 - 1).map(np.uint64),
            st.integers(0, 2**32 - 1).map(np.uint32),
            st.integers(0, 255).map(np.uint8),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_numpy_integer_parts(parts):
    assert derive_seed(*parts) == reference(*parts) == derive_seed(*map(int, parts))


@pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
def test_block_crossing_two_to_the_32(seed):
    ks = range(2**32 - 3, 2**32 + 3)
    assert list(_evaluation_keys(seed, ks.start, ks.stop)) == reference_keys(seed, ks)


def test_block_crossing_two_to_the_64():
    ks = range(2**64 - 2, 2**64 + 2)
    assert list(_evaluation_keys(5, ks.start, ks.stop)) == reference_keys(5, ks)


@pytest.mark.parametrize(
    "seed", [2**96, 2**128 + 9, 2**200 + 12345, 2**2000], ids=["4 words", "5 words", "7 words", "63 words"]
)
def test_seed_entropy_longer_than_the_pool(seed):
    assert list(_evaluation_keys(seed, 0, 40)) == reference_keys(seed, range(40))


@settings(max_examples=60, deadline=None)
@given(PART, st.integers(0, 2**70), st.integers(1, 5))
def test_blocks_anywhere(seed, start, count):
    ks = range(start, start + count)
    assert list(_evaluation_keys(seed, ks.start, ks.stop)) == reference_keys(seed, ks)


def test_parent_keys_below_two_to_the_32():
    # A derived parent key is below 2**32 with probability 2**-32, so such
    # parents are fed in directly: their entropy is one word, not two.
    parents = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 5 + (7 << 32)]
    low = np.array([p & 0xFFFFFFFF for p in parents], np.uint32)
    high = np.array([p >> 32 for p in parents], np.uint32)
    assert _arm_keys(low, high) == [[derive_seed(p, 0), derive_seed(p, 1)] for p in parents]


def test_blocks_hold_at_most_block_words_keys(monkeypatch):
    lengths, real = [], training._entropy_hash

    def recording(words):
        lengths.append(max(np.size(w) for w in words))
        return real(words)

    monkeypatch.setattr(training, "_entropy_hash", recording)
    keys = list(_evaluation_keys(3, 0, _BLOCK_WORDS + 5))
    assert max(lengths) <= _BLOCK_WORDS
    # Three blocks of evaluations, each hashed once for k and once for the arms.
    assert lengths == [_BLOCK_WORDS // 2, _BLOCK_WORDS] * 2 + [5, 10]
    for k in (0, _BLOCK_WORDS // 2 - 1, _BLOCK_WORDS // 2, _BLOCK_WORDS + 4):
        assert keys[k] == reference_keys(3, [k])[0]
