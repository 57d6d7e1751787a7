"""A dataset's per-arm tallies are counted once and read as copies."""

import numpy as np
import pytest

from qbandit.bandit import Arm
from qbandit.training import DatasetError, TransitionDataset, load_dataset, write_dataset


def direct_tallies(records):
    pulls = {arm: sum(1 for a, _ in records if a is arm) for arm in Arm}
    wins = {arm: sum(r for a, r in records if a is arm) for arm in Arm}
    return pulls, wins


@pytest.mark.parametrize("seed", range(5))
def test_tallies_match_a_direct_count(seed, tmp_path):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 300))
    records = tuple(
        (Arm.LEFT if a else Arm.RIGHT, int(r))
        for a, r in zip(rng.integers(2, size=size), rng.integers(2, size=size))
    )
    data = TransitionDataset(records)
    assert (data.pulls, data.wins) == direct_tallies(records)
    if all(data.pulls.values()):
        write_dataset(data, tmp_path / "data.jsonl")
        loaded = load_dataset(tmp_path / "data.jsonl")
        assert (loaded.pulls, loaded.wins) == direct_tallies(records)


def test_tallies_are_counted_once_and_copied():
    data = TransitionDataset(((Arm.LEFT, 1), (Arm.RIGHT, 0), (Arm.LEFT, 0)))
    assert data.pulls == {Arm.LEFT: 2, Arm.RIGHT: 1}
    # A second read does not walk the records again.
    object.__setattr__(data, "records", ())
    assert data.wins == {Arm.LEFT: 1, Arm.RIGHT: 0}
    data.pulls[Arm.LEFT] = 99
    assert data.pulls == {Arm.LEFT: 2, Arm.RIGHT: 1}


def test_load_refuses_a_missing_arm(tmp_path):
    path = tmp_path / "left-only.jsonl"
    path.write_text('{"action": "left", "reward": 1}\n')
    with pytest.raises(DatasetError, match="no records for the right arm"):
        load_dataset(path)
