"""Dataset rewards must be the JSON integers 0 or 1: booleans and floats
are refused with the line named, as config integers are."""

import json

import pytest

from qbandit.training import DatasetError, load_dataset


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.mark.parametrize("reward", [True, False, 0.0, 1.0, 0.5, "1", None])
def test_wrong_reward_type_refused_with_line(tmp_path, reward):
    path = tmp_path / "data.jsonl"
    write_lines(
        path,
        [
            {"action": "left", "reward": 1},
            {"action": "right", "reward": 0},
            {"action": "right", "reward": reward},
        ],
    )
    with pytest.raises(DatasetError, match=rf"data\.jsonl:3: reward must be 0 or 1, got {reward!r}"):
        load_dataset(path)

