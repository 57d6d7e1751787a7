"""A dataset maps its records onto four shared ``(Arm, 0|1)`` pairs at
construction, checking each one, and its file lines are rendered and
parsed once per distinct line, with the bytes, refusals and line numbers
of one record at a time."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_dataset
from qbandit import training
from qbandit.bandit import Arm
from qbandit.training import (
    DatasetError,
    TransitionDataset,
    load_dataset,
    synthesize_dataset,
    write_dataset,
)
from test_sampler_oracle import SEEDS

FRACTIONS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5]))


@settings(max_examples=100, deadline=None)
@given(f_left=FRACTIONS, f_right=FRACTIONS, pulls=st.integers(1, 2000), seed=SEEDS)
def test_shared_pairs_equal_tuples_built_one_by_one(f_left, f_right, pulls, seed):
    shared = synthesize_dataset(f_left, f_right, pulls, seed)
    want = reference_dataset(f_left, f_right, pulls, seed)
    built = TransitionDataset(tuple((arm, int(reward)) for arm, reward in want))
    assert shared.records == want == built.records
    assert len({id(r) for r in shared.records + built.records}) <= 4
    wins = {arm: sum(r for a, r in want if a is arm) for arm in Arm}
    for data in (shared, built):
        assert data.pulls == {Arm.LEFT: pulls, Arm.RIGHT: pulls}
        assert data.wins == wins


@pytest.mark.parametrize(
    "record",
    [
        (Arm.LEFT, 2),
        (Arm.LEFT, -1),
        ("left", 1),
        (Arm.LEFT, 1.0),
        (Arm.LEFT, True),
        (Arm.RIGHT, False),
        (Arm.LEFT, np.True_),
        (Arm.LEFT, np.float64(0.0)),
        (Arm.LEFT, "1"),
        (Arm.LEFT, None),
        (Arm.LEFT,),
        (Arm.LEFT, 1, 0),
        "left",
        None,
    ],
)
def test_a_malformed_record_is_refused_with_its_index(record):
    with pytest.raises(DatasetError) as info:
        TransitionDataset(((Arm.RIGHT, 0), (Arm.LEFT, 1), record))
    assert str(info.value) == f"record 2 must be an (Arm, 0 or 1) pair, got {record!r}"


@pytest.mark.parametrize("kind", [int, np.int8, np.int64, np.uint8, np.uint64])
def test_integer_rewards_of_any_kind_are_accepted(kind):
    data = TransitionDataset(((Arm.LEFT, kind(1)), [Arm.RIGHT, kind(0)]))
    assert data.records == ((Arm.LEFT, 1), (Arm.RIGHT, 0))
    assert all(type(reward) is int for _, reward in data.records)


def one_by_one(records) -> str:
    return "".join(json.dumps({"action": a.value, "reward": r}) + "\n" for a, r in records)


@pytest.mark.parametrize("seed", range(3))
def test_written_bytes_are_one_record_at_a_time(tmp_path, seed):
    data = synthesize_dataset(0.3, 0.8, 500, seed)
    write_dataset(data, tmp_path / "data.jsonl")
    assert (tmp_path / "data.jsonl").read_text() == one_by_one(data.records)


def test_each_distinct_line_is_parsed_once(tmp_path, monkeypatch):
    calls = []

    def counting(where, line):
        calls.append(line)
        return parse(where, line)

    parse = training._parse_record
    monkeypatch.setattr(training, "_parse_record", counting)
    path = tmp_path / "data.jsonl"
    left = '{"action": "left", "reward": 1}'
    path.write_text(f"{left}\n  {left}\n\n{left}  \n" + one_by_one([(Arm.RIGHT, 0)] * 5))
    data = load_dataset(path)
    assert len(data) == 8 and data.pulls == {Arm.LEFT: 3, Arm.RIGHT: 5}
    assert len(calls) == 2


def test_a_repeated_bad_line_is_named_where_it_first_appears(tmp_path):
    path = tmp_path / "data.jsonl"
    bad = '{"action": "left", "reward": 2}'
    path.write_text(one_by_one([(Arm.LEFT, 1), (Arm.RIGHT, 0)] * 3) + f"{bad}\n{bad}\n")
    with pytest.raises(DatasetError, match=r"data\.jsonl:7: reward must be 0 or 1, got 2"):
        load_dataset(path)
