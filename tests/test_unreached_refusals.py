"""Refusals of malformed config files, datasets and arguments: each fails
with an error that names the file, line or field."""

import pytest

from qbandit.bandit import Arm
from qbandit.baseline import mc_samples_needed
from qbandit.cli import main
from qbandit.training import DatasetError, TransitionDataset, empirical_frequencies, load_dataset


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("{not json", "is not valid JSON"), ("[1, 2]", "must hold a JSON object"), ("3", "must hold a JSON object")],
)
def test_config_that_is_not_a_json_object(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    code, err = run(["qpe", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert f"config {config} {message}" in err


def test_qpe_given_both_angles_and_a_training_directory(tmp_path, capsys):
    argv = ["qpe", "--theta-left", "1", "--theta-right", "1", "--from", str(tmp_path), "--out", str(tmp_path / "o")]
    code, err = run(argv, capsys)
    assert code == 1
    assert "env: give either --theta-left/--theta-right or --from, not both" in err


@pytest.mark.parametrize(
    "bad, message",
    [('{"action": "left"', "invalid JSON"), ('["left", 1]', "expected an object, got ['left', 1]")],
)
def test_dataset_line_that_is_not_a_json_object(tmp_path, bad, message):
    data = tmp_path / "data.jsonl"
    data.write_text('{"action": "left", "reward": 1}\n\n' + bad + "\n")
    with pytest.raises(DatasetError) as info:
        load_dataset(data)
    assert str(info.value).startswith(f"{data}:3: {message}")


def test_dataset_line_error_through_the_cli(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text("7\n")
    code, err = run(["train", "--data", str(data), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert f"{data}:1: expected an object" in err


@pytest.mark.parametrize("missing", list(Arm))
def test_frequencies_of_an_arm_never_pulled(missing):
    other = Arm.RIGHT if missing is Arm.LEFT else Arm.LEFT
    with pytest.raises(DatasetError, match=f"{missing.value} arm never pulled"):
        empirical_frequencies(TransitionDataset(((other, 1), (other, 0))))


@pytest.mark.parametrize("delta", [0.0, -0.5])
def test_samples_needed_for_a_failure_probability_that_is_not_positive(delta):
    with pytest.raises(ValueError, match=f"delta must be positive, got {delta}"):
        mc_samples_needed(0.1, delta)
