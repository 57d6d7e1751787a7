"""Command-line paths that point at the wrong thing fail with a message
naming the path or field, not a traceback."""

import json

import pytest

from qbandit.cli import main


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def test_qpe_config_directory(tmp_path, capsys):
    code, err = run(["qpe", "--config", str(tmp_path), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert str(tmp_path) in err


def test_train_data_directory(tmp_path, capsys):
    code, err = run(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert str(tmp_path) in err


@pytest.mark.parametrize(
    "payload",
    [{}, {"final_theta": 5}, {"final_theta": ["a", 1]}, {"final_theta": [1.0]}, [], {"final_theta": [True, 1]}],
    ids=["missing", "number", "string-angle", "one-angle", "not-an-object", "bool-angle"],
)
def test_qpe_from_bad_final_theta(tmp_path, capsys, payload):
    (tmp_path / "result.json").write_text(json.dumps(payload))
    code, err = run(["qpe", "--from", str(tmp_path), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "final_theta" in err and str(tmp_path / "result.json") in err


def test_qpe_from_invalid_json(tmp_path, capsys):
    (tmp_path / "result.json").write_text("{final_theta")
    code, err = run(["qpe", "--from", str(tmp_path), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert str(tmp_path / "result.json") in err


def test_qpe_from_result_directory(tmp_path, capsys):
    (tmp_path / "result.json").mkdir()
    code, err = run(["qpe", "--from", str(tmp_path), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert str(tmp_path / "result.json") in err

