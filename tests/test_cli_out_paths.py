"""An ``--out`` path that cannot be made a directory fails with exit code
1 and a message naming the path, not a traceback."""

import pytest

from qbandit.cli import main
from qbandit.training import synthesize_dataset, write_dataset


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def commands(tmp_path):
    data = tmp_path / "data.jsonl"
    write_dataset(synthesize_dataset(0.7, 0.2, 200, seed=1), data)
    return {
        "qpe": ["qpe", "--theta-left", "1", "--theta-right", "1"],
        "baseline": ["baseline", "--v", "0.4", "--n-range", "3..4"],
        "train": ["train", "--data", str(data)],
        "reproduce": ["reproduce", "--figure", "scaling"],
    }


@pytest.mark.parametrize("command", ["qpe", "baseline", "train", "reproduce"])
def test_out_is_a_file(tmp_path, capsys, command):
    out = tmp_path / "FILE"
    out.write_text("keep")
    code, err = run(commands(tmp_path)[command] + ["--out", str(out)], capsys)
    assert code == 1
    assert str(out) in err and "Traceback" not in err
    assert out.read_text() == "keep"


@pytest.mark.parametrize("command", ["qpe", "baseline", "train", "reproduce"])
def test_out_under_a_file(tmp_path, capsys, command):
    (tmp_path / "FILE").write_text("keep")
    out = tmp_path / "FILE" / "x"
    code, err = run(commands(tmp_path)[command] + ["--out", str(out)], capsys)
    assert code == 1
    assert str(out) in err


def test_reproduce_training_run_directory_blocked(tmp_path, capsys):
    figure = tmp_path / "training-curves"
    figure.mkdir()
    (figure / "win70-20").write_text("keep")
    code, err = run(["reproduce", "--figure", "training-curves", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert str(figure / "win70-20") in err
