"""A ``reproduce`` manifest lists exactly the files that run wrote, so a
second run into the same directory, with the first run's manifest and a
stray file already there, writes the same manifest."""

import json

import pytest

from qbandit.cli import main


def _reproduce(figure, out):
    assert main(["reproduce", "--figure", figure, "--out", str(out)]) == 0
    return (out / figure / "manifest.json").read_bytes()


@pytest.mark.parametrize("figure", ["training-curves", "qpe-histograms"])
def test_rerun_writes_the_same_manifest(figure, tmp_path):
    first = _reproduce(figure, tmp_path)
    run_dir = tmp_path / figure
    written = sorted(
        str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file()
    )
    written.remove("manifest.json")
    assert json.loads(first)["outputs"] == written

    (run_dir / "stray.txt").write_text("not an output\n")
    second = _reproduce(figure, tmp_path)
    assert second == first
    assert "stray.txt" not in json.loads(second)["outputs"]
