"""``qbandit qpe`` refuses a grid it could not run in full before it makes
the output directory: a policy outside [0, 1], an unknown backend, two
names for one backend, and an empty list in any grid field.  Each error
names its field."""

import json

import pytest

from qbandit.cli import main

THETAS = ["--theta-left", "1.0", "--theta-right", "0.5"]


def test_policy_flag_outside_unit_interval_refused(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["qpe", "--policy-left", "1.5", "--out", str(out)] + THETAS) == 1
    assert "policy.p_left: must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, message",
    [
        ({"policy": {"p_left": [0.5, -0.1]}}, "policy.p_left: must be in [0, 1], got -0.1"),
        ({"backend": ["ideal", "bogus"]}, "backend: unknown backend 'bogus'"),
        ({"backend": ["exact", "exact-oracle"]}, "backend: 'exact' and 'exact-oracle' name one backend"),
        ({"backend": ["exact-oracle", "ideal", "exact"]}, "backend: 'exact-oracle' and 'exact' name one backend"),
        ({"backend": []}, "backend: expected a value or a non-empty list, got []"),
        ({"qpe": {"n": []}}, "qpe.n: expected a value or a non-empty list, got []"),
        ({"policy": {"p_left": []}}, "policy.p_left: expected a value or a non-empty list, got []"),
    ],
)
def test_bad_grid_refused_before_the_directory(section, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qpe": {"n": 3, "shots": 20}, **section}))
    out = tmp_path / "out"
    assert main(["qpe", "--config", str(cfg), "--out", str(out)] + THETAS) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("backend", ["exact", "exact-oracle"])
def test_each_oracle_name_alone_is_accepted(backend, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"qpe": {"n": 3, "shots": 20}, "backend": [backend, "ideal"]}))
    out = tmp_path / "out"
    assert main(["qpe", "--config", str(cfg), "--out", str(out)] + THETAS) == 0
    assert (out / f"qpe_pleft0.5_n3_{backend}.csv").exists()
