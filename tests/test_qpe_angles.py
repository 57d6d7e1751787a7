"""``qbandit qpe`` takes its angles through one path: each ``--theta-*``
flag given writes over its field of the config's ``env``, or ``--from``
supplies both; the pair is checked once, under the name of its source,
before the output directory is made."""

import json

import pytest

from qbandit.cli import main

ENV = {"theta_left": 1.0, "theta_right": 0.5}
SMALL = ["--n", "3", "--shots", "20"]


def config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def recorded_env(out):
    return json.loads((out / "manifest.json").read_text())["config"]["env"]


def csvs(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize(
    "flag, value, expected",
    [
        ("--theta-left", "2.5", {"theta_left": 2.5, "theta_right": 0.5}),
        ("--theta-right", "0.25", {"theta_left": 1.0, "theta_right": 0.25}),
    ],
)
def test_one_flag_writes_over_its_env_field(tmp_path, capsys, flag, value, expected):
    out = tmp_path / "out"
    argv = ["qpe", *SMALL, flag, value, "--config", config(tmp_path, {"env": ENV}), "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    assert recorded_env(out) == expected
    both = tmp_path / "both"
    angles = [f"--{name.replace('_', '-')}={angle}" for name, angle in expected.items()]
    assert main(["qpe", *SMALL, *angles, "--out", str(both)]) == 0
    assert csvs(out) and csvs(out) == csvs(both)


@pytest.mark.parametrize(
    "angles, field",
    [
        (["--theta-left", "nan", "--theta-right", "1"], "env.theta_left: must be finite, got nan"),
        (["--theta-left", "1", "--theta-right", "inf"], "env.theta_right: must be finite, got inf"),
    ],
)
def test_flag_angle_refusal_names_its_env_field(tmp_path, capsys, angles, field):
    out = tmp_path / "out"
    code, err = run(["qpe", *angles, "--out", str(out)], capsys)
    assert code == 1
    assert field in err
    assert not out.exists()


def test_flag_replaces_a_malformed_config_angle(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = config(tmp_path, {"env": {"theta_left": "bad", "theta_right": 0.5}})
    assert run(["qpe", *SMALL, "--theta-left", "1", "--config", cfg, "--out", str(out)], capsys)[0] == 0
    assert recorded_env(out) == ENV


@pytest.mark.parametrize("cfg", [{}, {"env": "from-training"}], ids=["no-env", "env-not-an-object"])
def test_one_flag_without_an_env_is_refused_naming_env(tmp_path, capsys, cfg):
    out = tmp_path / "out"
    code, err = run(["qpe", "--theta-left", "1", "--config", config(tmp_path, cfg), "--out", str(out)], capsys)
    assert code == 1
    assert "env: provide" in err and "{'theta_left': 1.0}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--theta-left", "--theta-right"])
def test_one_flag_with_from_is_refused(tmp_path, capsys, flag):
    (tmp_path / "result.json").write_text(json.dumps({"final_theta": [1.0, 0.5]}))
    out = tmp_path / "out"
    code, err = run(["qpe", flag, "1", "--from", str(tmp_path), "--out", str(out)], capsys)
    assert code == 1
    assert "env: give either --theta-left/--theta-right or --from, not both" in err
    assert not out.exists()


def test_from_angle_refusal_names_the_result_file(tmp_path, capsys):
    result = tmp_path / "result.json"
    result.write_text('{"final_theta": [1.0, NaN]}')
    out = tmp_path / "out"
    code, err = run(["qpe", "--from", str(tmp_path), "--out", str(out)], capsys)
    assert code == 1
    assert f"final_theta in {result}: must be finite, got nan" in err
    assert not out.exists()


def test_from_a_directory_without_a_result(tmp_path, capsys):
    code, err = run(["qpe", "--from", str(tmp_path), "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert f"training result file not found: {tmp_path / 'result.json'}" in err
