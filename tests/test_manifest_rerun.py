"""A run's manifest records the config that ran: written back to a file
and passed as ``--config`` with no other config flag, it re-runs the
command to the same CSVs.  Config flags name their fields by their dest."""

import hashlib
import json

import pytest

from qbandit.cli import DEFAULT_CONFIG, build_parser, main
from qbandit.training import synthesize_dataset, write_dataset

SMALL_TRAIN = {"train": {"max_iterations": 12, "shots_per_eval": 500}}


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def csvs(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def rerun(tmp_path, command, first, extra=()):
    """Run ``command`` again from ``first``'s manifest config alone; the
    second run's output directory."""
    cfg = tmp_path / f"{first.name}.config.json"
    cfg.write_text(json.dumps(manifest(first)["config"]))
    second = tmp_path / f"{first.name}-again"
    assert main([command, "--config", str(cfg), *extra, "--out", str(second)]) == 0
    return second


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset(synthesize_dataset(0.7, 0.2, 500, seed=3), path)
    return path


@pytest.fixture
def trained(tmp_path, data):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(SMALL_TRAIN))
    out = tmp_path / "train"
    argv = ["train", "--data", str(data), "--config", str(cfg), "--seed", "4", "--shots", "300"]
    assert main(argv + ["--backend", "exact", "--out", str(out)]) == 0
    return out


QPE_FLAGS = ["--n", "3", "--shots", "40", "--seed", "6", "--policy-left", "0.3"]


@pytest.mark.parametrize("backend", ["ideal", "noisy"])
def test_qpe_given_thetas_reruns_from_its_manifest(tmp_path, backend):
    first = tmp_path / "qpe"
    argv = ["qpe", *QPE_FLAGS, "--theta-left", "1.25", "--theta-right", "0.5"]
    assert main(argv + ["--backend", backend, "--out", str(first)]) == 0
    assert manifest(first)["config"]["env"] == {"theta_left": 1.25, "theta_right": 0.5}
    second = rerun(tmp_path, "qpe", first)
    assert csvs(first) and csvs(second) == csvs(first)
    assert manifest(second)["config_hash"] == manifest(first)["config_hash"]


def test_qpe_given_from_reruns_from_its_manifest(tmp_path, trained):
    first = tmp_path / "qpe"
    argv = ["qpe", *QPE_FLAGS, "--from", str(trained), "--backend", "noisy", "--out", str(first)]
    assert main(argv) == 0
    theta = json.loads((trained / "result.json").read_text())["final_theta"]
    env = manifest(first)["config"]["env"]
    assert [env["theta_left"], env["theta_right"]] == theta
    assert csvs(rerun(tmp_path, "qpe", first)) == csvs(first)


def test_qpe_given_config_env_reruns_from_its_manifest(tmp_path):
    cfg = tmp_path / "env.json"
    env = {"theta_left": 2.0, "theta_right": 1}
    cfg.write_text(json.dumps({"env": env, "qpe": {"n": [3, 4], "shots": 30}}))
    first = tmp_path / "qpe"
    assert main(["qpe", "--config", str(cfg), "--out", str(first)]) == 0
    recorded = manifest(first)["config"]["env"]
    # The angles as run: floats, whatever the config file held.
    assert recorded == env and all(type(v) is float for v in recorded.values())
    second = rerun(tmp_path, "qpe", first)
    assert len(csvs(first)) == 2 and csvs(second) == csvs(first)


def test_train_reruns_from_its_manifest(tmp_path, data, trained):
    assert manifest(trained)["config"]["train"]["seed"] == 4
    assert manifest(trained)["config"]["backend"] == "exact"
    second = rerun(tmp_path, "train", trained, ["--data", str(data)])
    assert csvs(second) == csvs(trained)
    assert (second / "result.json").read_bytes() == (trained / "result.json").read_bytes()


def test_train_manifest_names_its_dataset(trained, data):
    record = manifest(trained)
    assert record["data"] == {
        "path": str(data),
        "sha256": hashlib.sha256(data.read_bytes()).hexdigest(),
    }
    assert "data" not in record["config"]


def test_angles_change_the_config_hash(tmp_path):
    hashes = set()
    for theta_left in ("1.0", "1.5"):
        out = tmp_path / theta_left
        argv = ["qpe", "--theta-left", theta_left, "--theta-right", "0.5", "--out", str(out)]
        assert main(argv) == 0
        hashes.add(manifest(out)["config_hash"])
    assert len(hashes) == 2


def test_config_flag_dests_name_config_fields():
    parser = build_parser()
    subcommands = parser._subparsers._group_actions[0].choices
    dests = {
        command: {
            action.option_strings[-1]: action.dest
            for action in subcommands[command]._actions
            if action.dest == "backend" or "." in action.dest
        }
        for command in ("train", "qpe")
    }
    assert dests == {
        "train": {"--shots": "train.shots_per_eval", "--seed": "train.seed", "--backend": "backend"},
        "qpe": {
            "--n": "qpe.n",
            "--shots": "qpe.shots",
            "--seed": "qpe.seed",
            "--policy-left": "policy.p_left",
            "--backend": "backend",
        },
    }
    for fields in dests.values():
        for dest in fields.values():
            section, _, field = dest.rpartition(".")
            assert field in (DEFAULT_CONFIG[section] if section else DEFAULT_CONFIG)
