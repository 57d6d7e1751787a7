"""Config values of the wrong type, and retired config fields, fail with a
ConfigError that names the field; a loaded config never aliases the
defaults."""

import json

import numpy as np
import pytest

from qbandit.cli import DEFAULT_CONFIG, ConfigError, build_parser, load_config, main
from qbandit.noise import NoiseConfig
from qbandit.qpe import QpeConfig
from qbandit.training import TrainConfig, synthesize_dataset, write_dataset

THETAS = ["--theta-left", "1.9823", "--theta-right", "0.9273"]


def run(tmp_path, command, cfg):
    """Run ``command`` on ``cfg`` without main's error handling."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command == "train":
        data = tmp_path / "data.jsonl"
        write_dataset(synthesize_dataset(0.7, 0.2, 200, seed=1), data)
        argv += ["--data", str(data)]
    else:
        argv += THETAS
    args = build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("train", {"noise": None}, "noise"),
        ("train", {"train": 5}, "train"),
        ("qpe", {"policy": None}, "policy"),
        ("qpe", {"noise": None}, "noise"),
        ("train", {"train": {"initial_theta": 5}}, "initial_theta"),
        ("train", {"train": {"initial_theta": [1.0, None]}}, "initial_theta"),
        ("train", {"train": {"shots_per_eval": 100.5}}, "shots_per_eval"),
        ("train", {"train": {"max_iterations": 5.5}}, "max_iterations"),
        ("train", {"train": {"seed": True}}, "seed"),
        ("train", {"train": {"rho_end": None}}, "rho_end"),
        ("train", {"noise": {"p1": None}}, "p1"),
        ("train", {"noise": {"seed": 1.5}}, "seed"),
        ("qpe", {"qpe": {"n": 3.7, "shots": 20.9}}, r"qpe\.(n|shots)"),
        ("qpe", {"qpe": {"n": 3.7}}, r"qpe\.n"),
        ("qpe", {"qpe": {"n": [3, 4.5]}}, r"qpe\.n"),
        ("qpe", {"qpe": {"n": True}}, r"qpe\.n"),
        ("qpe", {"qpe": {"shots": 20.9}}, r"qpe\.shots"),
        ("qpe", {"qpe": {"seed": 1.5}}, r"qpe\.seed"),
        ("qpe", {"policy": {"p_left": None}}, r"policy\.p_left"),
    ],
)
def test_wrong_type_names_field(tmp_path, command, cfg, field):
    with pytest.raises(ConfigError, match=field):
        run(tmp_path, command, cfg)
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_backend_list_for_train_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"backend": ["ideal"]}))
    data = tmp_path / "data.jsonl"
    write_dataset(synthesize_dataset(0.7, 0.2, 200, seed=1), data)
    argv = ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "unknown backend ['ideal']" in capsys.readouterr().err


def test_env_theta_of_wrong_type_named(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"env": {"theta_left": "a", "theta_right": 0.5}}))
    args = build_parser().parse_args(
        ["qpe", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    )
    with pytest.raises(ConfigError, match=r"env\.theta_left"):
        args.func(args)


def test_output_dir_is_not_a_config_field(tmp_path):
    with pytest.raises(ConfigError, match="output_dir"):
        run(tmp_path, "train", {"output_dir": "somewhere"})


def test_env_from_training_is_refused(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"env": "from-training"}))
    args = build_parser().parse_args(
        ["qpe", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    )
    with pytest.raises(ConfigError, match="from-training"):
        args.func(args)


def test_numpy_integers_accepted():
    assert TrainConfig(shots_per_eval=np.int64(10), max_iterations=np.int32(3)).shots_per_eval == 10
    assert QpeConfig(n=np.int64(3), shots=np.int64(5), seed=np.uint64(2**63)).n == 3
    assert NoiseConfig(seed=np.int64(4)).seed == 4


def test_loaded_config_does_not_alias_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"backend": "ideal"}))
    load_config(str(cfg_path))["train"]["shots_per_eval"] = 5
    assert DEFAULT_CONFIG["train"]["shots_per_eval"] == 8000
