"""Command-line workflows: artifacts, config precedence, reproducibility."""

import csv
import json

import pytest

from qbandit.cli import ConfigError, load_config, main
from qbandit.training import synthesize_dataset, write_dataset


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.jsonl"
    write_dataset(synthesize_dataset(0.7, 0.2, 2000, seed=42), path)
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestConfig:
    def test_defaults_load(self):
        cfg = load_config(None)
        assert cfg["backend"] == "ideal"
        assert cfg["train"]["shots_per_eval"] == 8000

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"shots_per_eval": 123}}))
        cfg = load_config(str(path))
        assert cfg["train"]["shots_per_eval"] == 123
        assert cfg["train"]["max_iterations"] == 100

    def test_unknown_top_level_field_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path))

    def test_unknown_nested_field_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
        with pytest.raises(ConfigError, match="train.learning_rate"):
            load_config(str(path))

    def test_missing_file_named(self):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config("nope.json")


class TestTrainCommand:
    def test_writes_artifacts(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--data",
                str(dataset_file),
                "--out",
                str(out),
                "--seed",
                "3",
                "--shots",
                "2000",
            ]
        )
        assert code == 0
        for name in (
            "trace.csv",
            "result.json",
            "learning_curve.svg",
            "parameters.svg",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        result = json.loads((out / "result.json").read_text())
        assert set(result) == {"final_theta", "final_loss", "iterations"}
        with (out / "trace.csv").open() as handle:
            header = next(csv.reader(handle))
        assert header == ["iteration", "theta_left", "theta_right", "loss"]

    def test_flag_overrides_config(self, dataset_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {"seed": 1, "max_iterations": 10}}))
        out = tmp_path / "run"
        main(
            [
                "train",
                "--data",
                str(dataset_file),
                "--config",
                str(cfg_path),
                "--seed",
                "99",
                "--out",
                str(out),
            ]
        )
        manifest = read_manifest(out)
        assert manifest["seed"] == 99
        assert manifest["config"]["train"]["max_iterations"] == 10

    def test_missing_data_names_path(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "ghost.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "ghost.jsonl" in capsys.readouterr().err

    def test_exact_backend_reaches_tiny_loss(self, dataset_file, tmp_path):
        out = tmp_path / "exact"
        main(
            [
                "train",
                "--data",
                str(dataset_file),
                "--backend",
                "exact",
                "--out",
                str(out),
            ]
        )
        result = json.loads((out / "result.json").read_text())
        assert result["final_loss"] < 1e-6


    @pytest.mark.parametrize("backend, limit", [("noisy", 2**32), ("exact-oracle", 2**53)])
    def test_shots_over_backend_limit_refused_before_writing(
        self, dataset_file, tmp_path, capsys, backend, limit
    ):
        out = tmp_path / "train"
        argv = ["train", "--data", str(dataset_file), "--backend", backend]
        code = main([*argv, "--shots", str(limit + 1), "--out", str(out)])
        assert code == 1
        assert f"train.shots_per_eval: must be in [1, {limit}]" in capsys.readouterr().err
        assert not out.exists()


class TestQpeCommand:
    def test_explicit_thetas(self, tmp_path):
        out = tmp_path / "qpe"
        code = main(
            [
                "qpe",
                "--n",
                "3",
                "--shots",
                "100",
                "--policy-left",
                "0.5",
                "--theta-left",
                "1.9823",
                "--theta-right",
                "0.9273",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        csv_path = out / "qpe_pleft0.5_n3_ideal.csv"
        assert csv_path.exists()
        with csv_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [r["y"] for r in rows] == ["0", "1", "2", "3", "4"]
        assert sum(int(r["count"]) for r in rows) == 100
        assert all(r["exact_prob"] for r in rows)

    def test_from_training_output(self, dataset_file, tmp_path):
        train_out = tmp_path / "train"
        main(["train", "--data", str(dataset_file), "--out", str(train_out)])
        out = tmp_path / "qpe"
        code = main(
            [
                "qpe",
                "--n",
                "3",
                "--shots",
                "50",
                "--policy-left",
                "0.0",
                "--from",
                str(train_out),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "histograms.svg").exists()

    def test_env_required(self, tmp_path, capsys):
        code = main(
            ["qpe", "--n", "3", "--policy-left", "0.5", "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "env" in capsys.readouterr().err

    def test_grid_over_a_backend_shot_limit_writes_nothing(self, tmp_path, capsys):
        # The exact sub-run alone could run; the noisy one takes at most 2**32.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"backend": ["noisy", "exact"]}))
        out = tmp_path / "qpe"
        argv = ["qpe", "--config", str(cfg_path), "--n", "3", "--shots", str(2**32 + 1)]
        code = main([*argv, "--theta-left", "1.2", "--theta-right", "0.4", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "qpe_pleft0.5_n3_noisy: shots must be in [1, 4294967296]" in err
        assert not out.exists()

    def test_noisy_csv_has_empty_exact_column(self, tmp_path):
        out = tmp_path / "noisy"
        main(
            [
                "qpe",
                "--n",
                "3",
                "--shots",
                "30",
                "--policy-left",
                "0.5",
                "--theta-left",
                "1.9823",
                "--theta-right",
                "0.9273",
                "--backend",
                "noisy",
                "--out",
                str(out),
            ]
        )
        with (out / "qpe_pleft0.5_n3_noisy.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert all(r["exact_prob"] == "" for r in rows)


class TestBaselineCommand:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "base"
        code = main(["baseline", "--v", "0.45", "--n-range", "3..5", "--out", str(out)])
        assert code == 0
        with (out / "scaling.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert [r["n"] for r in rows] == ["3", "4", "5"]
        assert [r["qpe_qsamples"] for r in rows] == ["15", "31", "63"]
        assert (out / "mc_rmse.csv").exists()
        assert (out / "scaling.svg").exists()

    def test_bad_range(self, tmp_path, capsys):
        code = main(["baseline", "--v", "0.45", "--n-range", "5", "--out", str(tmp_path)])
        assert code == 1
        assert "n-range" in capsys.readouterr().err


class TestReproduceCommand:
    def test_unknown_figure_lists_ids(self, tmp_path, capsys):
        code = main(["reproduce", "--figure", "everything", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        for fid in ("training-curves", "qpe-histograms", "scaling"):
            assert fid in err

    def test_scaling_figure(self, tmp_path):
        code = main(["reproduce", "--figure", "scaling", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "scaling" / "scaling.csv").exists()


class TestManifest:
    def test_contains_reproduction_info(self, dataset_file, tmp_path):
        out = tmp_path / "run"
        main(["train", "--data", str(dataset_file), "--out", str(out), "--seed", "5"])
        manifest = read_manifest(out)
        assert manifest["seed"] == 5
        assert "config_hash" in manifest
        assert manifest["versions"]["qbandit"]
        assert "trace.csv" in manifest["outputs"]

    def test_same_seed_same_bytes(self, dataset_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                [
                    "train",
                    "--data",
                    str(dataset_file),
                    "--out",
                    str(out),
                    "--seed",
                    "21",
                    "--shots",
                    "500",
                ]
            )
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]
