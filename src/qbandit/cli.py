"""Command-line front end: train / qpe / baseline / reproduce workflows.

Configuration is a single JSON document with sections (backend, noise,
train, qpe, policy, env); command-line flags override config fields,
which override built-in defaults; a config flag's ``dest`` is the path
of the field it sets; ``qpe``'s ``--theta-*`` flags write over their
``env`` fields, or ``--from`` alone gives both angles.  Every run writes its
artifacts plus a manifest.json listing exactly the files it wrote, so a
rerun into the same directory writes the same manifest; a train or qpe
manifest's config, the one that ran (``qpe``'s angles in ``env``),
re-runs it bit-identically when passed back as ``--config``.  SVG plots
are rendered from the already-written CSV data, never the other way round.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import numbers
import platform
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from .backends import BACKENDS, get_backend
from .bandit import BanditParams, PolicySpec, angle_from_frequency
from .baseline import mc_samples_needed, monte_carlo_estimate, qpe_qsample_count
from .noise import NoiseConfig
from .qpe import MAX_EVAL_QUBITS, QpeConfig, ValueHistogram, error_bound, run_qpe
from .statevector import check_number, check_real, derive_seed
from .svg import bar_chart, line_chart, panel_grid
from .training import (
    TrainConfig,
    TrainingResult,
    load_dataset,
    optimize,
    synthesize_dataset,
    write_dataset,
)


# The version of the bytes a run writes, recorded in every manifest.  It
# goes up with each change that moves an output file's bytes on purpose:
# 1 is every output before manifests recorded it; 2 moved the last digits
# of ideal ``exact_prob`` cells, when the ideal simulator began applying a
# repeated gate segment as one matrix power; 3 moved them again, when it
# began applying phase estimation's inverse QFT as one FFT; 4 moved the
# noisy shots, when each noisy call began reading one keyed stream with
# one word per slot, and the angles ``angle_from_frequency`` rounds
# differently since it takes them by atan2.
OUTPUT_VERSION = 4


class ConfigError(ValueError):
    """Raised for malformed experiment configuration, naming the field."""


DEFAULT_CONFIG: dict = {
    "backend": "ideal",
    "noise": asdict(NoiseConfig()),
    "train": asdict(TrainConfig()),
    "qpe": {"n": 3, "shots": QpeConfig.shots, "seed": QpeConfig.seed},
    "policy": {"p_left": 0.5},
    "env": None,
}

FIGURE_IDS = ("training-curves", "qpe-histograms", "scaling")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    merged = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field: {where}")
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), where, f"expected an object, got {value!r}")
            merged[key] = _merge(base[key], value, where)
        else:
            merged[key] = value
    return merged


def _read_json(file: Path, name: str):
    """The JSON value in ``file``, or a ConfigError naming ``name`` and the file."""
    if not file.is_file():
        raise ConfigError(f"{name} file not found: {file}")
    try:
        return json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} {file} is not valid JSON: {exc.msg}") from exc


def load_config(path: str | None) -> dict:
    defaults = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is None:
        return defaults
    file = Path(path)
    user = _read_json(file, "config")
    if not isinstance(user, dict):
        raise ConfigError(f"config {file} must hold a JSON object")
    return _merge(defaults, user)


def _configure(args: argparse.Namespace) -> dict:
    """The config ``args.config`` loads, with each flag given written over
    the field its dest names: ``section.field``, or a top-level field."""
    cfg = load_config(args.config)
    for dest, value in vars(args).items():
        section, _, field = dest.rpartition(".")
        target = cfg[section] if section else cfg
        if value is not None and field in target:
            target[field] = value
    return cfg


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{field}: {message}")


def _number(value, field: str, kind: type, low=None, high=None):
    """``value`` itself once it is a number of ``kind`` in [low, high]
    (``check_real`` checks a real); else a ConfigError, "field: message"."""
    try:
        if kind is numbers.Real:
            check_real(f"{field}:", value, low, high)
        else:
            check_number(f"{field}:", value, kind, low, high)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return value


def _section(cls: type, cfg: dict, name: str):
    """Build ``cls`` from config section ``name``; errors become ConfigErrors."""
    try:
        return cls(**cfg[name])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _make_dir(path: Path) -> None:
    """Make the output directory ``path`` (and its parents) unless it
    exists; a ConfigError names it when it cannot be made, for example
    when a file is in the way."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc


def _as_list(value, field: str) -> list:
    values = list(value) if isinstance(value, (list, tuple)) else [value]
    _require(bool(values), field, "expected a value or a non-empty list, got []")
    return values


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()
    ).hexdigest()


def write_manifest(
    out_dir: Path, command: str, cfg: dict, seed: int, outputs: list[str], **extra
) -> Path:
    manifest = {
        **extra,
        "command": command,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "qbandit": __version__,
            "output_version": OUTPUT_VERSION,
        },
        "outputs": sorted(outputs),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path


def _write_csv(path: Path, header: list[str], rows: list[list | tuple]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["" if v is None else (repr(v) if isinstance(v, float) else v) for v in row]
            )


# ---------------------------------------------------------------------------
# train


def _write_training(result: TrainingResult, out_dir: Path) -> list[str]:
    """Write a training run's trace, result and plots; returns their names.
    ``result.json`` is the file ``qpe --from`` reads its angles from."""
    header = ["iteration", "theta_left", "theta_right", "loss"]
    _write_csv(out_dir / "trace.csv", header, [astuple(e) for e in result.trace])
    summary = {
        "final_theta": result.final_theta,
        "final_loss": result.final_loss,
        "iterations": result.iterations,
    }
    (out_dir / "result.json").write_text(json.dumps(summary, indent=2) + "\n")
    iters = [(e.iteration, e.loss) for e in result.trace]
    curve = line_chart(
        [("loss", iters)],
        title="Training loss per evaluation",
        xlabel="evaluation",
        ylabel="MSE loss",
        log_y=True,
    )
    (out_dir / "learning_curve.svg").write_text(curve)
    params = line_chart(
        [
            ("theta_left", [(e.iteration, e.theta_left) for e in result.trace]),
            ("theta_right", [(e.iteration, e.theta_right) for e in result.trace]),
        ],
        title="Parameter evolution",
        xlabel="evaluation",
        ylabel="angle (rad)",
    )
    (out_dir / "parameters.svg").write_text(params)
    return ["trace.csv", "result.json", "learning_curve.svg", "parameters.svg"]


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _configure(args)
    train_cfg = _section(TrainConfig, cfg, "train")
    backend = get_backend(cfg["backend"], _section(NoiseConfig, cfg, "noise"))
    dataset = load_dataset(args.data)

    out_dir = Path(args.out)
    _make_dir(out_dir)
    result = optimize(dataset, train_cfg, backend)

    outputs = _write_training(result, out_dir)
    data = {"path": args.data, "sha256": hashlib.sha256(Path(args.data).read_bytes()).hexdigest()}
    write_manifest(out_dir, "train", cfg, train_cfg.seed, outputs, data=data)
    print(
        f"train: final theta = ({result.final_theta[0]:.4f}, {result.final_theta[1]:.4f}), "
        f"loss = {result.final_loss:.3e}, evaluations = {result.iterations}"
    )
    return 0


# ---------------------------------------------------------------------------
# qpe


def _histogram_panel(
    runs: list[tuple[str, ValueHistogram]], title: str, shots: int
) -> str:
    series = []
    overlay: list[tuple[float, float]] = []
    for label, hist in runs:
        series.append((label, [(v, c) for _, v, c, _ in hist.rows()]))
        if hist.exact is not None:
            overlay.extend(
                (hist.value(y), p * shots) for y, p in sorted(hist.exact.items())
            )
    return bar_chart(
        series,
        title=title,
        xlabel="estimated value",
        ylabel=f"counts ({shots} shots)",
        x_range=(0.0, 1.0),
        overlay=overlay or None,
        overlay_label="exact" if overlay else "",
    )


def _resolve_qpe_env(args: argparse.Namespace, cfg: dict) -> BanditParams:
    """``--from``'s ``final_theta``, or the config's ``env`` with each ``--theta-*``
    flag given written over its field; checked once, named by their source."""
    angles = ("theta_left", "theta_right")
    flags = {name: getattr(args, name) for name in angles if getattr(args, name) is not None}
    if args.from_dir:
        _require(not flags, "env", "give either --theta-left/--theta-right or --from, not both")
        result_file = Path(args.from_dir) / "result.json"
        payload = _read_json(result_file, "training result")
        theta = payload.get("final_theta") if isinstance(payload, dict) else None
        source = f"final_theta in {result_file}"
        _require(isinstance(theta, list) and len(theta) == 2, source, f"expected two angles, got {theta!r}")
        env, fields = dict(zip(angles, theta)), [source] * 2
    else:
        env = {**cfg["env"], **flags} if isinstance(cfg["env"], dict) else flags or cfg["env"]
        fields = [f"env.{name}" for name in angles]
        _require(
            isinstance(env, dict) and set(env) == set(angles),
            "env",
            f"provide {{'theta_left': ..., 'theta_right': ...}} by config, --theta-* flags or --from, not {env!r}",
        )
    return BanditParams(*(float(_number(env[name], field, numbers.Real)) for name, field in zip(angles, fields)))


def _qpe_grid(
    out_dir: Path,
    params: BanditParams,
    noise: NoiseConfig,
    backends: list[str],
    n_values: list[int],
    policies: list[float],
    shots: int,
    base_seed: int,
) -> tuple[list[str], list[str]]:
    """Run QPE in ``out_dir`` for every (backend, n, p_left), sub-run i
    seeded with derive_seed(base_seed, i); each success writes its CSV and
    a panel of histograms.svg.  Returns (output file names, failure
    messages).  A grid with two sub-runs of one name is refused first."""
    runs: dict[str, tuple[str, int, float]] = {}
    for backend_name, n, p_left in itertools.product(backends, n_values, policies):
        run_id = f"qpe_pleft{p_left:g}_n{n}_{backend_name}"
        _require(run_id not in runs, "qpe", f"two sub-runs would both write {run_id}.csv")
        runs[run_id] = (backend_name, n, p_left)
    _make_dir(out_dir)
    outputs: list[str] = []
    failures: list[str] = []
    panels: dict[tuple[str, int], list[tuple[str, ValueHistogram]]] = {}
    for run_index, (run_id, (backend_name, n, p_left)) in enumerate(runs.items()):
        try:
            qpe_cfg = QpeConfig(
                n=n,
                shots=shots,
                backend=backend_name,
                noise=noise,
                seed=derive_seed(base_seed, run_index),
            )
            hist = run_qpe(PolicySpec(p_left), params, qpe_cfg)
        except ValueError as exc:
            failures.append(f"{run_id}: {exc}")
            continue
        csv_path = out_dir / f"{run_id}.csv"
        _write_csv(csv_path, ["y", "v_tilde", "count", "exact_prob"], hist.rows())
        outputs.append(csv_path.name)
        panels.setdefault((backend_name, n), []).append((f"p_left={p_left:g}", hist))

    rows = (
        [_histogram_panel(panels[b, n], f"{b}, n={n}", shots) for n in n_values if (b, n) in panels]
        for b in backends
    )
    if grid := [row for row in rows if row]:
        (out_dir / "histograms.svg").write_text(panel_grid(grid))
        outputs.append("histograms.svg")
    return outputs, failures


def cmd_qpe(args: argparse.Namespace) -> int:
    cfg = _configure(args)
    params = _resolve_qpe_env(args, cfg)
    cfg["env"] = asdict(params)
    noise = _section(NoiseConfig, cfg, "noise")
    base_seed = _number(cfg["qpe"]["seed"], "qpe.seed", numbers.Integral, low=0)
    shots = _number(cfg["qpe"]["shots"], "qpe.shots", numbers.Integral, low=1)
    policies = [
        float(_number(p, "policy.p_left", numbers.Real, 0, 1))
        for p in _as_list(cfg["policy"]["p_left"], "policy.p_left")
    ]
    n_values = [
        _number(n, "qpe.n", numbers.Integral, 1, MAX_EVAL_QUBITS) for n in _as_list(cfg["qpe"]["n"], "qpe.n")
    ]
    backends = [str(b) for b in _as_list(cfg["backend"], "backend")]
    kinds: dict[str, str] = {}
    for name in backends:
        try:
            first = kinds.setdefault(get_backend(name, noise).name, name)
        except ValueError as exc:
            raise ConfigError(f"backend: {exc}") from exc
        _require(first == name, "backend", f"{first!r} and {name!r} name one backend; give one of them")

    out_dir = Path(args.out)
    outputs, failures = _qpe_grid(
        out_dir, params, noise, backends, n_values, policies, shots, base_seed
    )
    write_manifest(out_dir, "qpe", cfg, base_seed, outputs)
    for failure in failures:
        print(f"qpe: sub-run failed: {failure}", file=sys.stderr)
    print(f"qpe: wrote {len(outputs)} artifact(s) to {out_dir}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# baseline


def _parse_n_range(text: str, smallest: int) -> range:
    try:
        lo, hi = text.split("..")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"n-range: expected 'a..b', got {text!r}") from exc
    _require(
        smallest <= lo_i <= hi_i,
        "n-range",
        f"need {smallest} <= a <= b, got {text!r}; below n={smallest} the error bound is 1 or more",
    )
    return range(lo_i, hi_i + 1)


def cmd_baseline(args: argparse.Namespace) -> int:
    v = _number(args.v, "v", numbers.Real, 0, 1)
    # Hoeffding's count needs an error bound below 1; the bound falls as n grows.
    smallest = next(n for n in itertools.count(1) if error_bound(n, v) < 1.0)
    n_values = _parse_n_range(args.n_range, smallest)
    seed = _number(args.seed, "seed", numbers.Integral, low=0)
    confidence = 8.0 / math.pi**2
    table_rows = []
    for n in n_values:
        eps = error_bound(n, v)
        try:
            table_rows.append([n, eps, qpe_qsample_count(n), mc_samples_needed(eps, 1.0 - confidence)])
        except ValueError as exc:
            raise ConfigError(f"n-range: {args.n_range!r} reaches n={n}, where {exc}") from exc

    out_dir = Path(args.out)
    _make_dir(out_dir)
    _write_csv(
        out_dir / "scaling.csv",
        ["n", "error_bound", "qpe_qsamples", "mc_samples"],
        table_rows,
    )

    # Monte Carlo error decay on a single-arm bandit realizing value v.
    policy = PolicySpec(1.0)
    params = BanditParams(angle_from_frequency(v), 0.0)
    rmse_rows = []
    for num_samples in (100, 1000, 10000):
        errors = [
            (monte_carlo_estimate(policy, params, num_samples, derive_seed(seed, num_samples, rep)).estimate - v) ** 2
            for rep in range(40)
        ]
        rmse_rows.append([num_samples, math.sqrt(sum(errors) / len(errors))])
    _write_csv(out_dir / "mc_rmse.csv", ["num_samples", "rmse"], rmse_rows)

    scaling_plot = line_chart(
        [
            ("classical samples", [(n, mc) for n, _, _, mc in table_rows]),
            ("qpe qsamples", [(n, q) for n, _, q, _ in table_rows]),
        ],
        title=f"Samples for matched accuracy at v={v:g}",
        xlabel="evaluation qubits n",
        ylabel="samples",
        log_y=True,
    )
    rmse_plot = line_chart(
        [
            ("mc rmse", [(r[0], r[1]) for r in rmse_rows]),
            ("1/sqrt(N)", [(r[0], 1.0 / math.sqrt(r[0])) for r in rmse_rows]),
        ],
        title="Monte Carlo error decay",
        xlabel="samples N",
        ylabel="RMSE",
        log_x=True,
        log_y=True,
    )
    (out_dir / "scaling.svg").write_text(panel_grid([[scaling_plot, rmse_plot]]))

    cfg = {"v": v, "n_values": list(n_values), "seed": seed, "confidence": confidence}
    write_manifest(
        out_dir, "baseline", cfg, seed, ["scaling.csv", "mc_rmse.csv", "scaling.svg"]
    )
    print(f"baseline: wrote scaling table for n in {n_values[0]}..{n_values[-1]}")
    return 0


# ---------------------------------------------------------------------------
# reproduce


def _reproduce_training(out_dir: Path) -> list[str]:
    """Run the two canned trainings; returns the files written, relative to ``out_dir``."""
    outputs = ["angles.csv"]
    runs = [
        ("win70-20", 0.7, 0.2, 101, 11),
        ("win0-50", 0.0, 0.5, 102, 12),
    ]
    summary = []
    for label, f_left, f_right, data_seed, train_seed in runs:
        run_dir = out_dir / label
        _make_dir(run_dir)
        dataset = synthesize_dataset(f_left, f_right, 10000, seed=data_seed)
        write_dataset(dataset, run_dir / "dataset.jsonl")
        train_cfg = TrainConfig(**{**DEFAULT_CONFIG["train"], "seed": train_seed})
        result = optimize(dataset, train_cfg, get_backend("ideal"))
        written = ["dataset.jsonl", *_write_training(result, run_dir)]
        outputs.extend(f"{label}/{name}" for name in written)
        summary.append(
            [
                label,
                result.final_theta[0],
                result.final_theta[1],
                angle_from_frequency(f_left),
                angle_from_frequency(f_right),
            ]
        )
    _write_csv(
        out_dir / "angles.csv",
        ["run", "theta_left_final", "theta_right_final", "theta_left_closed_form", "theta_right_closed_form"],
        summary,
    )
    return outputs


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.figure not in FIGURE_IDS:
        print(
            f"reproduce: unknown figure id {args.figure!r}; valid ids: "
            + ", ".join(FIGURE_IDS),
            file=sys.stderr,
        )
        return 1
    out_dir = Path(args.out) / args.figure
    _make_dir(out_dir)

    if args.figure == "training-curves":
        outputs = _reproduce_training(out_dir)
        cfg = {"figure": args.figure, "train": DEFAULT_CONFIG["train"]}
        seed = 0
    elif args.figure == "qpe-histograms":
        seed = 100
        cfg = {
            "figure": args.figure,
            "policies": [0.5, 0.0],
            "n": [3, 4],
            "backends": ["ideal", "noisy"],
            "shots": 300,
            "env": {"win_left": 0.7, "win_right": 0.2},
        }
        params = BanditParams(
            angle_from_frequency(cfg["env"]["win_left"]),
            angle_from_frequency(cfg["env"]["win_right"]),
        )
        outputs, failures = _qpe_grid(
            out_dir, params, NoiseConfig(), cfg["backends"], cfg["n"],
            cfg["policies"], cfg["shots"], seed,
        )
        if failures:
            raise ValueError("; ".join(failures))
    else:  # scaling
        ns = argparse.Namespace(v=0.45, n_range="3..8", seed=7, out=str(out_dir))
        return cmd_baseline(ns)

    write_manifest(out_dir, f"reproduce {args.figure}", cfg, seed, outputs)
    print(f"reproduce: wrote {args.figure} artifacts to {out_dir}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbandit",
        description="Two-armed-bandit environment learning and quantum policy evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit environment angles to a dataset")
    train.add_argument("--data", required=True, help="JSONL transition dataset")
    train.add_argument("--config", help="experiment config JSON")
    train.add_argument("--shots", type=int, dest="train.shots_per_eval", metavar="SHOTS", help="shots per arm per evaluation")
    train.add_argument("--seed", type=int, dest="train.seed", metavar="SEED")
    train.add_argument("--backend", choices=list(BACKENDS))
    train.add_argument("--out", required=True, help="output directory")
    train.set_defaults(func=cmd_train)

    qpe = sub.add_parser("qpe", help="estimate a policy value by phase estimation")
    qpe.add_argument("--n", type=int, dest="qpe.n", metavar="N", help="evaluation-register width")
    qpe.add_argument("--shots", type=int, dest="qpe.shots", metavar="SHOTS")
    qpe.add_argument("--policy-left", type=float, dest="policy.p_left", metavar="POLICY_LEFT")
    qpe.add_argument("--theta-left", type=float, dest="theta_left")
    qpe.add_argument("--theta-right", type=float, dest="theta_right")
    qpe.add_argument("--from", dest="from_dir", help="training output directory")
    qpe.add_argument("--backend", choices=list(BACKENDS))
    qpe.add_argument("--seed", type=int, dest="qpe.seed", metavar="SEED")
    qpe.add_argument("--config", help="experiment config JSON")
    qpe.add_argument("--out", required=True)
    qpe.set_defaults(func=cmd_qpe)

    baseline = sub.add_parser("baseline", help="classical sample-complexity comparison")
    baseline.add_argument("--v", type=float, required=True, help="target policy value")
    baseline.add_argument("--n-range", required=True, dest="n_range", help="a..b")
    baseline.add_argument("--seed", type=int, default=0)
    baseline.add_argument("--out", required=True)
    baseline.set_defaults(func=cmd_baseline)

    repro = sub.add_parser("reproduce", help="run a canned end-to-end pipeline")
    repro.add_argument("--figure", required=True, help="|".join(FIGURE_IDS))
    repro.add_argument("--out", required=True)
    repro.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"qbandit {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
