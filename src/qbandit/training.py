"""Learning bandit rotation angles from classical transition data.

The loop follows the shot-based procedure: compute empirical win
frequencies from the data once, then repeatedly (run both arm circuits
for M shots, read off measured frequencies, score the mean squared
error against the data, let a derivative-free optimizer update the
angles) until the evaluation budget is spent.

Evaluation k measures arm a from the stream keyed by
``derive_seed(derive_seed(seed, k), a)``.  ``optimize`` hashes those
keys for a block of evaluations at once (``_evaluation_keys``), a
default run's 100 in one block.

A dataset holds one pointer per record.  A record can only be one of
four ``(Arm, 0|1)`` pairs, so every dataset, however it was built,
points at the module's four shared pairs instead of owning a tuple per
pull: 20,000 records keep 160 KB, not about 1.2 MB.  Its file lines are
rendered and parsed once per distinct line.  Each ``TraceEntry`` is
slotted, with no per-entry ``__dict__``, and the entries of one trace
share one float per distinct angle, so a 100-evaluation result keeps
about 12 KB.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .backends import Backend, IdealBackend
from .bandit import REWARD_QUBIT, Arm, BanditParams, _arm_circuits
from .optimizers import OPTIMIZERS, check_radii
from .statevector import (
    _BLOCK_WORDS,
    _PHILOX,
    Circuit,
    _entropy_hash,
    _limit,
    _seed_words,
    check_number,
    check_real,
    check_seed,
    derive_seed,
)


class DatasetError(ValueError):
    """Raised for unreadable or malformed transition data."""


# _PAIRS[arm][reward] is the one (arm, reward) record every dataset
# shares; _SHARED finds a shared pair by its id.
_PAIRS = {arm: ((arm, 0), (arm, 1)) for arm in Arm}
_SHARED = {id(pair): pair for pairs in _PAIRS.values() for pair in pairs}


def _shared_pair(index: int, record) -> tuple[Arm, int]:
    """The shared pair equal to ``record``, which must be an ``(Arm, 0 or
    1)`` pair with an integer reward: numpy integers pass, but bools and
    floats are refused, as ``load_dataset`` refuses them."""
    match record:
        case (Arm() as arm, reward) if (
            type(reward) is int or isinstance(reward, np.integer)
        ) and reward in (0, 1):
            return _PAIRS[arm][int(reward)]
    raise DatasetError(f"record {index} must be an (Arm, 0 or 1) pair, got {record!r}")


@dataclass(frozen=True)
class TransitionDataset:
    """Batch of (action, reward) records with per-arm tallies.

    The records, given as any iterable, are checked and mapped onto the
    shared pairs at construction and kept as a tuple, so a dataset keeps
    one pointer per record."""

    records: tuple[tuple[Arm, int], ...]

    def __post_init__(self):
        shared = _SHARED.get
        records = tuple(
            shared(id(record)) or _shared_pair(index, record)
            for index, record in enumerate(self.records)
        )
        object.__setattr__(self, "records", records)

    @functools.cached_property
    def _tallies(self) -> tuple[dict[Arm, int], dict[Arm, int]]:
        """(pulls, wins) per arm, counted once per dataset."""
        pulls = {Arm.LEFT: 0, Arm.RIGHT: 0}
        wins = {Arm.LEFT: 0, Arm.RIGHT: 0}
        for key, count in Counter(map(id, self.records)).items():
            arm, reward = _SHARED[key]
            pulls[arm] += count
            wins[arm] += reward * count
        return pulls, wins

    @property
    def pulls(self) -> dict[Arm, int]:
        return dict(self._tallies[0])

    @property
    def wins(self) -> dict[Arm, int]:
        return dict(self._tallies[1])

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Frequencies:
    """Per-arm win frequencies, both in [0, 1]."""

    f_left: float
    f_right: float

    def __post_init__(self):
        check_real("f_left", self.f_left, 0, 1)
        check_real("f_right", self.f_right, 0, 1)


@dataclass(frozen=True)
class TrainConfig:
    shots_per_eval: int = 8000
    max_iterations: int = 100
    initial_theta: tuple[float, float] = (math.pi / 2, math.pi / 2)
    rho_start: float = 0.5
    rho_end: float = 1e-3
    seed: int = 0
    optimizer: str = "cobyla"

    def __post_init__(self):
        for name in ("shots_per_eval", "max_iterations"):
            check_number(name, getattr(self, name), low=1)
        check_seed("seed", self.seed)
        for name in ("rho_start", "rho_end"):
            check_real(name, getattr(self, name))
        theta = self.initial_theta
        if not isinstance(theta, (tuple, list)) or len(theta) != 2:
            raise ValueError(f"initial_theta must be two angles, got {theta!r}")
        for angle in theta:
            check_real("initial_theta", angle)
        object.__setattr__(self, "initial_theta", tuple(theta))
        check_radii(self.rho_start, self.rho_end)
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}; expected one of {sorted(OPTIMIZERS)}"
            )


@dataclass(frozen=True, slots=True)
class TraceEntry:
    iteration: int
    theta_left: float
    theta_right: float
    loss: float


@dataclass(frozen=True)
class TrainingResult:
    """An ``optimize`` run's evaluations in order.  The last entry is the
    re-scored best point, so the final angles and loss are read from it."""

    trace: tuple[TraceEntry, ...]

    @property
    def final_theta(self) -> tuple[float, float]:
        return self.trace[-1].theta_left, self.trace[-1].theta_right

    @property
    def final_loss(self) -> float:
        return self.trace[-1].loss

    @property
    def iterations(self) -> int:
        return len(self.trace)


def load_dataset(path: str | Path) -> TransitionDataset:
    """Parse a JSON Lines file of {"action": "left"|"right", "reward": 0|1}.

    Blank lines are skipped; anything else malformed raises DatasetError
    naming the offending line, including a reward of true, false, 0.0 or
    1.0.  Both arms must appear at least once.  Each distinct stripped
    line is parsed once; its later copies share the first one's record.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"dataset file not found: {path}")
    parsed: dict[str, tuple[Arm, int]] = {}
    records: list[tuple[Arm, int]] = []
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = parsed.get(line)
            if record is None:
                record = parsed[line] = _parse_record(f"{path}:{lineno}", line)
            records.append(record)
    dataset = TransitionDataset(records)
    for arm, pulls in dataset.pulls.items():
        if pulls == 0:
            raise DatasetError(f"{path}: no records for the {arm.value} arm")
    return dataset


def _parse_record(where: str, line: str) -> tuple[Arm, int]:
    """The shared pair one dataset line holds; DatasetError names ``where``."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{where}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise DatasetError(f"{where}: expected an object, got {obj!r}")
    action = obj.get("action")
    if action not in ("left", "right"):
        raise DatasetError(f"{where}: unknown action {action!r} (want 'left' or 'right')")
    reward = obj.get("reward")
    if type(reward) is not int or reward not in (0, 1):
        raise DatasetError(f"{where}: reward must be 0 or 1, got {reward!r}")
    return _PAIRS[Arm(action)][reward]


def synthesize_dataset(
    f_left: float, f_right: float, pulls_per_arm: int, seed: int
) -> TransitionDataset:
    """Draw a balanced Bernoulli dataset with the given win probabilities:
    pull i of the left arm wins when word i of the Philox stream keyed by
    ``seed``, as its uniform (w >> 11) * 2**-53, is below ``f_left``,
    which is when w >> 11 is below ``_limit(f_left)``; the right arm's
    pulls take the next ``pulls_per_arm`` words."""
    check_real("f_left", f_left, 0, 1)
    check_real("f_right", f_right, 0, 1)
    check_number("pulls_per_arm", pulls_per_arm, low=1)
    check_seed("seed", seed, key=True)
    arms = ((Arm.LEFT, _limit(f_left), 0), (Arm.RIGHT, _limit(f_right), pulls_per_arm))
    return TransitionDataset(
        chain.from_iterable(
            map(_PAIRS[arm].__getitem__, ((words >> 11) < limit).tolist())
            for arm, limit, start in arms
            for words in _PHILOX.blocks(seed, pulls_per_arm, start)
        )
    )


def write_dataset(dataset: TransitionDataset, path: str | Path) -> None:
    """One JSON Lines record per line, each distinct line rendered once."""
    lines = {
        key: json.dumps({"action": arm.value, "reward": reward}) + "\n"
        for key, (arm, reward) in _SHARED.items()
    }
    with Path(path).open("w") as handle:
        handle.writelines(map(lines.__getitem__, map(id, dataset.records)))


def empirical_frequencies(data: TransitionDataset) -> Frequencies:
    """Win frequency per arm: wins / pulls."""
    pulls, wins = data.pulls, data.wins
    for arm in Arm:
        if pulls[arm] == 0:
            raise DatasetError(f"cannot estimate frequency: {arm.value} arm never pulled")
    return Frequencies(
        wins[Arm.LEFT] / pulls[Arm.LEFT], wins[Arm.RIGHT] / pulls[Arm.RIGHT]
    )


def measured_frequencies(
    params: BanditParams, shots: int, backend: Backend, seed: int
) -> Frequencies:
    """Run both arm circuits for ``shots`` shots and return the measured
    reward frequencies.  Each arm gets its own stream derived from
    (seed, arm index)."""
    check_number("shots", shots, low=1)
    return _frequencies(
        _arm_circuits(params), shots, backend, (derive_seed(seed, 0), derive_seed(seed, 1))
    )


def _frequencies(
    circuits: tuple[Circuit, Circuit], shots: int, backend: Backend, keys
) -> Frequencies:
    """The reward frequencies of the (left, right) arm circuits, each
    measured for ``shots`` shots from the stream of its key in ``keys``."""
    left, right = circuits
    return Frequencies(
        backend.frequency(left, REWARD_QUBIT, shots, keys[0]),
        backend.frequency(right, REWARD_QUBIT, shots, keys[1]),
    )


def _evaluation_keys(seed: int, start: int, stop: int) -> Iterator[list[int]]:
    """[left key, right key] of each evaluation k in [start, stop):
    ``derive_seed(derive_seed(seed, k), arm)`` for arm 0 and 1, hashed a
    block of evaluations at a time.  Every k of a block has as many
    32-bit words, and the block's keys fit in ``_BLOCK_WORDS`` words.
    Numpy integer arguments are taken as Python ints, as ``derive_seed``
    takes its parts, since the hash refuses numpy scalars."""
    seed_words = _seed_words(int(seed))
    start, stop = int(start), int(stop)
    while start < stop:
        width = len(_seed_words(start))
        end = min(stop, start + _BLOCK_WORDS // 2, 2 ** (32 * width))
        k_words = np.array([_seed_words(k) for k in range(start, end)], np.uint32)
        yield from _arm_keys(*_entropy_hash(seed_words + list(k_words.T)))
        start = end


def _arm_keys(low: np.ndarray, high: np.ndarray) -> list[list[int]]:
    """[derive_seed(parent, 0), derive_seed(parent, 1)] for each parent key
    ``low | high << 32`` (uint32 arrays).  The entropy is [low, high, arm],
    or [low, arm] for a parent below 2**32, which is one word; that hashes
    as [low, arm, 0], since short entropy hashes as if padded with zeros."""
    small = np.repeat(high == 0, 2)
    arm = np.tile(np.array([0, 1], np.uint32), len(low))
    low, high = np.repeat(low, 2), np.repeat(high, 2)
    low, high = _entropy_hash([low, np.where(small, arm, high), np.where(small, 0, arm)])
    keys = low.astype(np.uint64) | high.astype(np.uint64) << 32
    return keys.reshape(-1, 2).tolist()


def mse_loss(meas: Frequencies, data: Frequencies) -> float:
    """Mean squared error between measured and data frequencies."""
    return (
        (meas.f_left - data.f_left) ** 2 + (meas.f_right - data.f_right) ** 2
    ) / 2.0


def optimize(
    data: TransitionDataset,
    config: TrainConfig,
    backend: Backend | None = None,
) -> TrainingResult:
    """Fit (theta_left, theta_right) to the dataset's win frequencies.

    Every objective evaluation is one full measurement cycle; evaluation
    k draws its shots from streams keyed by (config.seed, k, arm), so a
    rerun with the same config reproduces the trace exactly on the
    ideal backend.  Those keys are ``derive_seed(derive_seed(config.seed,
    k), arm)``, derived for a block of evaluations in one hash.  The
    optimizer's best point (lowest recorded loss) is re-scored by one
    last evaluation, and that last trace entry is the result's final
    point: ``final_theta`` and ``final_loss`` read it.  ``shots_per_eval``
    above the backend's ``max_shots`` is refused before any key or
    circuit is made.
    """
    backend = backend or IdealBackend()
    check_number(
        "shots_per_eval", config.shots_per_eval, low=1, high=getattr(backend, "max_shots", None)
    )
    target = empirical_frequencies(data)
    trace: list[TraceEntry] = []
    # The searches move about one angle per evaluation, so about half the
    # trace's angles repeat an earlier one; the entries share one float
    # per distinct angle, keyed by its bits (hex keeps -0.0 apart from 0.0).
    angles: dict[str, float] = {}
    keys = _evaluation_keys(config.seed, 0, config.max_iterations)

    def objective(theta: np.ndarray) -> float:
        k = len(trace)
        left, right = (angles.setdefault(a.hex(), a) for a in theta.tolist())
        meas = _frequencies(
            _arm_circuits(BanditParams(left, right)), config.shots_per_eval, backend, next(keys)
        )
        loss = mse_loss(meas, target)
        trace.append(TraceEntry(k, left, right, loss))
        return loss

    optimizer = OPTIMIZERS[config.optimizer]()
    best = optimizer.minimize(
        objective,
        np.asarray(config.initial_theta, dtype=float),
        rho_start=config.rho_start,
        rho_end=config.rho_end,
        max_evals=config.max_iterations - 1,
    )

    # Final acceptance measurement: one reserved evaluation re-scores the
    # returned parameters, so the reported loss is a fresh draw rather
    # than the minimum over noisy search evaluations.
    objective(np.asarray(best.x, dtype=float))
    return TrainingResult(tuple(trace))
