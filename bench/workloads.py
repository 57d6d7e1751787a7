"""The benchmark's workloads: inputs from a seed, one task, its checks.

A task is one call a user would make: ``run_qpe`` for a policy, or
``optimize`` on a dataset.  Inputs are drawn from the workload seed and
the task index, so the same seed gives the same task sequence however
many tasks a run completes.  Win and left-arm probabilities are drawn
from [0.05, 0.95].
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from qbandit import (
    BanditParams,
    Frequencies,
    IdealBackend,
    NoiseConfig,
    NoisyBackend,
    PolicySpec,
    QpeConfig,
    TrainConfig,
    TransitionDataset,
    angle_from_frequency,
    derive_seed,
    empirical_frequencies,
    measured_frequencies,
    mse_loss,
    optimize,
    policy_value,
    qsample_count,
    reward_probability,
    run_qpe,
    synthesize_dataset,
)
from qbandit.qpe import ValueHistogram
from qbandit.training import TrainingResult

from . import oracle

# Task index of the untimed warm-up task; timed tasks count up from 0.
WARMUP = 2**20

# Ideal phase estimation must match the closed form this closely.
EXACT_TOL = 1e-9
# A fitted arm this far from its data frequency is a failed fit.
TRAIN_FIT_LIMIT = 0.1


def _probabilities(seed: int, index: int, count: int) -> np.ndarray:
    return np.random.default_rng([seed, index]).uniform(0.05, 0.95, count)


@dataclass(frozen=True)
class QpeInput:
    policy: PolicySpec
    params: BanditParams
    seed: int

    @property
    def value(self) -> float:
        return policy_value(self.policy, self.params)


@dataclass(frozen=True)
class TrainInput:
    data: TransitionDataset
    target: Frequencies
    config: TrainConfig


class QpeWorkload:
    """``run_qpe`` with an n-qubit evaluation register on one backend."""

    kind = "qpe"

    def __init__(self, name: str, why: str, n: int, shots: int, noisy: bool, replay_tasks: int):
        self.name, self.why = name, why
        self.n, self.shots, self.noisy = n, shots, noisy
        self.replay_tasks = replay_tasks

    def backend(self):
        return NoisyBackend(NoiseConfig()) if self.noisy else IdealBackend()

    def inputs(self, seed: int):
        def task_input(index: int) -> QpeInput:
            p_left, f_left, f_right = _probabilities(seed, index, 3)
            params = BanditParams(angle_from_frequency(f_left), angle_from_frequency(f_right))
            return QpeInput(PolicySpec(float(p_left)), params, derive_seed(seed, index))

        return task_input

    def config(self, inp: QpeInput) -> QpeConfig:
        backend = "noisy" if self.noisy else "ideal"
        noise = NoiseConfig() if self.noisy else None
        return QpeConfig(n=self.n, shots=self.shots, backend=backend, noise=noise, seed=inp.seed)

    def run(self, inp: QpeInput, backend, tracer=None) -> ValueHistogram:
        with tracer.span("qpe.run_qpe") if tracer else nullcontext():
            return run_qpe(inp.policy, inp.params, self.config(inp), backend)

    def check(self, inp: QpeInput, out: ValueHistogram) -> list[str]:
        problems = []
        half = 2 ** (self.n - 1)
        if out.n != self.n or out.total_shots != self.shots:
            problems.append(f"histogram is for n={out.n}, shots={out.total_shots}")
        if sum(out.counts.values()) != self.shots:
            problems.append(f"counts sum to {sum(out.counts.values())}, not {self.shots}")
        if any(not 0 <= y <= half or c < 1 for y, c in out.counts.items()):
            problems.append(f"counts outside the folded grid: {sorted(out.counts)}")
        if out.qsamples != qsample_count(self.n):
            problems.append(f"qsamples {out.qsamples} != {qsample_count(self.n)}")
        if self.noisy:
            # Default noise moves n=4 histograms about 0.6 (TV) from the
            # ideal ones, so only their shape is checked here.
            if out.exact is not None:
                problems.append("noisy backend returned an exact distribution")
        elif out.exact is None:
            problems.append("ideal backend returned no exact distribution")
        else:
            exact = oracle.folded_distribution(inp.value, self.n)
            err = max(abs(out.exact.get(y, 0.0) - exact[y]) for y in range(half + 1))
            if err > EXACT_TOL or set(out.exact) - set(range(half + 1)):
                problems.append(f"exact distribution is {err:.2e} from the closed form")
        return problems

    def accuracy(self, inp: QpeInput, out: ValueHistogram) -> tuple[float, float]:
        """(|mode estimate - policy value|, TV to the closed-form distribution)."""
        exact = oracle.folded_distribution(inp.value, self.n)
        tv = oracle.tv_distance(out.counts, self.shots, exact)
        return abs(out.mode_value() - inp.value), tv


class TrainWorkload:
    """``optimize`` with the default ``TrainConfig`` on synthetic data.

    Datasets are made once, in set-up, and tasks cycle through them;
    every task has its own training seed.
    """

    kind = "train"

    def __init__(self, name: str, why: str, pulls_per_arm: int, datasets: int, replay_tasks: int):
        self.name, self.why = name, why
        self.pulls_per_arm, self.datasets = pulls_per_arm, datasets
        self.replay_tasks = replay_tasks

    def backend(self):
        return IdealBackend()

    def inputs(self, seed: int):
        pool = []
        for j in range(self.datasets):
            f_left, f_right = _probabilities(seed, j, 2)
            data = synthesize_dataset(
                float(f_left), float(f_right), self.pulls_per_arm, derive_seed(seed, j)
            )
            pool.append((data, empirical_frequencies(data)))

        def task_input(index: int) -> TrainInput:
            data, target = pool[index % len(pool)]
            return TrainInput(data, target, TrainConfig(seed=derive_seed(seed, index)))

        return task_input

    def run(self, inp: TrainInput, backend, tracer=None) -> TrainingResult:
        with tracer.span("training.optimize") if tracer else nullcontext():
            return optimize(inp.data, inp.config, backend)

    def _final_frequencies(self, inp: TrainInput, out: TrainingResult) -> Frequencies:
        # Re-measure the final acceptance evaluation: same angles, same stream.
        params = BanditParams(*out.final_theta)
        seed = derive_seed(inp.config.seed, out.iterations - 1)
        return measured_frequencies(params, inp.config.shots_per_eval, self.backend(), seed)

    def check(self, inp: TrainInput, out: TrainingResult) -> list[str]:
        cfg = inp.config
        if not 1 <= out.iterations <= cfg.max_iterations:
            return [f"{out.iterations} evaluations, budget {cfg.max_iterations}"]
        problems = []
        last = out.trace[-1]
        if [e.iteration for e in out.trace] != list(range(out.iterations)):
            problems.append("trace iterations are not 0..k-1")
        if (last.theta_left, last.theta_right, last.loss) != (*out.final_theta, out.final_loss):
            problems.append("final point is not the last trace entry")
        values = [v for e in out.trace for v in (e.theta_left, e.theta_right, e.loss)]
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite value in the trace")
        if mse_loss(self._final_frequencies(inp, out), inp.target) != out.final_loss:
            problems.append("final loss does not reproduce from its seed")
        fit = self._fit_errors(inp, out)
        if max(fit) > TRAIN_FIT_LIMIT:
            problems.append(f"fitted arms are {fit} from the data frequencies")
        return problems

    def _fit_errors(self, inp: TrainInput, out: TrainingResult) -> tuple[float, float]:
        fitted = [reward_probability(t) for t in out.final_theta]
        return (
            abs(fitted[0] - inp.target.f_left),
            abs(fitted[1] - inp.target.f_right),
        )

    def accuracy(self, inp: TrainInput, out: TrainingResult) -> tuple[float, float]:
        """(mean per-arm |sin^2(theta/2) - data frequency|, mean per-arm TV
        between the final evaluation's shot frequencies and the Born
        probabilities of the fitted circuits)."""
        meas = self._final_frequencies(inp, out)
        fitted = [reward_probability(t) for t in out.final_theta]
        tv = (abs(meas.f_left - fitted[0]) + abs(meas.f_right - fitted[1])) / 2
        return sum(self._fit_errors(inp, out)) / 2, tv


WORKLOADS = {
    w.name: w
    for w in (
        QpeWorkload(
            "qpe-ideal",
            "ideal run_qpe at n=10, 300 shots: two 17,466-gate passes on 12 qubits, "
            "so gate application dominates (compiled powers of Q, backend collapse)",
            n=10,
            shots=300,
            noisy=False,
            replay_tasks=2,
        ),
        QpeWorkload(
            "qpe-noisy",
            "noisy run_qpe at n=4, 300 shots: 300 Pauli trajectories of 276 gates on "
            "6 qubits dominate (density-matrix noise path)",
            n=4,
            shots=300,
            noisy=True,
            replay_tasks=2,
        ),
        TrainWorkload(
            "train-ideal",
            "default optimize on 10,000-pull datasets: ~200 small frequency calls per "
            "task, so per-call overhead and sampling dominate, not register width",
            pulls_per_arm=10_000,
            datasets=8,
            replay_tasks=20,
        ),
    )
}
