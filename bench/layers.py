"""Per-layer numbers from a traced run: span times, boundary counts and replays.

Spans come from the benchmark's own calls (``run_qpe``, ``optimize`` and
the tracing backend).  Layers below the backend are timed by replaying
what crossed the backend boundary through the public functions of
``statevector``, ``bandit``, ``qpe`` and ``optimizers``.
"""

from __future__ import annotations

import time

import numpy as np

from qbandit import (
    OPTIMIZERS,
    Arm,
    BanditParams,
    apply_circuit,
    build_arm_circuit,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    exact_distribution,
    new_state,
    sample_counts,
)
from qbandit.bandit import build_environment_circuit, build_policy_circuit

from .tracing import Tracer

# Name and unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "qpe.circuit_gates": "count",
    "qpe.build_s": "s",
    "qpe.self_s": "s",
    "backends.exact_calls": "count",
    "backends.counts_calls": "count",
    "backends.frequency_calls": "count",
    "backends.passes_per_task": "count",
    "backends.exact_s": "s",
    "backends.counts_s": "s",
    "backends.frequency_s": "s",
    "statevector.gate_apps": "count",
    "statevector.amp_updates": "count",
    "statevector.apply_s": "s",
    "statevector.gate_us": "us",
    "statevector.sample_s": "s",
    "statevector.marginal_s": "s",
    "noise.trajectories": "count",
    "noise.gate_shots": "count",
    "noise.traj_us": "us",
    "noise.gate_shot_us": "us",
    "training.evals": "count",
    "training.shots": "count",
    "training.self_s": "s",
    "optimizers.minimize_s": "s",
    "optimizers.step_us": "us",
    "bandit.build_s": "s",
    "trace.overhead_frac": "ratio",
}


class ReplayMismatch(Exception):
    """A replay did not reproduce what the traced run observed."""


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def replay_statevector(calls) -> dict[str, float]:
    """Re-run each kept backend call through the state-vector layer.

    Ideal calls must reproduce the backend's result exactly.  A noisy
    call is replayed as one ideal pass and one sampling, which times the
    layer at that width; its trajectories are timed by the backend span.
    """
    totals = {"apply_s": 0.0, "sample_s": 0.0, "marginal_s": 0.0, "gates": 0}
    for call in calls:
        circ = call.circuit
        state, dt = _timed(apply_circuit, new_state(circ.num_qubits), circ)
        totals["apply_s"] += dt
        totals["gates"] += len(circ)
        if call.method == "exact":
            got, dt = _timed(exact_distribution, state, call.qubits)
            totals["marginal_s"] += dt
        else:
            got, dt = _timed(sample_counts, state, call.shots, call.seed, call.qubits)
            totals["sample_s"] += dt
            if call.method == "frequency":
                got = got.frequency("1")
        if not call.noisy and got != call.result:
            raise ReplayMismatch(f"state-vector replay of a {call.method} call differs")
    return totals


def replay_optimizer(result, config) -> float:
    """Seconds ``minimize`` spends when fed the recorded losses in order.

    The optimizers are deterministic given the values they observe, so
    the proposals must reproduce the recorded angles; the final entry is
    the acceptance evaluation made after ``minimize`` returns.
    """
    entries = iter(result.trace[:-1])

    def objective(theta: np.ndarray) -> float:
        entry = next(entries, None)
        if entry is None or (float(theta[0]), float(theta[1])) != (
            entry.theta_left,
            entry.theta_right,
        ):
            raise ReplayMismatch("optimizer proposals differ from the recorded trace")
        return entry.loss

    best, dt = _timed(
        lambda: OPTIMIZERS[config.optimizer]().minimize(
            objective,
            np.asarray(config.initial_theta, dtype=float),
            rho_start=config.rho_start,
            rho_end=config.rho_end,
            max_evals=config.max_iterations - 1,
        )
    )
    if next(entries, None) is not None or tuple(best.x) != result.final_theta:
        raise ReplayMismatch("optimizer replay ended at a different point")
    return dt


def replay_arm_circuits(result) -> float:
    """Seconds to build both arm circuits for every recorded evaluation."""
    start = time.perf_counter()
    for entry in result.trace:
        params = BanditParams(entry.theta_left, entry.theta_right)
        build_arm_circuit(Arm.LEFT, params)
        build_arm_circuit(Arm.RIGHT, params)
    return time.perf_counter() - start


def replay_qpe_build(inp, n: int) -> tuple[float, float]:
    """(seconds in ``bandit`` builders, seconds to build the QPE circuit)."""
    start = time.perf_counter()
    build_policy_circuit(inp.policy)
    build_environment_circuit(inp.params)
    bandit_s = time.perf_counter() - start
    start = time.perf_counter()
    build_qpe_circuit(build_grover_operator(build_state_prep(inp.policy, inp.params)), n)
    return bandit_s, time.perf_counter() - start


def layer_metrics(workload, tracer: Tracer, traced, overhead_frac: float):
    """Per-task means over the traced tasks, and the replays' problems.

    ``traced`` lists (task input, output) for each traced task; backend
    calls were kept for the first ``workload.replay_tasks`` of them.  A
    replay that does not reproduce the traced run is reported as a
    problem and its metrics stay 0 rather than report a wrong number.
    """
    tasks = len(traced)
    counts = tracer.counts
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    problems: list[str] = []
    for method in ("exact", "counts", "frequency"):
        m[f"backends.{method}_calls"] = counts[f"backends.{method}_calls"] / tasks
        m[f"backends.{method}_s"] = tracer.busy(f"backends.{method}") / tasks
    m["backends.passes_per_task"] = counts["backends.passes"] / tasks
    for name in (
        "statevector.gate_apps",
        "statevector.amp_updates",
        "noise.trajectories",
        "noise.gate_shots",
    ):
        m[name] = counts[name] / tasks
    if counts["noise.trajectories"]:
        noisy_s = tracer.busy("backends.counts") + tracer.busy("backends.frequency")
        m["noise.traj_us"] = 1e6 * noisy_s / counts["noise.trajectories"]
        m["noise.gate_shot_us"] = 1e6 * noisy_s / counts["noise.gate_shots"]

    replayed = traced[: workload.replay_tasks]
    try:
        sv = replay_statevector(tracer.calls)
    except ReplayMismatch as exc:
        problems.append(str(exc))
    else:
        m["statevector.apply_s"] = sv["apply_s"] / len(replayed)
        m["statevector.sample_s"] = sv["sample_s"] / len(replayed)
        m["statevector.marginal_s"] = sv["marginal_s"] / len(replayed)
        m["statevector.gate_us"] = 1e6 * sv["apply_s"] / max(sv["gates"], 1)

    if workload.kind == "qpe":
        m["qpe.self_s"] = tracer.self_time("qpe.run_qpe") / tasks
        # Gate count of the first circuit each kept task sent to the backend.
        first: dict[int, int] = {}
        for call in tracer.calls:
            first.setdefault(call.task, len(call.circuit))
        m["qpe.circuit_gates"] = sum(first.values()) / max(len(first), 1)
        builds = [replay_qpe_build(inp, workload.n) for inp, _ in replayed]
        m["bandit.build_s"] = sum(b for b, _ in builds) / len(builds)
        m["qpe.build_s"] = sum(q for _, q in builds) / len(builds)
    else:
        m["training.evals"] = sum(out.iterations for _, out in traced) / tasks
        m["training.shots"] = counts["backends.shots"] / tasks
        m["training.self_s"] = (
            tracer.busy("training.optimize") - tracer.busy("backends.frequency")
        ) / tasks
        try:
            minimize_s = [replay_optimizer(out, inp.config) for inp, out in replayed]
        except ReplayMismatch as exc:
            problems.append(str(exc))
        else:
            steps = sum(out.iterations - 1 for _, out in replayed)
            m["optimizers.minimize_s"] = sum(minimize_s) / len(replayed)
            m["optimizers.step_us"] = 1e6 * sum(minimize_s) / steps
        m["bandit.build_s"] = sum(replay_arm_circuits(out) for _, out in replayed) / len(replayed)
    m["trace.overhead_frac"] = overhead_frac
    return m, problems
