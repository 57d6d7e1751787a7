"""Deterministic counters of a traced run repeat exactly for a seed."""

import json
from pathlib import Path

import pytest

from bench.layers import LAYER_METRICS, layer_metrics
from bench.run import E2E_UNITS, RESULT_METRICS, tail
from bench.tracing import Tracer, TracingBackend
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
COUNTERS = ("qpe.circuit_gates", "statevector.gate_apps", "noise.trajectories", "training.evals")
TASKS = {"qpe-ideal": 1, "qpe-noisy": 1, "train-ideal": 3}


def traced_counters(name: str, seed: int):
    workload = WORKLOADS[name]
    task_input = workload.inputs(seed)
    tracer = Tracer()
    proxy = TracingBackend(workload.backend(), tracer)
    traced = []
    for index in range(TASKS[name]):
        tracer.task = index
        inp = task_input(index)
        traced.append((inp, workload.run(inp, proxy, tracer)))
    metrics, problems = layer_metrics(workload, tracer, traced, 0.0)
    assert problems == []
    return {k: metrics[k] for k in COUNTERS}, traced


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_for_a_seed_and_a_held_out_seed(name):
    first, outputs = traced_counters(name, seed=11)
    again, outputs_again = traced_counters(name, seed=11)
    assert again == first
    assert outputs_again == outputs
    held_out, other_outputs = traced_counters(name, seed=20251017)
    assert held_out == traced_counters(name, seed=20251017)[0]
    # The held-out seed reaches the program: its tasks differ.
    assert [o for _, o in other_outputs] != [o for _, o in outputs]


def test_counters_match_the_workload_definitions():
    ideal, _ = traced_counters("qpe-ideal", seed=3)
    assert ideal["qpe.circuit_gates"] == 17_466
    assert ideal["statevector.gate_apps"] == 2 * 17_466
    noisy, _ = traced_counters("qpe-noisy", seed=3)
    assert noisy["qpe.circuit_gates"] == 276
    assert noisy["noise.trajectories"] == 300
    train, _ = traced_counters("train-ideal", seed=3)
    assert 1 <= train["training.evals"] <= 100


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: E2E_UNITS[name] for name in RESULT_METRICS
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


def test_tail_has_ten_samples_beyond_it():
    latencies = [float(i) for i in range(40)]
    value, percentile, beyond = tail(latencies)
    assert value == 29.0 and beyond == 10
    assert sum(x > value for x in latencies) == 10
    assert percentile == pytest.approx(75.0)
    # Too few samples for ten beyond: the tail falls back to the median.
    assert tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3), 1)
    assert tail([float(i) for i in range(21)]) == (10.0, pytest.approx(100 * 11 / 21), 10)
