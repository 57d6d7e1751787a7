"""The tracing backend changes no output and records nested spans."""

import pytest

from bench.tracing import Tracer, TracingBackend
from bench.workloads import WORKLOADS
from qbandit import (
    BanditParams,
    ExactOracleBackend,
    IdealBackend,
    NoiseConfig,
    NoisyBackend,
    PolicySpec,
    QpeConfig,
    TrainConfig,
    optimize,
    run_qpe,
    synthesize_dataset,
)

POLICY, PARAMS = PolicySpec(0.3), BanditParams(1.1, 2.3)


@pytest.mark.parametrize(
    "backend, config",
    [
        (IdealBackend(), QpeConfig(n=5, shots=200, seed=3)),
        (NoisyBackend(NoiseConfig()), QpeConfig(n=2, shots=40, backend="noisy", seed=3)),
    ],
)
def test_proxy_gives_the_same_histogram(backend, config):
    tracer = Tracer()
    plain = run_qpe(POLICY, PARAMS, config, backend)
    traced = run_qpe(POLICY, PARAMS, config, TracingBackend(backend, tracer))
    assert traced == plain
    assert tracer.counts["backends.exact_calls"] == tracer.counts["backends.counts_calls"] == 1


def test_proxy_gives_the_same_training_trace():
    data = synthesize_dataset(0.6, 0.25, 2_000, seed=5)
    config = TrainConfig(shots_per_eval=500, max_iterations=30, seed=9)
    tracer = Tracer()
    plain = optimize(data, config, IdealBackend())
    traced = optimize(data, config, TracingBackend(IdealBackend(), tracer))
    assert traced == plain
    assert tracer.counts["backends.frequency_calls"] == 2 * plain.iterations


def test_proxy_refuses_the_exact_oracle():
    with pytest.raises(TypeError):
        TracingBackend(ExactOracleBackend(), Tracer())


def test_backend_spans_are_children_of_the_task_span():
    workload = WORKLOADS["train-ideal"]
    tracer = Tracer()
    tracer.task = 7
    inp = workload.inputs(seed=1)(0)
    workload.run(inp, TracingBackend(workload.backend(), tracer), tracer)
    root, *children = tracer.spans
    assert root.name == "training.optimize" and root.parent is None
    assert children and all(s.parent == 0 and s.name == "backends.frequency" for s in children)
    assert all(s.task == 7 for s in tracer.spans)
    assert 0 < tracer.self_time("training.optimize") < root.duration
