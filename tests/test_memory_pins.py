"""What the ideal sampler, a synthesized dataset and a training result
keep in memory, by ``helpers.traced_bytes``: the sampler reads its
uniforms in bounded blocks, a dataset holds one pointer per record, and
a trace entry has no per-entry ``__dict__`` and shares its angles."""

from helpers import traced_bytes
from qbandit.statevector import apply_circuit, circuit, h, new_state, ry, sample_counts
from qbandit.training import (
    TrainConfig,
    load_dataset,
    optimize,
    synthesize_dataset,
    write_dataset,
)


def test_ideal_sampler_peak_memory_does_not_grow_with_shots():
    # Eight outcomes, so each block is sorted, and two, so each block is
    # passed once per edge.
    for state in (
        apply_circuit(new_state(3), circuit(3, [h(0), ry(0.7, 1), h(2)])),
        apply_circuit(new_state(1), circuit(1, [h(0)])),
    ):
        _, peak = traced_bytes(lambda: sample_counts(state, 10**6, 9))
        assert peak < 2e6


def test_a_synthesized_dataset_keeps_one_pointer_per_record():
    kept, _ = traced_bytes(lambda: synthesize_dataset(0.7, 0.2, 10_000, 1))
    assert kept < 0.3e6


def test_every_dataset_shares_the_four_pairs(tmp_path):
    data = synthesize_dataset(0.7, 0.2, 10_000, 1)
    assert len({id(r) for r in data.records}) <= 4
    write_dataset(data, tmp_path / "data.jsonl")
    loaded = load_dataset(tmp_path / "data.jsonl")
    assert loaded.records == data.records
    assert {id(r) for r in loaded.records} == {id(r) for r in data.records}


def test_a_training_result_keeps_its_trace_compact():
    data = synthesize_dataset(0.7, 0.2, 10_000, 1)
    result = optimize(data, TrainConfig())
    assert result.iterations == 100
    kept, _ = traced_bytes(lambda: optimize(data, TrainConfig()))
    assert kept < 13e3
