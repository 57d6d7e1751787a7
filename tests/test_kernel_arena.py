"""The batched kernel computes in a caller's work arena: its gather and
product land in the arena with the bits of the plain product, and a call
given an arena allocates nothing the size of the batch."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_bytes
from qbandit.statevector import _apply_matrix, _gate_rows


@st.composite
def batched_gates(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(3, n)))
    c = draw(st.integers(0, min(2, n - k)))
    qubits = draw(st.permutations(range(n)))
    return n, tuple(qubits[:k]), tuple(qubits[k : k + c])


@settings(max_examples=150, deadline=None)
@given(batched_gates(), st.integers(1, 300), st.integers(0, 64), st.integers(0, 2**32 - 1))
def test_the_arena_kernel_keeps_the_bits_of_the_product(gate, cols, spare, seed):
    n, targets, controls = gate
    rng = np.random.default_rng(seed)
    d = 2 ** len(targets)
    amps = rng.normal(size=(2**n, cols)) + 1j * rng.normal(size=(2**n, cols))
    matrix = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rows = _gate_rows(n, targets, controls)
    want = amps.copy()
    block = want[rows]
    want[rows] = (matrix @ block.reshape(d, -1)).reshape(block.shape)
    arena = np.full(2 * amps.size + spare, np.nan, dtype=complex)  # stale contents must not leak
    _apply_matrix(amps, n, matrix, targets, controls, arena)
    assert np.array_equal(amps.view(np.uint64), want.view(np.uint64))


def test_with_an_arena_the_kernel_allocates_nothing_the_size_of_the_batch():
    # A (64, 300) batch is 307 KB; the default-mode take alone would add
    # a temporary as large.
    amps = np.zeros((64, 300), dtype=complex)
    amps[0] = 1.0
    arena = np.empty(2 * amps.size, dtype=complex)
    rng = np.random.default_rng(5)
    for d, targets, controls in ((8, (0, 1, 2), ()), (2, (3,), (4, 5))):
        matrix = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        _, peak = traced_bytes(lambda: _apply_matrix(amps, 6, matrix, targets, controls, arena))
        assert peak < 16 * 1024
