"""Gates whose matrix is a permutation with unit phases move amplitudes
instead of multiplying them.  The bits must be those of the product,
written out here as ``matrix @ amps[rows]``, zero signs included.

The product's own zero sign depends on the BLAS kernel the block's shape
selects: OpenBLAS writes -0 for some blocks of 2 or 3 columns, and +0
for 1 column and for 4 or more.  So the product's zeros are taken as +0
here, and every other part is compared bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit.statevector import _apply_matrix, h, phase, ry, swap, unitary, x, z

PHASES = (1, -1, 1j, -1j)


def product_rows(n, targets, controls):
    """rows[b]: the basis indices whose target bits spell b and whose
    control bits are all 1, found by a loop over every index."""
    rows = [[] for _ in range(2 ** len(targets))]
    for i in range(2**n):
        if all(i >> c & 1 for c in controls):
            rows[sum((i >> t & 1) << j for j, t in enumerate(targets))].append(i)
    return np.array(rows)


def product(amps, n, gate):
    """The gate applied by the product, one state (column) at a time,
    with each zero it writes as +0."""
    want = amps.copy()
    rows = product_rows(n, gate.targets, gate.controls)
    if amps.ndim == 1:
        want[rows] = gate.matrix @ amps[rows] + 0.0
    else:
        for c in range(amps.shape[1]):
            want[rows, c] = gate.matrix @ amps[rows, c] + 0.0
    return want


@st.composite
def states(draw, n):
    """One state or a batch, with parts that are +0.0 or -0.0 as often
    as not, so that a wrong zero sign shows."""
    shape = (2**n,) if draw(st.booleans()) else (2**n, draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    parts = rng.normal(size=(2, *shape))
    parts[rng.random(parts.shape) < 0.5] = 0.0
    parts *= rng.choice([-1.0, 1.0], size=parts.shape)
    amps = np.empty(shape, dtype=complex)
    amps.real, amps.imag = parts  # keeps each part's zero sign
    return amps


@st.composite
def moving_gates(draw, n):
    """X, SWAP, Z, controlled Z or a UNITARY permutation with unit
    phases, on random qubits of an n-qubit register, or its adjoint."""
    qubits = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["X", "Z", "UNITARY"] + (["CZ", "SWAP"] if n > 1 else [])))
    k = {"SWAP": 2, "UNITARY": draw(st.integers(1, min(3, n)))}.get(kind, 1)
    targets, rest = qubits[:k], qubits[k:]
    controls = rest[: draw(st.integers(int(kind == "CZ"), len(rest)))]
    if kind in ("X", "Z", "CZ"):
        gate = (x if kind == "X" else z)(targets[0], controls=controls)
    elif kind == "SWAP":
        gate = swap(*targets, controls=controls)
    else:
        dim = 2**k
        matrix = np.zeros((dim, dim), dtype=complex)
        order = draw(st.permutations(range(dim)))
        matrix[np.arange(dim), order] = draw(st.lists(st.sampled_from(PHASES), min_size=dim, max_size=dim))
        gate = unitary(matrix, targets, controls=controls)
    return gate.adjoint() if draw(st.booleans()) else gate


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_moved_amplitudes_have_the_products_bits(data, n):
    gate = data.draw(moving_gates(n))
    amps = data.draw(states(n))
    assert gate.moves is not None
    want = product(amps, n, gate)
    _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls, gate.moves)
    np.testing.assert_array_equal(amps.view(np.uint64), want.view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(1e-6, 4 * np.pi), controls=st.lists(st.integers(1, 4), max_size=2, unique=True))
def test_other_gates_take_the_product(theta, controls):
    # PHASE(pi)'s phase is -1 + 1.2e-16i, not exactly -1.
    for gate in (ry(theta, 0), ry(-theta, 0), h(0), phase(np.pi, 0), phase(theta, 0)):
        assert gate.moves is None, gate
        assert gate.controlled(*controls).moves is None, gate
