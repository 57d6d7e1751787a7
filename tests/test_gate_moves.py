"""Every gate is one product: the kernel writes ``matrix @ block`` for
permutations with unit phases (X, SWAP, Z, their controlled forms and
UNITARY payloads of that shape) as for every other matrix.  It is held
here to the product written out independently, one column at a time, on
rows found by a loop over every basis index.

The product's rounding and its zero signs depend on the BLAS kernel the
block's shape selects: OpenBLAS writes -0 for some zeros of blocks of 2
or 3 columns, and +0 for 1 column and for 4 or more, and a batch's wider
block may fuse its multiply-adds differently from one column's.  So the
zeros of both sides are taken as +0, and the other parts are compared
bit for bit where no kernel can round them: on one column, which takes
the reference's own product, and for a matrix whose every entry is 0 or
a unit phase, whose product rows each have one nonzero term.  Every
other part lies within the product's rounding bound of the reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbandit.statevector import _apply_matrix, h, phase, ry, swap, unitary, x, z

PHASES = (1, -1, 1j, -1j)
EPS = np.finfo(float).eps


def product_rows(n, targets, controls):
    """rows[b]: the basis indices whose target bits spell b and whose
    control bits are all 1, found by a loop over every index."""
    rows = [[] for _ in range(2 ** len(targets))]
    for i in range(2**n):
        if all(i >> c & 1 for c in controls):
            rows[sum((i >> t & 1) << j for j, t in enumerate(targets))].append(i)
    return np.array(rows)


def product(amps, n, gate):
    """The gate applied by the product, one state (column) at a time, and
    a bound on each part's distance from any other rounding of it: 8 eps
    |matrix| @ |amps|, twice a row's worst rounding, and zero on the rows
    the gate leaves as they are."""
    want, bound = amps.copy(), np.zeros(amps.shape)
    rows = product_rows(n, gate.targets, gate.controls)
    columns = zip(*(a.reshape(len(amps), -1).T for a in (amps, want, bound)))  # views
    for amp, out, slack in columns:
        out[rows] = gate.matrix @ amp[rows]
        slack[rows] = 8 * EPS * (np.abs(gate.matrix) @ np.abs(amp[rows]))
    return want, bound


def bits(amps):
    """The parts' bits, each zero taken as +0."""
    return (amps + 0.0).view(np.uint64)


@st.composite
def states(draw, n):
    """One state or a batch, with parts that are +0.0 or -0.0 as often
    as not, so that a zero's sign has its chance to matter."""
    shape = (2**n,) if draw(st.booleans()) else (2**n, draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    parts = rng.normal(size=(2, *shape))
    parts[rng.random(parts.shape) < 0.5] = 0.0
    parts *= rng.choice([-1.0, 1.0], size=parts.shape)
    amps = np.empty(shape, dtype=complex)
    amps.real, amps.imag = parts  # keeps each part's zero sign
    return amps


@st.composite
def gates(draw, n):
    """X, Z, controlled Z, SWAP, a UNITARY permutation with unit phases,
    RY, H or PHASE, on random qubits of an n-qubit register with random
    controls, or its adjoint."""
    qubits = draw(st.permutations(range(n)))
    kinds = ["X", "Z", "UNITARY", "RY", "H", "PHASE"] + (["CZ", "SWAP"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    k = {"SWAP": 2, "UNITARY": draw(st.integers(1, min(3, n)))}.get(kind, 1)
    targets, rest = qubits[:k], qubits[k:]
    controls = rest[: draw(st.integers(int(kind == "CZ"), len(rest)))]
    if kind in ("X", "Z", "CZ", "H"):
        gate = {"X": x, "H": h}.get(kind, z)(targets[0], controls=controls)
    elif kind in ("RY", "PHASE"):
        angle = draw(st.floats(-4 * np.pi, 4 * np.pi))
        gate = (ry if kind == "RY" else phase)(angle, targets[0], controls=controls)
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
def test_every_gate_writes_each_columns_product(data, n):
    gate = data.draw(gates(n))
    amps = data.draw(states(n))
    want, bound = product(amps, n, gate)
    exact = amps.ndim == 1 or amps.shape[1] == 1 or np.isin(gate.matrix, (0, *PHASES)).all()
    _apply_matrix(amps, n, gate.matrix, gate.targets, gate.controls)
    if exact:
        np.testing.assert_array_equal(bits(amps), bits(want))
    for got, ref in ((amps.real, want.real), (amps.imag, want.imag)):
        assert (np.abs(got - ref) <= bound).all()
