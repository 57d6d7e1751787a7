"""Phase-estimation engine: Grover operator, QPE circuit, histograms."""

import math

import numpy as np
import pytest

from qbandit import qpe
from qbandit.backends import ExactOracleBackend, IdealBackend, NoisyBackend, apportion
from qbandit.bandit import BanditParams, PolicySpec, angle_from_frequency, policy_value
from qbandit.noise import NoiseConfig, noisy_counts
from qbandit.qpe import (
    QpeConfig,
    build_grover_operator,
    build_qpe_circuit,
    build_state_prep,
    error_bound,
    eval_qubits,
    exact_value_distribution,
    fold_outcome,
    inverse_qft_gates,
    outcome_to_value,
    qft_gates,
    qsample_count,
    run_qpe,
    value_grid,
)
from qbandit.statevector import Circuit, apply_circuit, circuit_unitary, exact_distribution, new_state

ARMS_70_20 = BanditParams(angle_from_frequency(0.7), angle_from_frequency(0.2))
PI_50 = PolicySpec(0.5)
PI_0 = PolicySpec(0.0)


def dft_matrix(n: int) -> np.ndarray:
    N = 2**n
    omega = np.exp(2j * np.pi / N)
    return np.array([[omega ** (x * y) for y in range(N)] for x in range(N)]) / np.sqrt(N)


class TestFourierTransform:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forward_matches_dft(self, n):
        mat = circuit_unitary(Circuit(n, tuple(qft_gates(range(n)))))
        np.testing.assert_allclose(mat, dft_matrix(n), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inverse_matches_inverse_dft(self, n):
        mat = circuit_unitary(Circuit(n, tuple(inverse_qft_gates(range(n)))))
        np.testing.assert_allclose(mat, dft_matrix(n).conj().T, atol=1e-12)


class TestStatePrep:
    def test_balanced_policy_good_probability(self):
        state = apply_circuit(new_state(2), build_state_prep(PI_50, ARMS_70_20))
        marg = exact_distribution(state, qubits=[1])
        assert marg["1"] == pytest.approx(0.45, abs=1e-12)

    def test_right_policy_good_probability(self):
        state = apply_circuit(new_state(2), build_state_prep(PI_0, ARMS_70_20))
        marg = exact_distribution(state, qubits=[1])
        assert marg["1"] == pytest.approx(0.2, abs=1e-12)

    def test_zero_arms(self):
        state = apply_circuit(
            new_state(2), build_state_prep(PolicySpec(0.3), BanditParams(0.0, 0.0))
        )
        marg = exact_distribution(state, qubits=[1])
        assert marg.get("1", 0.0) == 0.0


def eigenphases(q_dense: np.ndarray) -> np.ndarray:
    return np.sort(np.angle(np.linalg.eigvals(q_dense)))


class TestGroverOperator:
    def test_quarter_amplitude_eigenphases(self):
        prep = build_state_prep(PolicySpec(1.0), BanditParams(angle_from_frequency(0.25), 0.0))
        q = build_grover_operator(prep)
        phases = eigenphases(q.dense())
        expected = 2 * math.asin(math.sqrt(0.25))
        assert np.abs(phases - (-expected)).min() < 1e-9
        assert np.abs(phases - expected).min() < 1e-9
        assert expected == pytest.approx(math.pi / 3, abs=1e-12)

    def test_forty_five_amplitude_eigenphases(self):
        q = build_grover_operator(build_state_prep(PI_50, ARMS_70_20))
        phases = eigenphases(q.dense())
        assert np.abs(phases - 1.47063).min() < 1e-5

    def test_zero_amplitude_fixes_prepared_state(self):
        prep = build_state_prep(PolicySpec(0.7), BanditParams(0.0, 0.0))
        q = build_grover_operator(prep)
        state = apply_circuit(new_state(2), prep)
        rotated = q.dense() @ state.amps
        np.testing.assert_allclose(rotated, state.amps, atol=1e-10)

    def test_random_policies_eigenphase_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            policy = PolicySpec(float(rng.random()))
            params = BanditParams(*rng.uniform(0.05, math.pi - 0.05, 2))
            value = policy_value(policy, params)
            q = build_grover_operator(build_state_prep(policy, params))
            phases = eigenphases(q.dense())
            expected = 2 * math.asin(math.sqrt(value))
            assert np.abs(phases - expected).min() < 1e-9
            assert np.abs(phases + expected).min() < 1e-9

    def test_dense_is_unitary(self):
        q = build_grover_operator(build_state_prep(PI_50, ARMS_70_20)).dense()
        np.testing.assert_allclose(q.conj().T @ q, np.eye(4), atol=1e-10)

    def test_rejects_wrong_register(self):
        with pytest.raises(ValueError):
            build_grover_operator(Circuit(3))


class TestControlledGrover:
    def test_block_matrix(self):
        # One controlled application (control on qubit 2) must equal
        # |0><0| (x) I + |1><1| (x) Q, with Q's global -1 included.
        q = build_grover_operator(build_state_prep(PI_50, ARMS_70_20))
        circ = Circuit(3, tuple(q.controlled_gates(2)))
        mat = circuit_unitary(circ)
        expected = np.zeros((8, 8), dtype=complex)
        expected[:4, :4] = np.eye(4)
        expected[4:, 4:] = q.dense()
        np.testing.assert_allclose(mat, expected, atol=1e-10)


class TestOutcomeMapping:
    def test_zero(self):
        assert outcome_to_value(0, 3) == 0.0

    def test_half(self):
        assert outcome_to_value(2, 3) == pytest.approx(0.5, abs=1e-12)

    def test_fold_pair(self):
        assert outcome_to_value(1, 3) == pytest.approx(0.146447, abs=1e-6)
        assert outcome_to_value(7, 3) == pytest.approx(0.146447, abs=1e-6)
        assert fold_outcome(7, 3) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            outcome_to_value(8, 3)


class TestValueGrid:
    def test_n3_values(self):
        np.testing.assert_allclose(
            value_grid(3), [0.0, 0.146447, 0.5, 0.853553, 1.0], atol=1e-6
        )

    def test_n4_contains_expected(self):
        grid = value_grid(4)
        assert len(grid) == 9
        for expected in (0.038060, 0.308658, 0.691342):
            assert min(abs(g - expected) for g in grid) < 1e-6

    def test_smallest(self):
        assert value_grid(1) == [0.0, 1.0]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_size_formula(self, n):
        grid = value_grid(n)
        assert len(grid) == 2 ** (n - 1) + 1
        assert grid == sorted(set(grid))


class TestErrorBound:
    def test_degenerate_amplitude(self):
        for n in (1, 4, 8):
            assert error_bound(n, 0.0) == pytest.approx(math.pi**2 / 4**n, abs=1e-15)

    def test_example_value(self):
        assert error_bound(4, 0.45) == pytest.approx(0.2339, abs=5e-5)

    def test_roughly_halves_per_qubit(self):
        for n in range(3, 10):
            ratio = error_bound(n, 0.3) / error_bound(n + 1, 0.3)
            assert 1.9 < ratio < 2.4


class TestQpeCircuit:
    @pytest.mark.parametrize("n,total", [(3, 5), (4, 6)])
    def test_register_width(self, n, total):
        q = build_grover_operator(build_state_prep(PI_50, ARMS_70_20))
        assert build_qpe_circuit(q, n).num_qubits == total

    def test_rejects_bad_n(self):
        q = build_grover_operator(build_state_prep(PI_50, ARMS_70_20))
        with pytest.raises(ValueError):
            build_qpe_circuit(q, 0)

    def test_dyadic_value_is_deterministic(self):
        # v = 0.5 puts the eigenphase exactly on the grid: the register
        # always reads the +/- pair folding to 0.5.
        policy = PolicySpec(0.5)
        params = BanditParams(math.pi / 2, math.pi / 2)
        assert policy_value(policy, params) == pytest.approx(0.5, abs=1e-15)
        dist = exact_value_distribution(policy, params, 3)
        assert dist[2] == pytest.approx(1.0, abs=1e-10)

    def test_raw_distribution_fold_symmetry(self):
        prep = build_state_prep(PI_50, ARMS_70_20)
        circ = build_qpe_circuit(build_grover_operator(prep), 4)
        raw = IdealBackend().exact_probabilities(circ, qubits=eval_qubits(4))
        for y in range(1, 8):
            p = raw.get(format(y, "04b"), 0.0)
            q = raw.get(format(16 - y, "04b"), 0.0)
            assert p == pytest.approx(q, abs=1e-10)


class TestRunQpe:
    def test_mode_balanced_policy(self):
        hist = run_qpe(PI_50, ARMS_70_20, QpeConfig(n=3, shots=300, seed=1))
        assert hist.mode_value() == pytest.approx(0.5, abs=1e-9)
        assert sum(hist.counts.values()) == 300
        assert hist.exact is not None

    def test_mode_right_policy(self):
        hist = run_qpe(PI_0, ARMS_70_20, QpeConfig(n=3, shots=300, seed=2))
        assert hist.mode_value() == pytest.approx(0.146447, abs=1e-6)

    def test_counts_live_on_grid(self):
        hist = run_qpe(PI_50, ARMS_70_20, QpeConfig(n=4, shots=200, seed=3))
        grid = value_grid(4)
        for y in hist.counts:
            assert min(abs(hist.value(y) - g) for g in grid) < 1e-12

    def test_confidence_bound_on_exact_distribution(self):
        for v, n in [(0.45, 3), (0.45, 5), (0.2, 4), (0.7, 6)]:
            policy = PolicySpec(1.0)
            params = BanditParams(angle_from_frequency(v), 0.0)
            dist = exact_value_distribution(policy, params, n)
            eps = error_bound(n, v)
            mass = sum(p for y, p in dist.items() if abs(outcome_to_value(y, n) - v) <= eps)
            assert mass >= 8 / math.pi**2

    def test_expected_error_tracks_bound(self):
        # The exact expected |estimate - v| is not pointwise monotone in n
        # (grid alignment makes it oscillate, e.g. v=0.2 from n=3 to 4),
        # but it refines with the O(1/2^n) radius: it stays within a
        # constant of error_bound at every width.
        policy = PolicySpec(1.0)
        for v in (0.1, 0.2, 0.45, 0.7, 0.9):
            params = BanditParams(angle_from_frequency(v), 0.0)
            errors = []
            for n in range(1, 9):
                dist = exact_value_distribution(policy, params, n)
                err = sum(p * abs(outcome_to_value(y, n) - v) for y, p in dist.items())
                errors.append(err)
                assert err <= 1.6 * error_bound(n, v), (v, n, err)
            assert errors[-1] < 0.05 * errors[0]

    def test_qsample_accounting(self):
        assert qsample_count(1) == 3
        assert qsample_count(3) == 15
        hist = run_qpe(PI_50, ARMS_70_20, QpeConfig(n=3, shots=10, seed=0))
        assert hist.qsamples == 15
        # One run costs O(1/error): the product stays bounded as n grows.
        products = [qsample_count(n) * error_bound(n, 0.45) for n in range(3, 11)]
        assert max(products) / min(products) < 2.0

    def test_exact_oracle_histogram_is_scaled_distribution(self):
        cfg = QpeConfig(n=3, shots=300, backend="exact-oracle", seed=9)
        hist = run_qpe(PI_50, ARMS_70_20, cfg, ExactOracleBackend())
        assert sum(hist.counts.values()) == 300
        for y, p in hist.exact.items():
            assert abs(hist.counts.get(y, 0) - p * 300) < 1.0
        # No sampling: the seed does not matter.
        other = run_qpe(
            PI_50, ARMS_70_20, QpeConfig(n=3, shots=300, backend="exact-oracle", seed=77),
            ExactOracleBackend(),
        )
        assert other.counts == hist.counts

    def test_noisy_backend_has_no_exact_distribution(self):
        cfg = QpeConfig(n=3, shots=20, backend="noisy", seed=4)
        hist = run_qpe(PI_50, ARMS_70_20, cfg, NoisyBackend(NoiseConfig()))
        assert hist.exact is None
        assert sum(hist.counts.values()) == 20

    def test_deterministic_given_seed(self):
        cfg = QpeConfig(n=3, shots=100, seed=11)
        a = run_qpe(PI_50, ARMS_70_20, cfg)
        b = run_qpe(PI_50, ARMS_70_20, cfg)
        assert a.counts == b.counts


class TestShotLimits:
    """A config takes at most its backend's ``max_shots``, the constant
    that backend's own check reads, so a run cannot be refused halfway."""

    @pytest.mark.parametrize(
        "backend, limit", [("noisy", 2**32), ("exact", 2**53), ("exact-oracle", 2**53)]
    )
    def test_config_takes_the_limit_and_refuses_one_more(self, backend, limit):
        assert QpeConfig(n=3, shots=limit, backend=backend).shots == limit
        with pytest.raises(ValueError, match=rf"shots must be in \[1, {limit}\]"):
            QpeConfig(n=3, shots=limit + 1, backend=backend)

    def test_ideal_has_no_limit(self):
        assert IdealBackend.max_shots is None
        assert QpeConfig(n=3, shots=2**53 + 1).shots == 2**53 + 1

    def test_noisy_counts_refuses_past_the_noisy_limit(self):
        circ = build_qpe_circuit(build_grover_operator(build_state_prep(PI_50, ARMS_70_20)), 1)
        limit = NoisyBackend.max_shots
        with pytest.raises(ValueError, match=rf"shots must be in \[1, {limit}\]"):
            noisy_counts(circ, limit + 1, NoiseConfig(), 0)

    @pytest.mark.parametrize("backend", [ExactOracleBackend(), NoisyBackend()], ids=["exact", "noisy"])
    def test_run_qpe_refuses_past_the_given_backends_limit_before_building(self, monkeypatch, backend):
        # The ideal config takes any shots; the backend given takes fewer.
        def unbuilt(*args):
            raise AssertionError("run_qpe built a circuit for shots its backend refuses")

        monkeypatch.setattr(qpe, "build_qpe_circuit", unbuilt)
        limit = backend.max_shots
        with pytest.raises(ValueError, match=rf"shots must be in \[1, {limit}\], got {limit + 1}"):
            run_qpe(PI_50, ARMS_70_20, QpeConfig(n=3, shots=limit + 1), backend)

    def test_apportion_refuses_past_the_oracle_limit(self):
        limit = ExactOracleBackend.max_shots
        assert apportion({0: 1.0}, limit) == {0: limit}
        with pytest.raises(ValueError, match=rf"shots must be in \[0, {limit}\]"):
            apportion({0: 1.0}, limit + 1)
