"""Apportioned counts sum exactly to the shots, or the request is refused:
past 2**53 shots a float product p * shots loses integer precision, and
probabilities whose sum misses 1 by more than the remainders can make up
would leave the counts short or over."""

import pytest

from qbandit.backends import ExactOracleBackend, apportion
from qbandit.bandit import Arm, BanditParams, PolicySpec, build_arm_circuit
from qbandit.cli import main
from qbandit.qpe import QpeConfig, run_qpe

HUGE = 10**17


@pytest.mark.parametrize(
    "probs", [{0: 0.5, 1: 0.5 + 1e-15}, {0: 0.5, 1: 0.5}, {"0": 0.3, "1": 0.7}]
)
def test_apportion_refuses_shots_past_2_53(probs):
    with pytest.raises(ValueError, match="shots"):
        apportion(probs, HUGE)
    with pytest.raises(ValueError, match="shots"):
        apportion(probs, 2**53 + 1)


@pytest.mark.parametrize("probs", [{0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.5, 2: 0.25}, {"0": 0.3, "1": 0.7}])
def test_apportion_sums_exactly_up_to_2_53(probs):
    assert sum(apportion(probs, 2**53).values()) == 2**53


def test_apportion_refuses_a_sum_error_the_remainders_cannot_cover():
    # 1e-15 of 2**53 shots is about 9 counts, more than two outcomes hold.
    with pytest.raises(ValueError, match=f"cannot apportion {2**53} shots"):
        apportion({0: 0.5, 1: 0.5 + 1e-15}, 2**53)


@pytest.mark.parametrize("probs", [{0: 0.5}, {0: 0.75, 1: 0.75}, {0: 0.2, 1: 0.2, 2: 0.2}])
def test_apportion_refuses_probabilities_far_from_one(probs):
    with pytest.raises(ValueError, match="cannot apportion 10 shots"):
        apportion(probs, 10)


def test_apportion_refuses_negative_shots():
    with pytest.raises(ValueError, match="shots"):
        apportion({0: 1.0}, -1)


def test_oracle_counts_refuse_huge_shots():
    circ = build_arm_circuit(Arm.RIGHT, BanditParams(1.2, 0.4))
    backend = ExactOracleBackend()
    with pytest.raises(ValueError, match="shots"):
        backend.counts(circ, HUGE, 0)
    assert sum(backend.counts(circ, 10**12, 0).counts.values()) == 10**12


def test_oracle_qpe_refuses_huge_shots():
    policy, params = PolicySpec(0.5), BanditParams(1.2, 0.4)
    with pytest.raises(ValueError, match="shots"):
        run_qpe(policy, params, QpeConfig(n=3, shots=HUGE), ExactOracleBackend())
    hist = run_qpe(policy, params, QpeConfig(n=3, shots=10**12), ExactOracleBackend())
    assert sum(hist.counts.values()) == 10**12


def test_cli_qpe_fails_the_huge_sub_run(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["qpe", "--backend", "exact", "--theta-left", "1.2", "--theta-right", "0.4"]
    code = main([*argv, "--n", "3", "--shots", str(HUGE), "--out", str(out)])
    assert code == 1
    assert "shots" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))
