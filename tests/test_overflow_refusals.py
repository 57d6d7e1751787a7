"""Formulas whose floats would overflow refuse by name instead: the
phase-estimation error bound scales by an exact 2^-n, the Hoeffding
count names ``epsilon`` when it is no finite float, and ``baseline``
refuses an ``--n-range`` reaching such an n before it makes its
directory.  ``qsample_count`` refuses n above 1022 before it builds
2**n."""

import math
import time

import pytest

from qbandit.baseline import mc_samples_needed
from qbandit.cli import main
from qbandit.qpe import error_bound, qsample_count


@pytest.mark.parametrize("a", [0.0, 0.3, 0.45, 0.5, 1.0])
def test_error_bound_keeps_its_bits_at_small_widths(a):
    for n in range(1, 12):
        m = 2**n
        assert error_bound(n, a) == 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / m + math.pi**2 / m**2


@pytest.mark.parametrize("n", [512, 540, 1100, 10**6])
def test_error_bound_does_not_overflow_at_large_widths(n):
    bound = error_bound(n, 0.45)
    assert 0.0 <= bound < 1e-150


def test_error_bound_halves_per_qubit_at_large_widths():
    assert error_bound(541, 0.45) / error_bound(540, 0.45) == pytest.approx(0.5)


@pytest.mark.parametrize("epsilon", [1e-200, 1e-155, 10**5000], ids=["underflow", "overflow", "huge-integer"])
def test_mc_samples_needed_names_epsilon(epsilon):
    with pytest.raises(ValueError, match=r"^epsilon(.s Hoeffding count)? must"):
        mc_samples_needed(epsilon, 0.1)


def test_mc_samples_needed_at_the_smallest_finite_count():
    assert mc_samples_needed(1e-150, 0.1) > 1e299


@pytest.mark.parametrize("n_range", ["3..540", "600..610"])
def test_baseline_refuses_a_range_its_formulas_cannot_reach(tmp_path, capsys, n_range):
    out = tmp_path / "base"
    assert main(["baseline", "--v", "0.45", "--n-range", n_range, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qbandit baseline: n-range: {n_range!r} reaches n=")
    assert "epsilon" in err and "Traceback" not in err
    assert not out.exists()


def test_baseline_runs_up_to_the_last_finite_count(tmp_path):
    out = tmp_path / "base"
    assert main(["baseline", "--v", "0", "--n-range", "250..257", "--out", str(out)]) == 0
    assert len((out / "scaling.csv").read_text().splitlines()) == 9
    assert main(["baseline", "--v", "0", "--n-range", "250..258", "--out", str(tmp_path / "past")]) == 1


def test_qsample_count_stops_at_the_last_finite_float():
    assert math.isfinite(float(qsample_count(1022)))
    with pytest.raises(ValueError, match="^n must be"):
        qsample_count(1023)


def test_qsample_count_refuses_a_huge_n_before_building_its_power():
    # 2**(10**9) alone took 9.3 s to build.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^n must be"):
        qsample_count(10**9)
    assert time.perf_counter() - start < 0.5
