"""Every reader of a Philox stream decides "uniform below e" by one
integer rule: the word w stands for u = w >> 11, and u < ``_limit(e)`` =
ceil(e * 2**53) exactly when the uniform u * 2**-53 is below e.  Each
reader is fed hand-built words at u = L - 1 and u = L around each edge's
limit L, and each decision is held to the exact rational comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qbandit import statevector
from qbandit.bandit import BanditParams, PolicySpec, angle_from_frequency, reward_probability
from qbandit.baseline import monte_carlo_estimate
from qbandit.noise import NoiseConfig, _draws, _Slots, run_trajectory
from qbandit.statevector import Circuit, _Philox, _draw, _limit, _tally, h, z
from qbandit.training import synthesize_dataset

JUNK = 0x7FF  # the low 11 bits, which no reader may look at
TOP = 2**53  # every u is below it

CORNERS = [0.0, -0.0, 5e-324, 2**-53, 0.5, 1 - 2**-53, 1.0]
# Each corner and its neighbours, told apart by their bits, so that -0.0
# stays beside 0.0.  1.0's upper neighbour, 1 + 2**-52, is a CDF value a
# cumsum can round to, and 0.0's lower one a negative edge.
EDGES = sorted({e.hex(): e for c in CORNERS for e in map(float, (np.nextafter(c, -1), c, np.nextafter(c, 2)))}.values())
# The edges a probability field takes.
RATES = [e for e in EDGES if 0.0 <= e <= 1.0]


def exact(e) -> int:
    """ceil(e * 2**53), in rationals."""
    return math.ceil(Fraction(float(e)) * TOP)


def below(u: int, e) -> bool:
    return Fraction(u, TOP) < Fraction(float(e))


def us(e) -> list[int]:
    """0, the largest u, and the u either side of ``e``'s limit, those below 2**53."""
    limit = exact(e)
    return sorted({u for u in (0, TOP - 1, limit - 1, limit) if 0 <= u < TOP})


def word(u: int) -> int:
    return u << 11 | JUNK


@pytest.fixture
def stream(monkeypatch):
    """Makes every stream the hand-built words of the u values given:
    ``_Philox.raw`` reads them by index, so ``blocks`` and every reader
    see them too."""

    def use(values):
        words = np.array([word(u) for u in values], dtype=np.uint64)
        monkeypatch.setattr(_Philox, "raw", lambda self, key, start=0: lambda count: words[start : start + count].copy())

    return use


def test_edges_cover_the_corners():
    assert {1 + 2**-52, -5e-324} <= set(EDGES)
    assert sorted(e.hex() for e in EDGES if e == 0.0) == ["-0x0.0p+0", "0x0.0p+0"]


@pytest.mark.parametrize("e", EDGES)
def test_limit_is_the_exact_ceiling(e):
    got = _limit(e)
    assert got.dtype == np.uint64 and int(got) == exact(e)
    arrays = _limit(np.array([e, e]))
    assert arrays.dtype == np.uint64 and arrays.tolist() == [exact(e)] * 2
    for u in us(e):
        assert (np.uint64(u) < got) == below(u, e)


def test_a_cdf_value_above_one_fits():
    # A cumsum can round to 1 + 2**-52; its limit is held in uint64, above every u.
    assert int(_limit(1 + 2**-52)) == TOP + 2
    assert _limit(np.array([1.0, 1 + 2**-52])).tolist() == [TOP, TOP + 2]


@pytest.mark.parametrize("e", EDGES)
def test_draw_selects_by_the_limit(e):
    # cdf = [e, 1.0]: outcome 0 exactly when the uniform is below e.
    values = np.array(us(e), dtype=np.uint64)
    marg = np.tile([[e], [0.0]], len(values))
    assert _draw(marg, values).tolist() == [0 if below(u, e) else 1 for u in values.tolist()]


@pytest.mark.parametrize("passes", [0, 1024])
@pytest.mark.parametrize("e", EDGES)
def test_tally_counts_by_the_limit(monkeypatch, passes, e):
    monkeypatch.setattr(statevector, "_EDGE_PASSES", passes)
    for u in us(e):
        counts = _tally(np.array([e, 0.0]), np.array([word(u)], dtype=np.uint64))
        assert counts.tolist() == ([1, 0] if below(u, e) else [0, 1]), (e, u)


@pytest.mark.parametrize("e", RATES)
def test_a_slot_errs_by_its_rates_limit(stream, e):
    values = us(e)
    slots = _Slots.of(Circuit(1, tuple(h(0) for _ in values)), NoiseConfig(p1=e))
    assert slots.below.dtype == np.uint64 and slots.below.tolist() == [exact(e)] * len(values)
    stream(values)
    shot, slot, _, _ = _draws(0, 0, 1, slots, 0)
    assert shot.tolist() == [0] * len(slot)
    assert slot.tolist() == [i for i, u in enumerate(values) if below(u, e)]


@pytest.mark.parametrize("e", RATES)
def test_a_bit_flips_by_the_readout_limit(stream, e):
    # Z on |0> with p1 = 0 measures 0, and reads 1 only when it flips.
    circ, config = Circuit(1, (z(0),)), NoiseConfig(p1=0.0, readout_flip=e)
    for u in us(e):
        stream([TOP - 1, 0, u])  # the slot, the measurement, the readout
        assert run_trajectory(circ, config, 0) == ("1" if below(u, e) else "0"), (e, u)


@pytest.mark.parametrize("e", RATES)
def test_a_pull_wins_by_its_arms_limit(stream, e):
    values = us(e)
    stream(values + values)  # the left arm's pulls, then the right's
    data = synthesize_dataset(e, e, len(values), 0)
    want = [int(below(u, e)) for u in values]
    assert [r for _, r in data.records] == want + want


@pytest.mark.parametrize("e", RATES)
def test_an_episode_picks_and_wins_by_the_limits(stream, e):
    # The left arm always wins and the right never, so an episode wins
    # exactly when it picks the left arm.
    for u in us(e):
        stream([u, 0])
        got = monte_carlo_estimate(PolicySpec(e), BanditParams(math.pi, 0.0), 1, 0).estimate
        assert got == float(below(u, e)), (e, u)
    # Then the left arm is always picked, and wins by its own limit.
    win = reward_probability(angle_from_frequency(e))
    for u in us(win):
        stream([0, u])
        got = monte_carlo_estimate(PolicySpec(1.0), BanditParams(angle_from_frequency(e), 0.0), 1, 0).estimate
        assert got == float(below(u, win)), (win, u)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda v: synthesize_dataset(v, 0.5, 1, 0), "f_left"),
        (lambda v: PolicySpec(v), "p_left"),
        (lambda v: NoiseConfig(readout_flip=v), "readout_flip"),
    ],
)
def test_a_probability_above_one_is_refused(make, field):
    with pytest.raises(ValueError, match=field):
        make(1 + 2**-52)
