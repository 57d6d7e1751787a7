"""An integer too long to print (over 4,300 digits) is refused by a
message that names its field and gives the value's size in bits."""

import re

import pytest

from qbandit.noise import NoiseConfig, noisy_counts
from qbandit.statevector import Circuit, check_number, check_seed, h

HUGE = 10**5000
BITS = HUGE.bit_length()

CASES = {
    "check_number-above": (
        lambda: check_number("x", HUGE, low=0, high=1),
        f"x must be in [0, 1], got an integer of {BITS} bits",
    ),
    "check_number-below": (
        lambda: check_number("x", -HUGE, low=0),
        f"x must be non-negative, got a negative integer of {BITS} bits",
    ),
    "check_seed-negative": (
        lambda: check_seed("seed", -HUGE),
        f"seed must be non-negative, got a negative integer of {BITS} bits",
    ),
    "check_seed-key": (
        lambda: check_seed("seed", HUGE, key=True),
        f"seed must be below 2**128, got an integer of {BITS} bits",
    ),
    "noisy_counts-seed": (
        lambda: noisy_counts(Circuit(1, (h(0),)), 5, NoiseConfig(), -HUGE),
        f"seed must be non-negative, got a negative integer of {BITS} bits",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_huge_integer_refusal_names_its_field(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_printable_integers_are_still_given_in_full():
    with pytest.raises(ValueError, match=r"^seed must be below 2\*\*128, got 340282366920938463463374607431768211456$"):
        check_seed("seed", 2**128, key=True)
