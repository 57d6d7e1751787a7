"""Plot bytes: each chart kind, rendered from fixed inputs, has the
SHA-256 digest it had before the plotting module was reduced to one
fixed panel size.  A change to any coordinate, tick, label or layout
rule changes a digest."""

import hashlib

import pytest

from qbandit.svg import bar_chart, line_chart, panel_grid

COUNTS = [
    ("p_left=0.5", [(0.0, 12), (0.1464, 40), (0.5, 150), (0.8536, 70), (1.0, 28)]),
    ("p_left=0", [(0.0, 3), (0.1464, 9), (0.5, 22), (0.8536, 201), (1.0, 65)]),
]
EXACT = [(0.0, 10.5), (0.1464, 42.25), (0.5, 148.0), (0.8536, 201.5), (1.0, 30.1)]
LOSSES = [(k, 0.25 / (1 + k) ** 1.5 + 1e-4) for k in range(40)]
ANGLES = [
    ("theta_left", [(k, 1.5708 - 0.02 * k) for k in range(30)]),
    ("theta_right", [(k, 1.5708 + 0.015 * k - 0.3 * (k > 12)) for k in range(30)]),
]
DECAY = [
    ("mc rmse", [(100, 0.051), (1000, 0.0162), (10000, 0.0049)]),
    ("1/sqrt(N)", [(100, 0.1), (1000, 0.0316), (10000, 0.01)]),
]


def bars():
    return bar_chart(
        COUNTS,
        title="ideal, n=3",
        xlabel="estimated value",
        ylabel="counts (300 shots)",
        x_range=(0.0, 1.0),
        overlay=EXACT,
        overlay_label="exact",
    )


def linear():
    return line_chart(ANGLES, title="Parameter evolution", xlabel="evaluation", ylabel="angle (rad)")


def log_y():
    return line_chart(
        [("loss", LOSSES)], title="Training loss", xlabel="evaluation", ylabel="MSE loss", log_y=True
    )


def log_xy():
    return line_chart(
        DECAY, title="Monte Carlo error decay", xlabel="samples N", ylabel="RMSE", log_x=True, log_y=True
    )


def grid():
    return panel_grid([[bars(), log_y()], [linear()]])


DIGESTS = {
    bars: "438e9367f21131df427d77b9ec3bd9fac258311ee28f86fc9645220d6d556c4a",
    linear: "b95005fd8bcbfea75a5b5566980e9179470eb4cfc2a1b6a3ebc6786caca7f6d1",
    log_y: "be74c173a05f45449a25f1ceb95839540b2e5e8497833a7f01b90129f2258513",
    log_xy: "4c032bce27d562f338de6d7890dc7b72b736b8ea65a4fc7fd1c7b1efd4e4e497",
    grid: "721729b263314bbf9c6702440f44f215948b753dee86718eb31539b2d08f0bda",
}


@pytest.mark.parametrize("chart", list(DIGESTS), ids=lambda f: f.__name__)
def test_chart_bytes_unchanged(chart):
    assert hashlib.sha256(chart().encode()).hexdigest() == DIGESTS[chart]
