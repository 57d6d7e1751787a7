"""tools/reproduce_diff.py refuses a revision that names no commit
before it runs anything, and counts the cells of a differing CSV."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reproduce_diff.py"


def test_unknown_revision_exits_2():
    run = subprocess.run(
        [sys.executable, str(TOOL), "no-such-revision"], capture_output=True, text=True, timeout=30
    )
    assert run.returncode == 2
    assert "unknown revision no-such-revision" in run.stderr
    assert "Traceback" not in run.stderr


def load_tool():
    spec = importlib.util.spec_from_file_location("reproduce_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cell_differences_counts_cells_and_the_largest_gap():
    tool = load_tool()
    base = b"y,v_tilde,count,exact_prob\n0,0.0,3,0.016053500510207964\n1,0.5,17,0.0545\n"
    work = b"y,v_tilde,count,exact_prob\n0,0.0,3,0.01605350051020795\n1,0.5,18,0.0545\n"
    differing, cells, largest = tool.cell_differences(base, work)
    assert (differing, cells) == (2, 12)
    assert largest == 1.0  # the count cell; the exact_prob gap is 1.4e-17
    same = tool.cell_differences(base, base)
    assert same[:2] == (0, 12) and math.isnan(same[2])
    differing, _, largest = tool.cell_differences(base, work.replace(b"18", b"17"))
    assert differing == 1 and largest == abs(0.016053500510207964 - 0.01605350051020795)


def test_cell_differences_of_text_cells_and_of_other_shapes():
    tool = load_tool()
    differing, cells, largest = tool.cell_differences(b"a,b\nx,1\n", b"a,c\nx,1\n")
    assert (differing, cells) == (1, 4) and math.isnan(largest)  # no differing pair reads as numbers
    assert tool.cell_differences(b"a,b\n1,2\n", b"a,b\n1,2\n3,4\n") is None
    assert tool.cell_differences(b"a,b\n1,2\n", b"a,b\n1,2,3\n") is None
