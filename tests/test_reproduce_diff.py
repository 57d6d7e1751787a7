"""tools/reproduce_diff.py refuses a revision that names no commit
before it runs anything."""

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
