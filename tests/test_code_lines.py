"""tools/code_lines.py counts code lines, leaving out blank lines, comments
and docstrings, and prints the net change against a git revision."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its code line

# a comment line


def area(r):
    """One-line docstring."""
    text = """a string that is not a docstring,
    on two lines"""
    return math.pi * r**2, text


class Shape:
    """Class docstring."""

    sides = (
        # a comment inside brackets
        3,
    )
'''
# import, def, text (2 lines), return, class, sides, 3, closing bracket
FIXTURE_LINES = 9


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=60, cwd=cwd
    )


def rows(stdout: str) -> dict[str, list[str]]:
    return {line.split()[0]: line.split()[1:] for line in stdout.splitlines()[1:]}


def test_counts_a_fixture_file(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    done = run(path)
    assert done.returncode == 0, done.stderr
    assert rows(done.stdout) == {"fixture.py": [str(FIXTURE_LINES)], "total": [str(FIXTURE_LINES)]}


def test_net_change_against_a_revision(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    subprocess.run([*git, "add", "fixture.py"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "fixture"], check=True)
    path.write_text(FIXTURE + "\n\ndef more():\n    # comment\n    return 1\n")
    done = run("--against", "HEAD", path)
    assert done.returncode == 0, done.stderr
    old, new = FIXTURE_LINES, FIXTURE_LINES + 2
    assert rows(done.stdout)["fixture.py"] == [str(new), str(old), "+2"]
    assert rows(done.stdout)["total"] == [str(new), str(old), "+2"]


def test_unknown_revision_exits_2():
    done = run("--against", "no-such-revision")
    assert done.returncode == 2
    assert "'no-such-revision' names no commit" in done.stderr
    assert "Traceback" not in done.stderr
