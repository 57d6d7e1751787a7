"""Check that `qbandit reproduce` and the demos give the same bytes as at
another revision.

Usage: python tools/reproduce_diff.py BASE_REV

Exports BASE_REV with `git archive` into a temporary directory, runs every
`reproduce` figure and every `demos/*.py` script on that tree and on the
working tree with this interpreter (PYTHONPATH=<tree>/src), and compares
every output file, manifests included, and each demo's standard output
byte for byte.  Prints each path that differs or exists on one side only
(a demo as `demos/<name>.py:stdout`), and exits 1 if there is any, 0
otherwise.  Exits 2, before running anything, on a usage error or a
BASE_REV that names no commit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIGURES = ("training-curves", "qpe-histograms", "scaling")


def export(rev: str, dest: Path) -> None:
    archive = dest.with_suffix(".tar")
    with archive.open("wb") as handle:
        subprocess.run(["git", "archive", rev], cwd=REPO, stdout=handle, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")


def reproduce(tree: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for figure in FIGURES:
        subprocess.run(
            [sys.executable, "-m", "qbandit.cli", "reproduce", "--figure", figure, "--out", str(out)],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )


def demos(tree: Path, cwd: Path) -> dict[str, bytes]:
    """Each demo's standard output, run from ``cwd``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cwd.mkdir()
    return {
        f"demos/{demo.name}:stdout": subprocess.run(
            [sys.executable, str(demo)], cwd=cwd, env=env, check=True, stdout=subprocess.PIPE
        ).stdout
        for demo in sorted((tree / "demos").glob("*.py"))
    }


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    known = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{argv[0]}^{{commit}}"],
        cwd=REPO,
        capture_output=True,
    )
    if known.returncode != 0:
        print(f"unknown revision {argv[0]}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        base_tree = tmp_path / "base"
        export(argv[0], base_tree)
        reproduce(base_tree, tmp_path / "base-out")
        reproduce(REPO, tmp_path / "work-out")
        base = {**files(tmp_path / "base-out"), **demos(base_tree, tmp_path / "base-demos")}
        work = {**files(tmp_path / "work-out"), **demos(REPO, tmp_path / "work-demos")}
    differing = sorted(p for p in base.keys() | work.keys() if base.get(p) != work.get(p))
    for path in differing:
        print(path)
    print(f"{len(differing)} of {len(base.keys() | work.keys())} outputs differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
