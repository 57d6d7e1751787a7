"""Check that `qbandit reproduce` and the demos give the same bytes as at
another revision.

Usage: python tools/reproduce_diff.py BASE_REV

Exports BASE_REV with `git archive` into a temporary directory, runs every
`reproduce` figure and every `demos/*.py` script on that tree and on the
working tree with this interpreter (PYTHONPATH=<tree>/src), and compares
every output file, manifests included, and each demo's standard output
byte for byte.  Prints each path that differs or exists on one side only
(a demo as `demos/<name>.py:stdout`), and exits 1 if there is any, 0
otherwise.  Under a differing CSV of the same shape on both sides, it
prints how many cells differ and the largest absolute difference between
two cells that read as numbers.  Exits 2, before running anything, on a
usage error or a BASE_REV that names no commit.
"""

from __future__ import annotations

import csv
import io
import math
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


def cell_differences(base: bytes, work: bytes) -> tuple[int, int, float] | None:
    """``(differing, cells, largest)`` for two CSVs of the same shape: how
    many cells differ, of how many, and the largest absolute difference
    between two differing cells that both read as floats (NaN if none
    do).  None when the shapes differ."""
    tables = [list(csv.reader(io.StringIO(data.decode()))) for data in (base, work)]
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return None
    pairs = [cell for rows in zip(*tables) for cell in zip(*rows)]
    differing = [(a, b) for a, b in pairs if a != b]
    gaps = []
    for a, b in differing:
        try:
            gaps.append(abs(float(a) - float(b)))
        except ValueError:
            pass
    return len(differing), len(pairs), max(gaps, default=math.nan)


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
        if path.endswith(".csv") and path in base and path in work:
            cells = cell_differences(base[path], work[path])
            if cells is not None:
                print(f"  {cells[0]} of {cells[1]} cells differ, largest absolute difference {cells[2]:.2g}")
    print(f"{len(differing)} of {len(base.keys() | work.keys())} outputs differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
