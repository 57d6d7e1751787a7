"""Count the code lines of qbandit's modules: the lines that hold code, not
blank lines, comments or docstrings.

Usage: python tools/code_lines.py [--against REV] [PATH ...]

Prints the code lines of each module (by default every
`src/qbandit/*.py`) and their total.  Comments and blank lines are found
with `tokenize`; a docstring is the string constant that opens a module,
class or function body, found with `ast`.  With `--against REV` it also
prints each module's count at git revision REV, read with `git show`, and
the net change; a module missing on one side counts 0 there.  Exits 2 on
a usage error or a REV that names no commit.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbandit"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, less
    the lines of its docstrings."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def _git(path: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)


def old_count(rev: str, path: Path) -> int:
    """``path``'s code lines at ``rev``; 0 if it did not exist there."""
    shown = _git(path.parent, "show", f"{rev}:./{path.name}")
    return code_lines(shown.stdout) if shown.returncode == 0 else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, help="modules to count (default: src/qbandit/*.py)")
    parser.add_argument("--against", metavar="REV", help="also count each module at this git revision")
    args = parser.parse_args(argv)
    paths = [path.resolve() for path in args.paths] or sorted(PACKAGE.glob("*.py"))
    rev = args.against
    if rev is not None:
        if _git(paths[0].parent, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").returncode:
            print(f"code_lines: {rev!r} names no commit", file=sys.stderr)
            return 2
        if not args.paths:  # modules deleted since REV count on its side
            listed = _git(PACKAGE, "ls-tree", "--name-only", rev, "./").stdout.split()
            paths = sorted({*paths, *(PACKAGE / name for name in listed if name.endswith(".py"))})
    rows = []
    for path in paths:
        new = code_lines(path.read_text()) if path.exists() else 0
        rows.append((path.name, new, old_count(rev, path) if rev else None))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows) if rev else None))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}" + (f"  {rev[:12]:>12}  {'net':>6}" if rev else ""))
    for name, new, old in rows:
        line = f"{name:<{width}}  {new:>6}"
        if rev:
            line += f"  {old:>12}  {new - old:>+6}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
