"""Outcomes stay integers between modules, and only ``statevector``'s
outcome mapping knows the bitstring format: in the package's code a
parse ``int(..., 2)``, a binary render (a ``format`` spec or f-string
spec ending in ``b``, ``str.format``'s ``{:b}``, ``bin``) and a bitstring
literal used as a key (``x["1"]``, ``x.get("1")``, ``"1" in x``) appear
only inside ``statevector.OutcomeMap``."""

import ast
import re
from pathlib import Path

import pytest

import qbandit

MODULES = sorted(Path(qbandit.__file__).parent.glob("*.py"))

ALLOWED = {("statevector.py", "OutcomeMap")}


def is_bits(node: ast.AST) -> bool:
    """``node`` is a string literal made of 0s and 1s only."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value != "" and not node.value.strip("01")


def ends_in_b(spec: ast.AST | None) -> bool:
    """``spec``, a format spec as a literal or an f-string, ends in ``b``."""
    if isinstance(spec, ast.JoinedStr) and spec.values:
        spec = spec.values[-1]
    return isinstance(spec, ast.Constant) and isinstance(spec.value, str) and spec.value.endswith("b")


def bitstring_kind(node: ast.AST) -> str | None:
    """"parse", "render" or "key" if ``node`` handles a bitstring so."""
    if isinstance(node, ast.Call):
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "int":
            base = args[1] if len(args) > 1 else next((k.value for k in node.keywords if k.arg == "base"), None)
            if isinstance(base, ast.Constant) and base.value == 2:
                return "parse"
        if isinstance(func, ast.Name) and func.id == "bin":
            return "render"
        if isinstance(func, ast.Name) and func.id == "format" and len(args) > 1 and ends_in_b(args[1]):
            return "render"
        if isinstance(func, ast.Attribute):
            text = func.value
            if func.attr == "format" and isinstance(text, ast.Constant) and isinstance(text.value, str):
                if re.search(r"\{[^{}]*:[^{}]*b\}", text.value):
                    return "render"
            if args and is_bits(args[0]):
                return "key"
    if isinstance(node, ast.FormattedValue) and ends_in_b(node.format_spec):
        return "render"
    if isinstance(node, ast.Subscript) and is_bits(node.slice):
        return "key"
    if isinstance(node, ast.Compare) and is_bits(node.left):
        if any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
            return "key"
    return None


def bitstring_scopes(tree: ast.Module) -> list[tuple[str, str]]:
    """(top-level function, class or assigned name, or ``<module>``;
    kind) of each bitstring parse, render or key in code.  A docstring is
    one string, so it never holds one."""
    found = []
    for stmt in tree.body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        names = [stmt.name] if hasattr(stmt, "name") else [t.id for t in targets if isinstance(t, ast.Name)]
        scope = names[0] if len(names) == 1 else "<module>"
        found += [(scope, kind) for node in ast.walk(stmt) if (kind := bitstring_kind(node))]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_outcome_mapping_handles_bitstrings(path):
    found = bitstring_scopes(ast.parse(path.read_text(), str(path)))
    assert {(path.name, scope) for scope, _ in found} <= ALLOWED, found
    if path.name == "statevector.py":
        assert {kind for _, kind in found} == {"parse", "render", "key"}


def test_the_guard_sees_what_it_looks_for():
    code = "\n".join(
        [
            "def parse(bits):\n    return int(bits, 2)",
            "def parse_kw(bits):\n    return int(bits, base=2)",
            "def render(m, w):\n    return format(m, f'0{w}b')",
            "def render_fixed(m):\n    return format(m, '08b')",
            "def render_f(m, w):\n    return f'{m:0{w}b}'",
            "def render_method(m):\n    return '{:04b}'.format(m)",
            "def render_bin(m):\n    return bin(m)[2:]",
            "def lookup(d):\n    return d['1']",
            "def lookup_get(d):\n    return d.get('1', 0.0)",
            "def lookup_frequency(c):\n    return c.frequency('10')",
            "def member(d):\n    return '1' not in d",
        ]
    )
    kinds = ["parse"] * 2 + ["render"] * 5 + ["key"] * 4
    names = [line.split("(")[0][4:] for line in code.splitlines() if line.startswith("def ")]
    assert bitstring_scopes(ast.parse(code)) == list(zip(names, kinds))
    quiet = "\n".join(
        [
            '"""int(bits, 2), format(m, "b"), d["1"]"""',
            "x = int(s, 10) + int(s)",
            "y = f'{v:.3f}' + format(v, '.2e') + '{:d}'.format(3)",
            "z = d['2'] or d.get('a') or '' in d or d[1]",
            "class C:\n    t = '1' == s",
        ]
    )
    assert bitstring_scopes(ast.parse(quiet)) == []
    allowed = "class OutcomeMap:\n    def _index(self, k):\n        return int(k, 2)\nw = bin(3)"
    assert bitstring_scopes(ast.parse(allowed)) == [("OutcomeMap", "parse"), ("w", "render")]
