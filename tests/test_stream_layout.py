"""Every module reads its random words through ``statevector._PHILOX``,
and compares them with integer limits from one place: only
``statevector`` names ``np.random`` in code, and the 53-bit scale of a
word's uniform, 2**53 or 2**-53, appears in code only inside
``statevector._limit``, the package's one decode."""

import ast
from pathlib import Path

import pytest

import qbandit

MODULES = sorted(Path(qbandit.__file__).parent.glob("*.py"))


def names_numpy_random(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                return True
        if isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names)
            ):
                return True
    return False


# (module, top-level name) of every 2**53 or 2**-53 allowed in code.
# ``MAX_APPORTION_SHOTS`` is a bound on shot counts, where a float
# product stops being exact, not a decode of a word.
SCALE_ALLOWED = {("statevector.py", "_limit"), ("backends.py", "MAX_APPORTION_SHOTS")}


def is_scale(node: ast.AST) -> bool:
    """``node`` is 2**53, 2.0**53, 2**-53 or 2.0**-53."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    base, power = node.left, node.right
    if isinstance(power, ast.UnaryOp) and isinstance(power.op, ast.USub):
        power = power.operand
    constant = lambda n, values: isinstance(n, ast.Constant) and type(n.value) in (int, float) and n.value in values
    return constant(base, (2,)) and constant(power, (53,))


def scale_scopes(tree: ast.Module) -> list[str]:
    """The top-level function, class or assigned name around each
    53-bit scale in code, or ``<module>``; a docstring is a string, so
    it never holds one."""
    found = []
    for stmt in tree.body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        names = [stmt.name] if hasattr(stmt, "name") else [t.id for t in targets if isinstance(t, ast.Name)]
        found += [names[0] if len(names) == 1 else "<module>" for node in ast.walk(stmt) if is_scale(node)]
    return found


def test_the_package_has_its_modules():
    assert {"statevector.py", "noise.py", "training.py", "baseline.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_statevector_reads_numpy_random(path):
    tree = ast.parse(path.read_text(), str(path))
    assert names_numpy_random(tree) == (path.name == "statevector.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_limit_holds_the_53_bit_scale(path):
    scopes = scale_scopes(ast.parse(path.read_text(), str(path)))
    assert {(path.name, scope) for scope in scopes} <= SCALE_ALLOWED
    if path.name == "statevector.py":
        assert "_limit" in scopes


def test_the_guards_see_what_they_look_for():
    assert names_numpy_random(ast.parse("import numpy as np\nnp.random.Philox(1)"))
    assert names_numpy_random(ast.parse("from numpy.random import Philox"))
    assert names_numpy_random(ast.parse("from numpy import random"))
    assert not names_numpy_random(ast.parse('"""np.random.Philox"""'))
    code = "def f(e):\n    return e * 2.0**53\nclass C:\n    x = u * 2**-53\ny = 2**53\nz: int = 2.0**-53\nt = 2**54, 3**53"
    assert scale_scopes(ast.parse(code)) == ["f", "C", "y", "z"]
    assert scale_scopes(ast.parse('"""2**53, 2.0**-53"""\nx = (1 << 53) * 2**-52')) == []
