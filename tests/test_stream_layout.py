"""Every module reads its random words through ``statevector._PHILOX``:
only ``statevector`` names ``np.random`` in code, and no other module
calls ``_PHILOX.uniforms``, whose whole-prefix reads go through
``_PHILOX.blocks`` (``noise`` reads ``raw`` words in blocks of whole
shots)."""

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


def calls_philox_uniforms(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "uniforms"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "_PHILOX"
        for node in ast.walk(tree)
    )


def test_the_package_has_its_modules():
    assert {"statevector.py", "noise.py", "training.py", "baseline.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_statevector_reads_numpy_random(path):
    tree = ast.parse(path.read_text(), str(path))
    assert names_numpy_random(tree) == (path.name == "statevector.py")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "statevector.py"], ids=lambda p: p.name)
def test_no_other_module_reads_a_whole_prefix_at_once(path):
    assert not calls_philox_uniforms(ast.parse(path.read_text(), str(path)))


def test_the_guards_see_what_they_look_for():
    assert names_numpy_random(ast.parse("import numpy as np\nnp.random.Philox(1)"))
    assert names_numpy_random(ast.parse("from numpy.random import Philox"))
    assert names_numpy_random(ast.parse("from numpy import random"))
    assert not names_numpy_random(ast.parse('"""np.random.Philox"""'))
    assert calls_philox_uniforms(ast.parse("_PHILOX.uniforms(1, 2)"))
    assert not calls_philox_uniforms(ast.parse("_PHILOX.blocks(1, 2)"))
