"""No float enters the package: no module has a float constant, a use of
the name ``float`` or a true division ``/``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "coarsek"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _float_sites(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float constant {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division /"


def test_the_scan_sees_each_kind():
    tree = ast.parse("x = 0.5\ny = float(1)\nz = 3 / 2\nz /= 2\nw = 3 // 2\n")
    assert sorted(line for line, _ in _float_sites(tree)) == [1, 2, 3, 4]


# the name dates from when simplex.py was exempt; it is kept so that the
# test ids of the other modules stay stable
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_outside_simplex(path):
    sites = [f"{path.name}:{line}: {what}" for line, what in _float_sites(ast.parse(path.read_text()))]
    assert not sites, sites
