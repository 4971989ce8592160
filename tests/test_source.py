"""Checks on the library source itself."""

import ast
import os

import pytest

PACKAGE = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src", "phessian")
)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def test_package_modules_found():
    assert "solver.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    # python -O strips assert, so library checks must raise explicitly
    path = os.path.join(PACKAGE, module)
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}: assert at lines {lines}"
