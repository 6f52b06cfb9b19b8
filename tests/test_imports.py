"""No module of the package imports inside a function.

A function-level import is how a module reaches into one that imports it;
keeping every import at module level keeps the package's imports acyclic
and visible at the top of each file.
"""

import ast
import os

import pytest

import sentigraph

PACKAGE = os.path.dirname(sentigraph.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    nested = [
        f"{module}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []
