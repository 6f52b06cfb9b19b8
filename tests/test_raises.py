"""Every error the package raises is a ``ParseError`` or a ``ValidationError``.

The README promises that every error the package raises is an
``InputError``, which the CLI reports with exit code 2. This walks every
``raise`` in the package and lists those that name another type; only two
are expected: the bare re-raises in ``corpus.replacing`` (an ``OSError`` or
an error from inside the block) and ``SystemExit`` in the ``__main__``
blocks.
"""

import ast
import os

import sentigraph

PACKAGE = os.path.dirname(sentigraph.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
ALLOWED = ("ParseError", "ValidationError")


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _raises(node, scope: str):
    """(scope, raised name) for each ``raise`` under ``node``; the scope is
    the innermost enclosing function, or ``__main__`` in a main guard."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield scope, "re-raise" if exc is None else ast.unparse(exc)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
        elif _is_main_guard(child):
            yield from _raises(child, "__main__")
        else:
            yield from _raises(child, scope)


def test_every_raise_names_an_input_error():
    others = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=module)
        others += [(module, scope, name) for scope, name in _raises(tree, "<module>")
                   if name not in ALLOWED]
    assert sorted(others) == [
        ("cli.py", "__main__", "SystemExit"),
        ("corpus.py", "replacing", "re-raise"),
        ("corpus.py", "replacing", "re-raise"),
        ("synth.py", "__main__", "SystemExit"),
    ]
