"""Every parameter of the package is read: a setting that no caller can observe is dead code."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "toda_darboux").glob("*.py"))


def allowed(module: str, fn: str, arg: str) -> bool:
    # evolve_toda's C is dead (the flow is shift invariant), but the benchmark passes
    # it by position
    return (module, fn, arg) == ("lattice", "evolve_toda", "C")


def unread_parameters(source: str) -> set:
    """(function, parameter) for each parameter that its function's body never loads."""
    unread = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {node.id for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread |= {(name, arg.arg) for arg in params if arg.arg not in loaded}
    return unread


def test_scan_sees_every_kind_of_parameter():
    # a default is no read, a store is no read, a nested function's load is a read
    source = (
        "def f(a, /, b, *c, d, **e):\n    return g(lambda x, y: y)\n"
        "def h(u, v=u):\n    u = 1\n    def inner():\n        return v\n"
    )
    assert unread_parameters(source) == {
        ("f", "a"), ("f", "b"), ("f", "c"), ("f", "d"), ("f", "e"), ("h", "u"), ("<lambda>", "x"),
    }


@pytest.mark.parametrize("path", MODULES, ids=[m.name for m in MODULES])
def test_every_parameter_is_read(path):
    unread = unread_parameters(path.read_text())
    assert {(fn, arg) for fn, arg in unread if not allowed(path.stem, fn, arg)} == set()
