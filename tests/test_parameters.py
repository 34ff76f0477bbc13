"""Every parameter of a function or lambda in the package is read in its body."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/servoneuro/*.py"))
EXEMPT = {"self", "cls"}


def unread_parameters(source):
    """(line, function, parameter) for each parameter of a function or lambda
    in `source` that no expression in its body reads; `self`, `cls` and names
    starting with `_` are exempt.  A read in a nested function counts."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread.extend((node.lineno, name, p.arg) for p in params
                      if p.arg not in read and p.arg not in EXEMPT and not p.arg.startswith("_"))
    return sorted(unread)


def test_finds_an_unread_parameter():
    source = (
        "def f(self, a, b, *args, c, _d, **kw):\n"
        "    def g(x):\n"
        "        return a\n"
        "    b = 1\n"
        "    return g, kw\n"
        "h = lambda cls, y, z: z\n"
    )
    assert unread_parameters(source) == [
        (1, "f", "args"), (1, "f", "b"), (1, "f", "c"), (2, "g", "x"), (6, "lambda", "y")]


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []
