"""Every file the package opens is read or written as UTF-8, whatever the locale."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/servoneuro/*.py"))
CALLS = {"open", "read_text", "write_text"}


def calls_without_encoding(source):
    """(line, name) for each call of open, .read_text or .write_text in
    `source` that passes no `encoding` keyword."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in CALLS and not any(kw.arg == "encoding" for kw in node.keywords):
            missing.append((node.lineno, name))
    return sorted(missing)


def test_finds_a_call_without_encoding():
    source = (
        "open(p)\n"
        "open(p, 'w', encoding='utf-8')\n"
        "Path(p).read_text()\n"
        "p.write_text(s, encoding='utf-8')\n"
        "fh.write(s)\n"
        "q.write_text(s)\n"
    )
    assert calls_without_encoding(source) == [(1, "open"), (3, "read_text"), (6, "write_text")]


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_every_file_access_names_its_encoding(path):
    assert calls_without_encoding(path.read_text(encoding="utf-8")) == []
