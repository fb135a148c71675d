"""Every name that a ``src/pseudosim`` module imports is read in it, or exported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pseudosim"


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, in line order.
    A name listed in ``__all__`` counts as read; ``from __future__`` binds none."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((name for name in imported if name not in read), key=imported.get)


def test_the_finder_names_what_is_not_read():
    source = ("from __future__ import annotations\nimport os.path\nimport json as js\n"
              "from typing import Optional, Sequence\n__all__ = ['Sequence']\n"
              "def f(x: Optional[int]) -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["js"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_does_not_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
