"""Every module-level import under ``src/tsqsort/`` is used.

A name bound by a module-level ``import`` or ``from ... import`` must be
read somewhere in its module, or be listed in its ``__all__``.  The
package's ``__init__.py``, whose imports are re-exports, and
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsqsort"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from .core import Sorter as S, sort\n"
              "__all__ = ['sort']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == [(2, "sys"), (3, "S")]
