"""Checks on the package source itself."""

import ast
from pathlib import Path

import synfocus

PACKAGE = Path(synfocus.__file__).resolve().parent


def _unread_imports(path):
    """Names that the module at ``path`` imports and never reads.  Imports
    from __future__ bind nothing to read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    # __init__.py imports to re-export, so its names are read by its users
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" and (names := _unread_imports(path))}
    assert unread == {}
