"""Checks on the source of ``ddmtest`` itself, read with ``ast``: no module
imports a name it never uses, and no private module-level name is left
that no module of the package refers to."""

import ast
from pathlib import Path

import pytest

import ddmtest

PACKAGE = Path(ddmtest.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def loaded_names(tree: ast.Module) -> set[str]:
    """The names a module reads, attributes included, and the names its
    ``__all__`` lists."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


def imported_names(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """The ``_private`` functions, classes and constants a module defines at
    its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def referenced_anywhere() -> set[str]:
    """Every name any module of the package reads or imports."""
    names = set()
    for tree in TREES.values():
        names |= loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = loaded_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    referenced = referenced_anywhere()
    assert [n for n in private_definitions(TREES[module])
            if n not in referenced] == []
