"""Checks on the source of ``ddmtest`` itself, read with ``ast``: no module
imports a name it never uses, no private module-level name is left that
no module of the package refers to, no function or lambda takes a
parameter that its body never reads, every name the benchmark's tracer
wraps is there to be wrapped, and every name the package exports is used
by another of its modules or named in README, the acceptance tests or the
tracer. README's library example runs and gives the values it states."""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import ddmtest

PACKAGE = Path(ddmtest.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACING = ROOT / "perfbench" / "tracing.py"


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


def referenced(tree: ast.Module) -> set[str]:
    """Every name a module reads or imports from another module."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def referenced_anywhere() -> set[str]:
    """Every name any module of the package reads or imports."""
    return set().union(*map(referenced, TREES.values()))


def unread_parameters(tree: ast.Module) -> list[str]:
    """``name:line: parameter`` for each parameter of a function or lambda
    that its body never reads. Dunder methods are left out: their protocol
    fixes their parameters."""
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            name, body = "<lambda>", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            name, body = node.name, node.body
        else:
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}:{node.lineno}: {p}" for p in params
                   if p not in read]
    return unread


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


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_parameter_is_read(module):
    assert unread_parameters(TREES[module]) == []


def traced_targets() -> list[tuple[str, str]]:
    """(owner, attribute) of each ``wrap`` and ``wrap_iterator`` call in
    the benchmark's tracer, the owner as written: ``pipeline`` or
    ``trees.LinearizedTree``."""
    targets = []
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("wrap", "wrap_iterator")):
            owner, attr = node.args[:2]
            targets.append((ast.unparse(owner), attr.value))
    return targets


def test_every_traced_name_exists():
    """A name the tracer wraps that is gone is skipped without a word, and
    its metrics read 0; a class's method must be its own, not inherited."""
    targets = traced_targets()
    assert ("pipeline", "analyze_collection") in targets
    missing = []
    for owner, attr in targets:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"ddmtest.{module}")
        for name in path:
            obj = getattr(obj, name)
        if attr not in vars(obj):
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_no_traced_function_is_imported_by_name():
    """``from .pipeline import run_tests`` would bind the function before
    the tracer patches its module, and so bypass the patch."""
    wrapped = {target for target in traced_targets() if "." not in target[0]}
    bound = []
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                bound += [f"{module}: {source}.{a.name}" for a in node.names
                          if (source, a.name) in wrapped]
    assert bound == []


def test_every_export_is_used():
    """A name in ``__all__`` that no other module of the package reads, and
    that README, the acceptance tests and the tracer never name, is
    surface that nothing needs."""
    used = set().union(*(referenced(tree) for module, tree in TREES.items()
                         if module != "__init__.py"))
    for path in (README, ACCEPTANCE, TRACING):
        used.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(set(ddmtest.__all__) - used) == []


def test_readme_library_example_runs():
    """The first Python block under README's "Library" heading runs, and
    its bare expressions give the values its comments state."""
    text = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = ast.parse(text.split("```python\n", 1)[1].split("```", 1)[0])
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["dist"].counts == {4: 12, 6: 12}
    shown = [eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                  scope)
             for stmt in code.body if isinstance(stmt, ast.Expr)]
    assert shown == [5, Fraction(5, 16)]
    report = scope["report"]
    assert len(report.results) == 8 and not report.is_empty
