"""Source hygiene: every name a closurelab module imports is used there,
every private name a module defines is read somewhere in the package,
every public function or class is read outside its own definition (or
says why not), and ``__all__`` lists exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import pytest

import closurelab

SOURCES = sorted(Path(closurelab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _used(tree: ast.AST) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations.extend(a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [ast.parse(a.value, mode="eval") for a in annotations
                      if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Single-underscore names the module binds at top level, with their lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in out.items()
            if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}


def test_every_private_name_is_read_in_the_package():
    # a helper nothing in src reads is dead code, or code only the tests
    # call, which belongs in tests/oracles.py
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    read = set()
    for tree in trees.values():
        read |= _used(tree)
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    unread = {f"{name}:{line}": defined for name, tree in trees.items()
              for defined, line in _private_definitions(tree).items() if defined not in read}
    assert unread == {}


# public names no other code reads, each kept for a stated reason
UNREAD_PUBLIC = {
    "down_set_contains": "the subject of acceptance criterion 11",
}


def test_every_public_name_has_a_reader_in_the_package():
    # a public function or class that only the tests call belongs in
    # tests/oracles.py; __init__.py re-exports and reads nothing
    statements = [node for path in MODULES for node in ast.parse(path.read_text()).body]
    reads = [_used(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
             for node in statements]
    unread = {node.name for i, node in enumerate(statements)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and not any(node.name in r for j, r in enumerate(reads) if j != i)}
    assert sorted(unread) == sorted(UNREAD_PUBLIC)


def test_all_lists_exactly_the_imported_names():
    # a stale entry would otherwise fail only on `from closurelab import *`
    tree = ast.parse(Path(closurelab.__file__).read_text())
    assert sorted(closurelab.__all__) == sorted(_imported(tree))
    assert all(hasattr(closurelab, name) for name in closurelab.__all__)
