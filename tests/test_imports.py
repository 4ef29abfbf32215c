"""Source hygiene: every name a closurelab module imports is used there,
every private name a module defines is read somewhere in the package,
every public function or class is read outside its own definition and
every attribute of a public class is read somewhere in the package (or
each says why not), ``__all__`` lists exactly what ``__init__`` imports,
and the README's Python sample runs against the package as it is."""

import ast
import re
from fractions import Fraction
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


# class attributes no code in the package reads, each kept for a stated reason
UNREAD_ATTRIBUTES = {
    "ConeMembership.separator": "the certificate of a non-member, for ROADMAP item 4",
    "Implication.slack": "the certificate's slack on 0.x <= 1, for ROADMAP item 4",
    "ParseError.line": "the line of an input error",
    "ParseError.column": "the column of an input error",
}


def _attributes(cls: ast.ClassDef) -> set[str]:
    """The class's fields and class-level names, its methods and
    properties, and each self.x its __init__ sets; dunders left out."""
    names = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
            if node.name == "__init__":
                names.update(t.attr for t in ast.walk(node)
                             if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                             and isinstance(t.value, ast.Name) and t.value.id == "self")
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def test_every_public_class_attribute_is_read_in_the_package():
    # a field, property or method that no code reads, or that only the
    # tests read, is dead weight on every instance or a view that belongs
    # in tests/oracles.py
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = {f"{node.name}.{name}" for tree in trees for node in tree.body
              if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
              for name in _attributes(node) if name not in read}
    assert sorted(unread) == sorted(UNREAD_ATTRIBUTES)


def test_all_lists_exactly_the_imported_names():
    # a stale entry would otherwise fail only on `from closurelab import *`
    tree = ast.parse(Path(closurelab.__file__).read_text())
    assert sorted(closurelab.__all__) == sorted(_imported(tree))
    assert all(hasattr(closurelab, name) for name in closurelab.__all__)


def test_readme_python_sample_runs():
    # a name deleted from the package cannot stay in the quick start
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    # the values the sample's comments give
    assert namespace["minimal"].points == ((0, 2), (1, 1), (3, 0))
    assert namespace["ca"].stabilized
    res = namespace["res"]
    assert not res.is_fii and res.multipliers == (Fraction(1, 4), Fraction(1, 4), 0)
