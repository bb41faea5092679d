"""Source hygiene: every name a module imports is used or re-exported, and
every module-level private name is used somewhere in the package."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ncmart"


def _unused_imports(tree):
    """Names bound by imports that the module neither reads nor lists in ``__all__``."""
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_guard_flags_an_unused_import():
    tree = ast.parse("from functools import lru_cache, reduce\n"
                     "import numpy as np\n__all__ = ['reduce']\nx = np.pi\n")
    assert _unused_imports(tree) == [(1, "lru_cache")]


def _references(tree):
    """Reads of each name: ``Name`` loads, ``Attribute`` names and ``ImportFrom`` aliases."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _private_definitions(tree):
    """``(name, node)`` for each module-level ``_name`` function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _orphaned_private_names(trees):
    """Private module-level names that no module reads outside their own definition."""
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted((module, node.lineno, name) for module, tree in trees.items()
                  for name, node in _private_definitions(tree)
                  if refs[name] - _references(node)[name] <= 0)


def test_no_orphaned_private_names():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    orphaned = _orphaned_private_names(trees)
    assert not orphaned, "private names used nowhere in src/ncmart: " + ", ".join(
        f"{module}.{name} (line {line})" for module, line, name in orphaned)


def test_guard_flags_an_orphaned_private_name():
    trees = {name: ast.parse(text) for name, text in {
        "a": "_LIMIT = 3\n_unused = 4\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\n"
             "class _Orphan:\n    pass\n\n\ndef _imported():\n    pass\n\n\n"
             "def _by_attribute():\n    pass\n\n\ndef public():\n    return _LIMIT\n",
        "b": "import a\nfrom .a import _imported\n\nx = a._by_attribute\n",
    }.items()}
    assert _orphaned_private_names(trees) == [
        ("a", 2, "_unused"), ("a", 5, "_recursive"), ("a", 9, "_Orphan")]
