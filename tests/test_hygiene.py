"""Source hygiene: every name a module imports is used or re-exported, every
module-level private name is used somewhere in the package and defined in one
module only, every module-level constant is read somewhere in the package, and
every default parameter is set by some call of the package or of its benchmark,
and the package exports exactly its modules' public names."""

import ast
import math
import pathlib
from collections import Counter

import pytest

import ncmart
from ncmart import algebra, fractional, harness, martingale, spectral

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ncmart"
PERFBENCH = ROOT / "perfbench"


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


def _module_definitions(tree):
    """``(name, node)`` for each module-level function, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _private_definitions(tree):
    """``(name, node)`` for each module-level ``_name`` function, class or assignment."""
    return ((name, node) for name, node in _module_definitions(tree)
            if name.startswith("_") and not name.endswith("__"))


def _constant_definitions(tree):
    """``(name, node)`` for each module-level ``UPPER_CASE`` assignment, public or not."""
    return ((name, node) for name, node in _module_definitions(tree)
            if name.isupper() and isinstance(node, (ast.Assign, ast.AnnAssign)))


def _orphaned_names(trees, definitions):
    """The names of ``definitions`` that no module reads outside their own definition."""
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted((module, node.lineno, name) for module, tree in trees.items()
                  for name, node in definitions(tree)
                  if refs[name] - _references(node)[name] <= 0)


def _source_trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_no_orphaned_private_names():
    orphaned = _orphaned_names(_source_trees(), _private_definitions)
    assert not orphaned, "private names used nowhere in src/ncmart: " + ", ".join(
        f"{module}.{name} (line {line})" for module, line, name in orphaned)


def test_guard_flags_an_orphaned_private_name():
    trees = {name: ast.parse(text) for name, text in {
        "a": "_LIMIT = 3\n_unused = 4\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\n"
             "class _Orphan:\n    pass\n\n\ndef _imported():\n    pass\n\n\n"
             "def _by_attribute():\n    pass\n\n\ndef public():\n    return _LIMIT\n",
        "b": "import a\nfrom .a import _imported\n\nx = a._by_attribute\n",
    }.items()}
    assert _orphaned_names(trees, _private_definitions) == [
        ("a", 2, "_unused"), ("a", 5, "_recursive"), ("a", 9, "_Orphan")]


def test_no_orphaned_constants():
    """Every module-level constant is read somewhere in the package; a tuning
    knob left behind by deleted code fails here."""
    orphaned = _orphaned_names(_source_trees(), _constant_definitions)
    assert not orphaned, "constants read nowhere in src/ncmart: " + ", ".join(
        f"{module}.{name} (line {line})" for module, line, name in orphaned)


def test_guard_flags_an_orphaned_constant():
    trees = {name: ast.parse(text) for name, text in {
        "a": "GAP = 1e-10\nDRAWS: int = 16\nUSED = 2\n_HIDDEN = 3\nLIMIT = LIMIT_B = 4\n"
             "__all__ = ['GAP']\nlowercase = 5\n\n\ndef f():\n    return USED + LIMIT\n",
        "b": "from .a import _HIDDEN\n",
    }.items()}
    assert _orphaned_names(trees, _constant_definitions) == [
        ("a", 1, "GAP"), ("a", 2, "DRAWS"), ("a", 5, "LIMIT_B")]


def _duplicated_private_names(trees):
    """``(name, modules)`` of each private module-level name that more than one
    module defines; importing a name does not define it."""
    homes = {}
    for module, tree in trees.items():
        for name, _ in _private_definitions(tree):
            homes.setdefault(name, set()).add(module)
    return sorted((name, sorted(modules)) for name, modules in homes.items() if len(modules) > 1)


def test_no_private_name_defined_twice():
    duplicated = _duplicated_private_names(_source_trees())
    assert not duplicated, "private names with more than one home in src/ncmart: " + ", ".join(
        f"{name} ({', '.join(modules)})" for name, modules in duplicated)


def test_guard_flags_a_private_name_defined_twice():
    trees = {name: ast.parse(text) for name, text in {
        "a": "_LIMIT = 1\n_LIMIT = 2\n\n\ndef _helper():\n    pass\n",
        "b": "from .a import _helper\n\n_own = 3\n",
        "c": "_LIMIT = 4\n\n\nclass _helper:\n    pass\n",
    }.items()}
    assert _duplicated_private_names(trees) == [("_LIMIT", ["a", "c"]), ("_helper", ["a", "c"])]


def _defaulted_parameters(tree):
    """``(function, parameter, index)`` for each parameter with a default on a
    ``def``, nested ones included; ``index`` is the parameter's place among a
    call's positional arguments (``self`` not counted), ``None`` if keyword-only."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                first = len(positional) - len(args.defaults)
                found.extend((child.name, a.arg, i - bound)
                             for i, a in enumerate(positional) if i >= first)
                found.extend((child.name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def _unset_parameters(defining, calling):
    """``(module, function, parameter)`` of each defaulted parameter in the
    ``defining`` trees that no call in the ``calling`` trees passes.

    A call ``f(...)``, ``mod.f(...)`` or ``obj.f(...)`` counts for every
    function named ``f``; a keyword passed to a callee without a name, such as
    ``EXPERIMENTS[name](cfg, threads=threads)``, counts for every function.
    """
    named, unnamed = {}, set()
    for tree in calling:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name is None:
                unnamed |= keywords
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            named.setdefault(name, []).append((math.inf if starred else len(node.args), keywords))
    return sorted((module, fn, param) for module, tree in defining.items()
                  for fn, param, index in _defaulted_parameters(tree)
                  if param not in unnamed and not any(
                      param in keywords or (index is not None and count > index)
                      for count, keywords in named.get(fn, ())))


# Defaulted parameters that no program path sets, and why each stays.
KEPT_PARAMETERS = {
    ("algebra", "custom", "weights"): "the only way to state a non-uniform trace",
    ("martingale", "hardy_mixed_upper", "refine"):
        "goes with the mixed-Hardy search, which a value-moving benchmark change deletes",
}


def test_every_default_parameter_is_set_by_a_program_path():
    """A default that no call in the package or its benchmark overrides is a
    constant; only the parameters of ``KEPT_PARAMETERS`` are exempt."""
    defining = _source_trees()
    calling = list(defining.values()) + [ast.parse(path.read_text(), filename=str(path))
                                         for path in sorted(PERFBENCH.glob("*.py"))]
    unset = _unset_parameters(defining, calling)
    assert unset == sorted(KEPT_PARAMETERS), f"unset: {unset}; exempt: {sorted(KEPT_PARAMETERS)}"


def test_guard_flags_an_unset_parameter():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    return a\n\n\n"
        "class K:\n    def m(self, x, y=0):\n        pass\n\n"
        "    @staticmethod\n    def s(x, y=0):\n        pass\n\n\n"
        "def g(z=0, threads=1):\n    def inner(flag=True):\n        pass\n    inner()\n\n\n"
        "TABLE = {'g': g}\nf(1, 2)\nK().m(1)\nK.s(1, 2)\nTABLE['g'](threads=2)\n")
    assert _unset_parameters({"a": tree}, [tree]) == [
        ("a", "f", "c"), ("a", "f", "d"), ("a", "g", "z"), ("a", "inner", "flag"), ("a", "m", "y")]


# ``numpy.linalg`` names any module may use.  Every decomposition goes through
# ``spectral``, whose gateways turn a solver failure into ``ArithmeticError``.
LINALG_ANYWHERE = {"norm", "LinAlgError"}


def _stray_linalg(trees):
    """``(module, line, name)`` of each ``numpy.linalg`` name outside ``spectral``
    that is not in ``LINALG_ANYWHERE``, read as an attribute or imported."""
    found = []
    for module, tree in trees.items():
        if module == "spectral":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "attr", None) == "linalg":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                names = [alias.name for alias in node.names]
            else:
                continue
            found.extend((module, node.lineno, n) for n in names if n not in LINALG_ANYWHERE)
    return sorted(found)


def test_decompositions_go_through_spectral():
    stray = _stray_linalg(_source_trees())
    assert not stray, "numpy.linalg outside spectral.py: " + ", ".join(
        f"{module}.py:{line} {name}" for module, line, name in stray)


def test_guard_flags_a_decomposition_outside_spectral():
    trees = {name: ast.parse(text) for name, text in {
        "a": "import numpy as np\nfrom numpy.linalg import norm, svd\n\nx = np.linalg.norm(1)\n"
             "y = np.linalg.eigvalsh(2)\ntry:\n    pass\nexcept np.linalg.LinAlgError:\n    pass\n",
        "spectral": "import numpy\n\nz = numpy.linalg.eigh(3)\n",
    }.items()}
    assert _stray_linalg(trees) == [("a", 2, "svd"), ("a", 5, "eigvalsh")]


def test_package_exports_exactly_its_modules_public_names():
    """``ncmart.__all__`` is the union of its modules' ``__all__``, plus ``__version__``."""
    modules = set().union(*(m.__all__ for m in (algebra, spectral, martingale, fractional, harness)))
    assert set(ncmart.__all__) - {"__version__"} == modules
    assert len(ncmart.__all__) == len(set(ncmart.__all__))
