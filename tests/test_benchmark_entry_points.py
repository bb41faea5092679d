"""What the benchmark under ``perfbench/`` needs of ncmart: the names its span
tracer patches and the result type of its optimizer probe.  The benchmark is
not run here; its files are only read."""

import ast
import importlib
import pathlib

from ncmart import FiltrationSpec, build_tower, zeta_optimize

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_layers():
    """``LAYERS`` of the tracer, read from its source without running it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_tracer_layers_resolve():
    """Each traced name exists; a method is looked up in its class's own ``__dict__``."""
    missing = []
    for modname, names in _tracer_layers().values():
        module = importlib.import_module(modname)
        for name in names:
            cls_name, _, method = name.rpartition(".")
            owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
            if not callable(owner.get(method)):
                missing.append(f"{modname}.{name}")
    assert not missing, "names the tracer cannot patch: " + ", ".join(missing)


def test_probe_zeta_is_a_float():
    """The probe hands ``zeta_optimize``'s result to ``checks.zeta_matches`` as a number."""
    zeta = zeta_optimize(build_tower(FiltrationSpec.parse("tensor:2,2")), 2, seed=0)
    assert isinstance(zeta, float)
    assert abs(zeta - 0.25) <= 1e-4  # the closed form 1 / (2 * 2)
