"""What the benchmark under ``perfbench/`` needs of ncmart: the names its span
tracer patches, the result type of its optimizer probe, and the constants its
optimizer workload checks.  The benchmark is not run here; its files are only
read, and ``workloads.py`` (which imports only ``random``) is loaded."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

from ncmart import FiltrationSpec, build_tower, zeta_optimize, zeta_sequence

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _known_zeta():
    """``KNOWN_ZETA`` of ``perfbench/workloads.py``; its values are expressions
    such as ``1 / 3``, so the module is loaded, not read as literals."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.KNOWN_ZETA


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


@pytest.mark.parametrize("name", ["tensor:3,4", "tensor:2,3,3", "custom4"])
def test_optimized_zeta_matches_the_workload_constants(name, custom4):
    """The optimizer workload's check: every level within 1e-4 of its known constant."""
    tower = custom4 if name == "custom4" else build_tower(FiltrationSpec.parse(name))
    got = zeta_sequence(tower, "optimize").values
    known = _known_zeta()[name]
    assert len(got) == len(known)
    assert all(abs(g - k) <= 1e-4 for g, k in zip(got, known))


def test_probe_returns_its_known_constant():
    """The optimizer workload's probe, which counts in its ``ok_share``."""
    zeta = zeta_optimize(build_tower(FiltrationSpec.parse("tensor:4,4,4")), 2, seed=0)
    assert abs(zeta - _known_zeta()["tensor:4,4,4"][1]) <= 1e-4
