"""What the benchmark under ``perfbench/`` needs of ncmart: the names its span
tracer patches, the result type of its optimizer probe, the constants its
optimizer workload checks, and the checks that only its runner makes.

For each workload, one traced pass (``child.run_pass`` in ``trace`` mode, in a
fresh interpreter, as ``run.py --trace 1`` runs it) must record no violation,
and every layer of ``MUST_WORK`` must read nonzero; one ``reference`` pass
must match ``reference.json``.  A change to the benchmark updates these tests
together with ``MUST_WORK``.  The files under ``perfbench/`` are only read:
``workloads.py`` and ``checks.py`` (standard library only) are loaded here,
and the passes run in child interpreters."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from ncmart import FiltrationSpec, build_tower, zeta_optimize, zeta_sequence

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
# Any seed serves; each workload's op seeds derive from it.
TRACE_SEED = 1
# ``run.py`` computes this layer across passes, not within the traced one.
ACROSS_PASSES = {"harness.speedup_2w"}
# One pass of a workload in the interpreter that runs this: argv is the
# perfbench directory, the workload, the mode, the seed and a work directory.
PASS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import child, workloads
plan = dict(workloads.make_plan(sys.argv[2], int(sys.argv[4])), probe=None)
print(json.dumps(child.run_pass(plan, sys.argv[3], sys.argv[5])))
"""


def _perfbench_module(name):
    """A module of ``perfbench/`` that imports only the standard library."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _known_zeta():
    """``KNOWN_ZETA`` of ``perfbench/workloads.py``; its values are expressions
    such as ``1 / 3``, so the module is loaded, not read as literals."""
    return _perfbench_module("workloads").KNOWN_ZETA


def _literal(path, name):
    """The literal that ``path`` assigns to ``name``, read without running it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def _tracer_layers():
    return _literal(TRACER, "LAYERS")


def _run_pass(workload, mode, seed, workdir):
    """The result of one pass in a fresh interpreter, with BLAS on one thread
    and ncmart from this checkout, as ``run.py`` starts its children."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    env.pop("NCMART_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", PASS, str(PERFBENCH), workload, mode, str(seed), str(workdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


WORKLOAD_NAMES = sorted(_perfbench_module("workloads").WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_pass_does_the_work(workload, tmp_path):
    """A traced pass records no violation (failed report, wrong constant or
    unpatched alias), builds a tower, and reads nonzero on every layer that
    ``MUST_WORK`` lists for its workload."""
    result = _run_pass(workload, "trace", TRACE_SEED, tmp_path)
    assert result["violations"] == []
    layers = result["layers"]
    must = ["algebra.build_tower.calls"] + [
        name for name in _literal(PERFBENCH / "run.py", "MUST_WORK")[workload]
        if name not in ACROSS_PASSES]
    idle = {name: layers.get(name) for name in must if not layers.get(name, 0) > 0}
    assert not idle, f"layers that read zero on {workload}: {idle}"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_reference_pass_matches_the_reference(workload, tmp_path):
    """The reference pass's summaries match ``reference.json`` as ``run.py`` checks them."""
    workloads, checks = _perfbench_module("workloads"), _perfbench_module("checks")
    result = _run_pass(workload, "reference", workloads.REFERENCE_SEED, tmp_path)
    assert result["violations"] == []
    want = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][workload]
    assert checks.compare_reference(result["summaries"], want) == []


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
