"""One pass of a workload in a fresh interpreter.

Reads a plan (see ``workloads.make_plan``) as JSON on stdin and prints one
JSON result line on stdout.  Modes:

``measure``    set-up, the timed operations, the correctness checks and the
               untimed failure probe.  Times are scaled to nominal machine
               speed by the kernel in ``speed.py`` (see ``scale_run``);
``reference``  the same without the probe; also returns the summaries that
               ``reference.json`` holds and the environment record;
``trace``      ``measure`` with the span tracer installed after import;
``sweep``      per-call time of ``Tower.conditional_expectation`` on tensor
               towers of growing dimension.

ncmart is imported inside the timed set-up, so nothing here may import it
(or numpy) at module level.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402  (stdlib only)
import speed  # noqa: E402  (imports numpy only when a kernel is made)

SWEEP_DIMS = (8, 16, 32, 64, 128, 256)


def custom4_spec():
    """Block-diagonal chain inside M_4: C + C, then diagonal, then all of M_4."""
    import numpy as np
    from ncmart.algebra import FiltrationSpec

    e = np.eye(4, dtype=complex)
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    units = []
    for i in range(4):
        for j in range(4):
            u = np.zeros((4, 4), dtype=complex)
            u[i, j] = 1.0
            units.append(u)
    return FiltrationSpec.custom([[p, e - p], [np.diag(e[i]) for i in range(4)], units])


def tower_spec(text):
    from ncmart.algebra import FiltrationSpec

    return custom4_spec() if text == "custom4" else FiltrationSpec.parse(text)


# Grid points of the ratio experiments, passed explicitly in every config:
# (config key, points).  h1-to-bmo has a single grid point and no key.
ALPHAS = [0.25, 0.5, 0.75]
RATIO_GRIDS = {
    "weak-type": ("alphas", ALPHAS),
    "hardy-column": ("alphas", ALPHAS),
    "l1a-to-bmo": ("alphas", ALPHAS),
    "lorentz-uniform": ("alphas", ALPHAS),
    "lp-lq": ("pq_pairs", [[4 / 3, 4.0], [2.0, 4.0], [1.5, 3.0]]),
    "h1-to-bmo": (None, [()]),
}


def planned_operations(op, n_levels):
    """Operations an op attempts: trials of its grid or suite, or zeta levels."""
    if op["kind"] == "zeta":
        return n_levels
    exp, trials = op["experiment"], op["trials"]
    if exp in RATIO_GRIDS:
        return len(RATIO_GRIDS[exp][1]) * trials
    if exp == "hd-scalar":
        return n_levels * trials
    if exp == "embedding-lemmas":
        return n_levels * trials + trials
    raise ValueError(f"no operation count for experiment {exp!r}")


def experiment_config(op):
    cfg = {"experiment": op["experiment"], "trials": op["trials"]}
    key, points = RATIO_GRIDS.get(op["experiment"], (None, None))
    if key is not None:
        cfg[key] = points
    if "extremal_n_max" in op:
        cfg["extremal_n_max"] = op["extremal_n_max"]
    return cfg


def failed_trials(report):
    """Distinct trials with a failure record (each trial has its own seed)."""
    return len({tuple(f["seed"]) for f in report["failures"]})


class Pass:
    """State of one pass: set-up towers, per-op outcomes, violations."""

    def __init__(self, plan, workdir):
        self.plan = plan
        self.workdir = workdir
        self.towers = {}
        self.outcomes = []
        self.violations = []
        self.known_defects = []
        self.attempted = 0
        self.failed = 0

    # -- phases ----------------------------------------------------------------

    def setup(self, kernel):
        """Build the towers and their coefficients; returns the wall time."""
        from ncmart import build_tower, zeta_sequence

        wall_s = 0.0
        for text in self.plan["towers"]:
            t = time.perf_counter()
            tower = build_tower(tower_spec(text))
            seq = zeta_sequence(tower, "auto")
            wall_s += time.perf_counter() - t
            kernel.sample()
            self.towers[text] = tower
            known = self.plan["known"].get(text)
            if known is not None:
                self.violations += checks.zeta_matches(f"setup {text}", seq.values, known)
        return wall_s

    def write_configs(self):
        paths = []
        for i, op in enumerate(self.plan["ops"]):
            path = None
            if op["kind"] == "verify":
                path = os.path.join(self.workdir, f"op{i}.json")
                with open(path, "w") as fh:
                    json.dump(experiment_config(op), fh)
            paths.append(path)
        return paths

    def run_ops(self, paths, kernel):
        for op, path in zip(self.plan["ops"], paths):
            self.outcomes.append(self.run_op(op, path))
            kernel.sample()

    def run_op(self, op, path):
        """Run one op; any exception is caught and recorded, never raised."""
        from ncmart import cli
        from ncmart.harness import ExperimentConfig, run_ratio_experiment
        from ncmart.fractional import zeta_sequence

        out = {"op": op, "report": None, "zeta": None, "error": None}
        start = time.perf_counter()
        try:
            if op["kind"] == "verify":
                buf = io.StringIO()
                argv = ["verify", "--experiment", op["experiment"], "--config", path,
                        "--tower", op["tower"],
                        "--seed", str(op["seed"]), "--threads", str(self.plan["threads"])]
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                out["exit_code"] = code
                if code in (0, 1):
                    out["report"] = json.loads(buf.getvalue())
                else:
                    out["error"] = f"ncmart verify exited {code}"
            elif op["kind"] == "experiment":
                obj = experiment_config(op)
                cfg = ExperimentConfig(
                    op["experiment"], tower_spec(op["tower"]), trials=op["trials"],
                    seed=op["seed"], alphas=tuple(obj.get("alphas", ())),
                    pq_pairs=tuple(tuple(pq) for pq in obj.get("pq_pairs", ())),
                )
                out["report"] = run_ratio_experiment(cfg, threads=self.plan["threads"]).to_json()
            else:
                seq = zeta_sequence(self.towers[op["tower"]], "optimize", seed=op["seed"])
                out["zeta"] = list(seq.values)
        except Exception as exc:  # counted as failed operations, reported below
            out["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        out["s"] = time.perf_counter() - start
        return out

    def account_and_check(self):
        for out in self.outcomes:
            op = out["op"]
            planned = planned_operations(op, self.towers[op["tower"]].n_levels)
            self.attempted += planned
            label = checks.op_label(op)
            if out["error"] is not None:
                self.failed += planned
                self.violations.append(f"{label}: raised {out['error']}")
                continue
            if out["report"] is not None:
                self.failed += min(planned, failed_trials(out["report"]))
                bad, known = checks.report_ok(label, out["report"], op)
                self.violations += bad
                self.known_defects += [f"{label}: {f}" for f in known]
            else:
                self.violations += checks.zeta_matches(label, out["zeta"], op["known"])

    def probe(self):
        """Untimed single-level optimization that is expected to be hard.

        It is one operation; the runner counts it once per run, not in
        ``attempted``/``failed`` of the pass.
        """
        spec = self.plan["probe"]
        if spec is None:
            return None
        from ncmart import build_tower, zeta_optimize

        result = {"tower": spec["tower"], "level": spec["level"], "failed": False}
        start = time.perf_counter()
        try:
            zeta = zeta_optimize(build_tower(tower_spec(spec["tower"])), spec["level"],
                                 seed=spec["seed"])
            result["zeta"] = zeta
            self.violations += checks.zeta_matches(
                f"probe {spec['tower']} k={spec['level']}", [zeta], [spec["known"]])
        except Exception as exc:  # the known defect: counted, not fatal
            result["failed"] = True
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["s"] = time.perf_counter() - start
        return result


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import platform

    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "found", "openblas configuration")
                 if k in blas},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def run_pass(plan, mode, workdir, spans_path=None):
    t0 = time.perf_counter()
    import ncmart  # noqa: F401
    import ncmart.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    kernel = speed.Kernel(plan["threads"])
    kernel.sample()
    p = Pass(plan, workdir)
    setup_wall_s = import_s + p.setup(kernel)

    paths = p.write_configs()
    p.run_ops(paths, kernel)
    run_wall_s = sum(o["s"] for o in p.outcomes)
    rss = peak_rss_mb()
    kernel.close()
    layers = tracer.metrics() if tracer is not None else None

    p.account_and_check()
    result = {
        "setup_s": setup_wall_s * kernel.scale(),
        "run_s": run_wall_s * (kernel.scale() if plan["scale_run"] else 1.0),
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "kernel_s": kernel.samples,
        "peak_rss_mb": rss,
        "op_s": {checks.op_label(o["op"]): o["s"] for o in p.outcomes},
    }
    if mode == "reference":
        result["summaries"] = checks.summaries(p.outcomes)
        result["env"] = environment()
    else:
        result["probe"] = p.probe()
    if tracer is not None:
        result["layers"] = layers
        aliases = tracer.unpatched_aliases()
        if aliases:
            p.violations.append(f"tracer: unpatched aliases {aliases}")
        if spans_path:
            tracer.write(spans_path)
    result.update(attempted=p.attempted, failed=p.failed, violations=p.violations,
                  known_defects=p.known_defects)
    return result


def run_sweep(seed):
    """Median per-call time of E_{n-1} on tensor:2^n, in microseconds."""
    import numpy as np
    from ncmart import FiltrationSpec, build_tower

    rng = np.random.default_rng(seed)
    out = {}
    for d in SWEEP_DIMS:
        n = int(round(math.log2(d)))
        tower = build_tower(FiltrationSpec.tensor((2,) * n))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        level = n - 1
        tower.conditional_expectation(level, x)  # builds and caches the basis
        times = []
        total = 0.0
        while len(times) < 5 or (total < 0.2 and len(times) < 200):
            t = time.perf_counter()
            tower.conditional_expectation(level, x)
            dt = time.perf_counter() - t
            times.append(dt)
            total += dt
        times.sort()
        out[f"algebra.cond_exp_us.d{d}"] = times[len(times) // 2] * 1e6
        del tower
    return {"layers": out, "attempted": 0, "failed": 0, "violations": [], "known_defects": []}


def main():
    req = json.load(sys.stdin)
    mode = req["mode"]
    workdir = req["workdir"]
    if mode == "sweep":
        result = run_sweep(req["seed"])
    else:
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            result = run_pass(req["plan"], mode, tmp, req.get("spans_path"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
