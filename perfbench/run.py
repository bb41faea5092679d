"""ncmart benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ncmart is imported from ``src/``.
Every pass of a workload runs in a fresh child interpreter (``child.py``),
one child at a time, with BLAS pinned to one thread, so that each pass pays
what a command-line user pays: import, tower and basis construction,
coefficients, then the operations.

``--trace 0`` (end to end): one reference pass at ``REFERENCE_SEED``
checked against ``reference.json``, then passes at ``--seed`` until
``--seconds`` have elapsed (at least ``MIN_PASSES``).  Reports the medians of
``run_s``, ``setup_s`` and ``peak_rss_mb`` over the passes and ``ok_share``
(1 - failed/attempted operations).  The times are scaled to nominal machine
speed by the calibration kernel in ``speed.py``, except ``run_s`` where the
workload's ``scale_run`` is false.

Every pass at the run seed repeats the same operations on the same inputs,
so ``attempted`` and ``failed`` count the operations of one pass, plus the
untimed probe, which runs in the first pass only.  Later passes must fail
exactly the same operations; a pass that does not is a correctness
violation.  The counts thus depend on the seed alone, not on how many passes
fitted in ``--seconds``.

``--trace 1`` (per layer): the reference pass, untraced passes for half of
``--seconds``, one traced pass, for multi-worker workloads as many untraced
single-worker passes, and the size sweep.  Reports the metrics listed under
``per_layer`` in ``BENCHMARK.json``.

The last stdout line is the JSON result.  Correctness violations are
printed to stderr and make the exit status 1.  ``--write-reference``
regenerates ``reference.json`` from the current source tree.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

from workloads import REFERENCE_SEED, WORKLOADS, make_plan  # noqa: E402
import checks  # noqa: E402

MIN_PASSES = 4
MIN_BASELINE_PASSES = 2
# A run must end within 180 s; no child starts that could not finish by this.
TIME_LIMIT = 170.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics that must be nonzero on each workload: the layers each
# workload is meant to exercise.  A zero here means a wrapper was bypassed.
MUST_WORK = {
    "dense-tensor": [
        "algebra.Tower.conditional_expectation.calls",
        "algebra.Tower.conditional_expectation.self_s",
        "algebra.Tower.level_basis.calls", "algebra.basis_mb",
        "martingale.adapt.calls", "martingale.column_square_function.calls",
        "spectral.singular_value_function.self_s", "spectral.weak_norm.calls",
        "spectral.lorentz_norm.calls", "spectral.operator_norm.calls",
        "fractional.fractional_integral.calls", "harness.run_ratio_experiment.s",
        "harness.random_martingale.calls", "harness.extremal_example.calls",
        "harness.centered_martingale.calls", "lapack.eigh.calls", "lapack.eigh.n3_sum",
    ],
    "diagonal-abelian": [
        "spectral.singular_value_function.self_s", "spectral.distribution.calls",
        "spectral.lp_norm.calls", "algebra.Tower.project_difference.calls",
        "algebra.Tower.conditional_expectation.calls", "fractional.zeta_sequence.calls",
        "harness.run_ratio_experiment.s",
    ],
    "mixed-hardy": [
        "martingale.hardy_mixed_upper.s", "martingale.bmo_norm.s",
        "martingale.hardy_column_norm.calls", "fractional.iterated_transform.calls",
        "lapack.eigh.calls", "lapack.eigh.n3_sum", "harness.speedup_2w",
    ],
    "optimizer": [
        "fractional.zeta_optimize.s", "fractional.zeta_optimize.calls",
        "algebra.Tower.difference_basis.calls", "algebra.basis_mb",
        "lapack.svd.calls", "lapack.svd.s", "lapack.svd.matrices", "lapack.svd.n3_sum",
    ],
}
ALWAYS_NONZERO = ["algebra.build_tower.calls"] + [
    f"algebra.cond_exp_us.d{d}" for d in (8, 16, 32, 64, 128, 256)]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a correctness violation)."""


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("NCMART_THREADS", None)
    return env


class Runner:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.violations = []
        self.known_defects = []
        self.env = child_env()

    def elapsed(self):
        return time.monotonic() - self.start

    def child(self, req):
        remaining = TIME_LIMIT - self.elapsed()
        if remaining < 1.0:
            raise BenchError("time limit reached before all passes ran")
        req = dict(req, workdir=WORK)
        try:
            proc = subprocess.run([sys.executable, CHILD], input=json.dumps(req),
                                  capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{req['mode']} pass did not finish within the time limit") from None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{req['mode']} pass exited with status {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.violations += result["violations"]
        self.known_defects += result["known_defects"]
        return result

    def reference_pass(self):
        plan = make_plan(self.workload, REFERENCE_SEED)
        ref = self.child({"mode": "reference", "plan": plan})
        with open(REFERENCE) as fh:
            want = json.load(fh)["workloads"][self.workload]
        self.violations += checks.compare_reference(ref["summaries"], want)
        return ref

    def passes(self, mode, budget, minimum, threads=None, probe=False):
        """Passes at the run seed until ``budget`` seconds of the run have gone.

        With ``probe``, the first pass also runs the workload's probe.
        """
        plan = make_plan(self.workload, self.seed, threads)
        if not probe:
            plan["probe"] = None
        out = []
        while True:
            if len(out) >= minimum:
                # Stop at the pass whose end is nearest to the budget.
                walls = [p["wall_s"] for p in out]
                if (self.elapsed() + statistics.median(walls) / 2 > budget
                        or self.elapsed() + max(walls) > TIME_LIMIT - 5):
                    break
            t = time.monotonic()
            res = self.child({"mode": mode, "plan": plan})
            res["wall_s"] = time.monotonic() - t
            out.append(res)
            plan["probe"] = None
        return out

    def count_operations(self, passes):
        """Attempted and failed operations of the run's distinct inputs."""
        first = passes[0]
        for i, p in enumerate(passes[1:], start=2):
            if (p["attempted"], p["failed"]) != (first["attempted"], first["failed"]):
                self.violations.append(
                    f"pass {i} failed {p['failed']} of {p['attempted']} operations, pass 1 "
                    f"{first['failed']} of {first['attempted']}: same inputs, different outcome")
        probe = first.get("probe")
        attempted = first["attempted"] + (probe is not None)
        failed = first["failed"] + bool(probe and probe["failed"])
        return attempted, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(runner):
    ref = runner.reference_pass()
    passes = runner.passes("measure", runner.seconds, MIN_PASSES, probe=True)
    attempted, failed = runner.count_operations(passes)
    samples = {k: [p[k] for p in passes]
               for k in ("run_s", "setup_s", "peak_rss_mb", "run_wall_s", "setup_wall_s")}
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["ok_share"] = 1.0 - failed / attempted
    detail = {k: {"median": values[k], "quartiles": quartiles(v), "n": len(v),
                  "samples": v} for k, v in samples.items()}
    detail["failed_share"] = {"value": failed / attempted, "failed": failed,
                              "attempted": attempted}
    detail["passes"] = [{k: p[k] for k in ("run_s", "run_wall_s", "setup_s", "setup_wall_s",
                                           "kernel_s", "op_s", "probe")}
                        for p in passes]
    return ref, values, detail, attempted, failed


def per_layer(runner, threads):
    ref = runner.reference_pass()
    base = runner.passes("measure", runner.seconds / 2, MIN_BASELINE_PASSES, probe=True)
    spans = os.path.join(WORK, f"spans-{runner.workload}-seed{runner.seed}.json.gz")
    plan = dict(make_plan(runner.workload, runner.seed), probe=None)
    traced = runner.child({"mode": "trace", "plan": plan, "spans_path": spans})
    layers = dict(traced["layers"])
    base_run = statistics.median([p["run_s"] for p in base])
    layers["trace.overhead_s"] = traced["run_s"] - base_run
    speedup = 0.0
    if threads > 1:
        # Wall times: the two sides are scaled by kernels on different thread counts.
        serial = runner.passes("measure", 0, len(base), threads=1)
        speedup = (statistics.median([p["run_wall_s"] for p in serial])
                   / statistics.median([p["run_wall_s"] for p in base]))
    layers["harness.speedup_2w"] = speedup
    layers.update(runner.child({"mode": "sweep", "seed": runner.seed})["layers"])
    for name in MUST_WORK[runner.workload] + ALWAYS_NONZERO:
        if not layers.get(name, 0) > 0:
            runner.violations.append(f"tracer self-check: {name} is {layers.get(name)!r} "
                                     f"on {runner.workload}")
    attempted, failed = runner.count_operations(base + [traced])
    detail = {"baseline_run_s": [p["run_s"] for p in base], "traced_run_s": traced["run_s"],
              "spans": os.path.relpath(spans, ROOT), "layers": layers}
    return ref, layers, detail, attempted, failed


def write_reference():
    os.makedirs(WORK, exist_ok=True)
    out = {"seed": REFERENCE_SEED, "rtol": checks.REFERENCE_RTOL, "workloads": {}}
    for name in WORKLOADS:
        runner = Runner(name, REFERENCE_SEED, 0)
        ref = runner.child({"mode": "reference", "plan": make_plan(name, REFERENCE_SEED)})
        if runner.violations:
            raise BenchError(f"{name}: reference pass is not correct: {runner.violations}")
        out["workloads"][name] = ref["summaries"]
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncmart", "__init__.py")):
        sys.stderr.write(f"perfbench: no ncmart sources under {SRC}; run from a checkout\n")
        return 2
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        spec = load_spec()
        os.makedirs(WORK, exist_ok=True)
        runner = Runner(args.workload, args.seed, args.seconds)
        threads = WORKLOADS[args.workload]["threads"]
        if args.trace:
            ref, values, detail, attempted, failed = per_layer(runner, threads)
            wanted = spec["per_layer"]
        else:
            ref, values, detail, attempted, failed = end_to_end(runner)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = dict(ref["env"], seed=args.seed, workers=threads)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "detail": detail, "metrics": metrics,
              "violations": runner.violations, "known_defects": runner.known_defects}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"elapsed={runner.elapsed():.1f}s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        extra = ""
        if name in detail and "n" in detail[name]:
            lo, hi = detail[name]["quartiles"]
            extra = f"  median of {detail[name]['n']}, quartiles {lo:.6g}..{hi:.6g}"
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}{extra}")
    for name in ("run_wall_s", "setup_wall_s"):
        if name in detail:
            print(f"  {name + ' (unscaled)':<52} {detail[name]['median']:>14.6g} s")
    print(f"  {'failed_share':<52} {failed / max(attempted, 1):>14.6g} share"
          f"  ({failed} of {attempted} operations)")
    for v, n in collections.Counter(runner.known_defects).items():
        sys.stderr.write(f"KNOWN DEFECT (counted as failed, {n} passes): {v}\n")
    for v in runner.violations:
        sys.stderr.write(f"CORRECTNESS VIOLATION: {v}\n")
    correct = not runner.violations
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
