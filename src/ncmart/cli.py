"""Command line interface.

Subcommands: ``zeta`` (filtration constants by optimization, checked
against the tower's closed form), ``verify`` (ratio and inequality
experiments), ``example`` (extremal family), ``norms`` (norm evaluation of
an operator file).  Exit code 0 on success, 1 when a check
fails, 2 on bad input or when memory runs out, 3 on a numerical failure (a
decomposition that does not converge, or an arithmetic error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import martingale as mg
from .algebra import FiltrationSpec, _integer, build_tower, operator_from_json
from .fractional import zeta_sequence
from .harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _example_norms,
    emit_report,
    extremal_example,
    run_ratio_experiment,
)
from .spectral import lorentz_norm, lp_norm, singular_value_function, weak_norm

__all__ = ["main"]

CLOSED_FORM_GAP = 1e-4
# ``ncmart norms``: name -> (parameter names, whether the function takes the
# operator's martingale rather than its singular value function, function).
NORMS = {
    "lp": (("p",), False, lp_norm),
    "lorentz": (("p", "q"), False, lorentz_norm),
    "weak": (("p",), False, weak_norm),
    "hardy_c": (("p",), True, mg.hardy_column_norm),
    "bmo": ((), True, mg.bmo_norm),
    "lipschitz_c": (("beta",), True, mg.lipschitz_column_lower),
}
NORM_SPECS = ", ".join(f"{name}:{','.join(params)}" if params else name
                       for name, (params, _, _) in NORMS.items())


def _tower_from_args(args):
    return build_tower(FiltrationSpec.parse(args.tower))


def _write_or_print(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_zeta(args) -> int:
    tower = _tower_from_args(args)
    seq = zeta_sequence(tower, "optimize", restarts=args.restarts, tol=args.tol, seed=args.seed)
    closed = list(zeta_sequence(tower, "auto").values)
    gap = max(abs(a - b) for a, b in zip(seq.values, closed))
    payload = {"tower": tower.spec.to_json(), "coefficients": seq.to_json(),
               "closed_form": closed, "max_gap": gap}
    if gap > CLOSED_FORM_GAP:
        payload["status"] = "closed-form mismatch"
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return int(gap > CLOSED_FORM_GAP)


def _cmd_verify(args) -> int:
    """Run one experiment; flags override the config file's fields."""
    obj = {}
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config {args.config!r} is not a JSON object")
    elif not args.tower:
        raise ConfigError("verify needs --tower or --config")
    obj.update(experiment=args.experiment, seed=args.seed)
    if args.tower:
        obj["tower"] = FiltrationSpec.parse(args.tower).to_json()
    if args.trials is not None:
        obj["trials"] = args.trials
    cfg = ExperimentConfig.from_json(obj)
    report = run_ratio_experiment(cfg, threads=args.threads)
    fmt = "csv" if args.out and args.out.endswith(".csv") else "json"
    if args.out:
        emit_report(report, fmt, args.out)
        sys.stdout.write(f"{cfg.experiment}: {'pass' if report.passed else 'FAIL'} "
                         f"({len(report.failures)} failures) -> {args.out}\n")
    else:
        sys.stdout.write(emit_report(report, "json"))
    return 0 if report.passed else 1


def _cmd_example(args) -> int:
    _integer(args.levels, "--levels", 1)
    rows = []
    for n in range(1, args.levels + 1):
        norms = _example_norms(*extremal_example(n, args.kind))
        rows.append({"n": n, "l1_norm": norms["l1"], "half_order_l2": norms["half_l2"],
                     "expected_half_order_l2": math.sqrt(n / 2.0)})
    payload = {"kind": args.kind, "family": rows}
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    bad = any(abs(r["half_order_l2"] - r["expected_half_order_l2"]) > 1e-9 for r in rows)
    return 1 if bad else 0


def _parse_norm_spec(spec):
    """``(name, parameters)`` of a ``--norm`` spec such as ``lorentz:2,1``."""
    name, _, rest = spec.partition(":")
    params = rest.split(",") if rest else []
    if name not in NORMS or len(params) != len(NORMS[name][0]):
        raise ConfigError(f"bad norm spec {spec!r}: not one of {NORM_SPECS}")
    return name, [float(v) for v in params]


def _cmd_norms(args) -> int:
    tower = _tower_from_args(args)
    try:
        with open(args.operator) as fh:
            x = operator_from_json(json.load(fh))
    except (OSError, ValueError) as exc:  # JSONDecodeError and TowerError are ValueErrors
        raise ConfigError(f"cannot read operator {args.operator!r}: {exc}") from exc
    if x.shape[0] != tower.dim:
        raise ConfigError(f"operator dimension {x.shape[0]} does not match tower dimension {tower.dim}")
    specs = [(spec, *_parse_norm_spec(spec)) for spec in args.norm]
    if any(NORMS[name][1] for _, name, _ in specs):
        mart = mg.adapt(tower, x)
    s = singular_value_function(tower, x)
    out = {}
    for spec, name, params in specs:
        _, on_martingale, norm = NORMS[name]
        try:
            out[spec] = norm(mart if on_martingale else s, *params)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad norm spec {spec!r}: {exc}") from exc
    payload = {"tower": tower.spec.to_json(), "norms": out}
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncmart",
        description="Martingale fractional integrals on finite traced filtrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tower", required=True,
                       help="tower spec, e.g. tensor:2,2,2 or abelian:4")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("zeta", help="compute filtration constants by optimization")
    common(p)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_zeta)

    p = sub.add_parser("verify", help="run a ratio or inequality experiment")
    p.add_argument("--experiment", required=True, help=", ".join(sorted(EXPERIMENTS)))
    p.add_argument("--tower", default=None, help="tower spec, e.g. tensor:2,2,2")
    p.add_argument("--config", default=None, help="JSON experiment config file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=None,
                   help="trials per grid point (default: the config's, "
                        f"else {ExperimentConfig.trials})")
    p.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")
    p.add_argument("--out", default=None, help="report file; .csv selects CSV format")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("example", help="evaluate the extremal family")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--kind", choices=("classical", "noncommutative"), default="classical")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_example)

    p = sub.add_parser("norms", help="evaluate norms of an operator JSON file")
    common(p)
    p.add_argument("--operator", required=True, help="operator JSON file")
    p.add_argument("--norm", action="append", required=True,
                   help=NORM_SPECS + " (repeatable)")
    p.set_defaults(fn=_cmd_norms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage already; normalize others
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:  # ConfigError and TowerError too
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # a run too large for this machine, not a failed check
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
