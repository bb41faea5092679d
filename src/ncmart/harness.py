"""Experiment harness: sampling, ratio experiments and reports.

Every experiment is driven by an :class:`ExperimentConfig` and produces a
:class:`Report`.  Per-trial randomness derives from ``(seed, grid_index,
trial_index)`` so serial and parallel runs produce identical reports.
Hard per-operator inequalities are asserted (violations land in
``failures`` with a reproduction seed); theorem-level bounds only report
their empirical constants.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import lru_cache

import numpy as np

from . import martingale as mg
from .algebra import FiltrationSpec, Tower, TowerError, build_tower
from .fractional import (
    CoefficientSequence,
    embedding_constants_check,
    fractional_integral,
    iterated_transform,
    selfadjointness_check,
    zeta_sequence,
)
from .spectral import (
    distribution,
    lorentz_norm,
    lp_norm,
    operator_norm,
    singular_value_function,
    weak_norm,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Report",
    "random_martingale",
    "centered_martingale",
    "extremal_example",
    "run_ratio_experiment",
    "emit_report",
    "EXPERIMENTS",
]

SCHEMA_VERSION = 1
HARD_SLACK = 1e-9
# Ratios whose denominator falls below this are excluded from statistics.
DENOMINATOR_FLOOR = 1e-12


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    tower: FiltrationSpec
    trials: int = 200
    seed: int = 0
    alphas: tuple = ()
    pq_pairs: tuple = ()
    levels: tuple = ()
    extremal_n_max: int = 12
    profile: str = "positive_l1"
    coeffs: object = "auto"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.extremal_n_max < 1:
            raise ConfigError(f"extremal_n_max must be at least 1, got {self.extremal_n_max}")

    @staticmethod
    def from_json(obj) -> "ExperimentConfig":
        try:
            tower = FiltrationSpec.from_json(obj["tower"])
            return ExperimentConfig(
                experiment=obj["experiment"],
                tower=tower,
                trials=int(obj.get("trials", 200)),
                seed=int(obj.get("seed", 0)),
                alphas=tuple(float(a) for a in obj.get("alphas", ())),
                pq_pairs=tuple((float(p), float(q)) for p, q in obj.get("pq_pairs", ())),
                levels=tuple(int(k) for k in obj.get("levels", ())),
                extremal_n_max=int(obj.get("extremal_n_max", 12)),
                profile=obj.get("profile", "positive_l1"),
                coeffs=obj.get("coeffs", "auto"),
            )
        except (KeyError, TypeError, ValueError, TowerError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    def to_json(self):
        return {
            "experiment": self.experiment,
            "tower": self.tower.to_json(),
            "trials": self.trials,
            "seed": self.seed,
            "alphas": list(self.alphas),
            "pq_pairs": [list(pq) for pq in self.pq_pairs],
            "levels": list(self.levels),
            "extremal_n_max": self.extremal_n_max,
            "profile": self.profile,
            "coeffs": self.coeffs if isinstance(self.coeffs, str) else list(self.coeffs),
        }


@dataclass
class Report:
    experiment: str
    config: dict
    trials: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    wall_time: float = 0.0
    schema_version: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "config": self.config,
            "summary": self.summary,
            "trials": self.trials,
            "failures": self.failures,
            "wall_time": self.wall_time,
        }

    @staticmethod
    def from_json(obj) -> "Report":
        return Report(
            experiment=obj["experiment"],
            config=obj["config"],
            trials=obj["trials"],
            summary=obj["summary"],
            failures=obj["failures"],
            wall_time=obj["wall_time"],
            schema_version=obj["schema_version"],
        )


def emit_report(report: Report, fmt="json", path=None):
    """Write a report as JSON (full) or CSV (flattened grid summaries)."""
    if fmt == "json":
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return None
    if fmt == "csv":
        rows = []
        for key, stats in sorted(report.summary.items()):
            if not isinstance(stats, dict):
                continue
            row = {"experiment": report.experiment, "grid": key}
            row.update({k: v for k, v in stats.items() if np.isscalar(v)})
            rows.append(row)
        fieldnames = sorted({k for r in rows for k in r}, key=lambda s: (s != "experiment", s))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
        return None
    raise ConfigError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# sampling


def trial_rng(seed, *indices):
    return np.random.default_rng([int(seed) & 0xFFFFFFFF] + [int(i) for i in indices])


def random_martingale(tower: Tower, profile, rng) -> mg.MartingaleSequence:
    """Sample a martingale: Gaussian differences, a normalized positive
    final value, or a single difference at a given level."""
    if profile == "gaussian":
        diffs = [
            tower.project_difference(k, tower.random_element(rng))
            for k in range(1, tower.n_levels + 1)
        ]
        return mg.MartingaleSequence(tower, tuple(diffs))
    if profile == "positive_l1":
        for _ in range(16):
            g = tower.random_element(rng)
            if g.ndim == 1:
                x = np.abs(g) ** 2 + 0j
            else:
                x = g @ g.conj().T
            tr = tower.trace(x).real
            if tr > 1e-9:
                return mg.adapt(tower, x / tr)
        raise ArithmeticError("could not draw a positive trace-one operator")
    if profile.startswith("single:"):
        k = int(profile.split(":", 1)[1])
        dx = tower.project_difference(k, tower.random_element(rng))
        diffs = [np.zeros_like(dx) for _ in range(k)]
        diffs[k - 1] = dx
        return mg.MartingaleSequence(tower, tuple(diffs))
    raise ConfigError(f"unknown martingale profile {profile!r}")


def centered_martingale(mart: mg.MartingaleSequence) -> mg.MartingaleSequence:
    """Martingale of the mean-zero part of the final value.

    The classical dyadic filtration starts at the trivial sigma-algebra, so
    its fractional integral annihilates constants; with our towers (first
    expectation is zero, identity sits inside the first difference space)
    that corresponds to transforming ``x - tau(x) 1``.
    """
    tower = mart.tower
    x = mart.final
    mean = tower.trace(x)
    if x.ndim == 1:
        return mg.adapt(tower, x - mean * np.ones(tower.dim))
    return mg.adapt(tower, x - mean * np.eye(tower.dim))


DENSE_EXTREMAL_LIMIT = 64


@lru_cache(maxsize=32)
def _cached_tower(kind, n):
    if kind == "classical":
        return build_tower(FiltrationSpec.abelian_dyadic(n))
    return build_tower(FiltrationSpec.tensor((2,) * n))


def extremal_example(n, kind="classical"):
    """The scaled-indicator extremal family on a dyadic tower of depth n.

    ``classical`` realizes it as a diagonal step function on the abelian
    tower; ``noncommutative`` as a scaled rank-one diagonal projection in
    the 2x2 tensor tower.  Both use transform coefficients ``2^-k``.
    """
    if n < 1:
        raise ConfigError("extremal example needs n >= 1")
    if kind not in ("classical", "noncommutative"):
        raise ConfigError(f"unknown extremal kind {kind!r}")
    tower = _cached_tower(kind, n)
    if kind == "classical" or tower.dim > DENSE_EXTREMAL_LIMIT:
        f = np.zeros(tower.dim, dtype=complex)
        f[0] = 2.0**n
    else:
        f = np.zeros((tower.dim, tower.dim), dtype=complex)
        f[0, 0] = 2.0**n
    coeffs = CoefficientSequence(tuple(2.0**-k for k in range(1, n + 1)), "user")
    return tower, mg.adapt(tower, f), coeffs


# ---------------------------------------------------------------------------
# experiment machinery


def _resolve_coeffs(tower, coeffs_cfg) -> CoefficientSequence:
    if isinstance(coeffs_cfg, CoefficientSequence):
        return coeffs_cfg
    if coeffs_cfg == "auto":
        return zeta_sequence(tower, "auto")
    if coeffs_cfg == "optimize":
        return zeta_sequence(tower, "optimize")
    try:
        return CoefficientSequence(tuple(float(v) for v in coeffs_cfg), "user")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient source {coeffs_cfg!r}: {exc}") from exc


def _summary_stats(ratios):
    arr = np.asarray([r for r in ratios if r is not None], dtype=float)
    if arr.size == 0:
        return {"n_used": 0}
    half = arr[: arr.size // 2] if arr.size >= 2 else arr
    first_half_max = float(np.max(half))
    overall = float(np.max(arr))
    return {
        "n_used": int(arr.size),
        "max": overall,
        "mean": float(np.mean(arr)),
        "q50": float(np.quantile(arr, 0.5)),
        "q90": float(np.quantile(arr, 0.9)),
        "first_half_max": first_half_max,
        "stability": overall / first_half_max if first_half_max > 0 else math.inf,
    }


def _run_ratio_grid(cfg, grid, trial_fn, threads=1):
    """Run ``trials`` ratio samples per grid point; collect stats/failures."""
    tower = build_tower(cfg.tower)
    coeffs = _resolve_coeffs(tower, cfg.coeffs)
    report = Report(cfg.experiment, cfg.to_json())

    def one(args):
        gi, gp, ti = args
        rng = trial_rng(cfg.seed, gi, ti)
        try:
            num, den = trial_fn(tower, coeffs, rng, gp)
        except ArithmeticError as exc:
            return {"grid": gi, "trial": ti, "error": str(exc)}
        rec = {"grid": gi, "trial": ti, "numerator": num, "denominator": den}
        if den < DENOMINATOR_FLOOR:
            rec["ratio"] = None
        else:
            rec["ratio"] = num / den
        return rec

    tasks = [(gi, gp, ti) for gi, gp in enumerate(grid) for ti in range(cfg.trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, tasks))
    else:
        records = [one(t) for t in tasks]
    report.trials = records

    for gi, gp in enumerate(grid):
        ratios = [r.get("ratio") for r in records if r["grid"] == gi and "error" not in r]
        stats = _summary_stats(ratios)
        stats["point"] = list(gp)
        report.summary[f"grid_{gi}"] = stats
        for r in records:
            if r["grid"] != gi:
                continue
            if "error" in r:
                report.failures.append(
                    {"check": "trial_error", "grid": list(gp), "trial": r["trial"],
                     "seed": [cfg.seed, gi, r["trial"]], "detail": r["error"]}
                )
            elif r["ratio"] is not None and not math.isfinite(r["ratio"]):
                report.failures.append(
                    {"check": "ratio_not_finite", "grid": list(gp), "trial": r["trial"],
                     "seed": [cfg.seed, gi, r["trial"]], "detail": r["ratio"]}
                )
    return report


def _attach_extremal(report, cfg, ratio_fn):
    """Ratios along the extremal family, recorded for both realizations."""
    rows = []
    for n in range(1, cfg.extremal_n_max + 1):
        row = {"n": n}
        for kind in ("classical", "noncommutative"):
            tower, mart, coeffs = extremal_example(n, kind)
            row[kind] = ratio_fn(tower, mart, coeffs)
        rows.append(row)
    report.summary["extremal_family"] = rows


# ---------------------------------------------------------------------------
# individual experiments


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _weak_type(cfg, threads=1):
    alphas = cfg.alphas or (0.25, 0.5, 0.75)
    _require(all(0 < a < 1 for a in alphas), "weak-type needs alphas in (0,1)")

    def trial(tower, coeffs, rng, gp):
        (alpha,) = gp
        x = random_martingale(tower, cfg.profile, rng)
        y = fractional_integral(x, alpha, coeffs).final
        num = weak_norm(singular_value_function(tower, y), 1.0 / (1.0 - alpha))
        den = lp_norm(singular_value_function(tower, x.final), 1.0)
        return num, den

    report = _run_ratio_grid(cfg, [(a,) for a in alphas], trial, threads)

    def extremal(tower, mart, coeffs):
        y = fractional_integral(centered_martingale(mart), 0.5, coeffs).final
        num = weak_norm(singular_value_function(tower, y), 2.0)
        den = lp_norm(singular_value_function(tower, mart.final), 1.0)
        l2 = lp_norm(singular_value_function(tower, y), 2.0)
        return {"weak_ratio": num / den, "strong_l2_over_l1": l2 / den}

    _attach_extremal(report, cfg, extremal)
    return report


def _lp_lq(cfg, threads=1):
    pqs = cfg.pq_pairs or ((4.0 / 3.0, 4.0), (2.0, 4.0), (1.5, 3.0))
    _require(all(1 < p < q for p, q in pqs), "lp-lq needs 1 < p < q")
    _require(all(0 < 1 / p - 1 / q < 1 for p, q in pqs), "lp-lq order must be in (0,1)")

    def trial(tower, coeffs, rng, gp):
        p, q = gp
        alpha = 1.0 / p - 1.0 / q
        x = random_martingale(tower, "gaussian", rng)
        y = fractional_integral(x, alpha, coeffs).final
        num = lp_norm(singular_value_function(tower, y), q)
        den = lp_norm(singular_value_function(tower, x.final), p)
        return num, den

    report = _run_ratio_grid(cfg, list(pqs), trial, threads)

    def extremal(tower, mart, coeffs):
        out = {}
        centered = centered_martingale(mart)
        for p, q in pqs:
            alpha = 1.0 / p - 1.0 / q
            y = fractional_integral(centered, alpha, coeffs).final
            num = lp_norm(singular_value_function(tower, y), q)
            den = lp_norm(singular_value_function(tower, mart.final), p)
            out[f"p{p:g}_q{q:g}"] = num / den
        return out

    _attach_extremal(report, cfg, extremal)
    return report


def _hardy_column(cfg, threads=1):
    alphas = cfg.alphas or (0.25, 0.5, 0.75)
    _require(all(0 < a < 1 for a in alphas), "hardy-column needs alphas in (0,1)")

    def trial(tower, coeffs, rng, gp):
        (alpha,) = gp
        x = random_martingale(tower, "gaussian", rng)
        y = fractional_integral(x, alpha, coeffs)
        num = mg.hardy_column_norm(y, 1.0 / (1.0 - alpha))
        den = mg.hardy_column_norm(x, 1.0)
        return num, den

    report = _run_ratio_grid(cfg, [(a,) for a in alphas], trial, threads)

    def extremal(tower, mart, coeffs):
        y = fractional_integral(centered_martingale(mart), 0.5, coeffs)
        return mg.hardy_column_norm(y, 2.0) / mg.hardy_column_norm(mart, 1.0)

    _attach_extremal(report, cfg, extremal)
    return report


def _l1a_to_bmo(cfg, threads=1):
    alphas = cfg.alphas or (0.25, 0.5, 0.75)
    _require(all(0 < a < 1 for a in alphas), "l1a-to-bmo needs alphas in (0,1)")

    def trial(tower, coeffs, rng, gp):
        (alpha,) = gp
        x = random_martingale(tower, "gaussian", rng)
        y = fractional_integral(x, alpha, coeffs)
        num = mg.bmo_norm(y)
        den = lp_norm(singular_value_function(tower, x.final), 1.0 / alpha)
        return num, den

    report = _run_ratio_grid(cfg, [(a,) for a in alphas], trial, threads)

    def extremal(tower, mart, coeffs):
        y = fractional_integral(centered_martingale(mart), 0.5, coeffs)
        den = lp_norm(singular_value_function(tower, mart.final), 2.0)
        return mg.bmo_norm(y) / den

    _attach_extremal(report, cfg, extremal)
    return report


def _lorentz_uniform(cfg, threads=1):
    alphas = cfg.alphas or (0.25, 0.5, 0.75)
    _require(all(0 < a < 1 for a in alphas), "lorentz-uniform needs alphas in (0,1)")

    def trial(tower, coeffs, rng, gp):
        (alpha,) = gp
        x = random_martingale(tower, "gaussian", rng)
        y = fractional_integral(x, alpha, coeffs).final
        num = operator_norm(y)
        den = lorentz_norm(singular_value_function(tower, x.final), 1.0 / alpha, 1.0)
        return num, den

    report = _run_ratio_grid(cfg, [(a,) for a in alphas], trial, threads)

    def extremal(tower, mart, coeffs):
        y = fractional_integral(centered_martingale(mart), 0.5, coeffs).final
        den = lorentz_norm(singular_value_function(tower, mart.final), 2.0, 1.0)
        return operator_norm(y) / den

    _attach_extremal(report, cfg, extremal)
    return report


def _h1_to_bmo(cfg, threads=1):
    def trial(tower, coeffs, rng, gp):
        x = random_martingale(tower, "gaussian", rng)
        y = iterated_transform(x, 1.0, coeffs)
        num = mg.bmo_norm(y)
        den, _ = mg.hardy_mixed_upper(x, 1.0)
        return num, den

    report = _run_ratio_grid(cfg, [()], trial, threads)

    # exact-column bracketing companion: same transform, column-only norms
    tower = build_tower(cfg.tower)
    coeffs = _resolve_coeffs(tower, cfg.coeffs)
    ratios = []
    for ti in range(min(cfg.trials, 100)):
        rng = trial_rng(cfg.seed, 10_000, ti)
        x = random_martingale(tower, "gaussian", rng)
        y = iterated_transform(x, 1.0, coeffs)
        den = mg.hardy_column_norm(x, 1.0)
        if den > DENOMINATOR_FLOOR:
            ratios.append(mg.bmo_column_norm(y) / den)
    report.summary["column_variant"] = _summary_stats(ratios)
    return report


def _embedding_lemmas(cfg, threads=1):
    tower = build_tower(cfg.tower)
    coeffs = _resolve_coeffs(tower, cfg.coeffs)
    levels = cfg.levels or tuple(range(1, tower.n_levels + 1))
    alphas = cfg.alphas or tuple(a / 10.0 for a in range(1, 10))
    ps = (1.1, 1.25, 1.5, 1.75)
    report = Report(cfg.experiment, cfg.to_json())
    worst = {"basic_i": math.inf, "basic_ii": math.inf, "embed_inf2": math.inf,
             "embed_21": math.inf, "quasi_triangle": math.inf, "selfadjoint": 0.0}

    for gi, k in enumerate(levels):
        zeta = coeffs.values[k - 1]
        for ti in range(cfg.trials):
            rng = trial_rng(cfg.seed, gi, ti)
            a = tower.project_difference(k, tower.random_element(rng))
            s = singular_value_function(tower, a)
            n1, n2, ninf = lp_norm(s, 1.0), lp_norm(s, 2.0), s.values[0]
            if n2 < 1e-13:
                continue
            slack = 2 * zeta**-0.5 * n1 - n2
            worst["embed_21"] = min(worst["embed_21"], slack)
            worst["embed_inf2"] = min(worst["embed_inf2"], zeta**-0.5 * n2 - ninf)
            for alpha in alphas:
                worst["basic_i"] = min(
                    worst["basic_i"],
                    2.0**alpha * n1 - zeta**alpha * lp_norm(s, 1.0 / (1.0 - alpha)),
                )
            for p in ps:
                alpha = 1.0 / p - 0.5
                worst["basic_ii"] = min(worst["basic_ii"], lp_norm(s, p) - zeta**alpha * n2)
            for name in ("basic_i", "basic_ii", "embed_inf2", "embed_21"):
                if worst[name] < -HARD_SLACK:
                    report.failures.append(
                        {"check": name, "grid": {"level": k}, "trial": ti,
                         "seed": [cfg.seed, gi, ti], "detail": worst[name]}
                    )
                    worst[name] = math.inf

    # quasi-triangle distribution inequality and self-adjointness
    for ti in range(cfg.trials):
        rng = trial_rng(cfg.seed, 20_000, ti)
        x1, x2 = tower.random_element(rng), tower.random_element(rng)
        s12 = singular_value_function(tower, x1 + x2)
        s1 = singular_value_function(tower, x1)
        s2 = singular_value_function(tower, x2)
        lams = np.concatenate([s12.values[s12.values > 0] * 0.999, [rng.uniform(0.1, 2.0)]])
        slacks = (2 * lams * (distribution(s1, lams / 2) + distribution(s2, lams / 2))
                  - lams * distribution(s12, lams))
        worst["quasi_triangle"] = min(worst["quasi_triangle"], float(np.min(slacks)))
        for i in np.flatnonzero(slacks < -HARD_SLACK):
            report.failures.append(
                {"check": "quasi_triangle", "grid": {"lambda": float(lams[i])}, "trial": ti,
                 "seed": [cfg.seed, 20_000, ti], "detail": float(slacks[i])}
            )
        m1 = random_martingale(tower, "gaussian", rng)
        m2 = random_martingale(tower, "gaussian", rng)
        res = selfadjointness_check(m1, m2, 0.5, coeffs)
        worst["selfadjoint"] = max(worst["selfadjoint"], res["abs_error"])
        if not res["ok"]:
            report.failures.append(
                {"check": "selfadjoint", "grid": {}, "trial": ti,
                 "seed": [cfg.seed, 20_000, ti], "detail": res["abs_error"]}
            )

    for k in levels:
        report.summary[f"level_{k}"] = embedding_constants_check(
            tower, k, coeffs, samples=min(cfg.trials, 200), seed=cfg.seed
        )
    report.summary["worst_slacks"] = {k: (None if v is math.inf else v) for k, v in worst.items()}
    return report


def _singular_value_lemma(cfg, threads=1):
    tower = build_tower(cfg.tower)
    coeffs = _resolve_coeffs(tower, cfg.coeffs)
    alphas = cfg.alphas or (0.1, 0.2, 0.3, 0.4)
    _require(all(0 < a < 0.5 for a in alphas), "singular-value lemma needs alphas in (0, 1/2)")
    report = Report(cfg.experiment, cfg.to_json())
    worst_mu = math.inf
    worst_hardy = math.inf
    for gi, alpha in enumerate(alphas):
        for ti in range(cfg.trials):
            rng = trial_rng(cfg.seed, gi, ti)
            a = random_martingale(tower, "gaussian", rng)
            s_a = singular_value_function(tower, mg.column_square_function(a))
            s_1 = singular_value_function(
                tower, mg.column_square_function(fractional_integral(a, alpha, coeffs))
            )
            s_2 = singular_value_function(
                tower, mg.column_square_function(iterated_transform(a, 2 * alpha, coeffs))
            )
            ts = np.concatenate([[0.0], s_1.cums[:-1], (s_1.cums[:-1] + np.diff(s_1.cums, prepend=0)[:-1] / 2)])
            for t in ts:
                lhs = s_1.value_at(t)
                rhs = math.sqrt(s_2.value_at(t / 2) * s_a.value_at(t / 2))
                worst_mu = min(worst_mu, rhs - lhs)
                if lhs > rhs + HARD_SLACK:
                    report.failures.append(
                        {"check": "singular_value_lemma", "grid": {"alpha": alpha, "t": float(t)},
                         "trial": ti, "seed": [cfg.seed, gi, ti], "detail": lhs - rhs}
                    )
            u = 1.0 / (1.0 - alpha)
            lhs = mg.hardy_column_norm(fractional_integral(a, alpha, coeffs), u)
            rhs = (
                2.0 ** (1.0 - alpha)
                * math.sqrt(
                    mg.hardy_column_norm(iterated_transform(a, 2 * alpha, coeffs), 1.0 / (1.0 - 2 * alpha))
                )
                * math.sqrt(mg.hardy_column_norm(a, 1.0))
            )
            worst_hardy = min(worst_hardy, rhs - lhs)
            if lhs > rhs + HARD_SLACK:
                report.failures.append(
                    {"check": "double_order_hardy_lemma", "grid": {"alpha": alpha},
                     "trial": ti, "seed": [cfg.seed, gi, ti], "detail": lhs - rhs}
                )
    report.summary["worst_slacks"] = {"singular_value": worst_mu, "double_order_hardy": worst_hardy}
    return report


def _hd_scalar(cfg, threads=1):
    tower = build_tower(cfg.tower)
    coeffs = _resolve_coeffs(tower, cfg.coeffs)
    pqs = cfg.pq_pairs or ((0.5, 1.0), (0.5, 0.75), (0.75, 1.0))
    _require(all(0 < p < q <= 1 for p, q in pqs), "hd-scalar needs 0 < p < q <= 1")
    levels = cfg.levels or tuple(range(1, tower.n_levels + 1))
    report = Report(cfg.experiment, cfg.to_json())
    worst = math.inf
    for gi, k in enumerate(levels):
        zeta = coeffs.values[k - 1]
        for ti in range(cfg.trials):
            rng = trial_rng(cfg.seed, gi, ti)
            a = tower.conditional_expectation(k, tower.random_element(rng))
            s = singular_value_function(tower, a)
            for p, q in pqs:
                gamma = 1.0 / p - 1.0 / q
                np_norm = lp_norm(s, p)
                if np_norm < 1e-13:
                    continue
                # samples normalized in L_p; the claim is scale-invariant then
                nq = lp_norm(s, q) / np_norm
                slack = 1.0 - zeta ** (gamma * q) * nq**q
                worst = min(worst, slack)
                if slack < -HARD_SLACK:
                    report.failures.append(
                        {"check": "hd_scalar", "grid": {"level": k, "p": p, "q": q},
                         "trial": ti, "seed": [cfg.seed, gi, ti], "detail": slack}
                    )
    report.summary["worst_slack"] = worst
    return report


def _example(cfg, threads=1):
    report = Report(cfg.experiment, cfg.to_json())
    tol = 1e-9
    agree_tol = 1e-10
    rows = []
    for n in range(1, cfg.extremal_n_max + 1):
        row = {"n": n}
        per_kind = {}
        for kind in ("classical", "noncommutative"):
            tower, mart, coeffs = extremal_example(n, kind)
            f = mart.final
            s = singular_value_function(tower, f)
            vals = {"l1": lp_norm(s, 1.0)}
            for eps in (0.25, 0.5):
                vals[f"lr_eps{eps:g}"] = lp_norm(s, (4.0 - eps) / 3.0)
            centered = centered_martingale(mart)
            half = fractional_integral(centered, 0.5, coeffs).final
            quarter = fractional_integral(centered, 0.25, coeffs).final
            vals["half_l2"] = lp_norm(singular_value_function(tower, half), 2.0)
            vals["quarter_l2_sq"] = lp_norm(singular_value_function(tower, quarter), 2.0) ** 2
            per_kind[kind] = vals
        expected = {"l1": 1.0, "half_l2": math.sqrt(n / 2.0),
                    "quarter_l2_sq": (2.0 ** (n / 2.0) - 1.0) / (2.0 - math.sqrt(2.0))}
        for eps in (0.25, 0.5):
            expected[f"lr_eps{eps:g}"] = 2.0 ** (((1.0 - eps) / (4.0 - eps)) * n)
        for key, want in expected.items():
            for kind, vals in per_kind.items():
                if abs(vals[key] - want) > tol:
                    report.failures.append(
                        {"check": f"example_{key}", "grid": {"n": n, "kind": kind},
                         "trial": 0, "seed": [cfg.seed], "detail": vals[key] - want}
                    )
            if abs(per_kind["classical"][key] - per_kind["noncommutative"][key]) > agree_tol:
                report.failures.append(
                    {"check": f"example_agreement_{key}", "grid": {"n": n}, "trial": 0,
                     "seed": [cfg.seed],
                     "detail": per_kind["classical"][key] - per_kind["noncommutative"][key]}
                )
        row.update({k: per_kind["classical"][k] for k in expected})
        row.update({f"expected_{k}": v for k, v in expected.items()})
        rows.append(row)
    report.summary["family"] = rows
    return report


def _atom_map(cfg, threads=1):
    tower = build_tower(cfg.tower)
    coeffs = _resolve_coeffs(tower, cfg.coeffs)
    pqs = cfg.pq_pairs or ((0.5, 1.0), (2.0 / 3.0, 1.0), (0.5, 4.0 / 3.0))
    _require(all(0 < p < 1 and p < q < 2 for p, q in pqs), "atom-map needs 0<p<1, p<q<2")
    report = Report(cfg.experiment, cfg.to_json())
    if tower.n_levels < 2:
        raise ConfigError("atom-map needs a tower with at least two levels")
    for gi, (p, q) in enumerate(pqs):
        consts = []
        for ti in range(cfg.trials):
            rng = trial_rng(cfg.seed, gi, ti)
            n = int(rng.integers(1, tower.n_levels))
            deep = int(rng.integers(n + 1, tower.n_levels + 1))
            max_rank = tower._sub_dims[n] if tower.spec.kind == "tensor" else 1 << n
            rank = int(rng.integers(1, max_rank + 1))
            e = _diagonal_level_projection(tower, n, rank, rng)
            a = mg.make_atom(tower, rng, n, e, deep, p)
            c = mg.atom_constant(tower, a, n, e, p, q, coeffs)
            rec = {"grid": gi, "trial": ti, "p": p, "q": q, "level": n, "deep": deep,
                   "rank": rank, "trace_e": tower.trace(e).real, "constant": c}
            report.trials.append(rec)
            consts.append(c)
            if not math.isfinite(c):
                report.failures.append(
                    {"check": "atom_constant_finite", "grid": {"p": p, "q": q},
                     "trial": ti, "seed": [cfg.seed, gi, ti], "detail": c}
                )
        arr = np.asarray(consts)
        report.summary[f"grid_{gi}"] = {
            "point": [p, q], "max": float(arr.max()), "mean": float(arr.mean()),
            "n_used": int(arr.size),
        }
    return report


def _diagonal_level_projection(tower, n, rank, rng):
    """Random diagonal projection of the given rank inside level ``n``."""
    if tower.spec.kind == "tensor":
        sub = tower._sub_dims[n]
        rest = tower.dim // sub
        sel = rng.choice(sub, size=rank, replace=False)
        diag = np.zeros(sub)
        diag[sel] = 1.0
        return np.diag(np.repeat(diag, rest).astype(complex))
    block = tower._block_size(n)
    atoms = tower.dim // block
    sel = rng.choice(atoms, size=rank, replace=False)
    diag = np.zeros(atoms)
    diag[sel] = 1.0
    return np.diag(np.repeat(diag, block).astype(complex))


EXPERIMENTS = {
    "weak-type": _weak_type,
    "lp-lq": _lp_lq,
    "hardy-column": _hardy_column,
    "l1a-to-bmo": _l1a_to_bmo,
    "lorentz-uniform": _lorentz_uniform,
    "h1-to-bmo": _h1_to_bmo,
    "embedding-lemmas": _embedding_lemmas,
    "singular-value-lemma": _singular_value_lemma,
    "hd-scalar": _hd_scalar,
    "example": _example,
    "atom-map": _atom_map,
}


def run_ratio_experiment(cfg: ExperimentConfig, threads=1) -> Report:
    """Run one named experiment; failures are collected, not raised."""
    try:
        fn = EXPERIMENTS[cfg.experiment]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    start = time.perf_counter()
    report = fn(cfg, threads=threads)
    report.wall_time = time.perf_counter() - start
    return report
