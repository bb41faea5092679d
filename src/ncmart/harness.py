"""Experiment harness: sampling, the experiment runner and reports.

Every experiment turns an :class:`ExperimentConfig` into a :class:`Report`;
all but ``example`` are :class:`Experiment` declarations run by one loop.
Per-trial randomness derives from ``(seed, grid_index, trial_index)``.  Ratio
trials are sampled ``CHUNK`` at a time, each level of a chunk projected
with one basis product, and the chunks do not depend on the thread count, so
serial and threaded runs produce identical reports.  Hard per-operator
inequalities are asserted (violations land in ``failures`` with a
reproduction seed); theorem-level bounds only report their empirical constants.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import martingale as mg
from .algebra import FiltrationSpec, Tower, TowerError, _integer, build_tower
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
# Sub-streams of the companion trials: h1-to-bmo's column variant and
# embedding-lemmas' pair checks, seeded ``(seed, stream, trial)``.
COLUMN_STREAM = 10_000
PAIR_STREAM = 20_000
# Tasks of a run sampled together: each level's expectation of a chunk of
# ratio trials is one basis product (random_martingale).
CHUNK = 8


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """The inputs of one run.  Each field's reader in ``_CONFIG_FIELDS`` converts and checks
    its constructor argument, and ``ConfigError`` names a field that it rejects."""

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
        for name, (read, _) in _CONFIG_FIELDS.items():
            try:
                object.__setattr__(self, name, read(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {name}: {exc}") from exc

    @staticmethod
    def from_json(obj) -> "ExperimentConfig":
        """A config from its JSON form; missing keys take their defaults, unknown keys fail."""
        unknown = sorted(set(obj) - _CONFIG_FIELDS.keys())
        if unknown or "experiment" not in obj:
            raise ConfigError(f"unknown keys {unknown}" if unknown else "no experiment")
        try:
            tower = FiltrationSpec.from_json(obj.get("tower"))
        except (KeyError, TypeError, TowerError) as exc:
            raise ConfigError(f"bad tower: {exc}") from exc
        return ExperimentConfig(**{**obj, "tower": tower})

    def to_json(self):
        return {name: write(getattr(self, name)) for name, (_, write) in _CONFIG_FIELDS.items()}


def _filtration_spec(value):
    if not isinstance(value, FiltrationSpec):
        raise TypeError(f"expected a FiltrationSpec, got {value!r}")
    return value


def _coefficient_source(value):
    if isinstance(value, str) and value != "auto":
        raise ValueError(f'expected "auto" or numbers, got {value!r}')
    return value if isinstance(value, str) else CoefficientSequence(value, "user").values


def _profile(value):
    if not re.fullmatch("gaussian|positive_l1|single:[1-9][0-9]*", value):
        raise ValueError(f"expected gaussian, positive_l1 or single:k with k >= 1, got {value!r}")
    return value


# Each ExperimentConfig field: (read, write to JSON).
_CONFIG_FIELDS = {
    "experiment": (str, str),
    "tower": (_filtration_spec, FiltrationSpec.to_json),
    "trials": (lambda v: _integer(v, "trials", 1), int),
    "seed": (lambda v: _integer(v, "seed", 0), int),
    "alphas": (lambda v: tuple(float(a) for a in v), list),
    "pq_pairs": (lambda v: tuple((float(p), float(q)) for p, q in v),
                 lambda v: [list(pq) for pq in v]),
    "levels": (lambda v: tuple(_integer(k, "each level", 1) for k in v), list),
    "extremal_n_max": (lambda v: _integer(v, "extremal_n_max", 1), int),
    "profile": (_profile, str),
    "coeffs": (_coefficient_source, lambda v: v if isinstance(v, str) else list(v)),
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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json(obj) -> "Report":
        return Report(**{f.name: obj[f.name] for f in fields(Report)})


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
            rows.append({"experiment": report.experiment, "grid": key,
                         **{k: v for k, v in stats.items() if np.isscalar(v)}})
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
    return np.random.default_rng([seed, *indices])


def random_martingale(tower: Tower, profile, rngs) -> list:
    """One sampled martingale per generator of ``rngs``: Gaussian
    differences, a normalized positive final value, or a single difference
    at a given level.

    Each generator draws what it would draw alone, in the same order; the
    same generator may appear more than once and then draws for each place
    in turn.  Each level is then projected once over the whole stack
    (``mg.level_differences``): ``gaussian`` projects its ``k``-th Gaussian
    element onto each ``D_k``, level ``k`` taking ``E_k`` of elements ``k``
    and ``k + 1`` of every trial together; ``positive_l1`` adapts the stack
    of trace-one positive operators; ``single:k`` has ``k`` differences, zero
    but the last.  Diagonal elements take no basis product: their
    expectations are block means, over the whole stack at once.
    ``ArithmeticError`` if some ``positive_l1`` draw fails.
    """
    n = tower.n_levels
    if profile == "gaussian":
        diffs = None
        for i, rng in enumerate(rngs):
            for k in range(n):
                g = tower.random_element(rng)
                if diffs is None:
                    diffs = np.empty((len(rngs), n) + g.shape, dtype=complex)
                diffs[i, k] = g
        # each level reads its Gaussian elements before it overwrites them
        mg.level_differences(tower, diffs, diffs)
    elif profile == "positive_l1":
        x = np.stack([_positive_l1(tower, rng) for rng in rngs])
        diffs = np.empty((len(x), n) + x.shape[1:], dtype=complex)
        mg.level_differences(tower, x[:, None], diffs)
    elif profile.startswith("single:"):
        k = int(profile.split(":", 1)[1])
        g = np.stack([tower.random_element(rng) for rng in rngs])
        dx = (tower.project_difference(k, g) if g.ndim == 3
              else np.stack([tower.project_difference(k, x) for x in g]))
        diffs = np.zeros((len(dx), k) + dx.shape[1:], dtype=complex)
        diffs[:, k - 1] = dx
    else:
        raise ConfigError(f"unknown martingale profile {profile!r}")
    return [mg.MartingaleSequence(tower, d) for d in diffs]


def _positive_l1(tower, rng):
    """A positive operator of trace one, ``g g^*`` normalized for a Gaussian ``g``."""
    for _ in range(16):
        g = tower.random_element(rng)
        x = np.abs(g) ** 2 + 0j if g.ndim == 1 else g @ g.conj().T
        tr = tower.trace(x).real
        if tr > 1e-9:
            return x / tr
    raise ArithmeticError("could not draw a positive trace-one operator")


def centered_martingale(mart: mg.MartingaleSequence) -> mg.MartingaleSequence:
    """Martingale of the mean-zero part of the final value.

    The classical dyadic filtration starts at the trivial sigma-algebra, so
    its fractional integral annihilates constants; with our towers (first
    expectation is zero, identity sits inside the first difference space)
    that corresponds to transforming ``x - tau(x) 1``.

    Since ``1`` lies in the first level, ``E_1 1 = 1`` and ``E_k 1 - E_{k-1} 1
    = 0`` for ``k >= 2``: ``adapt(x - tau(x) 1)`` is ``mart`` with ``tau(x) 1``
    taken from ``dx_1``, which is how it is formed here.  ``mart`` must
    therefore be adapted, as every martingale that ncmart builds is.
    """
    diffs = mart.differences.copy()
    mean = mart.tower.trace(mart.final)
    # dx_1, or a view of its diagonal: the subtraction writes into diffs
    first = diffs[0] if diffs.ndim == 2 else diffs[0].reshape(-1)[:: mart.tower.dim + 1]
    first -= mean
    return mg.MartingaleSequence(mart.tower, diffs)


# Depths up to log2 of this realize the noncommutative family as a dense
# operator, so it exercises the dense expectations; deeper ones are diagonal.
DENSE_EXTREMAL_LIMIT = 64


def extremal_example(n, kind="classical"):
    """The scaled-indicator extremal family on a dyadic tower of depth n.

    ``classical`` realizes it as a diagonal step function on the abelian
    tower, ``noncommutative`` as ``2^n e_11`` in the 2x2 tensor tower up to
    ``DENSE_EXTREMAL_LIMIT`` and as the classical one beyond.  Both use
    coefficients ``2^-k``.  Dense realizations are adapted once per tower and
    shared, read-only; diagonal ones are block means, made afresh each call.
    """
    if n < 1:
        raise ConfigError("extremal example needs n >= 1")
    if kind not in ("classical", "noncommutative"):
        raise ConfigError(f"unknown extremal kind {kind!r}")
    coeffs = CoefficientSequence(tuple(2.0**-k for k in range(1, n + 1)), "user")
    if kind == "noncommutative" and 2**n <= DENSE_EXTREMAL_LIMIT:
        tower = build_tower(FiltrationSpec.tensor((2,) * n))
        return tower, _dense_extremal(tower), coeffs
    tower = build_tower(FiltrationSpec.abelian_dyadic(n))
    f = np.zeros(tower.dim, dtype=complex)
    f[0] = 2.0**n
    return tower, mg.adapt(tower, f), coeffs


@lru_cache(maxsize=DENSE_EXTREMAL_LIMIT.bit_length() - 1)  # one per dense depth
def _dense_extremal(tower):
    """The dense noncommutative realization on ``tower``, ``2^n e_11``, adapted."""
    f = np.zeros((tower.dim, tower.dim), dtype=complex)
    f[0, 0] = 2.0**tower.n_levels
    mart = mg.adapt(tower, f)
    mart.differences.setflags(write=False)
    return mart


# ---------------------------------------------------------------------------
# experiment runner


def _resolve_coeffs(tower, source) -> CoefficientSequence:
    """The coefficient sequence of a run: one coefficient per tower level."""
    coeffs = zeta_sequence(tower) if source == "auto" else CoefficientSequence(source, "user")
    if len(coeffs) < tower.n_levels:
        raise ConfigError(f"{len(coeffs)} coefficients for a tower of {tower.n_levels} levels")
    return coeffs


def _summary_stats(ratios):
    arr = np.asarray([r for r in ratios if r is not None], dtype=float)
    if arr.size == 0:
        return {"n_used": 0}
    first_half_max = float(np.max(arr[: max(arr.size // 2, 1)]))
    overall = float(np.max(arr))
    ranked = np.sort(arr)
    return {
        "n_used": int(arr.size),
        "max": overall,
        "mean": float(np.mean(arr)),
        "q50": _quantile(ranked, 0.5),
        "q90": _quantile(ranked, 0.9),
        "first_half_max": first_half_max,
        "stability": overall / first_half_max if first_half_max > 0 else math.inf,
    }


def _quantile(ranked, q):
    """``np.quantile(ranked, q)`` of a sorted array, by numpy's arithmetic for
    its ``linear`` method, without the ``numpy.ma`` import that its first
    call makes."""
    n = len(ranked)
    if math.isnan(ranked[-1]):  # NaN sorts last
        return math.nan
    v = (n - 1) * q
    if v >= n - 1:  # numpy weighs the last element against itself, by v + 1
        a = b = float(ranked[-1])
        t = v + 1
    else:
        lo = math.floor(v)
        t = v - lo
        a, b = float(ranked[lo]), float(ranked[lo + 1])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _failure(check, grid, trial, seed, detail):
    """The failure record: the check, where it failed and how to replay it."""
    return {"check": check, "grid": grid, "trial": trial, "seed": seed, "detail": detail}


def _coords(point):
    return list(point) if isinstance(point, tuple) else [point]


# Points from ``cfg.<field>``, or from ``default`` (points, or a function of
# the tower) when that is empty; each must pass ``valid(point, tower)``.
Grid = namedtuple("Grid", "field default valid message")
# What a trial sees; ``points`` holds every grid's points by config field.
Run = namedtuple("Run", "cfg tower coeffs points")
# One trial: values by name (worst slacks, or the ratio), failures as
# ``(check, grid, detail)``, and the fields of its ``trials`` record, if kept.
Outcome = namedtuple("Outcome", "values failures record", defaults=((), None))


@dataclass(frozen=True)
class Experiment:
    """A ``verify`` experiment as data; calling it runs it.

    Each point of ``grids[0]`` (one point ``()`` without grids) gets
    ``cfg.trials`` trials seeded ``(seed, grid_index, trial)``; a companion
    ``(stream, count, trial)`` adds ``count(cfg.trials)`` trials at ``()``
    seeded ``(seed, stream, trial)``.  A ratio experiment names a martingale
    ``profile`` (``"config"``: the config's) and its trials are ratios
    ``trial(point, x, src, coeffs) -> (num, den)`` with ``src = x``, which
    the extremal family reuses on centred martingales: ``extremal(run)``
    names them.  Other trials are ``trial(run, point, rng) -> Outcome``.
    ``summary(run, report, values)`` returns the experiment's own entries.

    The task list is walked in chunks of ``CHUNK``; the martingales of a
    chunk's ratio trials come from one ``random_martingale`` call, made on
    the calling thread.  With ``threads > 1`` a chunk's trials are handed to
    the workers and the next chunk is sampled meanwhile.  If a chunk's draw
    fails, its trials are drawn one by one, and a trial whose own draw fails
    becomes a ``trial_error``.
    """

    grids: tuple
    trial: object
    profile: str = None
    extremal: object = None
    companions: tuple = ()
    summary: object = lambda run, report, values: {}

    def __call__(self, cfg, threads=1):
        tower = build_tower(cfg.tower)
        points = {}
        for g in self.grids:
            resolved = getattr(cfg, g.field) or g.default
            points[g.field] = resolved(tower) if callable(resolved) else resolved
            if not all(g.valid(p, tower) for p in points[g.field]):
                raise ConfigError(g.message)
        profile = cfg.profile if self.profile == "config" else self.profile
        if (self.profile == "config" and profile.startswith("single:")
                and int(profile[len("single:"):]) > tower.n_levels):
            raise ConfigError(f"bad profile: {profile} is deeper than the tower's "
                              f"{tower.n_levels} levels")
        run = Run(cfg, tower, _resolve_coeffs(tower, cfg.coeffs), points)
        grid = points[self.grids[0].field] if self.grids else ((),)
        tasks = [(gi, p, ti, self.trial) for gi, p in enumerate(grid) for ti in range(cfg.trials)]
        tasks += [(stream, (), ti, trial) for stream, count, trial in self.companions
                  for ti in range(count(cfg.trials))]

        def rngs(chunk):
            return [trial_rng(cfg.seed, stream, ti) for stream, _, ti, _ in chunk]

        def sample(chunk):
            """The martingales of a chunk of ratio trials, or the error of a
            trial whose draw fails: a failing chunk is drawn trial by trial."""
            try:
                return random_martingale(tower, profile, rngs(chunk))
            except ArithmeticError:
                return [_sample_alone(tower, profile, rng) for rng in rngs(chunk)]

        def one(task, x):
            stream, point, ti, trial = task
            if self.profile is None:
                return trial(run, point, trial_rng(cfg.seed, stream, ti))
            try:  # an arithmetic failure in a ratio trial is recorded, not raised
                if isinstance(x, ArithmeticError):
                    raise x
                num, den = trial(point, x, x, run.coeffs)
            except ArithmeticError as exc:
                return Outcome({}, [("trial_error", _coords(point), str(exc))], {"error": str(exc)})
            ratio = None if den < DENOMINATOR_FLOOR else num / den
            bad = ratio is not None and not math.isfinite(ratio)
            failures = [("ratio_not_finite", _coords(point), ratio)] if bad else []
            return Outcome({stream: ratio}, failures,
                           {"numerator": num, "denominator": den, "ratio": ratio})

        def start(chunk, pool):
            # a chunk's martingales are released once its trials have run
            xs = [None] * len(chunk) if self.profile is None else sample(chunk)
            return [pool.submit(one, task, x) if threads > 1 else one(task, x)
                    for task, x in zip(chunk, xs)]

        # Chunks are sampled in order on this thread; with workers, a chunk's
        # trials are evaluated while the next chunk is sampled.
        with ThreadPoolExecutor(max_workers=threads) as pool:  # no thread starts unless used
            pending = [p for i in range(0, len(tasks), CHUNK)
                       for p in start(tasks[i:i + CHUNK], pool)]
            outcomes = [p.result() for p in pending] if threads > 1 else pending

        report = Report(cfg.experiment, cfg.to_json())
        values = {}
        for (stream, _, ti, _), out in zip(tasks, outcomes):
            if out.record is not None and stream < len(grid):
                report.trials.append({"grid": stream, "trial": ti, **out.record})
            for name, value in out.values.items():
                values.setdefault(name, []).append(value)
            report.failures += [_failure(check, where, ti, [cfg.seed, stream, ti], detail)
                                for check, where, detail in out.failures]
        if self.profile is not None:
            for gi, point in enumerate(grid):
                report.summary[f"grid_{gi}"] = {**_summary_stats(values.get(gi, ())),
                                                "point": _coords(point)}
        if self.extremal is not None:
            spec = self.extremal(run)
            report.summary["extremal_family"] = [
                {"n": n, **{kind: _extremal_row(spec, *extremal_example(n, kind))
                            for kind in ("classical", "noncommutative")}}
                for n in range(1, cfg.extremal_n_max + 1)
            ]
        report.summary.update(self.summary(run, report, values))
        return report


def _sample_alone(tower, profile, rng):
    """The martingale of one trial drawn by itself, or the error of its draw."""
    try:
        return random_martingale(tower, profile, [rng])[0]
    except ArithmeticError as exc:
        return exc


def _extremal_row(spec, tower, mart, coeffs):
    """Ratios ``(trial, point)`` of one extremal realization and its centred martingale."""
    centered = centered_martingale(mart)

    def value(ratio, point):
        num, den = ratio(point, mart, centered, coeffs)
        return num / den

    return {k: value(*v) for k, v in spec.items()} if isinstance(spec, dict) else value(*spec)


def _weak_ratio(alpha, x, src, coeffs):
    y = fractional_integral(src, alpha, coeffs).final
    return (weak_norm(singular_value_function(x.tower, y), 1.0 / (1.0 - alpha)),
            lp_norm(singular_value_function(x.tower, x.final), 1.0))


def _lp_lq_ratio(pq, x, src, coeffs):
    p, q = pq
    y = fractional_integral(src, 1.0 / p - 1.0 / q, coeffs).final
    return (lp_norm(singular_value_function(x.tower, y), q),
            lp_norm(singular_value_function(x.tower, x.final), p))


def _hardy_ratio(alpha, x, src, coeffs):
    y = fractional_integral(src, alpha, coeffs)
    return mg.hardy_column_norm(y, 1.0 / (1.0 - alpha)), mg.hardy_column_norm(x, 1.0)


def _bmo_ratio(alpha, x, src, coeffs):
    return (mg.bmo_norm(fractional_integral(src, alpha, coeffs)),
            lp_norm(singular_value_function(x.tower, x.final), 1.0 / alpha))


def _lorentz_ratio(alpha, x, src, coeffs):
    return (operator_norm(fractional_integral(src, alpha, coeffs).final),
            lorentz_norm(singular_value_function(x.tower, x.final), 1.0 / alpha, 1.0))


def _h1_ratio(point, x, src, coeffs):
    return mg.bmo_norm(iterated_transform(src, 1.0, coeffs)), mg.hardy_mixed_upper(x, 1.0)[0]


def _h1_column_ratio(point, x, src, coeffs):
    """Exact-column bracketing companion: the same transform, column norms only."""
    return mg.bmo_column_norm(iterated_transform(src, 1.0, coeffs)), mg.hardy_column_norm(x, 1.0)


def _embedding_trial(run, k, rng):
    tower, zeta = run.tower, run.coeffs.values[k - 1]
    s = singular_value_function(tower, tower.project_difference(k, tower.random_element(rng)))
    alphas, ps = run.points["alphas"], (1.1, 1.25, 1.5, 1.75)
    n1, n2, *norms = lp_norm(s, [1.0, 2.0, *(1.0 / (1.0 - a) for a in alphas), *ps]).tolist()
    ninf = s.values[0]
    if n2 < 1e-13:
        return Outcome({})
    worst = {
        "basic_i": min(2.0**a * n1 - zeta**a * n for a, n in zip(alphas, norms)),
        "basic_ii": min(n - zeta ** (1.0 / p - 0.5) * n2
                        for p, n in zip(ps, norms[len(alphas):])),
        "embed_inf2": zeta**-0.5 * n2 - ninf,
        "embed_21": 2 * zeta**-0.5 * n1 - n2,
    }
    return Outcome(worst, [(name, {"level": k}, v) for name, v in worst.items() if v < -HARD_SLACK])


def _pair_trial(run, point, rng):
    """Quasi-triangle distribution inequality and self-adjointness on a pair."""
    tower = run.tower
    x1, x2 = tower.random_element(rng), tower.random_element(rng)
    s12, s1, s2 = (singular_value_function(tower, x) for x in (x1 + x2, x1, x2))
    lams = np.concatenate([s12.values[s12.values > 0] * 0.999, [rng.uniform(0.1, 2.0)]])
    slacks = (2 * lams * (distribution(s1, lams / 2) + distribution(s2, lams / 2))
              - lams * distribution(s12, lams))
    failures = [("quasi_triangle", {"lambda": float(lams[i])}, float(slacks[i]))
                for i in np.flatnonzero(slacks < -HARD_SLACK)]
    pair = random_martingale(tower, "gaussian", [rng, rng])
    res = selfadjointness_check(*pair, 0.5, run.coeffs)
    if not res["ok"]:
        failures.append(("selfadjoint", {}, res["abs_error"]))
    worst = {"quasi_triangle": float(np.min(slacks)), "selfadjoint": res["abs_error"]}
    return Outcome(worst, failures)


def _embedding_summary(run, report, values):
    worst = {name: min(values.get(name, ()), default=None)
             for name in ("basic_i", "basic_ii", "embed_inf2", "embed_21", "quasi_triangle")}
    worst["selfadjoint"] = max([0.0, *values["selfadjoint"]])
    return {"worst_slacks": worst, **{
        f"level_{k}": embedding_constants_check(run.tower, k, run.coeffs, seed=run.cfg.seed,
                                                samples=min(run.cfg.trials, 200))
        for k in run.points["levels"]}}


def _singular_value_trial(run, alpha, rng):
    a, = random_martingale(run.tower, "gaussian", [rng])
    y1 = fractional_integral(a, alpha, run.coeffs)
    y2 = iterated_transform(a, 2 * alpha, run.coeffs)
    s_a, s_1, s_2 = (singular_value_function(run.tower, mg.column_square_function(m))
                     for m in (a, y1, y2))
    ts = np.concatenate([[0.0], s_1.cums[:-1],
                         (s_1.cums[:-1] + np.diff(s_1.cums, prepend=0)[:-1] / 2)])
    worst_mu, failures = math.inf, []
    for t in ts:
        lhs = s_1.value_at(t)
        rhs = math.sqrt(s_2.value_at(t / 2) * s_a.value_at(t / 2))
        worst_mu = min(worst_mu, rhs - lhs)
        if lhs > rhs + HARD_SLACK:
            failures.append(("singular_value_lemma", {"alpha": alpha, "t": float(t)}, lhs - rhs))
    lhs = mg.hardy_column_norm(y1, 1.0 / (1.0 - alpha))
    rhs = (2.0 ** (1.0 - alpha)
           * math.sqrt(mg.hardy_column_norm(y2, 1.0 / (1.0 - 2 * alpha)))
           * math.sqrt(mg.hardy_column_norm(a, 1.0)))
    if lhs > rhs + HARD_SLACK:
        failures.append(("double_order_hardy_lemma", {"alpha": alpha}, lhs - rhs))
    return Outcome({"singular_value": worst_mu, "double_order_hardy": rhs - lhs}, failures)


def _hd_scalar_trial(run, k, rng):
    tower, zeta = run.tower, run.coeffs.values[k - 1]
    s = singular_value_function(tower, tower.conditional_expectation(k, tower.random_element(rng)))
    pairs = run.points["pq_pairs"]
    norms = lp_norm(s, pairs).tolist()
    slacks = []
    for (p, q), (np_norm, nq_norm) in zip(pairs, norms):
        gamma = 1.0 / p - 1.0 / q
        if np_norm < 1e-13:
            continue
        # samples normalized in L_p; the claim is scale-invariant then
        nq = nq_norm / np_norm
        slacks.append(({"level": k, "p": p, "q": q}, 1.0 - zeta ** (gamma * q) * nq**q))
    return Outcome({"hd_scalar": min(v for _, v in slacks)} if slacks else {},
                   [("hd_scalar", where, v) for where, v in slacks if v < -HARD_SLACK])


def _atom_trial(run, pq, rng):
    tower = run.tower
    p, q = pq
    n = int(rng.integers(1, tower.n_levels))
    deep = int(rng.integers(n + 1, tower.n_levels + 1))
    atoms = tower.dim // tower._block_size(n)  # minimal diagonal projections of level n
    rank = int(rng.integers(1, atoms + 1))
    diag = np.zeros(atoms)
    diag[rng.choice(atoms, size=rank, replace=False)] = 1.0
    e = np.diag(np.repeat(diag, tower.dim // atoms).astype(complex))
    a = mg.make_atom(tower, rng, n, e, deep, p)
    c = mg.atom_constant(tower, a, n, e, p, q, run.coeffs)
    bad = [] if math.isfinite(c) else [("atom_constant_finite", {"p": p, "q": q}, c)]
    return Outcome({}, bad, {"p": p, "q": q, "level": n, "deep": deep, "rank": rank,
                             "trace_e": tower.trace(e).real, "constant": c})


def _atom_summary(run, report, values):
    out = {}
    for gi, pq in enumerate(run.points["pq_pairs"]):
        arr = np.asarray([r["constant"] for r in report.trials if r["grid"] == gi])
        out[f"grid_{gi}"] = {"point": list(pq), "max": float(arr.max()),
                             "mean": float(arr.mean()), "n_used": int(arr.size)}
    return out


def _example(cfg, threads=1):
    """The extremal-family identities, checked on both realizations."""
    report = Report(cfg.experiment, cfg.to_json())
    rows = []
    for n in range(1, cfg.extremal_n_max + 1):
        expected = {"l1": 1.0, "half_l2": math.sqrt(n / 2.0),
                    "quarter_l2_sq": (2.0 ** (n / 2.0) - 1.0) / (2.0 - math.sqrt(2.0)),
                    **{f"lr_eps{eps:g}": 2.0 ** (((1.0 - eps) / (4.0 - eps)) * n)
                       for eps in (0.25, 0.5)}}
        got = {kind: _example_norms(*extremal_example(n, kind))
               for kind in ("classical", "noncommutative")}
        for key, want in expected.items():
            checks = [(f"example_{key}", {"n": n, "kind": kind}, vals[key] - want, 1e-9)
                      for kind, vals in got.items()]
            gap = got["classical"][key] - got["noncommutative"][key]
            checks.append((f"example_agreement_{key}", {"n": n}, gap, 1e-10))
            report.failures += [_failure(check, where, 0, [cfg.seed], detail)
                                for check, where, detail, tol in checks if abs(detail) > tol]
        rows.append({"n": n, **{k: got["classical"][k] for k in expected},
                     **{f"expected_{k}": v for k, v in expected.items()}})
    report.summary["family"] = rows
    return report


def _example_norms(tower, mart, coeffs):
    s = singular_value_function(tower, mart.final)
    centered = centered_martingale(mart)
    half_l2, l1 = _lp_lq_ratio((1.0, 2.0), mart, centered, coeffs)
    quarter = fractional_integral(centered, 0.25, coeffs).final
    epss = (0.25, 0.5)
    lr = lp_norm(s, [(4.0 - eps) / 3.0 for eps in epss]).tolist()
    return {"l1": l1, "half_l2": half_l2,
            "quarter_l2_sq": lp_norm(singular_value_function(tower, quarter), 2.0) ** 2,
            **{f"lr_eps{eps:g}": n for eps, n in zip(epss, lr)}}


def _alpha_ratio(name, ratio, profile="gaussian", extremal=None):
    """A ratio experiment over alphas; its extremal row is its ratio at 1/2."""
    grid = Grid("alphas", (0.25, 0.5, 0.75), lambda a, tower: 0 < a < 1,
                f"{name} needs alphas in (0,1)")
    return Experiment((grid,), ratio, profile, extremal or (lambda run: (ratio, 0.5)))


LEVELS = Grid("levels", lambda tower: tuple(range(1, tower.n_levels + 1)),
              lambda k, tower: 1 <= k <= tower.n_levels, "levels must lie in 1..n_levels")


EXPERIMENTS = {
    "weak-type": _alpha_ratio(
        "weak-type", _weak_ratio, "config",
        lambda run: {"weak_ratio": (_weak_ratio, 0.5),
                     "strong_l2_over_l1": (_lp_lq_ratio, (1.0, 2.0))}),
    "lp-lq": Experiment(
        (Grid("pq_pairs", ((4.0 / 3.0, 4.0), (2.0, 4.0), (1.5, 3.0)),
              lambda pq, tower: 1 < pq[0] < pq[1], "lp-lq needs 1 < p < q"),),
        _lp_lq_ratio, "gaussian",
        lambda run: {f"p{p:g}_q{q:g}": (_lp_lq_ratio, (p, q))
                     for p, q in run.points["pq_pairs"]}),
    "hardy-column": _alpha_ratio("hardy-column", _hardy_ratio),
    "l1a-to-bmo": _alpha_ratio("l1a-to-bmo", _bmo_ratio),
    "lorentz-uniform": _alpha_ratio("lorentz-uniform", _lorentz_ratio),
    "h1-to-bmo": Experiment(
        (), _h1_ratio, "gaussian",
        companions=((COLUMN_STREAM, lambda trials: min(trials, 100), _h1_column_ratio),),
        summary=lambda run, report, values: {
            "column_variant": _summary_stats(values.get(COLUMN_STREAM, ()))}),
    "embedding-lemmas": Experiment(
        (LEVELS,
         Grid("alphas", tuple(a / 10.0 for a in range(1, 10)), lambda a, tower: 0 < a < 1,
              "embedding-lemmas needs alphas in (0,1)")),
        _embedding_trial, companions=((PAIR_STREAM, lambda trials: trials, _pair_trial),),
        summary=_embedding_summary),
    "singular-value-lemma": Experiment(
        (Grid("alphas", (0.1, 0.2, 0.3, 0.4), lambda a, tower: 0 < a < 0.5,
              "singular-value lemma needs alphas in (0, 1/2)"),),
        _singular_value_trial,
        summary=lambda run, report, values: {
            "worst_slacks": {name: min(v) for name, v in values.items()}}),
    "hd-scalar": Experiment(
        (LEVELS,
         Grid("pq_pairs", ((0.5, 1.0), (0.5, 0.75), (0.75, 1.0)),
              lambda pq, tower: 0 < pq[0] < pq[1] <= 1, "hd-scalar needs 0 < p < q <= 1")),
        _hd_scalar_trial,
        summary=lambda run, report, values: {
            "worst_slack": min(values.get("hd_scalar", ()), default=math.inf)}),
    "example": _example,
    "atom-map": Experiment(
        (Grid("pq_pairs", ((0.5, 1.0), (2.0 / 3.0, 1.0), (0.5, 4.0 / 3.0)),
              lambda pq, tower: (0 < pq[0] < 1 and pq[0] < pq[1] < 2 and tower.n_levels >= 2
                                 and tower.spec.kind != "custom"),
              "atom-map needs 0<p<1, p<q<2 and a tensor or abelian tower of two or more levels"),),
        _atom_trial, summary=_atom_summary),
}


def run_ratio_experiment(cfg: ExperimentConfig, threads=1) -> Report:
    """Run one named experiment; failures are collected, not raised."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from {sorted(EXPERIMENTS)}")
    try:
        threads = _integer(threads, "threads", 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    start = time.perf_counter()
    report = EXPERIMENTS[cfg.experiment](cfg, threads=threads)
    report.wall_time = time.perf_counter() - start
    return report
