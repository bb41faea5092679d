import csv
import json
import math

import numpy as np
import pytest

import ncmart.martingale as mg
from ncmart.algebra import FiltrationSpec
from ncmart.harness import (
    ConfigError,
    ExperimentConfig,
    Report,
    _summary_stats,
    centered_martingale,
    emit_report,
    extremal_example,
    random_martingale,
    run_ratio_experiment,
    trial_rng,
)

TOWER = FiltrationSpec.tensor([2, 2, 2]).to_json()
EXPERIMENT_NAMES = [
    "weak-type", "lp-lq", "hardy-column", "l1a-to-bmo", "lorentz-uniform",
    "h1-to-bmo", "embedding-lemmas", "singular-value-lemma", "hd-scalar",
    "example", "atom-map",
]


def _cfg(experiment, **kw):
    base = {"experiment": experiment, "tower": TOWER, "trials": 12, "seed": 5}
    base.update(kw)
    return ExperimentConfig.from_json(base)


# ---------------------------------------------------------------------------
# configuration and reports


def test_config_roundtrip():
    cfg = _cfg("weak-type", alphas=[0.5], extremal_n_max=3)
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_rejects_garbage():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"experiment": "weak-type"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            {"experiment": "weak-type", "tower": {"kind": "moebius"}}
        )
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(
            {"experiment": "weak-type", "tower": TOWER, "trials": "many"}
        )
    # a run that would check nothing
    with pytest.raises(ConfigError):
        _cfg("weak-type", trials=0)
    with pytest.raises(ConfigError):
        _cfg("example", extremal_n_max=0)


def test_unknown_experiment():
    with pytest.raises(ConfigError):
        run_ratio_experiment(_cfg("nonsense"))


def test_bad_grid_rejected(custom4):
    with pytest.raises(ConfigError):
        run_ratio_experiment(_cfg("weak-type", alphas=[1.5]))
    with pytest.raises(ConfigError):
        run_ratio_experiment(_cfg("lp-lq", pq_pairs=[[4, 2]]))
    with pytest.raises(ConfigError):
        run_ratio_experiment(_cfg("hd-scalar", pq_pairs=[[0.5, 2.0]]))
    # levels outside 1..n_levels of the three-level tower
    with pytest.raises(ConfigError):
        run_ratio_experiment(_cfg("hd-scalar", levels=[4]))
    with pytest.raises(ConfigError):
        run_ratio_experiment(_cfg("embedding-lemmas", levels=[0]))
    # atoms are drawn from diagonal level projections, which custom towers lack
    with pytest.raises(ConfigError):
        run_ratio_experiment(_cfg("atom-map", tower=custom4.spec.to_json()))


def test_report_roundtrip(tmp_path):
    r = run_ratio_experiment(_cfg("weak-type", extremal_n_max=2))
    obj = json.loads(emit_report(r, "json"))
    again = Report.from_json(obj)
    assert again.to_json() == r.to_json()
    path = tmp_path / "r.json"
    emit_report(r, "json", str(path))
    assert json.loads(path.read_text())["experiment"] == "weak-type"


def test_report_csv(tmp_path):
    r = run_ratio_experiment(_cfg("lp-lq", extremal_n_max=2))
    path = tmp_path / "r.csv"
    emit_report(r, "csv", str(path))
    rows = list(csv.DictReader(path.open()))
    assert rows and all(row["experiment"] == "lp-lq" for row in rows)
    with pytest.raises(ConfigError):
        emit_report(r, "yaml", str(path))


def test_summary_stats_excludes_sentinels():
    stats = _summary_stats([None, 1.0, 2.0, None])
    assert stats["n_used"] == 2
    assert stats["max"] == 2.0
    assert _summary_stats([None]) == {"n_used": 0}


# ---------------------------------------------------------------------------
# sampling


@pytest.fixture(params=["tensor222", "abelian3"])
def any_tower(request):
    return request.getfixturevalue(request.param)


def test_gaussian_profile_adapted(any_tower):
    t = any_tower
    m = random_martingale(t, "gaussian", trial_rng(0, 1))
    assert len(m) == t.n_levels
    for k, dx in enumerate(m.differences, start=1):
        assert t.norm2(t.project_difference(k, dx) - dx) < 1e-9


def test_positive_profile_normalized(any_tower):
    t = any_tower
    m = random_martingale(t, "positive_l1", trial_rng(0, 2))
    x = t._dense(m.final)
    assert abs(t.trace(x).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(x).min() > -1e-10


def test_single_difference_profile(any_tower):
    t = any_tower
    m = random_martingale(t, "single:2", trial_rng(0, 3))
    assert t.norm2(m.differences[0]) == 0
    dx = m.differences[1]
    assert t.norm2(t.project_difference(2, dx) - dx) < 1e-9


def test_unknown_profile(tensor222):
    with pytest.raises(ConfigError):
        random_martingale(tensor222, "bogus", trial_rng(0))


def test_profile_replay(any_tower):
    a = random_martingale(any_tower, "gaussian", trial_rng(9, 0))
    b = random_martingale(any_tower, "gaussian", trial_rng(9, 0))
    for x, y in zip(a.differences, b.differences):
        assert np.array_equal(x, y)


def test_centered_martingale(any_tower):
    t = any_tower
    m = random_martingale(t, "positive_l1", trial_rng(1, 1))
    c = centered_martingale(m)
    assert abs(t.trace(c.final)) < 1e-12
    diff = t._dense(m.final) - t._dense(c.final)
    assert t.norm2(diff - np.eye(t.dim) * t.trace(m.final)) < 1e-10


# ---------------------------------------------------------------------------
# extremal family


def test_extremal_example_structure():
    for n in (1, 4):
        for kind in ("classical", "noncommutative"):
            tower, m, coeffs = extremal_example(n, kind)
            assert tower.n_levels == n
            assert coeffs.values == tuple(2.0**-k for k in range(1, n + 1))
            # partial sums are scaled first-atom indicators
            for k in range(1, n + 1):
                fk = tower._dense(m.partial_sum(k))
                assert fk[0, 0] == pytest.approx(2.0**k, rel=1e-12)
    with pytest.raises(ConfigError):
        extremal_example(0)
    with pytest.raises(ConfigError):
        extremal_example(2, "weird")


def test_extremal_example_weak_witness():
    """Strong (1,2) failure witness: the L2/L1 ratio grows like sqrt(n/2)."""
    from ncmart.fractional import fractional_integral
    from ncmart.spectral import lp_norm, singular_value_function

    prev = 0.0
    for n in (1, 2, 3, 5):
        tower, m, coeffs = extremal_example(n)
        y = fractional_integral(centered_martingale(m), 0.5, coeffs).final
        ratio = lp_norm(singular_value_function(tower, y), 2.0)
        assert ratio == pytest.approx(math.sqrt(n / 2), abs=1e-9)
        assert ratio > prev
        prev = ratio


# ---------------------------------------------------------------------------
# experiments


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_experiment_smoke(name):
    r = run_ratio_experiment(_cfg(name, extremal_n_max=3))
    assert r.passed, r.failures[:3]
    assert r.experiment == name
    assert r.wall_time > 0
    assert r.summary


def test_experiments_on_abelian_tower():
    tower = FiltrationSpec.abelian_dyadic(3).to_json()
    for name in ("weak-type", "embedding-lemmas", "example", "atom-map"):
        cfg = ExperimentConfig.from_json(
            {"experiment": name, "tower": tower, "trials": 8, "seed": 3,
             "extremal_n_max": 2}
        )
        r = run_ratio_experiment(cfg)
        assert r.passed, (name, r.failures[:3])


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_determinism_serial_vs_threads(name):
    cfg = _cfg(name, tower=FiltrationSpec.tensor([2, 2]).to_json(), trials=16, extremal_n_max=2)
    a = run_ratio_experiment(cfg).to_json()
    b = run_ratio_experiment(cfg, threads=3).to_json()
    a.pop("wall_time"), b.pop("wall_time")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_embedding_worst_slacks_include_failures():
    """Coefficients of 1 overstate every subspace constant, so the embedding
    checks fail; each check's worst slack is still its most negative trial,
    and each failing check is recorded once per trial."""
    r = run_ratio_experiment(_cfg("embedding-lemmas", trials=6, coeffs=[1, 1, 1]))
    by_check = {}
    for f in r.failures:
        by_check.setdefault(f["check"], []).append(f)
    assert {"basic_i", "basic_ii", "embed_inf2"} <= set(by_check)
    for name, fails in by_check.items():
        assert r.summary["worst_slacks"][name] == min(f["detail"] for f in fails)
    for name in ("basic_i", "basic_ii", "embed_inf2", "embed_21"):
        cases = [(f["grid"]["level"], f["trial"]) for f in by_check.get(name, ())]
        assert len(set(cases)) == len(cases)


def test_ratio_records_have_repro_seeds():
    r = run_ratio_experiment(_cfg("weak-type", trials=4, extremal_n_max=2))
    rec = r.trials[0]
    assert {"grid", "trial", "numerator", "denominator", "ratio"} <= set(rec)


def test_atom_map_reports_ranks():
    r = run_ratio_experiment(_cfg("atom-map", trials=20))
    ranks = {rec["rank"] for rec in r.trials}
    assert len(ranks) > 1
    for rec in r.trials:
        assert math.isfinite(rec["constant"]) and rec["constant"] > 0
