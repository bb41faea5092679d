import csv
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import ncmart.harness as harness
import ncmart.martingale as mg
import ncmart.spectral as spectral
from ncmart.algebra import FiltrationSpec, Tower, build_tower
from ncmart.fractional import CoefficientSequence, zeta_sequence
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
    """Every field, each set away from its default, survives JSON."""
    cfg = ExperimentConfig(
        "hd-scalar", FiltrationSpec.parse("abelian:3"), trials=3, seed=9, alphas=(0.25, 0.5),
        pq_pairs=((1.5, 3.0),), levels=(1, 2), extremal_n_max=4, profile="gaussian",
        coeffs=(0.5, 0.25, 0.125))
    default = ExperimentConfig("lp-lq", FiltrationSpec.tensor([2, 2, 2]))
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
    assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


def test_config_missing_keys_take_the_defaults():
    obj = {"experiment": "lp-lq", "tower": TOWER}
    assert ExperimentConfig.from_json(obj) == ExperimentConfig(
        "lp-lq", FiltrationSpec.from_json(TOWER))


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


def test_coefficient_sequence_is_no_coefficient_source():
    """A config's coefficients are ``auto``, ``optimize`` or values, as its JSON
    form can hold; a ``CoefficientSequence`` fails where the config is built."""
    with pytest.raises(ConfigError, match="bad coeffs"):
        ExperimentConfig("lp-lq", FiltrationSpec.tensor([2, 2]),
                         coeffs=CoefficientSequence((0.5, 0.25), "user"))


def test_coefficient_array_runs_as_its_tuple():
    """A numpy array of coefficients runs exactly as the equal tuple does."""
    reports = []
    for coeffs in (np.array([0.5, 0.25]), (0.5, 0.25)):
        cfg = ExperimentConfig("lp-lq", FiltrationSpec.tensor([2, 2]), trials=1, coeffs=coeffs)
        report = json.loads(emit_report(run_ratio_experiment(cfg), "json"))
        report.pop("wall_time")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["config"]["coeffs"] == [0.5, 0.25]


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
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["experiment"] == "lp-lq" for row in rows)
    with pytest.raises(ConfigError):
        emit_report(r, "yaml", str(path))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_report_text_is_the_written_file(tmp_path, fmt):
    """Without a path the report comes back as the text that a path receives:
    CSV keeps its ``\\r\\n`` line endings either way."""
    r = run_ratio_experiment(_cfg("lp-lq", extremal_n_max=2))
    path = tmp_path / f"r.{fmt}"
    emit_report(r, fmt, str(path))
    text = emit_report(r, fmt)
    assert text.encode() == path.read_bytes()
    assert ("\r\n" in text) == (fmt == "csv")


def test_summary_stats_excludes_sentinels():
    stats = _summary_stats([None, 1.0, 2.0, None])
    assert stats["n_used"] == 2
    assert stats["max"] == 2.0
    assert _summary_stats([None]) == {"n_used": 0}


def test_summary_quantiles_equal_numpy():
    """The summaries' quantiles equal ``np.quantile``'s on sizes 1-300 with
    ties, infinities and NaNs (NaN wherever numpy gives NaN)."""
    rng = np.random.default_rng(18)
    specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
    for _ in range(3000):
        n = int(rng.integers(1, 301))
        a = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
        if rng.random() < 0.5:
            a = np.round(a, 1)  # ties
        if rng.random() < 0.5:
            where = rng.integers(0, n, size=int(rng.integers(1, 4)))
            a[where] = rng.choice(specials, size=where.size)
        ranked = np.sort(a)
        for q in (0.5, 0.9):
            with np.errstate(invalid="ignore"):
                want = float(np.quantile(a, q))
            got = harness._quantile(ranked, q)
            # == : a sort may order 0.0 and -0.0 either way, so the sign of zero may differ
            assert got == want or math.isnan(got) and math.isnan(want), (a, q)


def test_verify_leaves_numpy_ma_unimported():
    """Report summaries take no ``np.quantile``, whose first call imports
    ``numpy.ma`` (about 25 ms of a short run)."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import contextlib, io, sys\n"
            "from ncmart.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '--experiment', 'lp-lq', '--tower', 'tensor:2,2',\n"
            "                 '--seed', '1', '--trials', '3'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]


# ---------------------------------------------------------------------------
# sampling


@pytest.fixture(params=["tensor222", "abelian3"])
def any_tower(request):
    return request.getfixturevalue(request.param)


def test_gaussian_profile_adapted(any_tower):
    t = any_tower
    m = random_martingale(t, "gaussian", [trial_rng(0, 1)])[0]
    assert len(m) == t.n_levels
    for k, dx in enumerate(m.differences, start=1):
        assert t.norm2(t.project_difference(k, dx) - dx) < 1e-9


def test_positive_profile_normalized(any_tower):
    t = any_tower
    m = random_martingale(t, "positive_l1", [trial_rng(0, 2)])[0]
    x = t._dense(m.final)
    assert abs(t.trace(x).real - 1.0) < 1e-10
    assert np.linalg.eigvalsh(x).min() > -1e-10


def test_single_difference_profile(any_tower):
    t = any_tower
    m = random_martingale(t, "single:2", [trial_rng(0, 3)])[0]
    assert t.norm2(m.differences[0]) == 0
    dx = m.differences[1]
    assert t.norm2(t.project_difference(2, dx) - dx) < 1e-9


def test_unknown_profile(tensor222):
    with pytest.raises(ConfigError):
        random_martingale(tensor222, "bogus", [trial_rng(0)])


def test_profile_replay(any_tower):
    a = random_martingale(any_tower, "gaussian", [trial_rng(9, 0)])[0]
    b = random_martingale(any_tower, "gaussian", [trial_rng(9, 0)])[0]
    for x, y in zip(a.differences, b.differences):
        assert np.array_equal(x, y)


def test_centered_martingale(any_tower):
    t = any_tower
    m = random_martingale(t, "positive_l1", [trial_rng(1, 1)])[0]
    c = centered_martingale(m)
    assert abs(t.trace(c.final)) < 1e-12
    diff = t._dense(m.final) - t._dense(c.final)
    assert t.norm2(diff - np.eye(t.dim) * t.trace(m.final)) < 1e-10


@pytest.mark.parametrize("tower_name", ["tensor222", "abelian3", "custom4", "weighted2"])
def test_centered_martingale_is_adapt_of_the_centred_final(request, tower_name):
    """Centring from ``dx_1`` is ``adapt(x - tau(x) 1)``, here with a complex mean."""
    t = request.getfixturevalue(tower_name)
    m = random_martingale(t, "gaussian", [trial_rng(2, 0)])[0]
    x = m.final
    want = mg.adapt(t, x - t.trace(x) * (np.ones(t.dim) if x.ndim == 1 else np.eye(t.dim)))
    got = centered_martingale(m)
    assert got.differences.shape == want.differences.shape
    assert np.abs(got.differences - want.differences).max() <= 1e-13


def test_centered_martingale_is_exact_on_diagonal_extremal_realizations():
    """Every diagonal realization of the extremal family centres to the bits
    of ``adapt(x - tau(x) 1)``."""
    for kind, depths in (("classical", range(1, 13)), ("noncommutative", range(7, 13))):
        for n in depths:
            tower, m, _ = extremal_example(n, kind)
            x = m.final
            want = mg.adapt(tower, x - tower.trace(x) * np.ones(tower.dim))
            assert np.array_equal(centered_martingale(m).differences, want.differences)


@pytest.mark.parametrize("tower_name", ["tensor222", "abelian3", "custom4"])
@pytest.mark.parametrize("profile", ["gaussian", "positive_l1", "single:2"])
def test_stacked_sampling_equals_one_generator_at_a_time(request, tower_name, profile):
    t = request.getfixturevalue(tower_name)
    seeds = [(4, 0, i) for i in range(5)]
    together = random_martingale(t, profile, [trial_rng(*s) for s in seeds])
    assert len(together) == len(seeds)
    for s, m in zip(seeds, together):
        alone = random_martingale(t, profile, [trial_rng(*s)])[0]
        assert m.differences.shape == alone.differences.shape
        if tower_name == "abelian3":  # diagonal draws are projected one at a time
            assert np.array_equal(m.differences, alone.differences)
        else:
            assert np.abs(m.differences - alone.differences).max() <= 1e-13


def test_gaussian_sampling_projects_each_draw_in_order(any_tower):
    """Trial i's k-th Gaussian element, drawn from its own generator, lies
    under its k-th difference: what one trial drew before stacking.  On
    diagonal draws the arithmetic is unchanged, so the bits are too."""
    t = any_tower
    together = random_martingale(t, "gaussian", [trial_rng(6, 0, i) for i in range(3)])
    for i, m in enumerate(together):
        rng = trial_rng(6, 0, i)
        for k, dx in enumerate(m.differences, start=1):
            want = t.project_difference(k, t.random_element(rng))
            if want.ndim == 1:
                assert np.array_equal(dx, want)
            else:
                assert np.abs(dx - want).max() <= 1e-13


def test_positive_sampling_adapts_each_draw(any_tower):
    t = any_tower
    together = random_martingale(t, "positive_l1", [trial_rng(7, 0, i) for i in range(3)])
    for i, m in enumerate(together):
        rng = trial_rng(7, 0, i)
        g = t.random_element(rng)
        x = np.abs(g) ** 2 + 0j if g.ndim == 1 else g @ g.conj().T
        levels = [np.zeros_like(x)] + [t.conditional_expectation(k, x / t.trace(x).real)
                                       for k in range(1, t.n_levels + 1)]
        want = np.diff(levels, axis=0)
        if want.ndim == 2:
            assert np.array_equal(m.differences, want)
        else:
            assert np.abs(m.differences - want).max() <= 1e-13


def test_failed_positive_draw_marks_only_its_own_trial(monkeypatch):
    """A draw that fails inside a chunk is a trial error of its trial alone;
    the chunk's other trials are drawn one by one and keep their ratios."""
    cfg = _cfg("weak-type", trials=5)
    clean = run_ratio_experiment(cfg)
    failing = []
    real_rng, real_draw = harness.trial_rng, harness._positive_l1

    def rng(seed, stream, ti):
        g = real_rng(seed, stream, ti)
        if (stream, ti) == (1, 2):
            failing.append(g)
        return g

    def draw(tower, g):
        if any(g is f for f in failing):
            raise ArithmeticError("could not draw a positive trace-one operator")
        return real_draw(tower, g)

    monkeypatch.setattr(harness, "trial_rng", rng)
    monkeypatch.setattr(harness, "_positive_l1", draw)
    r = run_ratio_experiment(cfg)
    assert [(f["check"], f["grid"], f["trial"]) for f in r.failures] == [
        ("trial_error", [0.5], 2)]
    for want, got in zip(clean.trials, r.trials):
        assert (got["grid"], got["trial"]) == (want["grid"], want["trial"])
        if (got["grid"], got["trial"]) == (1, 2):
            assert "error" in got and "ratio" not in got
        else:
            assert math.isclose(got["ratio"], want["ratio"], rel_tol=1e-12)


def test_chunked_lp_lq_is_identical_serial_and_threaded():
    cfg = _cfg("lp-lq", trials=9)  # 27 ratio tasks: chunks of 8, 8, 8 and 3
    assert 3 < 27 / harness.CHUNK <= 4
    a = run_ratio_experiment(cfg).to_json()
    b = run_ratio_experiment(cfg, threads=2).to_json()
    a.pop("wall_time"), b.pop("wall_time")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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


def test_extremal_example_shares_towers():
    tensor = build_tower(FiltrationSpec.parse("tensor:2,2,2"))
    assert extremal_example(3, "noncommutative")[0] is tensor
    assert extremal_example(3)[0] is build_tower(FiltrationSpec.parse("abelian:3"))


@pytest.mark.parametrize("n", [7, 9])
def test_deep_noncommutative_family_is_the_classical_one(n):
    """Beyond the dense limit both kinds are the diagonal realization on ``abelian:n``."""
    tower, m, coeffs = extremal_example(n, "noncommutative")
    classical, mc, cc = extremal_example(n)
    assert tower is classical is build_tower(FiltrationSpec.abelian_dyadic(n))
    assert np.array_equal(m.differences, mc.differences) and coeffs == cc


def test_dense_extremal_realizations_are_built_once():
    for n in range(1, 7):
        tower, m, _ = extremal_example(n, "noncommutative")
        again, m2, _ = extremal_example(n, "noncommutative")
        assert m2 is m and m.tower is tower is again
        assert m.differences.ndim == 3 and not m.differences.flags.writeable
        with pytest.raises(ValueError):
            m.differences[0, 0, 0] += 1.0
    # the realization belongs to the tower it is asked for, not to an equal one
    fresh = Tower(FiltrationSpec.tensor((2, 2, 2)))
    assert harness._dense_extremal(fresh).tower is fresh
    # diagonal realizations are made afresh, and are writable
    for n, kind in ((3, "classical"), (12, "classical"), (7, "noncommutative")):
        a, b = extremal_example(n, kind)[1], extremal_example(n, kind)[1]
        assert a is not b and a.differences.ndim == 2 and a.differences.flags.writeable


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


def test_singular_value_trial_forms_each_square_function_once(monkeypatch):
    """One singular-value-lemma trial takes the square functions of ``x``, ``I^a x``
    and ``I^2a x`` once each; its Hardy norms are Lp norms of their spectra."""
    calls = []

    def counted(m):
        calls.append(m)
        return column_square_function(m)

    column_square_function = mg.column_square_function
    monkeypatch.setattr(mg, "column_square_function", counted)
    r = run_ratio_experiment(_cfg("singular-value-lemma", trials=1, alphas=[0.25]))
    assert r.passed and len(calls) == 3


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


@pytest.mark.parametrize("tower", ["tensor:2,2,2", "abelian:4"])
@pytest.mark.parametrize("name", ["hd-scalar", "embedding-lemmas"])
def test_batched_norm_reports_serial_vs_threads(name, tower):
    """The trials that take several ``L_p`` norms of one function in one call
    give byte-identical reports with one and with two worker threads."""
    cfg = _cfg(name, tower=FiltrationSpec.parse(tower).to_json(), trials=10)
    a = run_ratio_experiment(cfg, threads=1).to_json()
    b = run_ratio_experiment(cfg, threads=2).to_json()
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


def test_runs_build_each_level_basis_once(monkeypatch):
    """Two runs and their extremal family share the towers of their specs, so
    no tower is built twice (none at all if earlier tests built it), and the
    second run reads the level bases that the first one left."""
    built = []
    init = Tower.__init__

    def counting(self, spec):
        built.append(spec)
        init(self, spec)

    monkeypatch.setattr(Tower, "__init__", counting)
    cfg = _cfg("lp-lq", trials=2, extremal_n_max=3)
    run_ratio_experiment(cfg)
    tower = build_tower(cfg.tower)
    first = [tower.level_basis(k) for k in (1, 2)]
    run_ratio_experiment(cfg)
    assert len(built) == len(set(built))
    assert build_tower(cfg.tower) is tower
    for k, basis in zip((1, 2), first):
        assert np.shares_memory(tower.level_basis(k), basis)


def test_ratio_records_have_repro_seeds():
    r = run_ratio_experiment(_cfg("weak-type", trials=4, extremal_n_max=2))
    rec = r.trials[0]
    assert {"grid", "trial", "numerator", "denominator", "ratio"} <= set(rec)


@pytest.mark.parametrize("spec", ["tensor:2,2", "abelian:3", "tensor:2,3,2", "abelian:6",
                                  "tensor:3,3"])
def test_atom_map_measures_its_closed_form(spec):
    """A drawn atom lies in ``D_deep``, so its constant is ``(zeta_deep / tau(e))^gamma``
    exactly, with ``gamma = 1/p - 1/q`` and the run's coefficients."""
    r = run_ratio_experiment(_cfg("atom-map", trials=20, tower=FiltrationSpec.parse(spec).to_json()))
    zeta = zeta_sequence(build_tower(FiltrationSpec.parse(spec))).values
    assert len(r.trials) == 60
    for rec in r.trials:
        gamma = 1.0 / rec["p"] - 1.0 / rec["q"]
        want = (zeta[rec["deep"] - 1] / rec["trace_e"]) ** gamma
        assert rec["constant"] == pytest.approx(want, rel=1e-12, abs=0)


def test_single_profile_deeper_than_the_tower_is_a_config_error():
    with pytest.raises(ConfigError, match="bad profile: single:4 is deeper than the tower's 3"):
        run_ratio_experiment(_cfg("weak-type", trials=1, profile="single:4"))
    assert run_ratio_experiment(_cfg("weak-type", trials=1, extremal_n_max=1, profile="single:3"))


def test_atom_map_reports_ranks():
    r = run_ratio_experiment(_cfg("atom-map", trials=20))
    ranks = {rec["rank"] for rec in r.trials}
    assert len(ranks) > 1
    for rec in r.trials:
        assert math.isfinite(rec["constant"]) and rec["constant"] > 0


@pytest.mark.parametrize("poisoned", [0, 1], ids=["value", "weight"])
def test_non_finite_spectrum_is_trial_error(monkeypatch, poisoned):
    """A NaN in a trial's spectrum is recorded as a trial error; ``one`` runs
    a single trial, so the extremal family outside it keeps finite spectra."""
    spectrum = spectral._absolute_value_spectrum

    def poison(tower, x):
        out = spectrum(tower, x)
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "one":
            frame = frame.f_back
        if frame is not None:
            out[poisoned][0] = math.nan
        return out

    monkeypatch.setattr(spectral, "_absolute_value_spectrum", poison)
    report = run_ratio_experiment(_cfg("weak-type", trials=2, extremal_n_max=2))
    assert len(report.failures) == len(report.trials) > 0
    assert all(f["check"] == "trial_error" and "NaN or infinite" in f["detail"]
               for f in report.failures)


def test_svd_failure_is_trial_error(monkeypatch):
    """A singular value solver that fails inside a trial gives a
    ``trial_error`` naming the operator; the run goes on.  Only the trials'
    ``d = 8`` operators fail: the extremal rows (``d <= 4``) are untouched."""
    svd = np.linalg.svd

    def fail_at_d8(a, *args, **kwargs):
        if a.shape[-1] == 8:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_at_d8)
    report = run_ratio_experiment(_cfg("lp-lq", trials=2, extremal_n_max=2))
    assert len(report.failures) == len(report.trials) > 0
    assert all(f["check"] == "trial_error"
               and f["detail"].startswith("singular value solver failed on operator sha256:")
               for f in report.failures)
