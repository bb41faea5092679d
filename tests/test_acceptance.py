"""Acceptance criteria, one test per criterion, one summary line each."""

import itertools
import json
import math
import time

import numpy as np
import pytest

import ncmart.martingale as mg
from ncmart.algebra import FiltrationSpec, build_tower
from ncmart.cli import main
from ncmart.fractional import fractional_integral, zeta_sequence
from ncmart.harness import (
    ExperimentConfig,
    centered_martingale,
    extremal_example,
    run_ratio_experiment,
)
from ncmart.spectral import (
    lorentz_norm,
    lp_norm,
    singular_value_function,
    weak_norm,
)
from reference_norms import weak_norm_distribution


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_reports(capfd):
    """Let the per-criterion PASS/FAIL lines through pytest's capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert ok, detail


def test_criterion_1_closed_form_zeta(tmp_path):
    """Optimized constants match 2^-k on the depth-6 dyadic tensor tower."""
    start = time.perf_counter()
    out = tmp_path / "zeta.json"
    code = main(["zeta", "--tower", "tensor:2,2,2,2,2,2", "--restarts", "8",
                 "--out", str(out)])
    elapsed = time.perf_counter() - start
    payload = json.loads(out.read_text())
    got = payload["coefficients"]["values"]
    gaps = [abs(g - 2.0**-k) / 2.0**-k for k, g in enumerate(got, start=1)]
    ok = code == 0 and len(got) == 6 and max(gaps) <= 1e-6 and elapsed <= 60
    _report(
        "criterion 1 (closed-form constants k=1..6)",
        ok,
        f"max relative gap {max(gaps):.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_extremal_example():
    """All four extremal-family identities for N=1..12, both realizations."""
    start = time.perf_counter()
    worst_err = 0.0
    worst_agree = 0.0
    for n in range(1, 13):
        per_kind = {}
        for kind in ("classical", "noncommutative"):
            tower, m, coeffs = extremal_example(n, kind)
            s = singular_value_function(tower, m.final)
            cm = centered_martingale(m)
            half = fractional_integral(cm, 0.5, coeffs).final
            quarter = fractional_integral(cm, 0.25, coeffs).final
            per_kind[kind] = {
                "i": lp_norm(s, 1.0),
                "ii_25": lp_norm(s, 3.75 / 3.0),
                "ii_50": lp_norm(s, 3.5 / 3.0),
                "iii": lp_norm(singular_value_function(tower, half), 2.0),
                "iv": lp_norm(singular_value_function(tower, quarter), 2.0) ** 2,
            }
        expected = {
            "i": 1.0,
            "ii_25": 2.0 ** ((0.75 / 3.75) * n),
            "ii_50": 2.0 ** ((0.5 / 3.5) * n),
            "iii": math.sqrt(n / 2.0),
            "iv": (2.0 ** (n / 2.0) - 1.0) / (2.0 - math.sqrt(2.0)),
        }
        for key, want in expected.items():
            for vals in per_kind.values():
                worst_err = max(worst_err, abs(vals[key] - want))
            worst_agree = max(
                worst_agree,
                abs(per_kind["classical"][key] - per_kind["noncommutative"][key]),
            )
    elapsed = time.perf_counter() - start
    ok = worst_err <= 1e-9 and worst_agree <= 1e-10 and elapsed <= 10
    _report(
        "criterion 2 (extremal example i-iv, N=1..12, both kinds)",
        ok,
        f"max identity error {worst_err:.2e}, max kind disagreement "
        f"{worst_agree:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_3_hard_inequality_suites():
    """1000-sample hard inequality suites with zero violations."""
    start = time.perf_counter()
    tower = FiltrationSpec.tensor([2, 2, 2]).to_json()
    failures = {}
    for name in ("embedding-lemmas", "singular-value-lemma", "hd-scalar"):
        cfg = ExperimentConfig.from_json(
            {"experiment": name, "tower": tower, "trials": 1000, "seed": 0}
        )
        r = run_ratio_experiment(cfg)
        failures[name] = len(r.failures)
    elapsed = time.perf_counter() - start
    ok = all(v == 0 for v in failures.values()) and elapsed <= 300
    _report(
        "criterion 3 (hard inequality suites, 1000 samples each)",
        ok,
        f"violations {failures}, runtime {elapsed:.1f}s",
    )


def test_criterion_4_structural_properties(tensor222, abelian3, custom4, rng):
    """Conditional expectation suite, Hardy L2 isometry, norm identities."""
    worst = 0.0
    for t in (tensor222, abelian3, custom4):
        for _ in range(500):
            x = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
            n = int(rng.integers(1, t.n_levels + 1))
            en = t.conditional_expectation(n, x)
            worst = max(worst, t.norm2(t.conditional_expectation(n, en) - en))
            worst = max(worst, abs(t.trace(en) - t.trace(x)))
            a = t._dense(t.conditional_expectation(n, t.random_element(rng)))
            worst = max(
                worst,
                t.norm2(t.conditional_expectation(n, a @ x) - a @ en),
            )
            pos = np.linalg.eigvalsh(t.conditional_expectation(n, x @ x.conj().T))
            worst = max(worst, max(0.0, -float(pos.min())))
    worst_iso = 0.0
    worst_norms = 0.0
    for t in (tensor222, abelian3):
        for _ in range(100):
            x = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
            m = mg.adapt(t, x)
            worst_iso = max(
                worst_iso,
                abs(mg.hardy_column_norm(m, 2.0) - t.norm2(m.final)),
            )
            s = singular_value_function(t, x)
            for p in (1.0, 1.7, 3.0):
                worst_norms = max(worst_norms, abs(lorentz_norm(s, p, p) - lp_norm(s, p)))
            for p in (1.0, 2.0, 4.0):
                worst_norms = max(
                    worst_norms, abs(weak_norm(s, p) - weak_norm_distribution(s, p))
                )
    ok = worst <= 1e-9 and worst_iso <= 1e-9 and worst_norms <= 1e-10
    _report(
        "criterion 4 (structural properties, 500 inputs per tower kind)",
        ok,
        f"expectation residual {worst:.2e}, isometry residual {worst_iso:.2e}, "
        f"norm identity residual {worst_norms:.2e}",
    )


def test_criterion_5_ratio_experiments():
    """Theorem-level ratios finite and stable; strong-type failure witness."""
    tower = FiltrationSpec.tensor([2, 2, 2]).to_json()
    bad = []
    worst_stability = 0.0
    witness = None
    for name in ("weak-type", "lp-lq", "hardy-column", "l1a-to-bmo", "lorentz-uniform"):
        cfg = ExperimentConfig.from_json(
            {"experiment": name, "tower": tower, "trials": 500, "seed": 0,
             "extremal_n_max": 12}
        )
        r = run_ratio_experiment(cfg)
        if r.failures:
            bad.append((name, r.failures[:2]))
        for key, stats in r.summary.items():
            if key.startswith("grid_") and stats["n_used"]:
                worst_stability = max(worst_stability, stats["stability"])
        if name == "weak-type":
            witness = [row["classical"]["strong_l2_over_l1"]
                       for row in r.summary["extremal_family"]]
    witness_err = max(
        abs(w - math.sqrt(n / 2.0)) for n, w in enumerate(witness, start=1)
    )
    increasing = all(b > a for a, b in zip(witness, witness[1:]))
    ok = not bad and worst_stability <= 1.1 and witness_err <= 1e-9 and increasing
    _report(
        "criterion 5 (ratio experiments finite and stable, weak witness)",
        ok,
        f"failures {bad or 'none'}, worst stability {worst_stability:.3f}, "
        f"witness error {witness_err:.2e}, strictly increasing {increasing}",
    )


def test_criterion_6_atom_mapping(rng):
    """200 constructed atoms map to (q,2) atoms with stable constants."""
    towers = [
        build_tower(FiltrationSpec.tensor([2, 2, 2])),
        build_tower(FiltrationSpec.abelian_dyadic(4)),
    ]
    pqs = ((0.5, 1.0), (2.0 / 3.0, 1.0), (0.5, 4.0 / 3.0))
    count = 0
    per_group = {}
    all_finite = True
    for t, (p, q) in itertools.product(towers, pqs):
        coeffs = zeta_sequence(t)
        deep = t.n_levels
        for _ in range(34):
            n = int(rng.integers(1, deep))
            max_rank = t._sub_dims[n] if t.spec.kind == "tensor" else 1 << n
            rank = int(rng.integers(1, max_rank + 1))
            if t.spec.kind == "tensor":
                sub = t._sub_dims[n]
                sel = rng.choice(sub, size=rank, replace=False)
                diag = np.zeros(sub)
                diag[sel] = 1.0
                e = np.diag(np.repeat(diag, t.dim // sub).astype(complex))
            else:
                block = t._block_size(n)
                sel = rng.choice(t.dim // block, size=rank, replace=False)
                diag = np.zeros(t.dim // block)
                diag[sel] = 1.0
                e = np.diag(np.repeat(diag, block).astype(complex))
            a = mg.make_atom(t, rng, n, e, deep, p)
            c = mg.atom_constant(t, a, n, e, p, q, coeffs)
            all_finite = all_finite and math.isfinite(c) and c > 0
            trace = round(t.trace(e).real, 12)
            key = (id(t), p, q, trace)
            per_group.setdefault(key, {}).setdefault(rank, []).append(c)
            count += 1
    # max constant must be flat across ranks within each (p, q, trace) group
    worst_spread = 0.0
    for ranks in per_group.values():
        if len(ranks) < 2:
            continue
        maxima = [max(v) for v in ranks.values()]
        worst_spread = max(worst_spread, max(maxima) / min(maxima) - 1.0)
    ok = count >= 200 and all_finite and worst_spread <= 0.10
    _report(
        "criterion 6 (atom mapping, 200 atoms, rank-stable constants)",
        ok,
        f"{count} atoms, all constants finite {all_finite}, "
        f"max spread across ranks {100 * worst_spread:.2f}%",
    )


def test_criterion_7_determinism(tmp_path):
    """Identical config and seed give byte-identical reports modulo wall_time."""
    texts = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = main(["verify", "--experiment", "lp-lq", "--tower", "tensor:2,2,2",
                     "--seed", "42", "--trials", "50", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        payload.pop("wall_time")
        texts.append(json.dumps(payload, sort_keys=True).encode())
    ok = texts[0] == texts[1]
    _report(
        "criterion 7 (determinism of verify reports)",
        ok,
        f"{len(texts[0])} bytes compared, identical {ok}",
    )
