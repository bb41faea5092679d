import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ncmart.cli as cli
import ncmart.harness as harness
import ncmart.martingale as mg
from ncmart.algebra import FiltrationSpec, Tower, operator_to_json
from ncmart.cli import main


def test_zeta_closed_form_agreement(tmp_path, capsys):
    for tower, closed in (("tensor:2,2", [0.5, 0.25]), ("tensor:2,3", [0.5, 1 / 6])):
        out = tmp_path / "z.json"
        code = main(["zeta", "--tower", tower, "--restarts", "4", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["closed_form"] == closed
        assert payload["max_gap"] < 1e-6
        assert payload["coefficients"]["provenance"] == "optimized"


def test_zeta_bad_tower():
    assert main(["zeta", "--tower", "tensor:1"]) == 2
    assert main(["zeta", "--tower", "klein:4"]) == 2


@pytest.mark.parametrize("tol", ["nan", "-1e-3"])
def test_zeta_bad_tol(tol, capsys):
    assert main(["zeta", "--tower", "tensor:2,2", "--tol", tol]) == 2
    assert "tol" in capsys.readouterr().err


def test_zeta_above_level_bound_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(Tower, "level_constant", lambda self, k: 1.0)
    assert main(["zeta", "--tower", "tensor:2,2", "--restarts", "4"]) == 3
    assert "level bound" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("SVD did not converge"),
                                 ArithmeticError("eigensolver failed")])
def test_numerical_failure_exit_code(monkeypatch, capsys, exc):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "zeta_sequence", failing)
    assert main(["zeta", "--tower", "tensor:2,2"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_verify_pass_and_output(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--experiment", "weak-type", "--tower", "tensor:2,2",
        "--seed", "7", "--trials", "8", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["experiment"] == "weak-type" and not report["failures"]


def test_verify_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "verify", "--experiment", "lp-lq", "--tower", "tensor:2,2",
        "--seed", "7", "--trials", "6", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().startswith("experiment,")


def test_verify_requires_seed(capsys):
    code = main(["verify", "--experiment", "weak-type", "--tower", "tensor:2,2"])
    assert code == 2


def test_verify_unknown_experiment():
    code = main(["verify", "--experiment", "nope", "--tower", "tensor:2,2", "--seed", "1"])
    assert code == 2


def test_verify_needs_tower_or_config():
    assert main(["verify", "--experiment", "weak-type", "--seed", "1"]) == 2


def test_verify_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ("{not json", json.dumps({"tower": {"kind": "spiral"}}), "[1, 2]",
                 json.dumps({"tower": [1, 2]}),
                 json.dumps({"tower": {"kind": "tensor", "dims": [2, 2]}, "profile": 5})):
        cfg.write_text(text)
        code = main(["verify", "--experiment", "weak-type", "--config", str(cfg), "--seed", "1"])
        assert code == 2, text
        assert capsys.readouterr().err.startswith("error:"), text


def test_verify_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "example",
        "tower": {"kind": "tensor", "dims": [2, 2]},
        "extremal_n_max": 3,
    }))
    out = tmp_path / "r.json"
    code = main(["verify", "--experiment", "example", "--config", str(cfg),
                 "--seed", "4", "--out", str(out)])
    assert code == 0


@pytest.fixture
def verify_configs(monkeypatch):
    """The configs ``verify`` runs, recorded in place of running them."""
    seen = []

    def record(cfg, threads=1):
        seen.append(cfg)
        return harness.Report(cfg.experiment, cfg.to_json())

    monkeypatch.setattr(cli, "run_ratio_experiment", record)
    return seen


@pytest.mark.parametrize("flags, file_trials, want", [
    ([], 3, {}),
    (["--tower", "tensor:2,2"], 3, {"tower": FiltrationSpec.parse("tensor:2,2").to_json()}),
    (["--trials", "2"], 3, {"trials": 2}),
    ([], None, {"trials": 200}),
])
def test_verify_flags_override_config(tmp_path, verify_configs, flags, file_trials, want):
    """``--experiment`` and ``--seed`` always win over the config file, and
    ``--tower`` and ``--trials`` when given; other fields come from the file."""
    obj = {"experiment": "lp-lq", "tower": FiltrationSpec.parse("abelian:3").to_json(),
           "seed": 9, "alphas": [0.5]}
    if file_trials is not None:
        obj["trials"] = file_trials
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    assert main(["verify", "--experiment", "weak-type", "--config", str(cfg), "--seed", "4",
                 *flags]) == 0
    expected = {**obj, "experiment": "weak-type", "seed": 4, "trials": file_trials, **want}
    got = verify_configs[0].to_json()
    assert {k: got[k] for k in expected} == expected


def test_verify_without_config_defaults_to_200_trials(verify_configs):
    assert main(["verify", "--experiment", "weak-type", "--tower", "tensor:2", "--seed", "1"]) == 0
    assert verify_configs[0].trials == 200
    assert verify_configs[0].tower == FiltrationSpec.parse("tensor:2")


def test_verify_non_dyadic_tensor_tower():
    """tensor:4,4,4 takes the closed-form constants, so no optimizer runs."""
    assert main(["verify", "--experiment", "weak-type", "--tower", "tensor:4,4,4",
                 "--seed", "1", "--trials", "2"]) == 0


def test_module_entry_point_from_source_checkout(tmp_path):
    """``python -m ncmart`` runs the CLI with only ``src`` on the path."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = ["verify", "--experiment", "weak-type", "--tower", "tensor:2", "--seed", "1",
            "--trials", "1"]
    done = subprocess.run([sys.executable, "-m", "ncmart", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["experiment"] == "weak-type"


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    def always_fail(cfg, threads=1):
        r = harness.Report("always-fail", cfg.to_json())
        r.failures.append({"check": "synthetic", "seed": [cfg.seed], "detail": 1.0})
        return r

    monkeypatch.setitem(harness.EXPERIMENTS, "always-fail", always_fail)
    code = main(["verify", "--experiment", "always-fail", "--tower", "tensor:2,2",
                 "--seed", "1", "--out", str(tmp_path / "f.json")])
    assert code == 1


def test_verify_seed_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--experiment", "hardy-column", "--tower",
                     "tensor:2,2", "--seed", "3", "--trials", "6",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload.pop("wall_time")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_threads_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--experiment", "weak-type", "--tower", "tensor:2,2",
                 "--seed", "2", "--trials", "6", "--threads", "2", "--out", str(out)]) == 0


def test_example_command(tmp_path):
    out = tmp_path / "ex.json"
    for kind, levels in (("classical", 4), ("noncommutative", 3)):
        assert main(["example", "--levels", str(levels), "--kind", kind,
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["family"]
        assert len(rows) == levels
        for row in rows:
            norms = harness._example_norms(*harness.extremal_example(row["n"], kind))
            assert (row["l1_norm"], row["half_order_l2"]) == (norms["l1"], norms["half_l2"])


def test_norms_command(tmp_path):
    f = np.zeros((8, 8), dtype=complex)
    f[0, 0] = 8.0
    op = tmp_path / "f.json"
    op.write_text(json.dumps(operator_to_json(f)))
    out = tmp_path / "n.json"
    code = main(["norms", "--tower", "tensor:2,2,2", "--operator", str(op),
                 "--norm", "lp:1", "--norm", "weak:2", "--norm", "lp:3",
                 "--norm", "bmo", "--out", str(out)])
    assert code == 0
    norms = json.loads(out.read_text())["norms"]
    assert norms["lp:1"] == pytest.approx(1.0, abs=1e-12)
    assert norms["weak:2"] == pytest.approx(8 ** 0.5, abs=1e-9)

    eye = tmp_path / "eye.json"
    eye.write_text(json.dumps(operator_to_json(np.eye(8, dtype=complex))))
    assert main(["norms", "--tower", "tensor:2,2,2", "--operator", str(eye),
                 "--norm", "lp:3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["norms"]["lp:3"] == pytest.approx(1.0)


def test_norms_errors(tmp_path, capsys):
    f = np.eye(4, dtype=complex)
    op = tmp_path / "f.json"
    op.write_text(json.dumps(operator_to_json(f)))
    # dimension mismatch
    assert main(["norms", "--tower", "tensor:2,2,2", "--operator", str(op),
                 "--norm", "lp:2"]) == 2
    # unknown norm and malformed parameters
    assert main(["norms", "--tower", "tensor:2,2", "--operator", str(op),
                 "--norm", "frobenius:2"]) == 2
    assert main(["norms", "--tower", "tensor:2,2", "--operator", str(op),
                 "--norm", "lorentz:2"]) == 2
    # a parameter count other than the norm's
    for spec in ("bmo:3", "lp:1,2"):
        capsys.readouterr()
        assert main(["norms", "--tower", "tensor:2,2", "--operator", str(op),
                     "--norm", spec]) == 2, spec
        assert "bad norm spec" in capsys.readouterr().err, spec
    # unreadable operator file
    assert main(["norms", "--tower", "tensor:2,2", "--operator",
                 str(tmp_path / "missing.json"), "--norm", "lp:2"]) == 2
    # JSON that is not an operator object
    capsys.readouterr()
    for obj in ([1, 2], {"dim": None, "re": [], "im": []}, {"dim": 2, "re": {}, "im": []}):
        op.write_text(json.dumps(obj))
        assert main(["norms", "--tower", "tensor:2,2", "--norm", "lp:1",
                     "--operator", str(op)]) == 2, obj
        assert capsys.readouterr().err.startswith("error:"), obj


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_norms_rejects_non_finite_operator(tmp_path, capsys, bad):
    f = np.eye(4, dtype=complex)
    f[0, 0] = bad
    op = tmp_path / "f.json"
    op.write_text(json.dumps(operator_to_json(f)))
    assert main(["norms", "--tower", "tensor:2,2", "--operator", str(op),
                 "--norm", "lp:1"]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_norms_overflow_is_numerical_failure(tmp_path, capsys):
    """The top singular value of ``|x|`` overflows, so the spectrum is
    infinite: exit 3, not a crash."""
    op = tmp_path / "f.json"
    op.write_text(json.dumps(operator_to_json(np.full((4, 4), 1e308, dtype=complex))))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["norms", "--tower", "tensor:2,2", "--operator", str(op), "--norm", "lp:1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: spectrum has a NaN")


def test_norms_svd_failure_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """A singular value solver that does not converge exits 3, naming the
    operator by digest."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    op = tmp_path / "f.json"
    op.write_text(json.dumps(operator_to_json(np.eye(4, dtype=complex))))
    code = main(["norms", "--tower", "tensor:2,2", "--operator", str(op), "--norm", "lp:1"])
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: singular value solver failed on operator sha256:")


def test_norms_adapt_only_for_martingale_norms(tmp_path, capsys, monkeypatch):
    """Spectral norms need no martingale; any mix with a martingale norm
    adapts the operator once."""
    calls = []
    adapt = mg.adapt

    def counting(tower, x):
        calls.append(tower.spec)
        return adapt(tower, x)

    monkeypatch.setattr(mg, "adapt", counting)
    op = tmp_path / "f.json"
    x = np.random.default_rng(3).standard_normal((8, 8)).astype(complex)
    op.write_text(json.dumps(operator_to_json(x)))
    base = ["norms", "--tower", "tensor:2,2,2", "--operator", str(op)]
    assert main(base + ["--norm", "lp:1", "--norm", "lorentz:2,1", "--norm", "weak:2"]) == 0
    assert calls == []
    spectral_only = json.loads(capsys.readouterr().out)["norms"]
    assert main(base + ["--norm", "lp:1", "--norm", "hardy_c:1", "--norm", "bmo",
                        "--norm", "lipschitz_c:0.5"]) == 0
    assert len(calls) == 1
    mixed = json.loads(capsys.readouterr().out)["norms"]
    assert mixed["lp:1"] == spectral_only["lp:1"]
    assert set(mixed) == {"lp:1", "hardy_c:1", "bmo", "lipschitz_c:0.5"}


@pytest.mark.parametrize("argv", [
    ["verify", "--experiment", "weak-type", "--tower", "tensor:2,2", "--seed", "1",
     "--trials", "-3"],
    ["verify", "--experiment", "hd-scalar", "--tower", "tensor:2,2", "--seed", "1",
     "--trials", "0"],
    ["verify", "--experiment", "atom-map", "--tower", "tensor:2,2", "--seed", "1",
     "--trials", "0"],
    ["example", "--levels", "0"],
])
def test_no_vacuous_runs(capsys, argv):
    """A run that would check nothing is a usage error, not a pass."""
    assert main(argv) == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["hd-scalar", "embedding-lemmas"])
def test_verify_rejects_short_coefficients(tmp_path, capsys, experiment):
    """Fewer coefficients than tower levels is a usage error, not a crash."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": experiment,
        "tower": {"kind": "tensor", "dims": [2, 2, 2]},
        "coeffs": [1, 1],
    }))
    code = main(["verify", "--experiment", experiment, "--config", str(cfg),
                 "--seed", "1", "--trials", "1"])
    assert code == 2
    assert "2 coefficients for a tower of 3 levels" in capsys.readouterr().err
