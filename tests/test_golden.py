"""Golden reports: every experiment's report, pinned value by value.

``tests/data/golden_reports.json`` holds the report of each of the eleven
experiments on ``tensor:2,2`` and ``abelian:3`` (3 trials, ``extremal_n_max``
2, seed 5), without ``wall_time``.  Keys, records, strings and integers must
match exactly, floats within a relative 1e-9, so a refactor of the
experiment runner cannot change a report unnoticed.

The ``h1-to-bmo|abelian:3`` entry pins the known ``hardy_mixed_upper``
defect on abelian towers (a diagonal difference split against a dense
candidate; ROADMAP item 6).  Regenerate the file when that is fixed:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os

import pytest

from ncmart.algebra import FiltrationSpec
from ncmart.harness import EXPERIMENTS, ExperimentConfig, run_ratio_experiment

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")
TOWERS = ("tensor:2,2", "abelian:3")
REL_TOL = 1e-9


def _report(case):
    experiment, tower = case.split("|")
    cfg = ExperimentConfig(experiment, FiltrationSpec.parse(tower), trials=3, seed=5,
                           extremal_n_max=2)
    obj = run_ratio_experiment(cfg).to_json()
    del obj["wall_time"]
    return obj


def _mismatches(want, got, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        if want == got or (math.isnan(want) and math.isnan(got)):
            return []
        if math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(want, got)) for m in _mismatches(a, b, f"{path}[{i}]")]
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


CASES = [f"{e}|{t}" for e in sorted(EXPERIMENTS) for t in TOWERS]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(golden, case):
    bad = _mismatches(golden[case], _report(case))
    assert not bad, bad[:10]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump({case: _report(case) for case in CASES}, fh, sort_keys=True, indent=1)
        fh.write("\n")
