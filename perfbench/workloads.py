"""Workload definitions: the configs each benchmark run hands to ncmart.

A workload is a fixed list of operations on fixed towers.  The seed only
chooses the experiment and optimizer seeds, so every seed does the same
amount of work on different inputs.  Trial counts are sized so that one
pass of a workload takes a few seconds on one CPU core.
"""

from __future__ import annotations

import random

# One pass of every workload also runs at this seed; its summary statistics
# are compared against ``reference.json``.
REFERENCE_SEED = 0

# Known subspace constants.  Tensor towers M_{n1} x ... x M_{nm} have
# zeta_k = 1/(n1...nk).  The block-diagonal chain inside M_4 has
# D_1 = span{p, 1-p} and D_2 = diagonal minus D_1 (both 1/2, reached by a
# two-valued diagonal element), and D_3 = off-diagonal matrices (1/4,
# reached by the rank-one matrix unit E_12).
KNOWN_ZETA = {
    "tensor:3,4": [1 / 3, 1 / 12],
    "tensor:2,3,3": [1 / 2, 1 / 6, 1 / 18],
    "custom4": [1 / 2, 1 / 2, 1 / 4],
    "tensor:4,4,4": [1 / 4, 1 / 16, 1 / 64],
}

# ``scale_run``: whether run_s is scaled to nominal machine speed by the kernel
# in ``speed.py`` (setup_s always is).  Not on dense-tensor, whose products
# over 64 MB level bases do not slow down with the kernel: over ten seeds the
# IQR/median of its run_s was 0.15 scaled and 0.07 unscaled.
WORKLOADS = {
    "dense-tensor": {
        "why": "dense expectations through materialized level bases at d=64",
        "threads": 1,
        "scale_run": False,
        "towers": ["tensor:2,2,2,2,2,2"],
        "ops": [
            {"kind": "verify", "experiment": e, "tower": "tensor:2,2,2,2,2,2", "trials": 2}
            for e in ("weak-type", "lp-lq", "hardy-column", "lorentz-uniform")
        ],
    },
    "diagonal-abelian": {
        "why": "diagonal path at d=1024: spectrum merging and distribution, no dense basis",
        "threads": 1,
        "scale_run": True,
        "towers": ["abelian:10"],
        "ops": [
            {"kind": "verify", "experiment": e, "tower": "abelian:10", "trials": t,
             "extremal_n_max": 5}
            for e, t in (("weak-type", 20), ("lp-lq", 20), ("lorentz-uniform", 20),
                         ("hd-scalar", 20), ("embedding-lemmas", 10))
        ],
    },
    "mixed-hardy": {
        "why": "mixed Hardy and BMO norms: many small eigh calls, run with 2 workers",
        "threads": 2,
        "scale_run": True,
        "towers": ["tensor:2,2,2", "abelian:6"],
        "ops": [
            {"kind": "verify", "experiment": "h1-to-bmo", "tower": "tensor:2,2,2", "trials": 20},
            {"kind": "verify", "experiment": "h1-to-bmo", "tower": "abelian:6", "trials": 4},
            {"kind": "verify", "experiment": "l1a-to-bmo", "tower": "tensor:2,2,2", "trials": 6,
             "extremal_n_max": 5},
        ],
    },
    "optimizer": {
        "why": "subspace constants by optimization on non-dyadic and custom towers",
        "threads": 1,
        "scale_run": True,
        "towers": ["tensor:3,4", "tensor:2,3,3", "custom4"],
        "ops": [
            {"kind": "zeta", "tower": "tensor:3,4"},
            {"kind": "zeta", "tower": "tensor:2,3,3"},
            {"kind": "zeta", "tower": "custom4"},
            {"kind": "verify", "experiment": "lp-lq", "tower": "tensor:2,3,3", "trials": 5,
             "extremal_n_max": 5},
            {"kind": "experiment", "experiment": "hd-scalar", "tower": "custom4", "trials": 10},
        ],
        # Untimed: raises LinAlgError at this commit, so it shows in the
        # failure count without touching run_s.
        "probe": {"tower": "tensor:4,4,4", "level": 2, "seed": 0},
    },
}


def make_plan(workload, seed, threads=None):
    """Concrete operations of one pass: each op gets its own derived seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for op in spec["ops"]:
        op = dict(op, seed=rng.randrange(2**31))
        if op["kind"] == "zeta":
            op["known"] = KNOWN_ZETA[op["tower"]]
        ops.append(op)
    probe = spec.get("probe")
    if probe is not None:
        probe = dict(probe, known=KNOWN_ZETA[probe["tower"]][probe["level"] - 1])
    return {
        "workload": workload,
        "seed": seed,
        "threads": spec["threads"] if threads is None else threads,
        "scale_run": spec["scale_run"],
        "towers": list(spec["towers"]),
        "known": {t: KNOWN_ZETA[t] for t in spec["towers"] if t in KNOWN_ZETA},
        "ops": ops,
        "probe": probe,
    }
