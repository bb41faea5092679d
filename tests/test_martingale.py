import itertools
import math
import sys

import numpy as np
import pytest

import ncmart.martingale as mg
from ncmart.algebra import FiltrationSpec, TowerError, build_tower
from ncmart.fractional import zeta_sequence
from ncmart.harness import ExperimentConfig, random_martingale, run_ratio_experiment, trial_rng
from ncmart.spectral import (
    SingularValueFunction,
    _root_spectrum,
    lp_norm,
    operator_norm,
    singular_value_function,
)


def _random_dense(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.fixture(params=["tensor222", "abelian3", "custom4"])
def any_tower(request):
    return request.getfixturevalue(request.param)


# ---------------------------------------------------------------------------
# adapted sequences


def test_adapt_telescopes(any_tower, rng):
    t = any_tower
    x = _random_dense(rng, t.dim)
    m = mg.adapt(t, x)
    assert t.norm2(m.final - t.conditional_expectation(t.n_levels, x)) < 1e-10
    for k in range(1, len(m) + 1):
        dx = m.differences[k - 1]
        assert t.norm2(t.project_difference(k, dx) - dx) < 1e-9
        assert t.norm2(m.partial_sum(k) - t.conditional_expectation(k, x)) < 1e-9


def test_adapt_level_one_element(tensor222, rng):
    x = tensor222._dense(tensor222.random_element(rng, level=1))
    m = mg.adapt(tensor222, x)
    assert tensor222.norm2(m.differences[0] - x) < 1e-10
    for dx in m.differences[1:]:
        assert tensor222.norm2(dx) < 1e-10


def test_adapt_identity(tensor222):
    m = mg.adapt(tensor222, np.eye(8, dtype=complex))
    assert tensor222.norm2(m.differences[0] - np.eye(8)) < 1e-12
    assert all(tensor222.norm2(dx) < 1e-12 for dx in m.differences[1:])


def test_sequence_validation(tensor22, rng):
    too_many = tuple(np.eye(4, dtype=complex) for _ in range(3))
    with pytest.raises(TowerError):
        mg.MartingaleSequence(tensor22, too_many)
    m = mg.adapt(tensor22, _random_dense(rng, 4))
    with pytest.raises(TowerError):
        m.partial_sum(5)
    with pytest.raises(TowerError):
        m.scaled([1.0])


def test_mixed_diagonal_and_dense_differences_become_dense(tensor22):
    unit = np.zeros((4, 4), dtype=complex)
    unit[0, 1] = 1.0
    m = mg.MartingaleSequence(tensor22, (np.ones(4), unit))
    assert m.differences.shape == (2, 4, 4)
    assert np.array_equal(m.final, np.eye(4) + unit)


def test_differences_are_one_stack(tensor222, abelian3, rng):
    """Dense martingales stack as ``(n, d, d)``, diagonal ones as ``(n, d)``."""
    dense = mg.adapt(tensor222, _random_dense(rng, 8))
    diagonal = mg.adapt(abelian3, rng.standard_normal(8) + 0j)
    assert dense.differences.shape == (3, 8, 8)
    assert diagonal.differences.shape == (3, 8)
    for m in (dense, diagonal):
        assert mg.MartingaleSequence(m.tower, m.differences).differences is m.differences
        assert np.array_equal(m.partial_sum(0), np.zeros_like(m.differences[0]))
        adj = m.adjoint()
        for dx, dy in zip(m.differences, adj.differences):
            assert np.array_equal(dy, dx.conj() if dx.ndim == 1 else dx.conj().T)
        scaled = m.scaled([0.5, 0.25, 0.125, 2.0])
        for f, dx, dy in zip([0.5, 0.25, 0.125], m.differences, scaled.differences):
            assert np.array_equal(dy, f * dx)


def test_empty_martingale_is_rejected(tensor22, rng):
    with pytest.raises(TowerError, match="at least one difference"):
        mg.MartingaleSequence(tensor22, ())
    for n in (0, -1):
        with pytest.raises(TowerError, match="at least one level"):
            mg.adapt(tensor22, _random_dense(rng, 4), n_levels=n)


def test_l2_isometry(any_tower, rng):
    """Orthogonality of differences: ||E_n x||_2^2 = sum ||dx_k||_2^2."""
    t = any_tower
    x = _random_dense(rng, t.dim)
    m = mg.adapt(t, x)
    direct = t.norm2(m.final) ** 2
    summed = sum(t.norm2(dx) ** 2 for dx in m.differences)
    assert direct == pytest.approx(summed, rel=1e-10)


# ---------------------------------------------------------------------------
# square functions and Hardy norms


def test_square_function_single_difference(tensor222, rng):
    dx = tensor222.project_difference(2, _random_dense(rng, 8))
    zero = np.zeros_like(dx)
    m = mg.MartingaleSequence(tensor222, (zero, dx, zero))
    s = mg.column_square_function(m)
    direct = mg._sqrt_psd(dx.conj().T @ dx)
    assert tensor222.norm2(s - direct) < 1e-9


def test_square_function_l2_identity(abelian4):
    """f_N analog: ||S(f)||_2 = ||f||_2 = 2^{N/2}."""
    f = np.zeros(16, dtype=complex)
    f[0] = 16.0
    m = mg.adapt(abelian4, f)
    s = mg.column_square_function(m)
    assert lp_norm(singular_value_function(abelian4, s), 2.0) == pytest.approx(4.0, rel=1e-12)
    assert mg.hardy_column_norm(m, 2.0) == pytest.approx(
        abelian4.norm2(f), rel=1e-10
    )


def test_square_function_zero(tensor22):
    z = np.zeros((4, 4), dtype=complex)
    m = mg.MartingaleSequence(tensor22, (z, z))
    assert operator_norm(mg.column_square_function(m)) == 0.0


def test_hardy_l2_matches_difference_sum(any_tower, rng):
    t = any_tower
    m = mg.adapt(t, _random_dense(rng, t.dim))
    expect = math.sqrt(sum(t.norm2(dx) ** 2 for dx in m.differences))
    assert mg.hardy_column_norm(m, 2.0) == pytest.approx(expect, rel=1e-9)
    assert mg.hardy_row_norm(m, 2.0) == pytest.approx(expect, rel=1e-9)


def test_hardy_mixed_max_requires_p_ge_2(tensor22, rng):
    m = mg.adapt(tensor22, _random_dense(rng, 4))
    with pytest.raises(ValueError):
        mg.hardy_mixed_max(m, 1.5)
    val = mg.hardy_mixed_max(m, 3.0)
    assert val == pytest.approx(
        max(mg.hardy_column_norm(m, 3.0), mg.hardy_row_norm(m, 3.0))
    )


def test_hardy_mixed_upper_brackets(tensor222, rng):
    m = mg.adapt(tensor222, _random_dense(rng, 8))
    for p in (0.5, 1.0, 1.5):
        bound, decomp = mg.hardy_mixed_upper(m, p)
        pure = min(mg.hardy_column_norm(m, p), mg.hardy_row_norm(m, p))
        assert bound <= pure + 1e-12
        # the decomposition really splits the differences
        for (a, b), dx in zip(decomp, m.differences):
            assert tensor222.norm2(a + b - dx) < 1e-9
        # and certifies its own bound
        ys = mg.MartingaleSequence(tensor222, tuple(a for a, _ in decomp))
        zs = mg.MartingaleSequence(tensor222, tuple(b for _, b in decomp))
        achieved = mg.hardy_column_norm(ys, p) + mg.hardy_row_norm(zs, p)
        assert achieved == pytest.approx(bound, rel=1e-9)
    with pytest.raises(ValueError):
        mg.hardy_mixed_upper(m, 2.0)


@pytest.mark.parametrize("tower_name", ["tensor222", "custom4"])
def test_mixed_upper_bound_matches_public_norms(request, tower_name):
    """The cached-Gram objective agrees with the public column and row norms."""
    tower = request.getfixturevalue(tower_name)
    for seed in range(6):
        m = random_martingale(tower, "gaussian", trial_rng(seed, 0, 0))
        for p in (0.5, 1.0, 1.5):
            bound, decomp = mg.hardy_mixed_upper(m, p)
            ys = mg.MartingaleSequence(tower, tuple(a for a, _ in decomp))
            zs = mg.MartingaleSequence(tower, tuple(b for _, b in decomp))
            achieved = mg.hardy_column_norm(ys, p) + mg.hardy_row_norm(zs, p)
            assert bound == pytest.approx(achieved, rel=1e-12, abs=0.0)


def _test_grams(rng, d):
    """Random, tied, rank-deficient and diagonal Gram sums on C^d."""
    r = max(1, d // 2)
    a = _random_dense(rng, d)
    thin = _random_dense(rng, d)[:, :r]
    q = np.linalg.qr(_random_dense(rng, d))[0][:, :r]
    proj = q @ q.conj().T
    diag = rng.random(d) + 0j
    diag[: d // 2] = 0.0
    return {
        "random": a.conj().T @ a,
        "projection": proj,
        "identity": 2.5 * np.eye(d, dtype=complex),
        "rank-deficient": thin @ thin.conj().T,
        "diagonal": diag,
        "diagonal-tied": np.full(d, 0.7 + 0j),
    }


def _counting_solvers(monkeypatch, fail_below=None):
    """Record ``(name, shape)`` of each ``np.linalg.eigh`` and ``eigvalsh``
    call; raise ``LinAlgError`` inside a frame named ``fail_below``."""
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            frame = sys._getframe(1)
            while fail_below is not None and frame is not None:
                if frame.f_code.co_name == fail_below:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                frame = frame.f_back
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    counted("eigh")
    counted("eigvalsh")
    return calls


@pytest.mark.parametrize("tower_name", ["tensor222", "custom4", "weighted2"])
def test_gram_power_sum_matches_step_function(request, tower_name, monkeypatch):
    """The stacked power-sum kernel equals the L_p norm of the merged step
    function built from the same eigenvalues, and a non-uniform trace still
    takes its weights from eigenvectors."""
    tower = request.getfixturevalue(tower_name)
    rng = np.random.default_rng(8)
    for _ in range(3):
        grams = list(_test_grams(rng, tower.dim).values())
        dense = np.stack([(g + g.conj().T) / 2 for g in grams if g.ndim == 2])
        diagonal = np.stack([g for g in grams if g.ndim == 1])
        for h, vals in zip(dense, np.linalg.eigvalsh(dense)):
            assert np.max(np.abs(vals - np.linalg.eigh(h)[0])) <= 1e-12 * np.linalg.norm(h, 2)
        if tower.uniform_trace:
            spectra = [(np.sqrt(np.clip(v, 0.0, None)), tower.weights)
                       for v in np.linalg.eigvalsh(dense)]
        else:
            spectra = [_root_spectrum(tower, h, h) for h in dense]
        spectra += [(np.sqrt(np.clip(g.real, 0.0, None)), tower.weights) for g in diagonal]
        for p in (0.5, 1.0, 1.5):
            with monkeypatch.context() as patched:
                calls = _counting_solvers(patched)
                got = np.concatenate([mg._gram_lp_norms(tower, dense, p),
                                      mg._gram_lp_norms(tower, diagonal, p)])
            if tower.uniform_trace:
                assert calls == [("eigvalsh", dense.shape)]
            else:
                assert calls == [("eigh", dense.shape[1:])] * len(dense)
            for i, (spectrum, value) in enumerate(zip(spectra, got, strict=True)):
                want = lp_norm(SingularValueFunction.from_spectrum(*spectrum), p)
                assert value == pytest.approx(want, rel=1e-12, abs=0.0), (i, p)


def test_gram_power_sum_near_float_range(tensor222):
    """Powers near the float range fall back to log-space sums."""
    huge = 1e306 * np.eye(8, dtype=complex)
    for grams in (huge[None], np.diagonal(huge)[None]):
        assert mg._gram_lp_norms(tensor222, grams, 1.99) == pytest.approx([1e153], rel=1e-12)


def _mixed_upper_one_trial_at_a_time(m, p):
    """The mixed-Hardy search with one kernel call per trial, in the order
    and under the accept rules of the sequential search."""
    tower = m.tower
    per_k = [mg._split_candidates(tower, k + 1, dx) for k, dx in enumerate(m.differences)]

    def objective(splits):
        total = 0.0
        for side in (0, 1):
            g = mg._gram_pair(*splits[0])[side]
            for split in splits[1:]:
                g = g + mg._gram_pair(*split)[side]
            if g.ndim == 2:
                g = (g + g.conj().T) / 2
            total += mg._gram_lp_norms(tower, g[None], p)[0]
        return total

    n = len(m)
    choice = [0] * n
    best = objective([cands[0] for cands in per_k])
    for i in range(1, 5):
        val = objective([cands[i] for cands in per_k])
        if val < best:
            best, choice = val, [i] * n
    for _ in range(2 if n > 1 else 0):
        improved = False
        for k in range(n):
            for i in range(5):
                if i == choice[k]:
                    continue
                trial = list(choice)
                trial[k] = i
                val = objective([per_k[j][c] for j, c in enumerate(trial)])
                if val < best - 1e-15:
                    best, choice, improved = val, trial, True
        if not improved:
            break
    decomposition = [per_k[k][i] for k, i in enumerate(choice)]
    for k in range(n):
        a0, b0 = decomposition[k]
        for alt in per_k[k][:2]:
            for t in (0.25, 0.5, 0.75):
                trial = list(decomposition)
                trial[k] = ((1 - t) * a0 + t * alt[0], (1 - t) * b0 + t * alt[1])
                val = objective(trial)
                if val < best - 1e-15:
                    best, decomposition = val, trial
    return best, decomposition


@pytest.mark.parametrize("tower_name", ["tensor222", "tensor23", "abelian3", "custom4", "weighted2"])
def test_mixed_upper_phases_match_one_trial_at_a_time(request, tower_name):
    """Stacked phases make the sequential search's decisions, bit for bit."""
    tower = request.getfixturevalue(tower_name)
    for seed in range(16):
        m = random_martingale(tower, "gaussian", trial_rng(seed, 0, 0))
        for p in (0.5, 1.0, 1.5):
            bound, decomp = mg.hardy_mixed_upper(m, p)
            want, want_decomp = _mixed_upper_one_trial_at_a_time(m, p)
            assert bound == want
            for got, expect in zip(decomp, want_decomp, strict=True):
                assert all(np.array_equal(x, y) for x, y in zip(got, expect, strict=True))


def test_mixed_upper_builds_no_step_function(tensor222, monkeypatch):
    m = random_martingale(tensor222, "gaussian", trial_rng(3, 0, 0))

    def refuse(values, weights):
        raise AssertionError("step function built")

    monkeypatch.setattr(SingularValueFunction, "from_spectrum", staticmethod(refuse))
    bound, _ = mg.hardy_mixed_upper(m, 1.0)
    assert math.isfinite(bound) and bound > 0


def test_mixed_upper_factorizes_each_side_once(tensor222, monkeypatch):
    """Two eigh calls per level for the splits, then one eigenvalue stack
    holding both sides of the five uniform candidates."""
    m = random_martingale(tensor222, "gaussian", trial_rng(3, 0, 0))
    calls = _counting_solvers(monkeypatch)
    mg.hardy_mixed_upper(m, 1.0, refine=False)
    n, uniform_candidates = len(m), 5
    assert calls == [("eigh", (8, 8))] * (2 * n) + [("eigvalsh", (2 * uniform_candidates, 8, 8))]


def test_mixed_upper_eigensolver_failure_is_numerical(tensor222, monkeypatch):
    """A failure of the stacked eigenvalue call is numerical, and a trial error;
    the stack's first matrix is then retried alone and named."""
    m = random_martingale(tensor222, "gaussian", trial_rng(3, 0, 0))
    calls = _counting_solvers(monkeypatch, fail_below="_gram_lp_norms")
    with pytest.raises(ArithmeticError, match="eigensolver failed on operator sha256:"):
        mg.hardy_mixed_upper(m, 1.0)
    assert calls[-2:] == [("eigvalsh", (10, 8, 8)), ("eigvalsh", (8, 8))]
    cfg = ExperimentConfig("h1-to-bmo", FiltrationSpec.tensor([2, 2]), trials=2, seed=5)
    report = run_ratio_experiment(cfg)
    assert [f["check"] for f in report.failures] == ["trial_error", "trial_error"]


def test_split_candidates_eigensolver_failure_is_numerical(tensor222, monkeypatch):
    """The polar-support factorization fails as a numerical error."""
    m = random_martingale(tensor222, "gaussian", trial_rng(3, 0, 0))
    monkeypatch.setattr(mg, "_sqrt_psd", lambda g: g)
    calls = _counting_solvers(monkeypatch, fail_below="_split_candidates")
    with pytest.raises(ArithmeticError, match="eigensolver failed on operator sha256:"):
        mg._split_candidates(tensor222, 2, m.differences[1])
    assert len(calls) == 1


@pytest.mark.parametrize("experiment, trial_errors", [("h1-to-bmo", 4), ("hardy-column", 6)])
def test_square_root_eigensolver_failure_is_trial_error(experiment, trial_errors, monkeypatch):
    """An eigensolver failure in a trial is recorded; ``one`` runs a single
    trial, so the extremal family outside it keeps a working eigensolver."""
    _counting_solvers(monkeypatch, fail_below="one")
    cfg = ExperimentConfig(experiment, FiltrationSpec.tensor([2, 2]), trials=2, seed=5,
                           extremal_n_max=2)
    report = run_ratio_experiment(cfg)
    assert [f["check"] for f in report.failures] == ["trial_error"] * trial_errors
    assert all("eigensolver failed on operator sha256:" in f["detail"] for f in report.failures)


@pytest.mark.xfail(strict=True, reason="on a diagonal dx, _split_candidates forms dx - a "
                   "with a dense a, which broadcasts to a wrong matrix")
def test_hardy_mixed_upper_splits_diagonal_differences():
    tower = build_tower(FiltrationSpec.abelian_dyadic(6))
    m = random_martingale(tower, "gaussian", trial_rng(5, 0, 0))
    _, decomp = mg.hardy_mixed_upper(m, 1.0)

    def dense(y):
        return np.diag(y) if np.ndim(y) == 1 else y

    for (a, b), dx in zip(decomp, m.differences):
        assert np.allclose(dense(a) + dense(b), dense(dx))


def test_hd_norm_single_difference(tensor222, rng):
    dx = tensor222.project_difference(2, _random_dense(rng, 8))
    zero = np.zeros_like(dx)
    m = mg.MartingaleSequence(tensor222, (zero, dx))
    for p in (0.5, 1.0, 3.0):
        expect = lp_norm(singular_value_function(tensor222, dx), p)
        assert mg.hd_norm(m, p) == pytest.approx(expect, rel=1e-10)


def test_hd_norm_infinity_is_the_largest_level_norm(tensor22):
    m = random_martingale(tensor22, "gaussian", trial_rng(3, 0, 0))
    for scale in (0.01, 1.0):
        scaled = m.scaled([scale] * len(m))
        expect = max(operator_norm(dx) for dx in scaled.differences)
        assert mg.hd_norm(scaled, math.inf) == pytest.approx(expect, rel=1e-12)


def test_hd_norm_large_exponent_does_not_overflow(tensor22):
    """At p = 800 the level norms' p-th powers overflow a float."""
    m = random_martingale(tensor22, "gaussian", trial_rng(3, 0, 0))
    p = 800.0
    norms = np.array([lp_norm(singular_value_function(tensor22, dx), p) for dx in m.differences])
    top = norms.max()
    assert p * math.log(top) > math.log(sys.float_info.max)
    expect = top * np.sum((norms / top) ** p) ** (1.0 / p)
    assert mg.hd_norm(m, p) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# BMO


def test_bmo_single_difference_identity(any_tower, rng):
    """Paper identity: a single-difference martingale has BMO norm ||a||_inf."""
    t = any_tower
    for k in range(1, t.n_levels + 1):
        a = t._dense(t.random_element(rng, difference=k))
        diffs = [np.zeros((t.dim, t.dim), dtype=complex) for _ in range(t.n_levels)]
        diffs[k - 1] = a
        m = mg.MartingaleSequence(t, tuple(diffs))
        assert mg.bmo_column_norm(m) == pytest.approx(operator_norm(a), rel=1e-9)


def test_bmo_identity_is_one(tensor22):
    m = mg.adapt(tensor22, np.eye(4, dtype=complex))
    assert mg.bmo_column_norm(m) == pytest.approx(1.0, rel=1e-12)
    assert mg.bmo_norm(m) == pytest.approx(1.0, rel=1e-12)


def test_bmo_two_level_oracle(tensor22, rng):
    t = tensor22
    a = _random_dense(rng, 4)
    m = mg.adapt(t, a)
    af = m.final
    direct = max(
        operator_norm(t.conditional_expectation(1, af.conj().T @ af)),
        operator_norm(
            t.conditional_expectation(
                2,
                (af - t.conditional_expectation(1, af)).conj().T
                @ (af - t.conditional_expectation(1, af)),
            )
        ),
    )
    assert mg.bmo_column_norm(m) == pytest.approx(math.sqrt(direct), rel=1e-10)


# ---------------------------------------------------------------------------
# Lipschitz lower bounds


def _lipschitz_exhaustive(tower, m, beta):
    """True sup over every union of level atoms (small abelian towers)."""
    x = m.final
    best = operator_norm(tower.conditional_expectation(1, x))
    for n in range(1, tower.n_levels + 1):
        y = tower._dense(x - tower.conditional_expectation(n, x))
        block = tower._block_size(n)
        atoms = tower.dim // block
        for r in range(1, atoms + 1):
            for sel in itertools.combinations(range(atoms), r):
                diag = np.zeros(tower.dim)
                for i in sel:
                    diag[i * block : (i + 1) * block] = 1.0
                e = np.diag(diag.astype(complex))
                te = tower.trace(e).real
                best = max(best, tower.norm2(y @ e) / te ** (beta + 0.5))
    return best


def test_lipschitz_lower_vs_exhaustive(abelian3, rng):
    t = abelian3
    m = mg.adapt(t, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    for beta in (0.0, 0.5, 1.0):
        truth = _lipschitz_exhaustive(t, m, beta)
        got = mg.lipschitz_column_lower(m, beta)
        assert got <= truth + 1e-9
        # the candidate family recovers the diagonal optimum here
        assert got == pytest.approx(truth, rel=1e-8)


def test_lipschitz_lower_is_lower_bound_dense(tensor222, rng):
    t = tensor222
    m = mg.adapt(t, _random_dense(rng, 8))
    got = mg.lipschitz_column_lower(m, 0.5)
    assert math.isfinite(got) and got >= 0
    # strategy restriction never exceeds the combined bound
    spectral = mg.lipschitz_column_lower(m, 0.5, strategy="spectral")
    assert spectral <= got + 1e-12


def test_lipschitz_rejects_negative_beta(tensor22, rng):
    m = mg.adapt(tensor22, _random_dense(rng, 4))
    with pytest.raises(ValueError):
        mg.lipschitz_column_lower(m, -0.5)


# ---------------------------------------------------------------------------
# atoms


def _first_atom_projection(tower, n, rank=1):
    if tower.spec.kind == "tensor":
        sub = tower._sub_dims[n]
        rest = tower.dim // sub
        diag = np.zeros(sub)
        diag[:rank] = 1.0
        return np.diag(np.repeat(diag, rest).astype(complex))
    block = tower._block_size(n)
    diag = np.zeros(tower.dim)
    diag[: rank * block] = 1.0
    return np.diag(diag.astype(complex))


@pytest.mark.parametrize("side", ["column", "row"])
def test_make_atom_is_valid(any_tower, rng, side):
    t = any_tower
    if t.spec.kind == "custom":
        e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        n, deep = 1, 3
    else:
        e = _first_atom_projection(t, 1)
        n, deep = 1, t.n_levels
    for p in (0.5, 1.0, 1.5):
        a = mg.make_atom(t, rng, n, e, deep, p, side)
        cert = mg.validate_atom(t, a, n, e, p, side)
        assert cert.valid and not cert.degenerate
        assert cert.mean_zero_residual < 1e-10
        assert cert.support_residual < 1e-10
        assert abs(cert.l2_slack) < 1e-10  # exact equality normalization


def test_validate_atom_rejects_bad_inputs(tensor222, rng):
    e = _first_atom_projection(tensor222, 1)
    a = mg.make_atom(tensor222, rng, 1, e, 3, 0.5)
    with pytest.raises(ValueError):
        mg.validate_atom(tensor222, a, 1, e, 2.5)
    with pytest.raises(TowerError):
        mg.validate_atom(tensor222, a, 1, 0.5 * e, 0.5)
    with pytest.raises(TowerError):
        mg.make_atom(tensor222, rng, 2, e, 1, 0.5)
    # an unsupported element fails the support condition
    cert = mg.validate_atom(tensor222, np.eye(8, dtype=complex) - e, 1, e, 0.5)
    assert not cert.valid


def test_atom_constant_closed_form(tensor222, rng):
    """A deep-difference atom transforms with constant (zeta_m / tau(e))^gamma."""
    t = tensor222
    coeffs = zeta_sequence(t)
    for n, deep, rank in ((1, 2, 1), (1, 3, 2), (2, 3, 2)):
        e = _first_atom_projection(t, n, rank)
        te = t.trace(e).real
        for p, q in ((0.5, 1.0), (2 / 3, 1.0), (0.5, 4 / 3)):
            gamma = 1 / p - 1 / q
            a = mg.make_atom(t, rng, n, e, deep, p)
            c = mg.atom_constant(t, a, n, e, p, q, coeffs)
            assert c == pytest.approx((coeffs.values[deep - 1] / te) ** gamma, rel=1e-9)


def test_atom_constant_requires_order(tensor222, rng):
    e = _first_atom_projection(tensor222, 1)
    coeffs = zeta_sequence(tensor222)
    a = mg.make_atom(tensor222, rng, 1, e, 2, 0.5)
    with pytest.raises(ValueError):
        mg.atom_constant(tensor222, a, 1, e, 1.0, 0.5, coeffs)
