import math

import numpy as np
import pytest

import ncmart.fractional as fractional
import ncmart.martingale as mg
from ncmart.algebra import FiltrationSpec, Tower, TowerError, build_tower
from ncmart.fractional import (
    CoefficientSequence,
    embedding_constants_check,
    fractional_integral,
    iterated_transform,
    selfadjointness_check,
    zeta_optimize,
    zeta_sequence,
)
from ncmart.spectral import lp_norm, singular_value_function
from conftest import peak_allocation


def _random_dense(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# ---------------------------------------------------------------------------
# coefficient sequences


def test_coefficient_validation():
    with pytest.raises(ValueError):
        CoefficientSequence((0.0, 0.5), "user")
    with pytest.raises(ValueError):
        CoefficientSequence((1.5,), "user")
    c = CoefficientSequence((0.5, 0.25), "user")
    assert len(c) == 2
    assert c.to_json() == {"values": [0.5, 0.25], "provenance": "user"}


def test_zeta_sequence_methods(tensor22):
    closed = zeta_sequence(tensor22)
    assert closed.provenance == "closed_form_tensor"
    assert closed.values == (0.5, 0.25)
    for method in ("user", "nope"):  # given values are a CoefficientSequence
        with pytest.raises(ValueError, match="unknown coefficient method"):
            zeta_sequence(tensor22, method)
    opt = zeta_sequence(tensor22, "optimize", restarts=4)
    assert opt.provenance == "optimized"
    assert len(opt.certificates) == 2


def test_abelian_closed_form(abelian4):
    seq = zeta_sequence(abelian4)
    assert seq.provenance == "closed_form_abelian_dyadic"
    assert seq.values == (0.5, 0.5, 0.25, 0.125)


@pytest.mark.parametrize("spec,levels,explicit", [
    ("tensor:2,3,3", (1, 2, 3), (1 / 2, 1 / 6, 1 / 18)),
    ("abelian:5", (1, 1, 2, 3, 4), (0.5, 0.5, 0.25, 0.125, 0.0625)),
])
def test_closed_form_is_level_constants(spec, levels, explicit):
    """``zeta_k`` is ``c_k`` on a tensor tower, ``c_1`` then ``c_{k-1}`` on an
    abelian one, bit for bit."""
    tower = build_tower(FiltrationSpec.parse(spec))
    values = zeta_sequence(tower, "auto").values
    assert values == tuple(tower.level_constant(k) for k in levels) == explicit


# ---------------------------------------------------------------------------
# the optimizer against closed forms


@pytest.mark.parametrize("fixture,expected", [
    ("tensor22", [0.5, 0.25]),
    ("tensor222", [0.5, 0.25, 0.125]),
    ("abelian3", [0.5, 0.5, 0.25]),
    # M_2 (x) M_3: the constant of D_2 is 1/6, witnessed by a matrix unit
    ("tensor23", [0.5, 1 / 6]),
])
def test_optimizer_matches_closed_form(request, fixture, expected):
    tower = request.getfixturevalue(fixture)
    assert zeta_sequence(tower).values == tuple(expected)
    for k, want in enumerate(expected, start=1):
        got = zeta_optimize(tower, k, restarts=8)
        assert got == pytest.approx(want, rel=1e-6)


def _failing_svd(monkeypatch, failures):
    """Make the first ``failures`` calls of ``np.linalg.svd`` raise
    ``LinAlgError``; returns the list of calls made."""
    calls = []
    svd = np.linalg.svd

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    return calls


def test_optimizer_svd_fallback(tensor23, monkeypatch):
    """A failed SVD of the basis evaluation is retried, not fatal."""
    calls = _failing_svd(monkeypatch, 1)
    assert zeta_optimize(tensor23, 2, restarts=8) == pytest.approx(1 / 6, rel=1e-6)
    assert len(calls) == 3  # the failed basis call, its retry, the random starts


def test_optimizer_svd_failure_is_numerical(tensor23, monkeypatch):
    _failing_svd(monkeypatch, math.inf)
    with pytest.raises(ArithmeticError, match="singular value solver failed on operator sha256:"):
        zeta_optimize(tensor23, 2, restarts=8)


def test_optimizer_is_an_upper_bound_on_zeta(tensor222):
    """More restarts can only lower the reported constant."""
    few = zeta_optimize(tensor222, 2, restarts=1, seed=3)
    many = zeta_optimize(tensor222, 2, restarts=24, seed=3)
    assert many <= few + 1e-12


def test_optimizer_details(tensor22):
    z, det = zeta_optimize(tensor22, 2, restarts=4, return_details=True)
    assert det["level"] == 2 and det["basis_dim"] == 12
    assert det["best_ratio"] == pytest.approx(2.0, rel=1e-8)
    with pytest.raises(ValueError):
        zeta_optimize(tensor22, 1, restarts=0)


@pytest.mark.parametrize("tol", [math.nan, -1e-3, math.inf])
def test_optimizer_rejects_bad_tol(tensor22, tol):
    with pytest.raises(ValueError, match="tol"):
        zeta_optimize(tensor22, 2, tol=tol)


def _no_search(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("alternating maximization entered")

    monkeypatch.setattr(fractional, "_alternating_max", fail)


def test_optimizer_stops_at_level_bound(monkeypatch):
    """A matrix unit in the basis of D_3 reaches the level bound, so the
    level is certified from the basis evaluation: one SVD of the basis, one
    of the random starts, and no search."""
    calls = _failing_svd(monkeypatch, 0)
    _no_search(monkeypatch)
    tower = build_tower(FiltrationSpec.parse("tensor:2,3,3"))
    z, det = zeta_optimize(tower, 3, return_details=True)
    assert len(calls) == 2
    assert det["certified"] is True
    assert det["upper_bound"] == pytest.approx(math.sqrt(18), rel=1e-15)
    assert det["basis_starts"] == 0 and det["restarts"] == 32
    assert len(det["per_start_top"]) == 5 and max(det["per_start_top"]) < math.sqrt(18)
    assert z == pytest.approx(1 / 18, rel=1e-12)


def test_certified_check_does_not_copy_a_real_basis():
    """The random starts on the real D_3 of tensor:2,3,3 are real, drawn in
    the basis's own field, so they are formed by one real product, not
    through a complex copy of its 288-element basis."""
    tower = Tower(FiltrationSpec.parse("tensor:2,3,3"))
    basis = tower.difference_basis(3)
    assert basis.dtype == np.float64
    assert peak_allocation(lambda: zeta_optimize(tower, 3)) < 2 * basis.nbytes
    _, det = zeta_optimize(tower, 3, return_details=True)
    rand = np.random.default_rng(0).standard_normal((32, len(basis)))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    elems = np.tensordot(rand, basis, axes=(1, 0))
    want = np.sort(np.linalg.svd(elems, compute_uv=False)[:, 0])[::-1][:5]
    assert det["per_start_top"] == pytest.approx(want, rel=1e-12)


def _counting_search(monkeypatch):
    """Count the calls of ``_alternating_max``; returns the list of calls."""
    entered = []
    search = fractional._alternating_max

    def counting(*args):
        entered.append(1)
        return search(*args)

    monkeypatch.setattr(fractional, "_alternating_max", counting)
    return entered


def test_optimizer_below_level_bound(abelian3, monkeypatch):
    """D_3 of abelian:3 has constant 2^-2, its level 2^-3: no certificate,
    so the search runs from the basis starts and the random ones."""
    entered = _counting_search(monkeypatch)
    z, det = zeta_optimize(abelian3, 3, restarts=8, return_details=True)
    assert entered == [1] and det["basis_starts"] > 0 and det["restarts"] == 8
    assert z == pytest.approx(0.25, rel=1e-6)
    assert det["certified"] is False
    assert det["upper_bound"] == pytest.approx(math.sqrt(8), rel=1e-15)


def test_optimizer_above_level_bound_is_numerical_failure(tensor22, monkeypatch):
    """A basis element above the bound raises without a search."""
    monkeypatch.setattr(Tower, "level_constant", lambda self, k: 1.0)
    _no_search(monkeypatch)
    with pytest.raises(ArithmeticError, match="level bound"):
        zeta_optimize(tensor22, 2, restarts=4)


def test_optimizer_search_above_level_bound_is_numerical_failure(abelian3, monkeypatch):
    """A search that passes a bound no basis element reaches raises too:
    the basis of D_1 (the identity and a Haar step) has ratio 1, the
    extremal two-valued element sqrt(2)."""
    base = np.linalg.svd(abelian3.difference_basis(1), compute_uv=False)[:, 0]
    assert base.max() == pytest.approx(1.0, rel=1e-12)
    cap = (1 + math.sqrt(2)) / 2
    monkeypatch.setattr(Tower, "level_constant", lambda self, k: cap**-2)
    with pytest.raises(ArithmeticError, match="level bound"):
        zeta_optimize(abelian3, 1, restarts=4)


# ``zeta_sequence(tower, "optimize")`` as the search from every basis start
# computed it before levels were certified from the basis evaluation.
SEARCHED_ZETA = {
    "tensor:3,4": ([0.33333333333333337, 0.08333333333333334], [True, True]),
    "tensor:2,3,3": ([0.4999999999999999, 0.16666666666666663, 0.055555555555555566],
                     [True, True, True]),
    "tensor:2,2,2": ([0.4999999999999999, 0.2499999999999999, 0.12499999999999997],
                     [True, True, True]),
    "abelian:3": ([0.4999999999999998, 0.4999999999999998, 0.2499999999999999],
                  [True, False, False]),
    "abelian:4": ([0.4999999999999998, 0.4999999999999998, 0.2499999999999999,
                   0.12499999999999994], [True, False, False, False]),
    "custom4": ([0.4999999999999998, 0.4999999999999998, 0.25], [True, False, True]),
}


@pytest.mark.parametrize("name", sorted(SEARCHED_ZETA))
def test_certified_levels_keep_the_searched_constants(request, name):
    tower = (request.getfixturevalue(name) if name == "custom4"
             else build_tower(FiltrationSpec.parse(name)))
    seq = zeta_sequence(tower, "optimize")
    values, certified = SEARCHED_ZETA[name]
    assert list(seq.values) == pytest.approx(values, rel=1e-14, abs=0)
    assert [dict(c)["certified"] for c in seq.certificates] == certified


def test_optimizer_custom_tower(custom4, monkeypatch):
    # level 1 of the custom tower is spanned by two half projections:
    # the extremal normalized element is sqrt(2) p, so the constant is 1/2
    assert zeta_optimize(custom4, 1, restarts=8) == pytest.approx(0.5, rel=1e-6)
    # D_2 reaches 1/2, below its level bound 1/4, so it is searched
    entered = _counting_search(monkeypatch)
    z, det = zeta_optimize(custom4, 2, restarts=8, return_details=True)
    assert entered == [1] and det["certified"] is False
    assert z == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize("spec", ["tensor:2,3", "abelian:3", "custom4", "weighted2"])
def test_auto_never_optimizes(request, spec, monkeypatch):
    """``auto`` reads the closed form on every tower kind; only ``optimize`` searches."""
    calls = []
    monkeypatch.setattr(fractional, "zeta_optimize", lambda *a, **kw: calls.append(1))
    tower = (request.getfixturevalue(spec) if spec in ("custom4", "weighted2")
             else build_tower(FiltrationSpec.parse(spec)))
    seq = zeta_sequence(tower, "auto")
    assert calls == [] and len(seq) == tower.n_levels
    assert seq.provenance == "closed_form_" + tower.spec.kind


def _units(n):
    return list(np.eye(n * n, dtype=complex).reshape(n * n, n, n))


def _corner(ms, d, at=0):
    """Each matrix of ``ms`` placed at rows and columns ``at, at+1, ...`` of ``d x d`` zeros."""
    out = np.zeros((len(ms), d, d), dtype=complex)
    out[:, at:at + len(ms[0]), at:at + len(ms[0])] = ms
    return list(out)


def _rotated(sets, d):
    """The spanning sets conjugated by a seeded Haar unitary of ``M_d``."""
    rng = np.random.default_rng(5)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return [[u @ m @ u.conj().T for m in s] for s in sets]


_P = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
_CUSTOM4 = [[_P, np.eye(4) - _P], [np.diag(r) for r in np.eye(4)], _units(4)]
_M2_C = [_corner(_units(2), 3) + _corner([np.eye(1)], 3, 2), _units(3)]
_M4_C = [_corner([np.kron(u, np.eye(2)) for u in _units(2)], 5) + _corner([np.eye(1)], 5, 4),
         _corner(_units(4), 5) + _corner([np.eye(1)], 5, 4), _units(5)]
BLOCK_TOWERS = {
    "custom4": lambda: FiltrationSpec.custom(_CUSTOM4),
    "custom4 rotated": lambda: FiltrationSpec.custom(_rotated(_CUSTOM4, 4)),
    "M_2 + C in M_3": lambda: FiltrationSpec.custom(_M2_C),
    "M_2 + C in M_3 rotated": lambda: FiltrationSpec.custom(_rotated(_M2_C, 3)),
    "M_2 (x) 1_2 + C in M_4 + C in M_5": lambda: FiltrationSpec.custom(_M4_C),
    "M_2 (x) 1_2 + C in M_4 + C in M_5 rotated": lambda: FiltrationSpec.custom(
        _rotated(_M4_C, 5)),
    "tensor:2,3": lambda: FiltrationSpec.custom(
        [build_tower(FiltrationSpec.tensor([2, 3])).level_basis(k) for k in (1, 2)]),
    "tensor:2,3,2": lambda: FiltrationSpec.custom(
        [build_tower(FiltrationSpec.tensor([2, 3, 2])).level_basis(k) for k in (1, 2, 3)]),
    "diagonal chain under (.1, .2, .3, .4)": lambda: FiltrationSpec.custom(
        _CUSTOM4[:2], weights=[0.1, 0.2, 0.3, 0.4]),
    # blocks made of copies of one 1-dimensional block, which (1 - P) E(P) P = 0
    # alone would take for single copies
    "C 1 in M_2": lambda: FiltrationSpec.custom([[np.eye(2)], _units(2)]),
    "C p + C (1 - p) in M_2 + M_2": lambda: FiltrationSpec.custom(
        [[_P], _corner(_units(2), 4) + _corner(_units(2), 4, 2)]),
}


@pytest.mark.parametrize("name", list(BLOCK_TOWERS))
def test_block_constants_match_the_optimizer(name):
    """The stored zeta_k equal ``zeta_optimize``'s; on tensor towers given as
    spanning sets they equal the native closed form, bit for bit."""
    tower = build_tower(BLOCK_TOWERS[name]())
    levels = range(1, tower.n_levels + 1)
    stored = [tower.difference_constant(k) for k in levels]
    assert stored == pytest.approx([zeta_optimize(tower, k) for k in levels], rel=1e-12, abs=0)
    if name.startswith("tensor:"):
        assert tuple(stored) == zeta_sequence(build_tower(FiltrationSpec.parse(name))).values
    if name == "diagonal chain under (.1, .2, .3, .4)":
        assert stored == pytest.approx([0.3, 0.15], rel=1e-14)


def test_trivial_difference_subspace_has_no_constant():
    """A custom level equal to the one below builds; its D_k has no constant."""
    p = np.diag([1.0, 0.0]).astype(complex)
    tower = build_tower(FiltrationSpec.custom([[p], [p, np.eye(2) - p]]))
    assert tower.difference_constant(1) == 0.5
    for fn in (lambda: tower.difference_constant(2), lambda: zeta_sequence(tower, "auto"),
               lambda: zeta_optimize(tower, 2)):
        with pytest.raises(TowerError, match="difference subspace at level 2 is trivial"):
            fn()


# ---------------------------------------------------------------------------
# transforms


def test_fractional_integral_scales_single_difference(tensor222, rng):
    t = tensor222
    coeffs = zeta_sequence(t)
    dx = t.project_difference(2, _random_dense(rng, 8))
    zero = np.zeros_like(dx)
    m = mg.MartingaleSequence(t, (zero, dx, zero))
    out = fractional_integral(m, 0.5, coeffs)
    assert t.norm2(out.differences[1] - 0.25**0.5 * dx) < 1e-12


def test_fractional_integral_order_range(tensor22, rng):
    m = mg.adapt(tensor22, _random_dense(rng, 4))
    coeffs = zeta_sequence(tensor22)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            fractional_integral(m, bad, coeffs)
    with pytest.raises(ValueError):
        iterated_transform(m, 0.0, coeffs)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
def test_iterated_transform_needs_a_finite_positive_order(tensor22, rng, gamma):
    """A NaN order used to return NaN differences, and an infinite one zeros."""
    m = mg.adapt(tensor22, _random_dense(rng, 4))
    with pytest.raises(ValueError, match="finite and positive"):
        iterated_transform(m, gamma, zeta_sequence(tensor22))


@pytest.mark.parametrize("spec", ["tensor:2,2,2", "abelian:3"])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_fractional_integral_is_zeta_power_times_each_difference(rng, spec, alpha):
    """``I^alpha`` multiplies ``dx_k`` by the float ``zeta_k ** alpha``, bit for
    bit, on dense and diagonal stacks."""
    t = build_tower(FiltrationSpec.parse(spec))
    coeffs = zeta_sequence(t)
    x = _random_dense(rng, 8) if spec.startswith("tensor") else rng.standard_normal(8) + 0j
    m = mg.adapt(t, x)
    out = fractional_integral(m, alpha, coeffs)
    assert out.differences.shape == m.differences.shape
    for z, dx, dy in zip(coeffs.values, m.differences, out.differences):
        assert np.array_equal(dy, z**alpha * dx)


def test_transform_linearity(tensor222, rng):
    t = tensor222
    coeffs = zeta_sequence(t)
    x, y = _random_dense(rng, 8), _random_dense(rng, 8)
    mx, my = mg.adapt(t, x), mg.adapt(t, y)
    mxy = mg.adapt(t, 2 * x + 3j * y)
    lhs = iterated_transform(mxy, 0.7, coeffs).final
    rhs = (
        2 * iterated_transform(mx, 0.7, coeffs).final
        + 3j * iterated_transform(my, 0.7, coeffs).final
    )
    assert t.norm2(lhs - rhs) < 1e-10


def test_iterated_transform_composition(tensor222, rng):
    """The half-order transform composed with itself is the order-1 map,
    and I^{3/4} twice equals the 3/2-order iterated transform."""
    t = tensor222
    coeffs = zeta_sequence(t)
    m = mg.adapt(t, _random_dense(rng, 8))
    once = iterated_transform(m, 1.5, coeffs)
    twice = fractional_integral(fractional_integral(m, 0.75, coeffs), 0.75, coeffs)
    for a, b in zip(once.differences, twice.differences):
        assert t.norm2(a - b) < 1e-12
    assert t.norm2(
        iterated_transform(m, 1.0, coeffs).final
        - fractional_integral(fractional_integral(m, 0.5, coeffs), 0.5, coeffs).final
    ) < 1e-12


def test_transform_l2_contraction(tensor222, rng):
    # coefficients lie in (0, 1], so every order contracts the L2 norm
    t = tensor222
    coeffs = zeta_sequence(t)
    m = mg.adapt(t, _random_dense(rng, 8))
    n0 = t.norm2(m.final)
    for gamma in (0.25, 0.5, 1.0, 2.0):
        assert t.norm2(iterated_transform(m, gamma, coeffs).final) <= n0 + 1e-12


def test_selfadjointness(tensor222, rng):
    t = tensor222
    coeffs = zeta_sequence(t)
    for _ in range(20):
        m1 = mg.adapt(t, _random_dense(rng, 8))
        m2 = mg.adapt(t, _random_dense(rng, 8))
        res = selfadjointness_check(m1, m2, 0.5, coeffs)
        assert res["ok"], res
    other = build_tower(FiltrationSpec.tensor([2, 2]))
    with pytest.raises(TowerError):
        selfadjointness_check(m1, mg.adapt(other, np.eye(4, dtype=complex)), 0.5, coeffs)


# ---------------------------------------------------------------------------
# embedding inequalities


def test_embedding_constants_no_violations(tensor222, abelian3):
    for tower in (tensor222, abelian3):
        coeffs = zeta_sequence(tower)
        for k in range(1, tower.n_levels + 1):
            rep = embedding_constants_check(tower, k, coeffs, samples=300, seed=11)
            assert rep["violations"] == 0
            assert rep["max_uniform_over_l2"] <= rep["uniform_over_l2_bound"] + 1e-9
            assert rep["max_l2_over_l1"] <= rep["l2_over_l1_bound"] + 1e-9


def test_embedding_bound_attained_at_level_one(tensor22):
    """Dyadic k=1: the uniform/L2 ratio reaches 2^{1/2} on matrix units."""
    coeffs = zeta_sequence(tensor22)
    rep = embedding_constants_check(tensor22, 1, coeffs, samples=1000, seed=1)
    assert rep["uniform_over_l2_bound"] == pytest.approx(math.sqrt(2.0))
    assert rep["max_uniform_over_l2"] <= math.sqrt(2.0) + 1e-9
    # the extremal ratio is witnessed by a scaled matrix unit in D_1
    e12 = np.zeros((4, 4), dtype=complex)
    e12[0, 2] = 1.0  # E_12 (x) 1 entry
    x = tensor22.project_difference(1, e12)
    ratio = lp_norm(singular_value_function(tensor22, x), math.inf) / tensor22.norm2(x)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_basic_lemma_inequalities(tensor222, abelian3, rng):
    """Lemma basic (i) and (ii) on sampled difference elements."""
    for tower in (tensor222, abelian3):
        coeffs = zeta_sequence(tower)
        for k in range(1, tower.n_levels + 1):
            zeta = coeffs.values[k - 1]
            for _ in range(100):
                a = tower.project_difference(k, tower.random_element(rng))
                s = singular_value_function(tower, a)
                n1, n2 = lp_norm(s, 1.0), lp_norm(s, 2.0)
                for alpha in (0.1, 0.5, 0.9):
                    assert zeta**alpha * lp_norm(s, 1 / (1 - alpha)) <= 2**alpha * n1 + 1e-9
                for p in (1.25, 1.5, 1.75):
                    assert zeta ** (1 / p - 0.5) * n2 <= lp_norm(s, p) + 1e-9
