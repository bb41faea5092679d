import math

import numpy as np
import pytest

import ncmart.martingale as mg
from ncmart.algebra import FiltrationSpec, Tower, TowerError, build_tower
from ncmart.fractional import (
    CoefficientSequence,
    _top_singular_pairs,
    embedding_constants_check,
    fractional_integral,
    iterated_transform,
    selfadjointness_check,
    zeta_optimize,
    zeta_sequence,
)
from ncmart.spectral import lp_norm, singular_value_function


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
    assert c.powered(0.5) == [math.sqrt(0.5), 0.5]
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


def test_optimizer_svd_fallback(tensor23, monkeypatch, rng):
    """When LAPACK's SVD does not converge the top triples come from eigh."""
    xs = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    sigma, u, v = _top_singular_pairs(xs)

    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    f_sigma, f_u, f_v = _top_singular_pairs(xs)
    assert np.allclose(f_sigma, sigma, rtol=1e-12)
    # singular vectors agree up to a common phase per matrix
    phase = np.einsum("sp,sp->s", v.conj(), f_v)
    assert np.allclose(np.abs(phase), 1.0, atol=1e-10)
    assert np.allclose(f_v, v * phase[:, None], atol=1e-10)
    assert np.allclose(f_u, u * phase[:, None], atol=1e-10)
    assert zeta_optimize(tensor23, 2, restarts=8) == pytest.approx(1 / 6, rel=1e-6)


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


def test_optimizer_stops_at_level_bound(monkeypatch):
    """A matrix unit reaches the level bound among the basis starts, so the
    search ends after its first step."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    tower = build_tower(FiltrationSpec.parse("tensor:2,3,3"))
    z, det = zeta_optimize(tower, 3, return_details=True)
    assert len(calls) <= 3
    assert det["certified"] is True
    assert det["upper_bound"] == pytest.approx(math.sqrt(18), rel=1e-15)
    assert z == pytest.approx(1 / 18, rel=1e-12)


def test_optimizer_below_level_bound(abelian3):
    """D_3 of abelian:3 has constant 2^-2, its level 2^-3: no certificate."""
    z, det = zeta_optimize(abelian3, 3, restarts=8, return_details=True)
    assert z == pytest.approx(0.25, rel=1e-6)
    assert det["certified"] is False
    assert det["upper_bound"] == pytest.approx(math.sqrt(8), rel=1e-15)


def test_optimizer_above_level_bound_is_numerical_failure(tensor22, monkeypatch):
    monkeypatch.setattr(Tower, "level_constant", lambda self, k: 1.0)
    with pytest.raises(ArithmeticError, match="level bound"):
        zeta_optimize(tensor22, 2, restarts=4)


def test_optimizer_custom_tower(custom4):
    # level 1 of the custom tower is spanned by two half projections:
    # the extremal normalized element is sqrt(2) p, so the constant is 1/2
    assert zeta_optimize(custom4, 1, restarts=8) == pytest.approx(0.5, rel=1e-6)


def test_auto_sequence_is_optimized_once_per_tower(monkeypatch):
    """Equal custom specs share one tower, whose optimized ``auto``
    coefficients are computed once; ``optimize`` always reruns."""
    import ncmart.fractional as fractional

    calls = []
    real = fractional.zeta_optimize

    def counting(tower, k, **kw):
        calls.append(k)
        return real(tower, k, **kw)

    monkeypatch.setattr(fractional, "zeta_optimize", counting)

    def spec():  # a chain no other test builds, so nothing is cached yet
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        return FiltrationSpec.custom([[p], [np.diag(r) for r in np.eye(3)]])

    first = zeta_sequence(build_tower(spec()), "auto", restarts=4)
    again = zeta_sequence(build_tower(spec()), "auto", restarts=4)
    assert again is first and calls == [1, 2]
    zeta_sequence(build_tower(spec()), "optimize", restarts=4)
    assert calls == [1, 2, 1, 2]


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
