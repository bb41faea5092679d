import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmart.spectral import (
    MERGE_TOL,
    SingularValueFunction,
    _eigvalsh,
    distribution,
    lorentz_norm,
    lp_norm,
    operator_norm,
    singular_value_function,
    weak_norm,
    weak_norm_distribution,
)


def step_functions():
    """Random valid step functions as a hypothesis strategy."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        values = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            ),
            reverse=True,
        )
        gaps = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
            )
        )
        cums = np.cumsum(gaps)
        cums = cums / cums[-1]
        return SingularValueFunction(np.asarray(values), cums)

    return build()


# ---------------------------------------------------------------------------
# construction


def test_constructor_validates():
    with pytest.raises(ValueError):
        SingularValueFunction(np.array([1.0, 2.0]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        SingularValueFunction(np.array([2.0, 1.0]), np.array([0.5, 0.9]))
    with pytest.raises(ValueError):
        SingularValueFunction(np.array([-1.0]), np.array([1.0]))


def test_value_at_steps():
    s = SingularValueFunction(np.array([3.0, 1.0]), np.array([0.25, 1.0]))
    assert s.value_at(0.0) == 3.0
    assert s.value_at(0.2499) == 3.0
    assert s.value_at(0.25) == 1.0
    assert s.value_at(0.999) == 1.0
    assert s.value_at(1.0) == 0.0
    with pytest.raises(ValueError):
        s.value_at(-0.1)


def test_json_roundtrip():
    s = SingularValueFunction(np.array([3.0, 1.0]), np.array([0.25, 1.0]))
    r = SingularValueFunction.from_json(json.loads(json.dumps(s.to_json())))
    assert np.array_equal(r.values, s.values) and np.array_equal(r.cums, s.cums)


def _merge_sequentially(values, weights):
    """One sample at a time: the reference for ``from_spectrum``."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values)[::-1]
    vs, ws = [], []
    for v, w in zip(values[order], weights[order]):
        if w <= 0:
            continue
        if vs and vs[-1] - v <= MERGE_TOL * max(1.0, vs[-1]):
            ws[-1] += w
        else:
            vs.append(v)
            ws.append(w)
    if not vs:
        vs, ws = [0.0], [1.0]
    cums = np.cumsum(ws)
    cums[-1] = 1.0
    return np.maximum(vs, 0.0), cums


@st.composite
def clustered_spectra(draw):
    """Spectra with exact ties and chains of gaps near ``MERGE_TOL``.

    Each cluster steps down from its centre by multiples of the tolerance
    at the centre, so a chain of individually close values can drift past
    the tolerance from its first value.
    """
    values = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        centre = draw(st.sampled_from([0.0, 1e-13, 0.5, 1.0, 3.0, 100.0])
                      | st.floats(min_value=0.0, max_value=100.0))
        steps = draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0, 1.1, 2.0]),
                              max_size=10))
        offsets = np.cumsum([0.0] + steps) * MERGE_TOL * max(1.0, centre)
        values.extend(np.maximum(centre - offsets, 0.0))
    weights = np.asarray(draw(st.lists(
        st.just(0.0) | st.floats(min_value=0.01, max_value=1.0),
        min_size=len(values), max_size=len(values))))
    if draw(st.booleans()):
        weights[:] = 0.0
    if weights.sum() > 0:
        weights = weights / weights.sum()
    return np.asarray(values), weights


@settings(max_examples=200, deadline=None)
@given(spectrum=clustered_spectra())
def test_from_spectrum_matches_sequential_merge(spectrum):
    values, weights = spectrum
    s = SingularValueFunction.from_spectrum(values, weights)
    ref_values, ref_cums = _merge_sequentially(values, weights)
    assert np.array_equal(s.values, ref_values)
    assert np.array_equal(s.cums, ref_cums)


def test_from_spectrum_merges_ties():
    s = SingularValueFunction.from_spectrum([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    assert s.values.tolist() == [2.0, 1.0]
    assert np.allclose(s.cums, [0.5, 1.0])


def test_diagonal_operator_svf(abelian3):
    v = np.array([3.0, -1.0, 0.5, 0.5, 0.0, 0.0, 2.0, 1.0], dtype=complex)
    s = singular_value_function(abelian3, v)
    # the two unit singular values merge into one breakpoint of weight 2/8
    assert s.values.tolist() == [3.0, 2.0, 1.0, 0.5, 0.0]
    assert np.allclose(s.cums, np.array([1, 2, 4, 6, 8]) / 8, atol=1e-12)


def test_dense_matches_singular_values(tensor222, rng):
    """Eigendecomposition oracle: svf of a dense x lists its singular values."""
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s = singular_value_function(tensor222, x)
    sv = np.sort(np.linalg.svd(x, compute_uv=False))[::-1]
    for p in (1.0, 2.0, 3.5):
        direct = (np.sum(sv**p) / 8) ** (1 / p)
        assert abs(lp_norm(s, p) - direct) < 1e-9
    assert abs(lp_norm(s, math.inf) - sv[0]) < 1e-10
    assert abs(operator_norm(x) - sv[0]) < 1e-10


def test_f_n_breakpoints(abelian4):
    f = np.zeros(16, dtype=complex)
    f[0] = 16.0
    s = singular_value_function(abelian4, f)
    assert s.values.tolist() == [16.0, 0.0]
    assert np.allclose(s.cums, [1.0 / 16.0, 1.0])
    assert abs(lp_norm(s, 1.0) - 1.0) < 1e-12
    assert abs(weak_norm(s, 2.0) - 4.0) < 1e-12


# ---------------------------------------------------------------------------
# norms


@given(s=step_functions())
@settings(max_examples=100, deadline=None)
def test_lp_monotone_in_p(s):
    # normalized trace: L_p norms increase with p
    n1, n2, n4 = lp_norm(s, 1.0), lp_norm(s, 2.0), lp_norm(s, 4.0)
    assert n1 <= n2 + 1e-9 * max(1, n2) and n2 <= n4 + 1e-9 * max(1, n4)
    assert n4 <= lp_norm(s, math.inf) + 1e-9 * max(1, n4)


@given(s=step_functions(), p=st.floats(min_value=0.3, max_value=8.0))
@settings(max_examples=100, deadline=None)
def test_lorentz_pp_equals_lp(s, p):
    assert lorentz_norm(s, p, p) == pytest.approx(lp_norm(s, p), abs=1e-10, rel=1e-10)


@given(s=step_functions(), p=st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=100, deadline=None)
def test_weak_norm_two_formulas_agree(s, p):
    assert weak_norm(s, p) == pytest.approx(weak_norm_distribution(s, p), abs=1e-10, rel=1e-10)


@given(s=step_functions(), p=st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=100, deadline=None)
def test_weak_below_lp(s, p):
    assert weak_norm(s, p) <= lp_norm(s, p) * (1 + 1e-9) + 1e-12


def test_lorentz_quadrature_oracle(tensor222, rng):
    """Adaptive quadrature of (t^{1/p} mu_t)^q / t against the exact value."""
    from scipy.integrate import quad

    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s = singular_value_function(tensor222, x)
    edges = np.concatenate([[0.0], s.cums])
    for p, q in ((1.0, 1.0), (2.0, 1.0), (1.5, 3.0)):
        total = 0.0
        for j, v in enumerate(s.values):
            piece, _ = quad(lambda t: t ** (q / p - 1), edges[j], edges[j + 1])
            total += v**q * piece
        assert lorentz_norm(s, p, q) == pytest.approx(total ** (1 / q), rel=1e-8)


def test_lorentz_qinf_is_weak():
    s = SingularValueFunction(np.array([3.0, 1.0]), np.array([0.25, 1.0]))
    assert lorentz_norm(s, 2.0, math.inf) == weak_norm(s, 2.0)


def test_eigvalsh_failure_is_numerical(monkeypatch):
    """A failed stacked eigenvalue call names its operator, as ``_eigh`` does."""
    stack = np.stack([np.diag([1.0, 2.0]).astype(complex)] * 3)
    assert np.array_equal(_eigvalsh(stack, stack), np.tile([1.0, 2.0], (3, 1)))

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ArithmeticError, match="eigensolver failed on operator sha256:") as info:
        _eigvalsh(stack, stack)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_eigvalsh_failure_names_the_failing_matrix_of_a_stack(monkeypatch):
    """A stack that fails is retried matrix by matrix; the digest is that of
    the first failing matrix's operator, as a single call on it would give."""
    stack = np.stack([np.diag([1.0, k]).astype(complex) for k in (2.0, 3.0, 4.0)])
    operators = 10 * stack
    solver = np.linalg.eigvalsh

    def fail_on_three(a):
        if np.any(a == 3.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_three)
    with pytest.raises(ArithmeticError) as from_stack:
        _eigvalsh(stack, operators)
    with pytest.raises(ArithmeticError) as from_one:
        _eigvalsh(stack[1], operators[1])
    digest = hashlib.sha256(np.ascontiguousarray(operators[1])).hexdigest()[:16]
    assert str(from_stack.value) == str(from_one.value) == f"eigensolver failed on operator sha256:{digest}"
    assert isinstance(from_stack.value.__cause__, np.linalg.LinAlgError)


def test_large_exponent_log_space():
    s = SingularValueFunction(np.array([10.0, 5.0]), np.array([0.5, 1.0]))
    p = 400.0
    # dominated by the top value; direct powering would overflow
    expected = 10.0 * (0.5) ** (1 / p)
    assert lp_norm(s, p) == pytest.approx(expected, rel=1e-9)


def test_norm_rejects_bad_parameters():
    s = SingularValueFunction(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        lp_norm(s, 0.0)
    with pytest.raises(ValueError):
        lorentz_norm(s, math.inf, 2.0)
    with pytest.raises(ValueError):
        weak_norm(s, 0.5)
    with pytest.raises(ValueError):
        distribution(s, 0.0)


def test_distribution_values():
    s = SingularValueFunction(np.array([3.0, 1.0]), np.array([0.25, 1.0]))
    assert distribution(s, 0.5) == 1.0
    assert distribution(s, 1.0) == 0.25
    assert distribution(s, 2.9) == 0.25
    assert distribution(s, 3.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(step_functions(), st.lists(st.floats(min_value=1e-6, max_value=120.0), max_size=8))
def test_distribution_array_matches_scalar_calls(s, extra):
    lams = np.concatenate([s.values[s.values > 0], s.values[s.values > 0] * 0.999, extra])
    got = distribution(s, lams)
    assert got.shape == lams.shape
    assert got.tolist() == [distribution(s, float(lam)) for lam in lams]
    # the last piece above each level, found by a mask
    above = [np.flatnonzero(s.values > lam) for lam in lams]
    assert got.tolist() == [float(s.cums[a[-1]]) if a.size else 0.0 for a in above]
    assert isinstance(distribution(s, 1.0), float)
    with pytest.raises(ValueError):
        distribution(s, np.array([1.0, 0.0]))


def test_quasi_triangle_distribution(tensor222, rng):
    """2 lambda (d_x(l/2) + d_y(l/2)) dominates lambda d_{x+y}(l)."""
    for _ in range(50):
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        s, sx, sy = (singular_value_function(tensor222, z) for z in (x + y, x, y))
        for lam in np.linspace(0.05, operator_norm(x + y) * 1.1, 13):
            lhs = lam * distribution(s, lam)
            rhs = 2 * lam * (distribution(sx, lam / 2) + distribution(sy, lam / 2))
            assert lhs <= rhs + 1e-9
