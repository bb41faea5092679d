import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncmart.algebra import FiltrationSpec, build_tower
from ncmart.spectral import (
    SingularValueFunction,
    _eigvalsh,
    _svd,
    distribution,
    lorentz_norm,
    lp_norm,
    operator_norm,
    singular_value_function,
    weak_norm,
)
from reference_norms import weak_norm_distribution


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
    # the first piece runs from 0 to cums[0], so cums[0] must be positive
    for cums in ([-0.5, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            SingularValueFunction(np.array([2.0, 1.0]), np.array(cums))


def test_piece_weights_are_stored():
    s = SingularValueFunction(np.array([3.0, 2.0, 1.0]), np.array([0.25, 0.5, 1.0]))
    assert s.piece_weights.tolist() == [0.25, 0.25, 0.5]
    assert s.piece_weights is s.piece_weights


def test_value_at_steps():
    s = SingularValueFunction(np.array([3.0, 1.0]), np.array([0.25, 1.0]))
    assert s.value_at(0.0) == 3.0
    assert s.value_at(0.2499) == 3.0
    assert s.value_at(0.25) == 1.0
    assert s.value_at(0.999) == 1.0
    assert s.value_at(1.0) == 0.0
    with pytest.raises(ValueError):
        s.value_at(-0.1)


@st.composite
def tied_spectra(draw):
    """Spectra with exact ties and near-ties, some samples of zero weight.

    Each cluster steps down from its centre by relative gaps from one ulp
    up to ``1e-10``, or by nothing, which repeats a value exactly.
    """
    values = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        centre = draw(st.sampled_from([0.0, 1e-13, 0.5, 1.0, 3.0, 100.0])
                      | st.floats(min_value=0.0, max_value=100.0))
        steps = draw(st.lists(st.sampled_from([0.0, 0.0, 1.1e-16, 3e-16, 1e-14, 1e-12, 1e-10]),
                              max_size=10))
        offsets = np.cumsum([0.0] + steps) * max(1.0, centre)
        values.extend(np.maximum(centre - offsets, 0.0))
    weights = np.asarray(draw(st.lists(
        st.just(0.0) | st.floats(min_value=0.01, max_value=1.0),
        min_size=len(values), max_size=len(values))))
    # all zero, all equal (as on a uniform trace, where the values are only
    # sorted), or drawn one by one
    weights[:] = draw(st.sampled_from([0.0, 1.0, weights]))
    if weights.sum() > 0:
        weights = weights / weights.sum()
    return np.asarray(values), weights


@settings(max_examples=200, deadline=None)
@given(spectrum=tied_spectra(), p=st.floats(min_value=1.0, max_value=8.0))
def test_from_spectrum_matches_direct_formulas(spectrum, p):
    """Norms, distribution and ``mu_t`` of the step function equal their
    formulas over the raw samples; each distinct value is one piece."""
    values, weights = spectrum
    s = SingularValueFunction.from_spectrum(values, weights)
    distinct = sorted(set(values[weights > 0].tolist()), reverse=True) or [0.0]
    assert s.values.tolist() == distinct
    assert np.all(np.diff(s.values) < 0)
    close = dict(rel=1e-12, abs=0.0)
    for q in (0.5, p):
        assert lp_norm(s, q) == pytest.approx(np.sum(weights * values**q) ** (1 / q), **close)
    above_or_at = np.array([weights[values >= v].sum() for v in values])
    weak = np.max(values * above_or_at ** (1 / p), initial=0.0)
    assert weak_norm(s, p) == pytest.approx(weak, **close)
    for lam in values[values > 0]:
        for level in (lam, lam * (1 - 1e-9), lam * (1 + 1e-9)):
            assert distribution(s, level) == pytest.approx(weights[values > level].sum(), **close)
    ends = np.unique(above_or_at[weights > 0])
    for t in np.concatenate([[0.0], (np.append(0.0, ends[:-1]) + ends) / 2, [1.5]]):
        mu = np.max(values[above_or_at > t], initial=0.0)
        assert s.value_at(t) == pytest.approx(mu, **close)


def test_from_spectrum_merges_ties():
    s = SingularValueFunction.from_spectrum([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    assert s.values.tolist() == [2.0, 1.0]
    assert np.allclose(s.cums, [0.5, 1.0])


@pytest.mark.parametrize("weights, values, cums", [
    ([0.5, 0.5, 1e-17], [2.0, 1.0], [0.5, 1.0]),   # the running total stays at 1
    ([0.5, 0.5, 2e-16], [2.0, 1.0], [0.5, 1.0]),   # it passes 1 by one rounding
    ([0.5, 1e-17, 0.5], [2.0, 0.5], [0.5, 1.0]),   # an inner piece
])
def test_from_spectrum_drops_pieces_below_the_rounding(weights, values, cums):
    """A weight below the running total's rounding is no piece, not an error."""
    s = SingularValueFunction.from_spectrum([2.0, 1.0, 0.5], weights)
    assert s.values.tolist() == values
    assert s.cums.tolist() == cums


def test_tiny_trace_weight_keeps_the_norms():
    """On a trace whose smallest weight is below rounding, the norms are
    those of the spectrum without that weight's piece."""
    atoms = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]
    tower = build_tower(FiltrationSpec.custom([atoms], weights=[0.5, 0.5, 1e-17]))
    s = singular_value_function(tower, np.diag([2.0, 1.0, 0.5]))
    ps = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    without = SingularValueFunction.from_spectrum([2.0, 1.0], [0.5, 0.5])
    assert np.array_equal(lp_norm(s, ps), lp_norm(without, ps))


@pytest.mark.parametrize("values, weights", [
    ([math.nan, 1.0], [0.5, 0.5]),
    ([2.0, 1.0], [math.nan, 0.5]),
    ([math.inf, 1.0], [0.5, 0.5]),
    ([2.0, 1.0], [0.5, math.inf]),
])
def test_from_spectrum_rejects_non_finite(values, weights):
    """A NaN or infinite sample is a numerical failure, not a step function."""
    with pytest.raises(ArithmeticError, match="NaN or infinite"):
        SingularValueFunction.from_spectrum(values, weights)


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


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture(scope="module")
def tensor_2x5():
    return build_tower(FiltrationSpec.tensor([2] * 5))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_small_singular_values_are_accurate_on_a_uniform_trace(tensor_2x5, seed):
    """``L_{1/4}`` of ``U diag(sigma) V*``, ``sigma`` graded from 1 to 1e-14,
    against LAPACK's singular values of the same matrix: the spectrum of
    ``|x|`` is not read off ``x* x``, whose eigenvalues below ``1e-16`` are
    rounding noise."""
    from scipy.linalg import svdvals

    rng = np.random.default_rng(seed)
    sigma = np.logspace(0.0, -14.0, tensor_2x5.dim)
    x = (_unitary(rng, tensor_2x5.dim) * sigma) @ _unitary(rng, tensor_2x5.dim).conj().T
    want = np.mean(svdvals(x) ** 0.25) ** 4
    assert lp_norm(singular_value_function(tensor_2x5, x), 0.25) == pytest.approx(want, rel=1e-10)


def test_small_singular_values_are_accurate_on_a_weighted_trace(weighted2, rng):
    """On a non-uniform trace the weights come from right singular vectors;
    ``sigma_2 = 1e-12`` survives (an eigensolver on ``x* x`` returns about
    ``1e-8`` for it)."""
    sigma = np.array([1.0, 1e-12])
    v = _unitary(rng, 2)
    x = (_unitary(rng, 2) * sigma) @ v.conj().T
    s = singular_value_function(weighted2, x)
    assert s.values[1] == pytest.approx(1e-12, rel=1e-3)
    weights = weighted2.weights @ np.abs(v) ** 2  # tau of each column's projection
    want = np.sum(weights * sigma**0.25) ** 4
    assert lp_norm(s, 0.25) == pytest.approx(want, rel=1e-6)


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


def test_operator_norm_failure_is_numerical(monkeypatch, rng):
    """A failed solve in ``operator_norm`` names its operator, so a run reports
    it as a trial error, not as a usage error."""
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert operator_norm(x) == float(np.linalg.norm(x, 2))

    def fail(a, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ArithmeticError, match="failed on operator sha256:"):
        operator_norm(x)


@pytest.mark.parametrize("shape", [(4, 4), (3, 5, 5)])
@pytest.mark.parametrize("failures", [1, 2])
def test_svd_retries_on_adjoint_then_r_factor(monkeypatch, rng, shape, failures):
    """After one failure ``_svd`` solves ``x*``, after two the R factor of
    ``qr(x)``; values and vectors are those of ``x`` either way."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.linalg.svd(x, compute_uv=False)
    calls = []
    svd = np.linalg.svd

    def flaky(a, compute_uv=True):
        calls.append(1)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "svd", flaky)
    assert np.allclose(_svd(x, False), want, rtol=1e-12)
    calls.clear()
    u, vals, vh = _svd(x, True)
    assert len(calls) == failures + 1
    assert np.allclose(vals, want, rtol=1e-12)
    assert np.allclose((u * vals[..., None, :]) @ vh, x, atol=1e-12)
    eye = np.eye(shape[-1])
    assert np.allclose(np.conj(np.swapaxes(u, -1, -2)) @ u, eye, atol=1e-12)
    assert np.allclose(vh @ np.conj(np.swapaxes(vh, -1, -2)), eye, atol=1e-12)


EXPONENTS = st.sampled_from([0.25, 0.5, 1.0, 4.0 / 3.0, 1.5, 2.0, 3.0, 20.0, 32.0, 33.0,
                             400.0, math.inf]) | st.floats(min_value=0.1, max_value=64.0)


@settings(max_examples=200, deadline=None)
@given(s=step_functions(), ps=st.lists(EXPONENTS, min_size=1, max_size=16),
       scale=st.sampled_from([1e-300, 1.0, 1e30, 1e200]), zero=st.booleans())
def test_lp_norm_array_matches_scalar_calls(s, ps, scale, zero):
    """An array of exponents gives each lone call's value, on the direct and
    log-space paths (``p > 32``, or a top power that overflows), at ``inf``
    and on functions with a zero value."""
    values = s.values * scale
    if zero:
        values[-1] = 0.0
    s = SingularValueFunction(values, s.cums)
    got = lp_norm(s, ps)
    assert isinstance(got, np.ndarray) and got.shape == (len(ps),)
    want = [lp_norm(s, p) for p in ps]
    assert all(isinstance(w, float) for w in want)
    assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0.0)
    grid = lp_norm(s, np.reshape(ps * 2, (2, -1)))
    assert grid.shape == (2, len(ps)) and grid.tolist() == [got.tolist()] * 2


def test_lp_norm_array_on_a_dense_spectrum(tensor222, weighted2, rng):
    for tower in (tensor222, weighted2):
        x = rng.standard_normal((tower.dim,) * 2) + 1j * rng.standard_normal((tower.dim,) * 2)
        s = singular_value_function(tower, x)
        ps = [1.0, 2.0, 1.1, 0.5, 40.0, math.inf]
        assert lp_norm(s, ps).tolist() == pytest.approx([lp_norm(s, p) for p in ps],
                                                        rel=1e-15, abs=0.0)


def test_lp_norm_array_rejects_non_positive_exponents():
    s = SingularValueFunction(np.array([2.0, 1.0]), np.array([0.5, 1.0]))
    for ps in ([1.0, 0.0], [2.0, -1.0, 3.0], [math.nan]):
        with pytest.raises(ValueError, match="p must be positive"):
            lp_norm(s, ps)
    assert lp_norm(s, []).shape == (0,)


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
