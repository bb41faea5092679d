import json

import numpy as np
import pytest

from ncmart.algebra import (
    FiltrationSpec,
    TowerError,
    build_tower,
    gram_schmidt,
    operator_from_json,
    operator_to_json,
)


def _hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# specs and serialization


def test_spec_parse_roundtrip():
    s = FiltrationSpec.parse("tensor:2,3,2")
    assert s.kind == "tensor" and s.dims == (2, 3, 2)
    assert FiltrationSpec.from_json(s.to_json()) == s
    a = FiltrationSpec.parse("abelian:4")
    assert a.kind == "abelian_dyadic" and a.levels == 4
    assert FiltrationSpec.from_json(a.to_json()) == a


@pytest.mark.parametrize("bad", ["tensor:", "tensor:1,2", "abelian:0", "ring:3", "abelian:x"])
def test_spec_parse_rejects(bad):
    with pytest.raises(TowerError):
        FiltrationSpec.parse(bad)


def test_operator_json_roundtrip(rng):
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = operator_from_json(json.loads(json.dumps(operator_to_json(x))))
    assert np.allclose(x, y, atol=0, rtol=0)
    d = rng.standard_normal(4) + 0j
    assert np.allclose(operator_from_json(operator_to_json(d)), np.diag(d))


def test_gram_schmidt_drops_dependent():
    inner = lambda a, b: complex(np.vdot(b, a))
    v1 = np.array([1.0, 0.0], dtype=complex)
    basis = gram_schmidt([v1, 2 * v1, np.array([1.0, 1.0], dtype=complex)], inner)
    assert len(basis) == 2
    g = np.array([[inner(a, b) for b in basis] for a in basis])
    assert np.allclose(g, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# trace


def test_trace_normalized(tensor222, abelian3, custom4):
    for t in (tensor222, abelian3, custom4):
        assert abs(t.trace(np.eye(t.dim, dtype=complex)) - 1.0) < 1e-12


def test_trace_matches_eigenvalue_sum(tensor22, rng):
    """Eigendecomposition oracle: tau(x) = sum of weighted eigenvalues."""
    x = _hermitian(rng, 4)
    vals, vecs = np.linalg.eigh(x)
    w = np.einsum("pi,p,pi->i", vecs.conj(), tensor22.weights, vecs).real
    assert abs(tensor22.trace(x).real - np.sum(w * vals)) < 1e-10


def test_trace_is_tracial(tensor222, rng):
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert abs(tensor222.trace(a @ b) - tensor222.trace(b @ a)) < 1e-10


# ---------------------------------------------------------------------------
# conditional expectations


@pytest.fixture(params=["tensor222", "abelian3", "custom4"])
def any_tower(request):
    return request.getfixturevalue(request.param)


def test_expectation_zero_level(any_tower, rng):
    x = rng.standard_normal((any_tower.dim, any_tower.dim)) + 0j
    assert np.allclose(any_tower.conditional_expectation(0, x), 0.0)


def test_expectation_idempotent_and_nested(any_tower, rng):
    t = any_tower
    x = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    for n in range(1, t.n_levels + 1):
        en = t.conditional_expectation(n, x)
        assert t.norm2(t.conditional_expectation(n, en) - en) < 1e-10
        for m in range(1, n):
            lhs = t.conditional_expectation(m, en)
            rhs = t.conditional_expectation(m, x)
            assert t.norm2(lhs - rhs) < 1e-10


def test_expectation_trace_preserving_unital(any_tower, rng):
    t = any_tower
    x = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    for n in range(1, t.n_levels + 1):
        assert abs(t.trace(t.conditional_expectation(n, x)) - t.trace(x)) < 1e-10
        assert t.norm2(t.conditional_expectation(n, np.eye(t.dim, dtype=complex)) - np.eye(t.dim)) < 1e-10


def test_expectation_positive(any_tower, rng):
    t = any_tower
    g = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    x = g @ g.conj().T
    for n in range(1, t.n_levels + 1):
        vals = np.linalg.eigvalsh(t.conditional_expectation(n, x))
        assert vals.min() > -1e-9


def test_expectation_bimodule(any_tower, rng):
    t = any_tower
    x = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    for n in range(1, t.n_levels + 1):
        a = t._dense(t.random_element(rng, level=n))
        b = t._dense(t.random_element(rng, level=n))
        lhs = t.conditional_expectation(n, a @ x @ b)
        rhs = a @ t.conditional_expectation(n, x) @ b
        assert t.norm2(lhs - rhs) < 1e-8


def test_expectation_fixes_level(any_tower, rng):
    t = any_tower
    for n in range(1, t.n_levels + 1):
        a = t._dense(t.random_element(rng, level=n))
        assert t.norm2(t.conditional_expectation(n, a) - a) < 1e-10


def test_partial_trace_oracle(tensor22, rng):
    """Tensor E_1 equals (id x tr)(x) x 1 computed directly."""
    t = tensor22
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x4 = x.reshape(2, 2, 2, 2)
    pt = np.einsum("arbr->ab", x4) / 2
    expect = np.kron(pt, np.eye(2))
    assert t.norm2(t.conditional_expectation(1, x) - expect) < 1e-12


def test_partial_trace_fallback_matches_generic(tensor222, rng):
    t = tensor222
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for n in (1, 2):
        assert t.norm2(t._tensor_expectation(n, x) - t.conditional_expectation(n, x)) < 1e-10


def test_abelian_diag_matches_dense(abelian3, rng):
    t = abelian3
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for n in range(1, 4):
        diag_path = t.conditional_expectation(n, v)
        dense_path = t.conditional_expectation(n, np.diag(v))
        assert np.allclose(np.diag(diag_path), dense_path, atol=1e-12)


def test_tensor_diag_matches_dense(tensor222, rng):
    t = tensor222
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for n in (1, 2, 3):
        diag_path = t.conditional_expectation(n, v)
        dense_path = t.conditional_expectation(n, np.diag(v))
        assert np.allclose(np.diag(diag_path), dense_path, atol=1e-10)


def test_expectation_level_out_of_range(tensor22):
    x = np.eye(4, dtype=complex)
    with pytest.raises(TowerError):
        tensor22.conditional_expectation(3, x)
    with pytest.raises(TowerError):
        tensor22.conditional_expectation(-1, x)
    with pytest.raises(TowerError):
        tensor22.conditional_expectation(1, np.eye(5, dtype=complex))


# ---------------------------------------------------------------------------
# bases and difference subspaces


def test_level_basis_orthonormal_identity_first(any_tower):
    t = any_tower
    for k in range(1, t.n_levels + 1):
        basis = t.level_basis(k)
        assert t.norm2(basis[0] - np.eye(t.dim)) < 1e-9
        gram = np.array([[t.inner(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(basis.shape[0]), atol=1e-9)


def test_difference_basis_orthonormal_and_located(any_tower):
    t = any_tower
    for k in range(1, t.n_levels + 1):
        basis = t.difference_basis(k)
        gram = np.array([[t.inner(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(basis.shape[0]), atol=1e-9)
        for b in basis:
            assert t.norm2(t.conditional_expectation(k, b) - b) < 1e-8
            assert t.norm2(t.conditional_expectation(k - 1, b)) < 1e-8


def test_difference_dimensions(tensor222, abelian3):
    # levels 1,2,3 of the 2x2x2 tensor tower: 4, 12, 48 = dim growth
    assert [tensor222.difference_basis(k).shape[0] for k in (1, 2, 3)] == [4, 12, 48]
    # abelian: first level is 2-dimensional, then Haar steps double
    assert [abelian3.difference_basis(k).shape[0] for k in (1, 2, 3)] == [2, 2, 4]


def test_abelian_difference_matches_gram_schmidt(abelian3):
    """Closed-form Haar construction against generic orthogonalization."""
    t = abelian3
    for k in (2, 3):
        upper = t.level_basis(k)
        lower = t.level_basis(k - 1)
        resid = []
        for b in upper:
            coeffs = np.array([t.inner(b, l) for l in lower])
            resid.append(b - np.tensordot(coeffs, lower, axes=(0, 0)))
        generic = np.stack(gram_schmidt(resid, t.inner))
        closed = t.difference_basis(k)
        assert generic.shape == closed.shape
        # both span the same subspace: mutual projections are isometric
        overlap = np.array([[t.inner(a, b) for b in closed] for a in generic])
        assert np.allclose(overlap.conj().T @ overlap, np.eye(closed.shape[0]), atol=1e-9)


def test_project_difference_orthogonality(any_tower, rng):
    t = any_tower
    x = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    y = rng.standard_normal((t.dim, t.dim)) + 1j * rng.standard_normal((t.dim, t.dim))
    parts = [t.project_difference(k, x) for k in range(1, t.n_levels + 1)]
    partsy = [t.project_difference(k, y) for k in range(1, t.n_levels + 1)]
    for j in range(len(parts)):
        for k in range(len(parts)):
            if j != k:
                assert abs(t.inner(parts[j], partsy[k])) < 1e-9
    # differences telescope back to the last-level expectation
    total = sum(parts)
    assert t.norm2(total - t.conditional_expectation(t.n_levels, x)) < 1e-9


def test_random_element_deterministic(tensor222):
    a = tensor222.random_element(np.random.default_rng(5))
    b = tensor222.random_element(np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_random_element_in_difference(tensor222):
    rng = np.random.default_rng(9)
    x = tensor222.random_element(rng, difference=2)
    assert tensor222.norm2(tensor222.project_difference(2, x) - x) < 1e-10


# ---------------------------------------------------------------------------
# custom tower validation


def test_custom_tower_accepts_weights():
    e = np.eye(2, dtype=complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    t = build_tower(FiltrationSpec.custom([[p, e - p]], weights=[0.25, 0.75]))
    assert abs(t.trace(p).real - 0.25) < 1e-12


@pytest.mark.parametrize("tower_name, uniform", [("tensor222", True), ("abelian3", True),
                                                  ("custom4", True), ("weighted2", False)])
def test_uniform_trace(request, tower_name, uniform):
    assert request.getfixturevalue(tower_name).uniform_trace is uniform


def test_custom_tower_rejects_bad_weights():
    e = np.eye(2, dtype=complex)
    with pytest.raises(TowerError):
        build_tower(FiltrationSpec.custom([[e]], weights=[0.5, 0.6]))
    with pytest.raises(TowerError):
        build_tower(FiltrationSpec.custom([[e]], weights=[-0.5, 1.5]))


def test_custom_tower_rejects_non_algebra():
    # span{1, E_12 + E_21} in M_3 is *-closed but (E_12+E_21)^2 leaves it
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = m[1, 0] = 1.0
    with pytest.raises(TowerError):
        build_tower(FiltrationSpec.custom([[m]]))


def test_custom_tower_rejects_broken_nesting():
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    e = np.eye(4, dtype=complex)
    with pytest.raises(TowerError):
        build_tower(FiltrationSpec.custom([[p, e - p], [q, e - q]]))


def test_custom_tower_rejects_mixed_shapes():
    with pytest.raises(TowerError):
        build_tower(FiltrationSpec.custom([[np.eye(2)], [np.eye(3)]]))


def test_custom_tower_treats_diagonal_operators_as_dense():
    """Level 1 = span{1, h}: the expectation of a diagonal operator is not
    diagonal, so a diagonal input must give the dense answer."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
    t = build_tower(FiltrationSpec.custom([[h], units]))
    v = np.array([1.0, 0.0])
    got = t.conditional_expectation(1, v)
    assert got.shape == (2, 2)
    assert np.allclose(got, [[0.75, 0.25], [0.25, 0.25]], atol=1e-12)
    assert np.allclose(t.conditional_expectation(1, got), got, atol=1e-12)


# ---------------------------------------------------------------------------
# shared towers


def test_build_tower_shares_tensor_and_abelian_towers():
    tensor = build_tower(FiltrationSpec.parse("tensor:2,2,2"))
    assert tensor is build_tower(FiltrationSpec.tensor([2, 2, 2]))
    abelian = build_tower(FiltrationSpec.parse("abelian:3"))
    assert abelian is build_tower(FiltrationSpec.abelian_dyadic(3))
    # a shared tower's spec must not depend on how its first caller spelled it
    assert build_tower(FiltrationSpec("tensor", (2.0, 2.0, 2.0))) is tensor
    assert json.dumps(FiltrationSpec("abelian_dyadic", levels=3.0).to_json()) == json.dumps(
        abelian.spec.to_json())
    assert json.dumps(FiltrationSpec("tensor", (2.0, 2.0)).to_json()) == json.dumps(
        FiltrationSpec.tensor([2, 2]).to_json())


def test_build_tower_rebuilds_custom_specs():
    p = np.diag([1.0, 0.0]).astype(complex)
    spec = FiltrationSpec.custom([[p, np.eye(2) - p]])
    assert build_tower(spec) is not build_tower(spec)
