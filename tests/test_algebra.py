import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest

from ncmart.algebra import (
    FiltrationSpec,
    Tower,
    TowerError,
    build_tower,
    gram_schmidt,
    operator_from_json,
    operator_to_json,
)
from ncmart.fractional import CoefficientSequence, fractional_integral, zeta_optimize
from ncmart.martingale import adapt
from conftest import peak_allocation


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
    w = np.array([0.25, 0.75])
    basis = gram_schmidt([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]], w)
    assert basis.shape == (2, 2)
    assert np.allclose(basis[0], [2.0, 0.0], atol=1e-12)
    g = np.einsum("j,aj,bj->ab", w, basis, basis.conj())
    assert np.allclose(g, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e8])
def test_gram_schmidt_dependence_is_relative_to_the_row(scale):
    """A row is dependent when its residual is small against its own norm,
    whatever that norm is; a zero row and a row of rounding size are dropped."""
    w = np.array([0.5, 0.5])
    rows = scale * np.array([[1.0, 0.0], [0.0, 0.0], [1e-17, -1e-17], [3.0, 0.0], [1.0, 2.0],
                             [2.0, 5.0]])
    basis = gram_schmidt(rows, w)
    assert basis.shape == (2, 2)
    assert np.allclose(np.einsum("j,aj,bj->ab", w, basis, basis.conj()), np.eye(2), atol=1e-12)


def test_custom_tower_keeps_a_small_spanning_element():
    for s in (1.0, 1e-11, 1e-13):
        t = build_tower(FiltrationSpec.custom([[s * np.diag([1.0, 0.0])]]))
        assert t.level_dim(1) == 2


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
        a = t._dense(t.conditional_expectation(n, t.random_element(rng)))
        b = t._dense(t.conditional_expectation(n, t.random_element(rng)))
        lhs = t.conditional_expectation(n, a @ x @ b)
        rhs = a @ t.conditional_expectation(n, x) @ b
        assert t.norm2(lhs - rhs) < 1e-8


def test_expectation_fixes_level(any_tower, rng):
    t = any_tower
    for n in range(1, t.n_levels + 1):
        a = t._dense(t.conditional_expectation(n, t.random_element(rng)))
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
# stacked expectations


def _weighted_chain():
    """``custom4``'s first two levels, then M_2 + M_2, inside M_4 under the
    trace weights (.1, .1, .4, .4), a trace on M_2 + M_2 (not on M_4)."""
    e = np.eye(4, dtype=complex)
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    blocks = [units[4 * i + j] for i in range(4) for j in range(4) if i // 2 == j // 2]
    return build_tower(FiltrationSpec.custom([[p, e - p], [np.diag(r) for r in e], blocks],
                                             weights=[0.1, 0.1, 0.4, 0.4]))


@pytest.mark.parametrize("spec, levels", [
    ("tensor:2,2,2", None),                # basis path; level 3 is the full level
    ("tensor:2,2,2,2,2,2,2", (6, 7)),      # level 6 partial trace (2^26 stack entries), full 7
    ("weighted", None),                    # weighted custom tower, basis path
    ("abelian:3", None),                   # dense operators on an abelian tower
])
def test_stacked_expectation_matches_one_operator_at_a_time(spec, levels, rng):
    t = _weighted_chain() if spec == "weighted" else build_tower(FiltrationSpec.parse(spec))
    if spec == "tensor:2,2,2,2,2,2,2":
        assert t.level_dim(6) * t.dim**2 == 1 << 26
    x = rng.standard_normal((3, t.dim, t.dim)) + 1j * rng.standard_normal((3, t.dim, t.dim))
    for k in levels or range(t.n_levels + 1):
        for fn in ([t.conditional_expectation] if k == 0 else
                   [t.conditional_expectation, t.project_difference]):
            stacked = fn(k, x)
            assert stacked.shape == x.shape
            for xi, si in zip(x, stacked):
                assert np.abs(si - fn(k, xi)).max() <= 1e-13
    if spec == "abelian:3":  # each operator's expectation is that of its diagonal
        for k in range(1, 4):
            diag = np.stack([t.conditional_expectation(k, np.diagonal(xi).copy()) for xi in x])
            assert np.array_equal(np.diagonal(t.conditional_expectation(k, x), axis1=1, axis2=2),
                                  diag)


def test_stacked_expectation_refuses_other_shapes(tensor222):
    with pytest.raises(TowerError):
        tensor222.conditional_expectation(1, np.zeros((2, 2, 8, 8), dtype=complex))
    with pytest.raises(TowerError):
        tensor222.project_difference(1, np.zeros((2, 2, 8, 8), dtype=complex))
    with pytest.raises(TowerError):
        tensor222.conditional_expectation(1, np.zeros((2, 4, 4), dtype=complex))
    with pytest.raises(TowerError):  # stacks are for expectations only
        tensor222.trace(np.zeros((2, 8, 8), dtype=complex))


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


def test_difference_dimensions(tensor222, abelian3, custom4):
    # levels 1,2,3 of the 2x2x2 tensor tower: 4, 12, 48 = dim growth
    assert [tensor222.difference_basis(k).shape[0] for k in (1, 2, 3)] == [4, 12, 48]
    # abelian: first level is 2-dimensional, then Haar steps double
    assert [abelian3.difference_basis(k).shape[0] for k in (1, 2, 3)] == [2, 2, 4]
    # custom: C + C, the diagonal of M_4, then M_4
    assert [custom4.level_dim(k) for k in (1, 2, 3)] == [2, 4, 16]
    assert [custom4.difference_basis(k).shape[0] for k in (1, 2, 3)] == [2, 2, 12]


def test_abelian_difference_matches_gram_schmidt(abelian3):
    """Closed-form Haar construction against generic orthogonalization."""
    t = abelian3
    for k in (2, 3):
        upper = t.level_basis(k)
        lower = t.level_basis(k - 1)
        coeffs = np.array([[t.inner(b, l) for l in lower] for b in upper])
        generic = gram_schmidt(upper - np.tensordot(coeffs, lower, axes=(1, 0)), t.weights)
        closed = t.difference_basis(k)
        assert generic.shape == closed.shape
        # both span the same subspace: mutual projections are isometric
        overlap = np.array([[t.inner(a, b) for b in closed] for a in generic])
        assert np.allclose(overlap.conj().T @ overlap, np.eye(closed.shape[0]), atol=1e-9)


def _reference_unital_onb(n):
    """Identity, sqrt(n) E_ij (i != j) in row-major order, traceless diagonal."""
    out = [np.eye(n, dtype=complex)]
    for i in range(n):
        for j in range(n):
            if i != j:
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = math.sqrt(n)
                out.append(unit)
    cands = np.concatenate([np.ones((1, n)), np.eye(n)])
    out += [np.diag(v) for v in gram_schmidt(cands, np.full(n, 1.0 / n))[1:]]
    return np.stack(out)


def _reference_level(t, k):
    """[D_1; ...; D_k], where D_j is u (x) w (x) 1_rest over u of (M_{d_{j-1}}, tr)
    and w of the j-th factor, w outermost; w = 1 only in D_1, which is level 1."""
    blocks = []
    for j in range(1, k + 1):
        d_prev = math.prod(t.factor_dims[: j - 1])
        nj = t.factor_dims[j - 1]
        eye = np.eye(t.dim // (d_prev * nj), dtype=complex)
        ws = _reference_unital_onb(nj)[1 if j > 1 else 0:]
        blocks += [np.kron(np.kron(u, w), eye) for w in ws for u in _reference_unital_onb(d_prev)]
    return np.stack(blocks)


@pytest.mark.parametrize("spec, levels", [
    ("tensor:2,2,2", 3), ("tensor:3,4", 2), ("tensor:2,3,3", 3), ("tensor:5,3", 2),
    ("tensor:2,2,2,2,2,2", 5),
])
def test_tensor_bases_equal_elementwise_kron(spec, levels):
    """The strided builder gives the per-element Kronecker products value for value."""
    t = Tower(FiltrationSpec.parse(spec))
    for k in range(1, levels + 1):
        assert np.array_equal(t.level_basis(k), _reference_level(t, k))


def _own_tower(request, name):
    """An unshared tower: ``custom4``, ``weighted`` (the weighted chain) or a CLI spec."""
    if name == "custom4":
        return Tower(request.getfixturevalue("custom4").spec)
    if name == "weighted":
        return Tower(_weighted_chain().spec)
    return Tower(FiltrationSpec.parse(name))


@pytest.mark.parametrize("name", ["tensor:2,2,2", "tensor:3,4", "tensor:2,3,3", "abelian:3",
                                  "custom4", "weighted"])
def test_difference_basis_is_the_tail_of_its_level(request, name):
    """Level k's basis lists level k-1 first; D_k is the rest of it, as a view."""
    t = _own_tower(request, name)
    for k in range(1, t.n_levels + 1):
        level, tail = t.level_basis(k), t.difference_basis(k)
        assert np.shares_memory(tail, level)
        head = level[: t.level_dim(k - 1)]
        assert len(head) + len(tail) == len(level)
        assert np.allclose(t.conditional_expectation(k - 1, head), head, rtol=0, atol=1e-12)
        if k > 1:
            lower = t.level_basis(k - 1)
            gram = np.einsum("j,aij,bij->ab", t.weights, tail, lower.conj())
            assert np.abs(gram).max() <= 1e-12


# Each tower with the deepest level whose basis is materialized: level 6 of
# 2^6 is a 128 MiB stack that no expectation builds (the full level is a copy).
NESTED_TOWERS = [("tensor:2,2,2,2,2,2", 5), ("tensor:3,4", 2), ("tensor:2,3,3", 3),
                 ("abelian:4", 4), ("custom4", 3), ("weighted", 3)]


@pytest.mark.parametrize("name, deepest", NESTED_TOWERS)
def test_level_bases_are_views_of_one_stack(request, name, deepest):
    """Every level basis and every D_k basis is a view of the deepest level's
    stack, and a level's values do not depend on which level was built first."""
    deep = _own_tower(request, name)
    stack = deep.level_basis(deepest)
    upward = _own_tower(request, name)
    for k in range(1, deepest + 1):
        assert np.shares_memory(deep.level_basis(k), stack)
        assert np.shares_memory(deep.difference_basis(k), stack)
        direct = _own_tower(request, name).level_basis(k)
        assert np.array_equal(direct, deep.level_basis(k))
        assert np.array_equal(upward.level_basis(k), direct)


def test_concurrent_builds_keep_the_deepest_stack():
    """Two threads ask a fresh 2^6 tower for the bases of levels 2 and 5 at
    once: both get the bases a tower builds alone, and the level 2 build
    never replaces level 5."""
    alone = {k: Tower(FiltrationSpec.tensor([2] * 6)).level_basis(k) for k in (2, 5)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            t = Tower(FiltrationSpec.tensor([2] * 6))
            errors = []

            def worker(t, k):
                for _ in range(4):
                    if not np.array_equal(t.level_basis(k), alone[k]):
                        errors.append(k)

            threads = [threading.Thread(target=worker, args=(t, k)) for k in (2, 5)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert errors == []
            # a level 2 stack left in the cache would be grown again here
            assert np.shares_memory(t.level_basis(2), t.level_basis(5))
    finally:
        sys.setswitchinterval(interval)


def test_a_shallower_build_never_replaces_a_deeper_one(monkeypatch):
    """A level 2 build that starts while D_5 is written, and would end after
    the level 5 build, must not leave the level 2 stack in the cache."""
    t = Tower(FiltrationSpec.tensor([2] * 6))
    writing_d5, level5_done = threading.Event(), threading.Event()
    write = Tower._write_difference

    def paced(self, j, out):
        if j == 5:
            writing_d5.set()
        elif j == 2 and threading.current_thread().name == "level-2":
            level5_done.wait(timeout=5)
        write(self, j, out)

    monkeypatch.setattr(Tower, "_write_difference", paced)

    def deep():
        t.level_basis(5)
        level5_done.set()

    def shallow():
        writing_d5.wait(timeout=5)
        t.level_basis(2)

    threads = [threading.Thread(target=deep), threading.Thread(target=shallow, name="level-2")]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
        assert not th.is_alive()
    assert np.shares_memory(t.level_basis(2), t.level_basis(5))


@pytest.mark.parametrize("name", ["tensor:2,3", "abelian:3", "custom4", "weighted"])
def test_cached_bases_are_read_only(request, name):
    """Towers are shared, so a write through a cached basis would change later runs."""
    t = _own_tower(request, name)
    for k in range(1, t.n_levels + 1):
        for basis in (t.level_basis(k), t.difference_basis(k)):
            with pytest.raises(ValueError):
                basis[0, 0, 0] = 2.0


def test_tensor_expectation_equals_einsum_reference(rng):
    t = Tower(FiltrationSpec.parse("tensor:2,3,2"))
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for n in (1, 2):
        rest = 12 // math.prod(t.factor_dims[:n])
        pt = np.einsum("arbr->ab", x.reshape(12 // rest, rest, 12 // rest, rest)) / rest
        want = np.einsum("ab,rs->arbs", pt, np.eye(rest)).reshape(12, 12)
        assert np.array_equal(t._tensor_expectation(n, x), want)


def test_abelian_bases_equal_loop_reference():
    t = Tower(FiltrationSpec.abelian_dyadic(5))

    def haar(level):
        block = 32 >> (level - 1)
        scale = 2.0 ** ((level - 1) / 2.0)
        rows = []
        for i in range(32 // block):
            v = np.zeros(32, dtype=complex)
            v[i * block : i * block + block // 2] = scale
            v[i * block + block // 2 : (i + 1) * block] = -scale
            rows.append(v)
        return rows

    level = [np.ones(32, dtype=complex)]
    for k in range(1, 6):
        level += haar(k)
        assert np.array_equal(t.level_basis(k), np.stack([np.diag(v) for v in level]))
        if k > 1:
            assert np.array_equal(t.difference_basis(k), np.stack([np.diag(v) for v in haar(k)]))


def test_tensor_basis_build_peaks_below_one_and_a_half_stacks():
    """Level 5 of 2^6 is written in place, not copied from a list; grown from
    level 4, it copies the level 4 rows and writes only D_5."""
    for built in ((), (4,)):
        t = Tower(FiltrationSpec.tensor([2] * 6))
        for k in built:
            t.level_basis(k)
        peak = peak_allocation(lambda: t.level_basis(5))
        assert peak < 1.5 * t.level_basis(5).nbytes


def test_difference_basis_after_its_level_allocates_no_stack():
    """After level 5 of 2^6, every lower level and every D_k up to D_5 is a
    view of its stack, not a second stack of up to 24 MiB."""
    t = Tower(FiltrationSpec.tensor([2] * 6))
    t.level_basis(5)
    for k in range(1, 6):
        assert peak_allocation(lambda: t.level_basis(k)) < 64 * 2**10
        assert peak_allocation(lambda: t.difference_basis(k)) < 64 * 2**10


# Every level of these towers; 2^6 stops below its top level, a 128 MB stack
# that no expectation builds (the full level is a copy).
REAL_BASIS_TOWERS = [("tensor:2,2,2,2,2,2", 5), ("tensor:3,4", 2), ("tensor:2,3,3", 3)]


@pytest.mark.parametrize("spec, levels", REAL_BASIS_TOWERS)
def test_tensor_level_bases_are_real_and_orthonormal(spec, levels):
    t = Tower(FiltrationSpec.parse(spec))
    for k in range(1, levels + 1):
        basis = t.level_basis(k)
        assert basis.dtype == np.float64
        flat = basis.reshape(len(basis), -1)
        assert np.allclose((flat @ flat.T) / t.dim, np.eye(len(basis)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec, levels", REAL_BASIS_TOWERS)
def test_real_basis_expectation_matches_partial_trace(spec, levels, rng):
    t = Tower(FiltrationSpec.parse(spec))
    for b in (1, 3, 12):
        x = rng.standard_normal((b, t.dim, t.dim)) + 1j * rng.standard_normal((b, t.dim, t.dim))
        for k in range(1, min(levels, t.n_levels - 1) + 1):
            want = t._tensor_expectation(k, x)
            err = np.linalg.norm(t.conditional_expectation(k, x) - want)
            assert err <= 1e-13 * np.linalg.norm(want)
            real, want = t.conditional_expectation(k, x.real), t._tensor_expectation(k, x.real)
            assert np.all(real.imag == 0)
            assert np.linalg.norm(real - want) <= 1e-13 * np.linalg.norm(want)


def test_custom_bases_stay_complex(custom4, rng):
    """Custom levels keep their complex bases and project through them as before."""
    for t in (custom4, _weighted_chain()):
        x = rng.standard_normal((3, t.dim, t.dim)) + 1j * rng.standard_normal((3, t.dim, t.dim))
        for k in range(1, t.n_levels):
            basis = t.level_basis(k)
            assert basis.dtype == np.complex128
            coeffs = np.einsum("j,mij,bij->bm", t.weights, basis.conj(), x)
            want = np.einsum("bm,mij->bij", coeffs, basis)
            assert np.allclose(t.conditional_expectation(k, x), want, rtol=0, atol=1e-13)


def test_real_basis_expectation_does_not_copy_the_basis(rng):
    """E_5 of twelve operators on 2^6 allocates its rows, not a complex copy
    of the 32 MiB basis, as ``complex @ float`` would."""
    t = Tower(FiltrationSpec.tensor([2] * 6))
    assert t.level_basis(5).nbytes == 32 * 2**20
    x = rng.standard_normal((12, 64, 64)) + 1j * rng.standard_normal((12, 64, 64))
    assert peak_allocation(lambda: t.conditional_expectation(5, x)) < 4 * 2**20


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
    x = tensor222.project_difference(2, tensor222.random_element(rng))
    assert tensor222.norm2(tensor222.project_difference(2, x) - x) < 1e-10


# ---------------------------------------------------------------------------
# level constants


@pytest.mark.parametrize("spec, expected", [
    ("tensor:2,3,3", (1 / 2, 1 / 6, 1 / 18)),
    ("abelian:3", (1 / 2, 1 / 4, 1 / 8)),
])
def test_level_constant_closed_forms(spec, expected):
    t = build_tower(FiltrationSpec.parse(spec))
    assert tuple(t.level_constant(k) for k in range(1, t.n_levels + 1)) == expected
    with pytest.raises(TowerError):
        t.level_constant(0)


def test_level_constant_custom(custom4, weighted2, tensor22):
    assert [custom4.level_constant(k) for k in (1, 2, 3)] == [1 / 2, 1 / 4, 1 / 4]
    assert weighted2.level_constant(1) == 0.25
    # the levels of tensor:2,2 handed over as spanning sets
    same = build_tower(FiltrationSpec.custom([tensor22.level_basis(k) for k in (1, 2)]))
    assert [same.level_constant(k) for k in (1, 2)] == [tensor22.level_constant(k)
                                                        for k in (1, 2)]
    # C 1_3 + M_2 in M_5: the M_2 block's rank-one projections are the smallest
    units = [np.zeros((5, 5), dtype=complex) for _ in range(4)]
    for u, (i, j) in zip(units, [(3, 3), (3, 4), (4, 3), (4, 4)]):
        u[i, j] = 1.0
    blocks = build_tower(FiltrationSpec.custom([[np.diag([1.0, 1, 1, 0, 0])] + units]))
    assert blocks.level_constant(1) == 1 / 5


def test_level_constant_eigensolver_failure_is_numerical(custom4, monkeypatch):
    """Building a custom tower whose eigensolver call fails raises
    ``ArithmeticError`` naming the seeded element of level 1 by digest."""
    basis = custom4.level_basis(1)
    coords = np.random.default_rng(0).standard_normal((2, len(basis), 2)) @ [1, 1j]
    x = np.tensordot(coords, basis, axes=(1, 0))[0]
    digest = hashlib.sha256(np.ascontiguousarray(x)).hexdigest()[:16]

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ArithmeticError, match=f"eigensolver failed on operator sha256:{digest}"):
        Tower(custom4.spec)


def test_abelian_level_constants_and_atoms_are_closed_forms():
    """On abelian:n, the tensor formulas give exact powers of two."""
    for n in range(1, 9):
        t = build_tower(FiltrationSpec.abelian_dyadic(n))
        assert [t.level_constant(k) for k in range(1, n + 1)] == [2.0**-k for k in range(1, n + 1)]
        assert [t._block_size(k) for k in range(n + 1)] == [1 << (n - k) for k in range(n + 1)]


@pytest.mark.parametrize("n", [3, 5, 6])
def test_abelian_is_the_diagonal_of_the_dyadic_tensor_tower(n, rng):
    """``np.diag(f)`` on tensor:2^n and ``f`` on abelian:n have the same
    expectations, martingales and fractional integrals, and every row of an
    abelian ``D_j`` lies in the tensor ``D_j``."""
    ab = build_tower(FiltrationSpec.abelian_dyadic(n))
    te = build_tower(FiltrationSpec.tensor([2] * n))
    f = rng.standard_normal(ab.dim) + 1j * rng.standard_normal(ab.dim)

    def close(dense, diagonal, tol=1e-14):
        assert np.abs(dense - np.diag(diagonal)).max() < tol

    for k in range(n + 1):
        close(te.conditional_expectation(k, np.diag(f)), ab.conditional_expectation(k, f))
    coeffs = CoefficientSequence(tuple(ab.level_constant(k) for k in range(1, n + 1)), "user")
    m_te, m_ab = adapt(te, np.diag(f)), adapt(ab, f)
    for dense, diagonal in ((m_te, m_ab), (fractional_integral(m_te, 0.5, coeffs),
                                           fractional_integral(m_ab, 0.5, coeffs))):
        for dx_te, dx_ab in zip(dense.differences, diagonal.differences, strict=True):
            close(dx_te, dx_ab)
    for j in range(1, n + 1):
        rows = ab.difference_basis(j)
        assert np.abs(te.project_difference(j, rows) - rows).max() < 1e-12


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


def test_custom_tower_rejects_weights_that_are_not_a_trace(weighted2):
    """On M_2 the weights (1/4, 3/4) give tau(E12 E21) = 1/4 but tau(E21 E12) = 3/4.
    Weights that are a trace on the top level build: atoms under any weights,
    and blocks whose units share a weight (``test_weighted_custom_tower_bases``'
    M_2 + C + C under (.1, .1, .3, .5))."""
    units = list(np.eye(4, dtype=complex).reshape(4, 2, 2))
    with pytest.raises(TowerError, match="not a trace"):
        build_tower(FiltrationSpec.custom([units], weights=[0.25, 0.75]))
    tiny = [0.5, 0.5, 1e-17]
    units4 = np.eye(16, dtype=complex).reshape(16, 4, 4)
    for spec in (weighted2.spec,
                 FiltrationSpec.custom([[np.diag(r) for r in np.eye(3)]], weights=tiny),
                 FiltrationSpec.custom([[np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]],
                                       weights=tiny),
                 FiltrationSpec.custom([[np.diag([1.0, 1.0, 0.0, 0.0])],
                                        [units4[i] for i in (0, 1, 4, 5, 10, 15)]],
                                       weights=[0.1, 0.1, 0.3, 0.5])):
        assert Tower(spec).n_levels >= 1


def test_custom_tower_rejects_non_selfadjoint_span():
    # span{1, E_12} in M_2 is an algebra (E_12^2 = 0) but misses E_21 = E_12^*
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(TowerError, match=r"custom level 1 span is not \*-closed"):
        build_tower(FiltrationSpec.custom([[m]]))


def test_custom_tower_rejects_non_algebra():
    # span{1, E_12 + E_21} in M_3 is *-closed but (E_12+E_21)^2 leaves it
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = m[1, 0] = 1.0
    with pytest.raises(TowerError, match="custom level 1 span is not an algebra"):
        build_tower(FiltrationSpec.custom([[m]]))


def test_custom_validation_does_not_depend_on_the_trace():
    """A tiny trace weight neither refuses a valid level nor admits an invalid one."""
    tiny = [0.5, 0.5, 1e-17]
    atoms = build_tower(FiltrationSpec.custom([[np.diag(r) for r in np.eye(3)]], weights=tiny))
    assert atoms.level_dim(1) == 3
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = m[1, 0] = 1.0
    with pytest.raises(TowerError, match="custom level 1 span is not an algebra"):
        build_tower(FiltrationSpec.custom([[m]], weights=tiny))


def test_custom_tower_rejects_broken_nesting():
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex)
    e = np.eye(4, dtype=complex)
    with pytest.raises(TowerError, match="custom level 2 does not contain level 1"):
        build_tower(FiltrationSpec.custom([[p, e - p], [q, e - q]]))


def test_weighted_custom_tower_bases(rng):
    """Levels C p + C (1 - p) and M_2 + C + C in M_4 under the trace (.1, .1, .3, .5)."""
    w = np.array([0.1, 0.1, 0.3, 0.5])
    units = np.zeros((16, 4, 4), dtype=complex)
    units[np.arange(16), np.arange(16) // 4, np.arange(16) % 4] = 1.0
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    level2 = [units[i] for i in (0, 1, 4, 5, 10, 15)]
    t = build_tower(FiltrationSpec.custom([[p], level2], weights=w))

    def gram(a, b):
        return np.einsum("j,aij,bij->ab", w, a, b.conj())

    lower, upper, diff = t.level_basis(1), t.level_basis(2), t.difference_basis(2)
    assert [len(lower), len(diff), len(upper)] == [2, 4, 6]
    for basis in (lower, upper, diff):
        assert np.allclose(gram(basis, basis), np.eye(len(basis)), atol=1e-12)
    assert np.allclose(gram(diff, lower), 0.0, atol=1e-12)
    for b in diff:
        assert np.allclose(t.conditional_expectation(2, b), b, atol=1e-12)
    # E_1 x = sum_P tau(P x) / tau(P) P over the minimal projections P, 1 - P
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    want = sum(t.trace(q @ x) / t.trace(q) * q for q in (p, np.eye(4) - p))
    assert np.allclose(t.conditional_expectation(1, x), want, atol=1e-12)


def test_custom_tower_from_tensor_levels(tensor222, rng):
    """Custom tower spanned by the tensor levels (m = 64 at level 3)."""
    t = build_tower(FiltrationSpec.custom([tensor222.level_basis(k) for k in (1, 2, 3)]))
    assert [t.level_dim(k) for k in (1, 2, 3)] == [4, 16, 64]
    assert [t.difference_basis(k).shape[0] for k in (1, 2, 3)] == [
        tensor222.difference_basis(k).shape[0] for k in (1, 2, 3)]
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for n in (1, 2, 3):
        assert np.allclose(t.conditional_expectation(n, x),
                           tensor222.conditional_expectation(n, x), rtol=0, atol=1e-12)


def test_difference_basis_refuses_oversized_stacks():
    # D_9 of abelian:9 would be a (256, 512, 512) dense stack; D_7 of 2^7 is 3 GiB
    with pytest.raises(TowerError, match="too large"):
        zeta_optimize(build_tower(FiltrationSpec.abelian_dyadic(9)), 9)
    with pytest.raises(TowerError, match="too large"):
        build_tower(FiltrationSpec.tensor([2] * 7)).difference_basis(7)


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


def test_build_tower_shares_equal_custom_specs():
    p = np.diag([1.0, 0.0]).astype(complex)
    tower = build_tower(FiltrationSpec.custom([[p, np.eye(2) - p]]))
    # equal contents in new arrays (and real dtype) give the same tower
    assert build_tower(FiltrationSpec.custom([[p.real.copy(), np.eye(2) - p]])) is tower
    assert FiltrationSpec.custom([[p, np.eye(2) - p]]) == tower.spec
    for other in (FiltrationSpec.custom([[p, np.eye(2) - p]], weights=[0.25, 0.75]),
                  FiltrationSpec.custom([[np.eye(2) - p, p]]),
                  FiltrationSpec.custom([[p], [p, np.eye(2) - p]])):
        assert other != tower.spec
        assert build_tower(other) is not tower
    assert tower.spec != FiltrationSpec.tensor([2])
