"""Finite-dimensional traced *-algebra filtrations.

A tower is an increasing chain of unital *-subalgebras of a matrix algebra
``M_d``, carrying a normalized faithful trace given by a diagonal weight
vector.  Conditional expectations onto the levels are realized as orthogonal
projections in the trace inner product ``<a, b> = tr(w b^* a)``.

Operators are plain numpy arrays: shape ``(d, d)`` for a dense element, or
shape ``(d,)`` for a diagonal element (used by the abelian towers and by
large tensor towers, where a dense representation is impractical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TowerError",
    "FiltrationSpec",
    "Tower",
    "build_tower",
    "operator_to_json",
    "operator_from_json",
]

# Residual below this is treated as linear dependence in Gram-Schmidt.
DEPENDENCE_TOL = 1e-12
# Structural validation tolerance for user-supplied bases.
STRUCTURE_TOL = 1e-8
# Dense basis stacks above this entry count are never materialized.
MAX_STACK_ENTRIES = 1 << 24


class TowerError(ValueError):
    """Invalid filtration specification or mismatched operands."""


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class FiltrationSpec:
    """Description of a filtration tower.

    kind is one of ``"tensor"`` (partial tensor products of full matrix
    algebras), ``"abelian_dyadic"`` (diagonal dyadic-interval tower) or
    ``"custom"`` (user-supplied spanning sets per level).
    """

    kind: str
    dims: tuple = ()
    levels: int = 0
    spanning_sets: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        # Equal specs share one tower (build_tower), so keep one form of each.
        if self.kind == "tensor":
            object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
            if not self.dims:
                raise TowerError("tensor spec needs at least one factor")
            if any(n < 2 for n in self.dims):
                raise TowerError("tensor factor dimensions must be >= 2")
        elif self.kind == "abelian_dyadic":
            object.__setattr__(self, "levels", int(self.levels))
            if self.levels < 1:
                raise TowerError("abelian_dyadic needs levels >= 1")
        elif self.kind == "custom":
            if not self.spanning_sets:
                raise TowerError("custom spec needs at least one spanning set")
        else:
            raise TowerError(f"unknown filtration kind {self.kind!r}")

    @staticmethod
    def tensor(dims) -> "FiltrationSpec":
        return FiltrationSpec(kind="tensor", dims=tuple(dims))

    @staticmethod
    def abelian_dyadic(levels: int) -> "FiltrationSpec":
        return FiltrationSpec(kind="abelian_dyadic", levels=levels)

    @staticmethod
    def custom(spanning_sets, weights=None) -> "FiltrationSpec":
        sets = tuple(tuple(np.asarray(m, dtype=complex) for m in s) for s in spanning_sets)
        w = tuple(float(x) for x in weights) if weights is not None else ()
        return FiltrationSpec(kind="custom", spanning_sets=sets, weights=w)

    @staticmethod
    def from_json(obj) -> "FiltrationSpec":
        kind = obj.get("kind")
        if kind == "tensor":
            return FiltrationSpec.tensor(obj["dims"])
        if kind == "abelian_dyadic":
            return FiltrationSpec.abelian_dyadic(obj["levels"])
        raise TowerError(f"unsupported tower kind in config: {kind!r}")

    def to_json(self):
        if self.kind == "tensor":
            return {"kind": "tensor", "dims": list(self.dims)}
        if self.kind == "abelian_dyadic":
            return {"kind": "abelian_dyadic", "levels": self.levels}
        return {"kind": "custom", "levels": len(self.spanning_sets)}

    @staticmethod
    def parse(text: str) -> "FiltrationSpec":
        """Parse a compact CLI spec: ``tensor:2,2,2`` or ``abelian:4``."""
        try:
            kind, _, arg = text.partition(":")
            if kind == "tensor":
                return FiltrationSpec.tensor(int(s) for s in arg.split(","))
            if kind in ("abelian", "abelian_dyadic"):
                return FiltrationSpec.abelian_dyadic(int(arg))
        except (ValueError, TowerError) as exc:
            raise TowerError(f"bad tower spec {text!r}: {exc}") from exc
        raise TowerError(f"bad tower spec {text!r}")


# ---------------------------------------------------------------------------
# operator serialization


def operator_to_json(x) -> dict:
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        x = np.diag(x)
    return {
        "dim": x.shape[0],
        "re": x.real.reshape(-1).tolist(),
        "im": x.imag.reshape(-1).tolist(),
    }


def operator_from_json(obj) -> np.ndarray:
    d = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float).reshape(d, d)
    im = np.asarray(obj["im"], dtype=float).reshape(d, d)
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise TowerError("operator has a NaN or infinite entry")
    return re + 1j * im


# ---------------------------------------------------------------------------
# small orthonormalization helpers


def gram_schmidt(vectors, inner, drop_tol=DEPENDENCE_TOL):
    """Orthonormalize ``vectors`` under ``inner``; drop dependent ones.

    Two re-orthogonalization passes keep the result stable; a vector whose
    residual norm falls below ``drop_tol`` is treated as dependent.
    """
    basis = []
    for v in vectors:
        v = np.array(v, dtype=complex)
        for _ in range(2):
            for b in basis:
                v = v - inner(v, b) * b
        nrm = math.sqrt(max(inner(v, v).real, 0.0))
        if nrm < drop_tol:
            continue
        basis.append(v / nrm)
    return basis


def _diag_inner(w):
    def inner(a, b):
        return np.sum(w * np.conj(b) * a)

    return inner


def _unital_diag_onb(dim, w):
    """Orthonormal basis of diagonal vectors with the constant vector first."""
    cands = [np.ones(dim, dtype=complex)]
    cands += [np.eye(dim, dtype=complex)[i] for i in range(dim)]
    return gram_schmidt(cands, _diag_inner(w))


def _traceless_onb(n):
    """Orthonormal traceless basis of (M_n, tr/n), as an (n^2-1, n, n) stack."""
    out = []
    s = math.sqrt(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                m = np.zeros((n, n), dtype=complex)
                m[i, j] = s
                out.append(m)
    w = np.full(n, 1.0 / n)
    diag = _unital_diag_onb(n, w)[1:]
    out += [np.diag(v) for v in diag]
    return np.stack(out)


def _unital_onb(n):
    """Orthonormal basis of (M_n, tr/n) with the identity first."""
    first = np.eye(n, dtype=complex)[None]
    return np.concatenate([first, _traceless_onb(n)])


def _haar_vectors(total_dim, level):
    """Normalized Haar step vectors at the given dyadic level."""
    block = total_dim >> (level - 1)
    half = block // 2
    scale = 2.0 ** ((level - 1) / 2.0)
    out = np.zeros((total_dim // block, total_dim), dtype=complex)
    for i in range(out.shape[0]):
        out[i, i * block : i * block + half] = scale
        out[i, i * block + half : (i + 1) * block] = -scale
    return out


# ---------------------------------------------------------------------------
# tower


class Tower:
    """Immutable filtration of traced *-subalgebras of ``M_d``.

    Construct via :func:`build_tower`.  All operations are pure functions of
    their inputs and safe to call concurrently.
    """

    def __init__(self, spec: FiltrationSpec):
        self.spec = spec
        self._level_cache = {}
        self._diff_cache = {}
        if spec.kind == "tensor":
            self.factor_dims = tuple(spec.dims)
            self.dim = int(np.prod(self.factor_dims))
            self.n_levels = len(self.factor_dims)
            self._sub_dims = [int(np.prod(self.factor_dims[:k])) for k in range(self.n_levels + 1)]
            self.weights = np.full(self.dim, 1.0 / self.dim)
        elif spec.kind == "abelian_dyadic":
            self.n_levels = int(spec.levels)
            self.dim = 1 << self.n_levels
            self.weights = np.full(self.dim, 1.0 / self.dim)
        else:
            self._init_custom(spec)
        # Equal weights (tensor, abelian, unweighted custom towers) give every
        # unit vector the trace weight ``weights[0]``.
        self.uniform_trace = bool(np.all(self.weights == self.weights[0]))

    # -- construction of custom towers ------------------------------------

    def _init_custom(self, spec):
        sets = spec.spanning_sets
        d = np.asarray(sets[0][0]).shape[0]
        for s in sets:
            for m in s:
                m = np.asarray(m)
                if m.shape != (d, d):
                    raise TowerError("custom spanning sets must share one square shape")
        self.dim = d
        self.n_levels = len(sets)
        if spec.weights:
            w = np.asarray(spec.weights, dtype=float)
            if w.shape != (d,) or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
                raise TowerError("trace weights must be positive and sum to 1")
        else:
            w = np.full(d, 1.0 / d)
        self.weights = w

        eye = np.eye(d, dtype=complex)
        prev = None
        for k, s in enumerate(sets, start=1):
            vecs = gram_schmidt([eye] + [np.asarray(m, complex) for m in s], self.inner)
            basis = np.stack(vecs)
            self._validate_custom_level(k, basis, prev)
            self._level_cache[k] = basis
            prev = basis

    def _validate_custom_level(self, k, basis, prev):
        def resid(x, stack):
            coeffs = np.tensordot(stack.conj(), x * self.weights[None, :], axes=([1, 2], [0, 1]))
            return self.norm2(x - np.tensordot(coeffs, stack, axes=(0, 0)))

        for b in basis:
            if resid(b.conj().T, basis) > STRUCTURE_TOL:
                raise TowerError(f"custom level {k} span is not *-closed")
        for a in basis:
            for b in basis:
                if resid(a @ b, basis) > STRUCTURE_TOL:
                    raise TowerError(f"custom level {k} span is not an algebra")
        if prev is not None:
            for b in prev:
                if resid(b, basis) > STRUCTURE_TOL:
                    raise TowerError(f"custom level {k} does not contain level {k - 1}")

    # -- basic trace geometry ----------------------------------------------

    def trace(self, x):
        x = self._check(x)
        if x.ndim == 1:
            return complex(np.sum(self.weights * x))
        return complex(np.dot(self.weights, np.diagonal(x)))

    def inner(self, a, b):
        """Trace inner product ``tau(b^* a)``."""
        a, b = self._check(a), self._check(b)
        if a.ndim == 1 and b.ndim == 1:
            return complex(np.sum(self.weights * np.conj(b) * a))
        a, b = self._dense(a), self._dense(b)
        return complex(np.sum(np.conj(b) * a * self.weights[None, :]))

    def norm2(self, x):
        return math.sqrt(max(self.inner(x, x).real, 0.0))

    def level_dim(self, k):
        self._check_level(k, lo=0)
        if k == 0:
            return 0
        if self.spec.kind == "tensor":
            return self._sub_dims[k] ** 2
        if self.spec.kind == "abelian_dyadic":
            return 1 << k
        return self._level_cache[k].shape[0]

    # -- conditional expectations ------------------------------------------

    def conditional_expectation(self, n, x):
        """Trace-orthogonal projection onto level ``n``; ``E_0 = 0``."""
        self._check_level(n, lo=0)
        x = self._check(x)
        if n == 0:
            return np.zeros_like(x)
        if x.ndim == 1:
            return self._diag_expectation(n, x)
        if self.spec.kind == "abelian_dyadic":
            return np.diag(self._diag_expectation(n, np.diagonal(x).copy()))
        if self.level_dim(n) == self.dim * self.dim:
            return x.copy()
        if self.spec.kind == "tensor" and self._stack_entries(n) > MAX_STACK_ENTRIES:
            return self._tensor_expectation(n, x)
        basis = self.level_basis(n)
        # sum(conj(b) * y) = conj(sum(b * conj(y))): conjugating y instead
        # of the basis avoids copying the basis (up to 64 MB) on every call.
        flat = basis.reshape(basis.shape[0], -1)
        coeffs = (flat @ (x * self.weights[None, :]).conj().ravel()).conj()
        return (coeffs @ flat).reshape(x.shape)

    def _block_size(self, n):
        if self.spec.kind == "tensor":
            return self.dim // self._sub_dims[n]
        return 1 << (self.n_levels - n)

    def _diag_expectation(self, n, x):
        block = self._block_size(n)
        means = x.reshape(-1, block).mean(axis=1)
        return np.repeat(means, block)

    def _tensor_expectation(self, n, x):
        d_sub = self._sub_dims[n]
        rest = self.dim // d_sub
        x4 = x.reshape(d_sub, rest, d_sub, rest)
        pt = np.einsum("arbr->ab", x4) / rest
        out = np.zeros_like(x).reshape(d_sub, rest, d_sub, rest)
        idx = np.arange(rest)
        out[:, idx, :, idx] = pt[None, :, :]
        return out.reshape(self.dim, self.dim)

    # -- bases ---------------------------------------------------------------

    def _stack_entries(self, k):
        return self.level_dim(k) * self.dim * self.dim

    def level_basis(self, k):
        """Trace-orthonormal basis of level ``k``, identity first: (m, d, d)."""
        self._check_level(k)
        if k not in self._level_cache:
            if self._stack_entries(k) > MAX_STACK_ENTRIES:
                raise TowerError(f"level {k} basis too large to materialize")
            self._level_cache[k] = self._build_level(k)
        return self._level_cache[k]

    def _build_level(self, k):
        if self.spec.kind == "abelian_dyadic":
            return np.stack([np.diag(v) for v in self._level_diag_basis(k)])
        d_sub = self._sub_dims[k]
        rest = self.dim // d_sub
        eye = np.eye(rest, dtype=complex)
        return np.stack([np.kron(b, eye) for b in _unital_onb(d_sub)])

    def _level_diag_basis(self, k):
        vecs = [np.ones(self.dim, dtype=complex)]
        for lvl in range(1, k + 1):
            vecs.extend(_haar_vectors(self.dim, lvl))
        return np.stack(vecs)

    def difference_basis(self, k):
        """Trace-orthonormal basis of ``D_k`` = level k minus level k-1.

        With the convention ``E_0 = 0`` the first difference subspace is the
        whole first level, identity included.
        """
        self._check_level(k)
        if k not in self._diff_cache:
            self._diff_cache[k] = self._build_difference(k)
        return self._diff_cache[k]

    def _build_difference(self, k):
        if k == 1:
            return self.level_basis(1)
        if self.spec.kind == "abelian_dyadic":
            return np.stack([np.diag(v) for v in _haar_vectors(self.dim, k)])
        if self.spec.kind == "tensor":
            d_prev = self._sub_dims[k - 1]
            nk = self.factor_dims[k - 1]
            rest = self.dim // (d_prev * nk)
            eye_rest = np.eye(rest, dtype=complex)
            scale = math.sqrt(d_prev)
            out = []
            for i in range(d_prev):
                for j in range(d_prev):
                    unit = np.zeros((d_prev, d_prev), dtype=complex)
                    unit[i, j] = scale
                    for w in _traceless_onb(nk):
                        out.append(np.kron(np.kron(unit, w), eye_rest))
            return np.stack(out)
        upper = self.level_basis(k)
        lower = self.level_basis(k - 1)
        resid = []
        for b in upper:
            coeffs = np.tensordot(lower.conj(), b * self.weights[None, :], axes=([1, 2], [0, 1]))
            resid.append(b - np.tensordot(coeffs, lower, axes=(0, 0)))
        basis = gram_schmidt(resid, self.inner)
        return np.stack(basis)

    def project_difference(self, k, x):
        """Trace-orthogonal projection of ``x`` onto ``D_k``: ``(E_k - E_{k-1}) x``."""
        x = self._check(x)
        self._check_level(k)
        return self.conditional_expectation(k, x) - self.conditional_expectation(k - 1, x)

    # -- misc ---------------------------------------------------------------

    def random_element(self, rng, level=None, difference=None):
        """Standard complex-Gaussian element, optionally projected."""
        if self.spec.kind == "abelian_dyadic":
            g = rng.standard_normal(self.dim) + 0j
        else:
            g = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal(
                (self.dim, self.dim)
            )
        if difference is not None:
            return self.project_difference(difference, g)
        if level is not None:
            return self.conditional_expectation(level, g)
        return g

    def _dense(self, x):
        return np.diag(x) if x.ndim == 1 else x

    def _check(self, x):
        """``x`` as a complex array; a diagonal ``x`` on a custom tower becomes
        dense, since the diagonal of its expectation need not lie in the level."""
        x = np.asarray(x, dtype=complex)
        if x.ndim == 1:
            if x.shape != (self.dim,):
                raise TowerError(f"diagonal operator has dim {x.shape[0]}, tower dim {self.dim}")
            if self.spec.kind == "custom":
                return np.diag(x)
        elif x.shape != (self.dim, self.dim):
            raise TowerError(f"operator shape {x.shape} does not match tower dim {self.dim}")
        return x

    def _check_level(self, k, lo=1):
        if not (lo <= k <= self.n_levels):
            raise TowerError(f"level {k} out of range [{lo}, {self.n_levels}]")


# Tensor and abelian specs are hashable, so equal specs share one tower and
# its cached bases; 32 covers a run's tower plus the 24 towers of the
# extremal family at its default depth of 12.
@lru_cache(maxsize=32)
def _shared_tower(spec):
    return Tower(spec)


def build_tower(spec: FiltrationSpec) -> Tower:
    """The tower described by ``spec``.

    Tensor and abelian towers are shared: equal specs give the same object.
    A custom spec holds arrays, so it is built and validated on every call.
    """
    return Tower(spec) if spec.kind == "custom" else _shared_tower(spec)
