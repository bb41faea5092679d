"""Finite-dimensional traced *-algebra filtrations.

A tower is an increasing chain of unital *-subalgebras of a matrix algebra
``M_d``, carrying a normalized faithful trace given by a diagonal weight
vector.  Conditional expectations onto the levels are realized as orthogonal
projections in the trace inner product ``<a, b> = tr(w b^* a)``.

Operators are plain numpy arrays: shape ``(d, d)`` for a dense element, or
shape ``(d,)`` for a diagonal element (used by the abelian towers and by
large tensor towers, where a dense representation is impractical).
``conditional_expectation`` and ``project_difference`` also take a
``(b, d, d)`` stack of dense elements and project all of them together.

Level bases are nested: level ``k``'s basis is ``[D_1; D_2; ...; D_k]``,
an orthonormal basis of each difference subspace ``D_j`` after the one
before it, identity first.  A tower caches one read-only stack, the deepest
level built so far; every lower level basis and every ``D_k`` basis is a
view of its leading rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import _eigh

__all__ = [
    "TowerError",
    "FiltrationSpec",
    "Tower",
    "build_tower",
    "gram_schmidt",
    "operator_to_json",
    "operator_from_json",
]

# A Gram-Schmidt residual at most this times the row's own norm is linear
# dependence.
DEPENDENCE_TOL = 1e-12
# Structural validation tolerance for user-supplied bases.
STRUCTURE_TOL = 1e-8
# Eigenvalues of a generic level element closer than this (relative) are
# one multiplicity in ``Tower._block_constants``.
MULTIPLICITY_TOL = 1e-10
# Dense basis stacks above this entry count are never materialized.
MAX_STACK_ENTRIES = 1 << 24


class TowerError(ValueError):
    """Invalid filtration specification or mismatched operands."""


# ---------------------------------------------------------------------------
# specs


def _integer(value, name, low):
    """``value`` as an ``int`` of at least ``low``; ``int`` would truncate a
    fraction or read a bool or a string."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(value, bool) and int(value) == value >= low:
            return int(value)
    raise TowerError(f"{name} must be an integer and must be at least {low}, got {value!r}")


def _content_digest(spanning_sets):
    """SHA-256 of the shapes and complex entries of the spanning sets, level by level."""
    digest = hashlib.sha256()
    for level in spanning_sets:
        digest.update(b"level")
        for m in level:
            a = np.ascontiguousarray(m, dtype=complex)
            digest.update(repr(a.shape).encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


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
            object.__setattr__(self, "dims", tuple(_integer(n, "tensor dims", 2) for n in self.dims))
            if not self.dims:
                raise TowerError("tensor spec needs at least one factor")
        elif self.kind == "abelian_dyadic":
            object.__setattr__(self, "levels", _integer(self.levels, "abelian_dyadic levels", 1))
        elif self.kind == "custom":
            if not self.spanning_sets:
                raise TowerError("custom spec needs at least one spanning set")
        else:
            raise TowerError(f"unknown filtration kind {self.kind!r}")
        object.__setattr__(self, "_key", (self.kind, self.dims, self.levels,
                                          _content_digest(self.spanning_sets), self.weights))

    # Arrays are unhashable and compare elementwise, so specs compare by a
    # key that holds a digest of the spanning sets instead of the arrays.
    def __eq__(self, other):
        return isinstance(other, FiltrationSpec) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

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
        if not isinstance(obj, dict):
            raise TowerError(f"tower in config must be an object, got {obj!r}")
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
    """The operator of an ``operator_to_json`` object; ``TowerError`` on any other input."""
    if not isinstance(obj, dict):
        raise TowerError("operator JSON must be an object")
    d = _integer(obj.get("dim"), "operator dim", 1)
    try:
        re = np.asarray(obj["re"], dtype=float).reshape(d, d)
        im = np.asarray(obj["im"], dtype=float).reshape(d, d)
    except (KeyError, TypeError, ValueError) as exc:
        raise TowerError(f"operator entries do not form a {d}x{d} matrix: {exc}") from exc
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise TowerError("operator has a NaN or infinite entry")
    return re + 1j * im


# ---------------------------------------------------------------------------
# small orthonormalization helpers


def gram_schmidt(vectors, weights):
    """Orthonormalize the stack ``vectors`` in order under the product
    ``<a, b> = sum(w * conj(b) * a)``, with ``w = weights`` on the last axis.

    Scaling by ``sqrt(w)`` makes this the plain dot product of flattened
    rows.  Each row is projected twice against the whole basis found so
    far ("twice is enough": Giraud, Langou & Rozloznik, 2005).  A row is
    dependent and dropped when its residual norm is at most
    ``DEPENDENCE_TOL`` times its own norm before projection, so a small
    element counts like a large one; a row no larger than the rounding error
    of the stack's largest row (``eps * sqrt(n)`` times its norm, ``n``
    entries per row) is zero and dropped too.  The basis comes back as an
    ``(m, *vectors.shape[1:])`` stack.
    Orthonormalizing a stack whose leading rows are already orthonormal
    continues their basis: the new rows span the rest of the stack's span.
    """
    vectors = np.asarray(vectors, dtype=complex)
    root = np.sqrt(np.broadcast_to(weights, vectors.shape[1:])).ravel()
    rows = vectors.reshape(len(vectors), -1) * root
    sizes = np.linalg.norm(rows, axis=1)
    zero = np.finfo(float).eps * math.sqrt(root.size) * sizes.max(initial=0.0)
    basis = np.empty((len(vectors), root.size), dtype=complex)
    m = 0
    for v, size in zip(rows, sizes):
        if size <= zero:
            continue
        for _ in range(2):
            v = v - (basis[:m].conj() @ v) @ basis[:m]
        nrm = np.linalg.norm(v)
        if nrm > DEPENDENCE_TOL * size:
            basis[m] = v / nrm
            m += 1
    return (basis[:m] / root).reshape((m,) + vectors.shape[1:])


def _unital_onb(n):
    """Orthonormal basis of (M_n, tr/n) as a real (n^2, n, n) stack: the
    identity, the scaled off-diagonal units in row-major order, then the
    traceless diagonal."""
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    out = np.zeros((n * n, n, n))
    out[1 + np.arange(i.size), i, j] = math.sqrt(n)
    diagonals = out.reshape(n * n, n * n)[:, :: n + 1]
    diagonals[0] = 1.0
    # the diagonal units orthonormalized after the constant vector, which is dropped
    cands = np.concatenate([np.ones((1, n)), np.eye(n)])
    diagonals[1 + i.size :] = gram_schmidt(cands, np.full(n, 1.0 / n))[1:].real
    return out


def _diag_stack(vectors):
    """The (m, d, d) stack of diagonal matrices of an (m, d) stack of vectors."""
    m, d = vectors.shape
    out = np.zeros((m, d, d), dtype=complex)
    out.reshape(m, d * d)[:, :: d + 1] = vectors
    return out


def _amplify(stack, rest):
    """The stack ``a (x) 1_rest`` for each ``a`` of an (m, n, n) stack, written
    into the (m, n, rest, n, rest) zeros in one strided assignment and
    returned as an (m, n*rest, n*rest) stack of ``stack``'s dtype; ``stack``
    itself if rest is 1."""
    if rest == 1:
        return stack
    m, n = stack.shape[:2]
    out = np.zeros((m, n, rest, n, rest), dtype=stack.dtype)
    idx = np.arange(rest)
    out[:, :, idx, :, idx] = stack
    return out.reshape(m, n * rest, n * rest)


# ---------------------------------------------------------------------------
# tower


class Tower:
    """Immutable filtration of traced *-subalgebras of ``M_d``.

    Construct via :func:`build_tower`.  All operations are pure functions of
    their inputs and safe to call concurrently.
    """

    def __init__(self, spec: FiltrationSpec):
        self.spec = spec
        # The basis of the deepest level built so far, read-only; level bases
        # are nested, so every lower level and every D_k is a view of it.
        # It is only ever replaced by a deeper stack, under ``_grow_lock``.
        self._stack = None
        self._grow_lock = threading.Lock()
        if spec.kind == "custom":
            self._init_custom(spec)
        else:
            # abelian:n is the diagonal of tensor:2^n, with its filtration:
            # level k has the s_k atoms of M_{s_k} (x) 1 on the diagonal
            self.factor_dims = tuple(spec.dims) if spec.kind == "tensor" else (2,) * spec.levels
            self.dim = math.prod(self.factor_dims)
            self.n_levels = len(self.factor_dims)
            self._sub_dims = [math.prod(self.factor_dims[:k]) for k in range(self.n_levels + 1)]
            atoms = spec.kind == "abelian_dyadic"
            self._level_dims = (0,) + tuple(s if atoms else s * s for s in self._sub_dims[1:])
            self.weights = np.full(self.dim, 1.0 / self.dim)
        # Equal weights (tensor, abelian, unweighted custom towers) give every
        # unit vector the trace weight ``weights[0]``.
        self.uniform_trace = bool(np.all(self.weights == self.weights[0]))
        if spec.kind == "custom":
            self._level_constants, self._zetas, self._central_traces = self._block_constants()
        else:
            # Tensor: E_11 (x) ... (x) E_12 (x) 1, E_12 in factor k, reaches c_k in D_k.
            # Abelian: D_1 is level 1, and D_k holds the Haar steps on the atoms of level k-1.
            c = self._level_constants = tuple(1.0 / s for s in self._sub_dims[1:])
            self._zetas = c if spec.kind == "tensor" else c[:1] + c[:-1]

    # -- construction of custom towers ------------------------------------

    def _init_custom(self, spec):
        sets = spec.spanning_sets
        d = np.shape(sets[0][0])[0]
        if any(np.shape(m) != (d, d) for s in sets for m in s):
            raise TowerError("custom spanning sets must share one square shape")
        self.dim = d
        self.n_levels = len(sets)
        uniform = np.full(d, 1.0 / d)
        if spec.weights:
            w = np.asarray(spec.weights, dtype=float)
            if w.shape != (d,) or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
                raise TowerError("trace weights must be positive and sum to 1")
        else:
            w = uniform
        self.weights = w

        eye = np.eye(d, dtype=complex)
        prev_onb = prev = None
        dims = [0]
        for k, s in enumerate(sets, start=1):
            # Structure does not depend on the trace, and under 1/d a tiny
            # weight can neither inflate nor hide a residual.
            onb = gram_schmidt([eye, *s], uniform)
            self._validate_custom_level(k, onb, prev_onb)
            basis = gram_schmidt([eye, *s], w) if spec.weights else onb
            if prev is not None:
                # continuing level k-1's basis puts a basis of D_k after it
                basis = gram_schmidt(np.concatenate([prev, basis]), w)
            dims.append(len(basis))
            prev_onb, prev = onb, basis
        # the last level's leading rows span each lower level
        prev.setflags(write=False)
        self._stack = prev
        self._level_dims = tuple(dims)
        if spec.weights:
            # a state that is not a trace has no trace-preserving expectations
            a, b = self._generic(self.n_levels, 2)
            if abs(self.trace(a @ b - b @ a)) > STRUCTURE_TOL * self.norm2(a) * self.norm2(b):
                raise TowerError("trace weights are not a trace on the top level")

    def _validate_custom_level(self, k, basis, prev):
        """``basis`` and ``prev`` are orthonormal under the uniform trace."""
        root = math.sqrt(1.0 / self.dim)
        onb = basis.reshape(len(basis), -1) * root
        adj = onb.conj().T

        def outside(stack):
            # some element of ``stack`` leaves span(basis) in the trace norm
            v = stack.reshape(len(stack), -1) * root
            return np.linalg.norm(v - (v @ adj) @ onb, axis=1).max() > STRUCTURE_TOL

        if outside(basis.conj().swapaxes(1, 2)):
            raise TowerError(f"custom level {k} span is not *-closed")
        if any(outside(a @ basis) for a in basis):
            raise TowerError(f"custom level {k} span is not an algebra")
        if prev is not None and outside(prev):
            raise TowerError(f"custom level {k} does not contain level {k - 1}")

    def _generic(self, k, count):
        """``count`` seeded generic elements of level ``k``, the same on every call."""
        coords = np.random.default_rng(0).standard_normal((count, self.level_dim(k), 2)) @ [1, 1j]
        return np.tensordot(coords, self.level_basis(k), axes=(1, 0))

    def _block_constants(self):
        """``(c_1, ..., c_n)``, ``(zeta_1, ..., zeta_n)`` and ``(T_1, ..., T_n)`` of a
        custom tower, from its blocks; ``zeta_k`` is ``None`` where ``D_k`` is trivial.

        A block ``M_n (x) 1_m`` of level ``k`` has minimal projections of one
        trace ``t``; ``c_k`` is the least.  On ``D_k``, ``||x||_inf`` is the
        largest ``|<x xi, eta>| = <x, F>_tau = <x, F - E_{k-1} F>_tau`` over
        unit ``xi, eta`` of a block, ``F = eta xi^* / t``, so ``1 / zeta_k`` is
        the largest ``||F - E_{k-1} F||_2^2``, reached at ``x = F - E_{k-1}
        F``.  Level ``k - 1`` cuts a block into copies of its own blocks
        (Goodman, de la Harpe & Jones, 1989, ch. 2); ``E_{k-1} F = 0`` for
        ``xi, eta`` in two copies, and in a block that is one copy of a
        level-(k-1) block of minimal trace ``T``, ``E_{k-1} F`` is ``F`` read
        there times ``t/T``, of squared norm ``1/T``.  As ``||F||_2^2 = 1/t``,
        ``1 / zeta_k`` is the largest ``1/t`` over blocks of two or more
        copies (all of level 1, as ``E_0 = 0``) and ``1/t - 1/T`` over single
        copies.  A spectral projection ``P`` of a generic self-adjoint level
        element is minimal, and lies in a single copy iff ``(1 - P)
        E_{k-1}(P) y P = 0`` for a generic ``y`` (``y = 1`` misses copies of
        one 1-dimensional block, as ``C 1`` in ``M_2``); there ``1/t - 1/T =
        (1 - r)/t`` with ``r = ||E_{k-1} P||_2^2 / t``, elsewhere ``r = 0``.
        On a uniform trace ``t`` is the multiplicity over ``d``, exactly.
        """
        consts = []
        for k in range(1, self.n_levels + 1):
            x, y = self._generic(k, 2)
            vals, vecs = _eigh(x + x.conj().T, x)
            # merging two eigenvalues could overstate the constants: a gap near rounding
            gap = MULTIPLICITY_TOL * max(1.0, float(np.max(np.abs(vals))))
            cluster = np.concatenate([[0], np.cumsum(np.diff(vals) > gap)])
            onehot = cluster[:, None] == np.arange(cluster[-1] + 1)
            uniform = self.uniform_trace
            t = onehot.sum(axis=0) / self.dim if uniform else self.weights @ abs(vecs) ** 2 @ onehot
            proj = np.einsum("ap,bp,pr->rab", vecs, vecs.conj(), onehot)
            down = self.conditional_expectation(k - 1, proj)
            off = np.linalg.norm((down - proj @ down) @ y @ proj, axis=(1, 2)) / np.linalg.norm(y)
            r = np.where(off <= STRUCTURE_TOL, (abs(down) ** 2 @ self.weights).sum(axis=1) / t, 0.0)
            j = int(np.argmax((1 - r) / t))
            trivial = self._level_dims[k] == self._level_dims[k - 1]
            consts.append((float(t.min()), None if trivial else min(1.0, float(t[j] / (1 - r[j]))),
                           (vecs, t[cluster])))
        return tuple(zip(*consts))

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
        return self._level_dims[k]

    def level_constant(self, k):
        """Smallest trace ``c_k`` of a minimal projection of level ``k``:
        ``||x||_inf^2 <= ||x||_2^2 / c_k`` on the level."""
        self._check_level(k)
        return self._level_constants[k - 1]

    def difference_constant(self, k):
        """``zeta_k``, the largest ``zeta`` with ``||x||_inf^2 <= ||x||_2^2 / zeta`` on ``D_k``."""
        self._check_level(k)
        if self._zetas[k - 1] is None:
            raise TowerError(f"difference subspace at level {k} is trivial")
        return self._zetas[k - 1]

    def minimal_trace_power(self, k, s):
        """``T_k^s``; the central element ``T_k`` of level ``k`` is, on each block, the
        trace of its minimal projections: ``c_k`` on tensor and abelian towers, ``sum
        tau(P) P`` over the generic spectral projections ``P`` of ``_block_constants``."""
        self._check_level(k)
        if self.spec.kind != "custom":
            return self._level_constants[k - 1] ** s
        vecs, traces = self._central_traces[k - 1]
        return (vecs * traces ** s) @ vecs.conj().T

    # -- conditional expectations ------------------------------------------

    def conditional_expectation(self, n, x):
        """Trace-orthogonal projection onto level ``n``; ``E_0 = 0``.

        ``x`` is one operator, dense ``(d, d)`` or diagonal ``(d,)``, or a
        stack of dense operators ``(b, d, d)``, projected together.  Through
        a level basis of ``m`` elements a stack costs one ``(m, d^2) @
        (d^2, b)`` and one ``(b, m) @ (m, d^2)`` product, where ``b`` calls
        would each read the whole basis; a dense operator is a stack of one.
        Through a real basis the products take ``2b`` real rows instead.
        """
        self._check_level(n, lo=0)
        x = self._check_stack(x)
        if n == 0:
            return np.zeros_like(x)
        if x.ndim == 1:
            return self._diag_expectation(n, x)
        if x.ndim == 2:
            return self._dense_expectation(n, x[None])[0]
        return self._dense_expectation(n, x)

    def _dense_expectation(self, n, x):
        """``E_n`` of each operator of a (b, d, d) stack, ``n >= 1``."""
        if self.spec.kind == "abelian_dyadic":
            return _diag_stack(self._diag_expectation(n, np.diagonal(x, axis1=1, axis2=2)))
        if self.level_dim(n) == self.dim * self.dim:
            return x.copy()
        if self.spec.kind == "tensor" and self._stack_entries(n) > MAX_STACK_ENTRIES:
            return self._tensor_expectation(n, x)
        basis = self.level_basis(n)
        flat = basis.reshape(basis.shape[0], -1)
        b = len(x)
        if flat.dtype == float:
            # A real basis projects the real and imaginary parts as 2b real
            # rows.  Both products stay real: ``complex @ float`` would copy
            # the basis (up to 32 MB) to complex on every call.
            xw = (x * self.weights).reshape(b, -1)
            parts = (np.concatenate([xw.real, xw.imag]) @ flat.T) @ flat
            out = np.empty(x.shape, dtype=complex)
            out.real = parts[:b].reshape(x.shape)
            out.imag = parts[b:].reshape(x.shape)
            return out
        # sum(conj(b) * y) = conj(sum(b * conj(y))): conjugating y instead
        # of the basis avoids copying the basis on every call.
        ys = (x * self.weights).conj().reshape(b, -1)
        coeffs = (flat @ ys.T).conj()
        return (coeffs.T @ flat).reshape(x.shape)

    def _block_size(self, n):
        return self.dim // self._sub_dims[n]

    def _diag_expectation(self, n, x):
        """Block means of the diagonal(s) on the last axis of ``x``."""
        block = self._block_size(n)
        means = x.reshape(*x.shape[:-1], -1, block).mean(axis=-1)
        return np.repeat(means, block, axis=-1)

    def _tensor_expectation(self, n, x):
        """Normalized partial trace over the factors above level ``n``, tensored
        with their identity, of an operator or a (b, d, d) stack."""
        d_sub = self._sub_dims[n]
        rest = self.dim // d_sub
        pt = np.einsum("...arbr->...ab", x.reshape(-1, d_sub, rest, d_sub, rest)) / rest
        return _amplify(pt, rest).reshape(x.shape)

    # -- bases ---------------------------------------------------------------

    def _stack_entries(self, k):
        return self.level_dim(k) * self.dim * self.dim

    def level_basis(self, k):
        """Read-only trace-orthonormal basis of level ``k``, (m, d, d), real on
        tensor towers: ``[D_1; ...; D_k]``, the bases of the difference
        subspaces in order, identity first.  It is the view of the tower's
        cached stack through its first ``level_dim(k)`` rows, so its values
        do not depend on which level was built first."""
        self._check_level(k)
        m = self.level_dim(k)
        stack = self._stack
        if stack is None or len(stack) < m:
            stack = self._grow(k)
        return stack[:m]

    def _grow(self, k):
        """The cached stack, extended through level ``k`` if it stops below:
        the cached rows are copied and only the new ``D_j`` blocks are
        written.  Under the lock a shallower stack never replaces a deeper one."""
        if self._stack_entries(k) > MAX_STACK_ENTRIES:
            raise TowerError(f"level {k} basis too large to materialize")
        with self._grow_lock:
            head = self._stack
            start = 0 if head is None else len(head)
            if start >= self.level_dim(k):
                return head
            real = self.spec.kind == "tensor"
            stack = np.zeros((self.level_dim(k), self.dim, self.dim), dtype=float if real else complex)
            if head is not None:
                stack[:start] = head
            for j in range(1, k + 1):
                lo, hi = self.level_dim(j - 1), self.level_dim(j)
                if hi > start:
                    self._write_difference(j, stack[lo:hi])
            stack.setflags(write=False)
            self._stack = stack
            return stack

    def _write_difference(self, j, out):
        """Write the basis of ``D_j`` into the zero rows ``out``: ``u (x) w (x)
        1_rest`` over ``u`` of level j-1 and ``w`` of the j-th factor, ``w``
        outermost; ``w = 1`` spans level j-1, so it leads ``D_1`` only.  On a
        tensor tower both run over unital bases of full matrix algebras; an
        abelian tower is their diagonal, the point masses ``sqrt(d_prev) e_ii``
        and ``1, diag(1, -1)``, whose products are the Haar steps."""
        d_prev, nj = self._sub_dims[j - 1], self.factor_dims[j - 1]
        rest = self.dim // (d_prev * nj)
        if self.spec.kind == "tensor":
            u, w = _unital_onb(d_prev), _unital_onb(nj)
        else:
            u, w = math.sqrt(d_prev) * _diag_stack(np.eye(d_prev)), _unital_onb(2)[[0, 3]]
        w = w[1 if j > 1 else 0:]
        blocks = out.reshape(len(w), len(u), d_prev, nj, rest, d_prev, nj, rest)
        idx = np.arange(rest)
        for i, a, b in zip(*np.nonzero(w)):
            blocks[i, :, :, a, idx, :, b, idx] = w[i, a, b] * u

    def difference_basis(self, k):
        """Trace-orthonormal basis of ``D_k`` = level k minus level k-1: rows
        ``level_dim(k - 1)`` to ``level_dim(k)`` of the tower's cached stack,
        the view of ``level_basis(k)`` past the basis of level ``k - 1``.

        With the convention ``E_0 = 0`` the first difference subspace is the
        whole first level, identity included.
        """
        return self.level_basis(k)[self.level_dim(k - 1):]

    def project_difference(self, k, x):
        """Trace-orthogonal projection of ``x`` onto ``D_k``: ``(E_k - E_{k-1}) x``;
        ``x`` is one operator or a (b, d, d) stack, as in ``conditional_expectation``."""
        x = self._check_stack(x)
        self._check_level(k)
        return self.conditional_expectation(k, x) - self.conditional_expectation(k - 1, x)

    # -- misc ---------------------------------------------------------------

    def random_element(self, rng):
        """Standard complex-Gaussian element, a real Gaussian diagonal on an abelian
        tower; ``project_difference(k, ...)`` of it lies in ``D_k``."""
        if self.spec.kind == "abelian_dyadic":
            return rng.standard_normal(self.dim) + 0j
        d = self.dim
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

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

    def _check_stack(self, x):
        """``x`` as ``_check`` returns it, or a (b, d, d) stack of dense operators."""
        x = np.asarray(x, dtype=complex)
        if x.ndim == 3 and x.shape[1:] == (self.dim, self.dim):
            return x
        return self._check(x)

    def _check_level(self, k, lo=1):
        if not (lo <= k <= self.n_levels):
            raise TowerError(f"level {k} out of range [{lo}, {self.n_levels}]")


# Equal specs share one tower and its cached bases; 32 covers a run's tower
# plus the 18 towers of the extremal family at its default depth of 12.
@lru_cache(maxsize=32)
def build_tower(spec: FiltrationSpec) -> Tower:
    """The tower described by ``spec``.

    Towers are shared: equal specs give the same object.  Custom specs are
    equal when their spanning sets have the same shapes and entries and their
    weights agree, so a custom tower is built and validated once.
    """
    return Tower(spec)
