"""Generalized singular value functions and scalar norms.

The singular value function of an operator ``x`` is the decreasing
rearrangement of the spectrum of ``|x|`` weighted by the trace; on a finite
tower it is a right-continuous decreasing step function on ``[0, 1)`` stored
as ``(value, cumulative weight)`` breakpoints, one piece per distinct value.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SingularValueFunction",
    "singular_value_function",
    "lp_norm",
    "lorentz_norm",
    "weak_norm",
    "distribution",
    "operator_norm",
]

# Above this exponent, power sums are evaluated in log space.
LOG_SPACE_EXPONENT = 32.0


@dataclass(frozen=True)
class SingularValueFunction:
    """Step function ``mu_t``: ``values[j]`` on ``[cums[j-1], cums[j])``.

    ``piece_weights[j]`` is the length of piece ``j``: ``cums[0]``, then
    ``cums[j] - cums[j-1]``.  Every piece must have positive length.
    """

    values: np.ndarray  # nonincreasing, >= 0
    cums: np.ndarray  # strictly increasing from above 0, ends at 1
    piece_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.cums, dtype=float)
        if v.shape != c.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("breakpoints must be two equal-length 1-d arrays")
        if not ((v[1:] <= v[:-1]).all() and v[-1] >= 0):
            raise ValueError("values must be nonnegative and nonincreasing")
        w = np.empty_like(c)  # np.diff(c, prepend=0.0), without its concatenation
        w[0] = c[0]
        np.subtract(c[1:], c[:-1], out=w[1:])
        if not ((w > 0).all() and abs(c[-1] - 1.0) <= 1e-9):
            raise ValueError("cumulative weights must increase strictly from 0 to 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "cums", c)
        object.__setattr__(self, "piece_weights", w)

    def value_at(self, t):
        """Evaluate ``mu_t``; zero for ``t >= 1``."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        j = int(np.searchsorted(self.cums, t, side="right"))
        return float(self.values[j]) if j < self.values.size else 0.0

    @staticmethod
    def from_spectrum(values, weights):
        """Group weighted spectrum samples into a step function.

        Taken in decreasing order, samples of zero weight are dropped and
        each run of equal values is one piece, whose ``cums`` entry is the
        running total of the weights at its last sample.  A piece over which
        that total, capped at 1, does not grow weighs less than the total's
        rounding and is dropped.  When all weights are equal, as on every
        uniform trace, sorting the values gives that order and the same
        totals.  A value or weight that is NaN or infinite raises
        ``ArithmeticError``: it comes from a computation that overflowed, so
        it is a numerical failure.
        """
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if not (np.isfinite(values).all() and np.isfinite(weights).all()):
            raise ArithmeticError("spectrum has a NaN or infinite value or weight")
        uniform = (weights == weights[:1]).all()
        if uniform:
            values = np.sort(values)[::-1] if weights.size and weights[0] > 0 else values[:0]
        else:
            order = np.argsort(values)[::-1]
            order = order[weights[order] > 0]
            values, weights = values[order], weights[order]
        if values.size == 0:
            return SingularValueFunction(np.zeros(1), np.ones(1))
        last = np.append(values[1:] != values[:-1], True)
        cums = np.cumsum(weights)
        if not last.all():
            values, cums = values[last], cums[last]
        if not uniform:
            # A piece over which the running total does not grow below 1 has
            # a measure under its rounding, and no norm sees it.  (Equal
            # weights, 1/d each on a uniform trace, always grow it.)
            np.minimum(cums, 1.0, out=cums)
            grows = np.append(True, cums[1:] > cums[:-1])
            if not grows.all():
                values, cums = values[grows], cums[grows]
        cums[-1] = 1.0  # weights sum to tau(1) = 1 up to rounding
        return SingularValueFunction(np.maximum(values, 0.0), cums)


def _solver_failure(x, solver="eigensolver"):
    digest = hashlib.sha256(np.ascontiguousarray(x)).hexdigest()[:16]
    return ArithmeticError(f"{solver} failed on operator sha256:{digest}")


def _eigh(h, x):
    """``np.linalg.eigh`` of a Hermitian ``h`` formed from the operator ``x``.

    An eigensolver failure raises ``ArithmeticError`` naming ``x`` by digest,
    so it counts as a numerical failure, not as bad input.
    """
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise _solver_failure(x) from exc


def _eigvalsh(h, x):
    """``np.linalg.eigvalsh`` of a Hermitian ``h`` formed from ``x``, or of a
    stack of them formed from a stack ``x``.

    A failure raises ``ArithmeticError`` as in ``_eigh``; on a stack, the
    matrices are retried one by one so that the digest names the ``x`` of
    the first one that fails.
    """
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        for hi, xi in zip(h if h.ndim > 2 else (), x):
            _eigvalsh(hi, xi)
        raise _solver_failure(x) from exc


def _root_spectrum(tower, h, x):
    """Eigenvalues of ``h^{1/2}`` with their trace weights, for ``h >= 0``
    formed from the operator ``x``."""
    eigvals, vecs = _eigh(h, x)
    vals = np.sqrt(np.clip(eigvals, 0.0, None))
    weights = np.einsum("pi,p,pi->i", vecs.conj(), tower.weights, vecs).real
    return vals, np.clip(weights, 0.0, None)


def _adjoint(x):
    """``x*`` of an operator or a stack of them; the conjugate of a diagonal."""
    return x.conj() if x.ndim == 1 else np.swapaxes(x.conj(), -1, -2)


def _svd(x, compute_uv):
    """``np.linalg.svd`` of the operator ``x``, or of a stack of them.

    LAPACK's SVD can fail to converge on structured matrices.  It is then
    retried on ``x*`` and, if that fails too, on the R factor of
    ``np.linalg.qr(x)``; both have the singular values of ``x``, and the
    singular vectors are mapped back.  Only when all three fail does it
    raise ``ArithmeticError`` naming ``x`` by digest, as in ``_eigh``.
    """
    try:
        return np.linalg.svd(x, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    try:
        out = np.linalg.svd(_adjoint(x), compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    else:
        if compute_uv:  # x = (u s vh)* = vh* s u*
            out = (_adjoint(out[2]), out[1], _adjoint(out[0]))
        return out
    try:
        q, r = np.linalg.qr(x)
        out = np.linalg.svd(r, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise _solver_failure(x, "singular value solver") from exc
    if compute_uv:  # x = q r = (q u) s vh
        out = (q @ out[0], out[1], out[2])
    return out


def _absolute_value_spectrum(tower, x):
    """Eigenvalues of ``|x|`` with their trace weights.

    For a dense ``x`` these are its singular values, taken from ``x`` itself:
    an eigensolver on ``x* x`` would square the condition number and lose
    the singular values below about ``1e-8 ||x||``.  On a uniform trace
    every unit vector has weight ``weights[0]``, so no singular vectors are
    computed; otherwise the weight of each value is ``sum_p w_p |v_p|^2``
    over its right singular vector ``v``.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        return np.abs(x), tower.weights.copy()
    if tower.uniform_trace:
        return _svd(x, False), tower.weights.copy()
    _, vals, vh = _svd(x, True)
    return vals, np.abs(vh) ** 2 @ tower.weights


def singular_value_function(tower, x) -> SingularValueFunction:
    """Generalized singular value function of ``x`` on ``tower``."""
    vals, weights = _absolute_value_spectrum(tower, x)
    return SingularValueFunction.from_spectrum(vals, weights)


def operator_norm(x) -> float:
    """Uniform norm: the largest singular value of the matrix."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        return float(np.max(np.abs(x))) if x.size else 0.0
    return float(_svd(x, False)[0])


def _root_power_sum(values, weights, p):
    """``(sum w * v^p)^(1/p)`` over samples in any order, for one exponent
    ``p > 0`` (a float) or an array of them (an array of the same shape).

    Samples of zero value or weight add nothing; they are dropped only when
    some are, and each exponent's sum runs over the same terms in the same
    order as a lone call's.  ``p = inf`` gives the largest value of positive
    weight.  An exponent above ``LOG_SPACE_EXPONENT``, or one at which the
    largest power reaches ``1e300``, is summed in log space.
    """
    ps = np.asarray(p, dtype=float)
    exps = ps.ravel().tolist()
    out = [0.0] * len(exps)
    keep = (values > 0) & (weights > 0)
    if not keep.all():
        values, weights = values[keep], weights[keep]
    if values.size:
        top = float(values.max())
        direct, logged = [], []
        for i, q in enumerate(exps):
            if q == math.inf:
                out[i] = top
            else:
                small = q <= LOG_SPACE_EXPONENT and q * math.log(top) < math.log(1e300)
                (direct if small else logged).append(i)
        if direct:
            # one power per row, as a lone call takes it: a broadcast power
            # of the whole stack rounds some entries differently
            powers = np.empty((len(direct), values.size))
            for j, i in enumerate(direct):
                powers[j] = values ** exps[i]
            powers *= weights
            for i, total in zip(direct, powers.sum(axis=1).tolist()):
                out[i] = total ** (1.0 / exps[i])
        if logged:
            log_v, log_w = np.log(values), np.log(weights)
            for i in logged:
                logs = exps[i] * log_v + log_w
                m = np.max(logs)
                log_total = m + math.log(float(np.sum(np.exp(logs - m))))
                out[i] = math.exp(log_total / exps[i])
    return out[0] if ps.ndim == 0 else np.reshape(out, ps.shape)


def lp_norm(s: SingularValueFunction, p):
    """``(integral mu_t^p dt)^(1/p)``; the top value for ``p = inf``.

    ``p`` is one exponent, giving a float, or an array of exponents, giving
    an array of the same shape whose entries equal the lone calls'.  Every
    exponent must be positive.
    """
    p = np.asarray(p, dtype=float)
    if not (p > 0).all():
        raise ValueError("p must be positive")
    return _root_power_sum(s.values, s.piece_weights, p)


def lorentz_norm(s: SingularValueFunction, p, q) -> float:
    """Lorentz quasi-norm ``(integral (t^{1/p} mu_t)^q dt/t)^{1/q}``."""
    p = float(p)
    if p <= 0 or not math.isfinite(p):
        raise ValueError("p must be finite and positive")
    if q == math.inf:  # the weak norm, for any p > 0
        return float(np.max(s.values * s.cums ** (1.0 / p)))
    q = float(q)
    if not q > 0:  # NaN too
        raise ValueError("q must be positive")
    r = q / p
    edges = np.concatenate([[0.0], s.cums])
    piece = edges[1:] ** r - edges[:-1] ** r
    return _root_power_sum(s.values, piece / r, q)


def weak_norm(s: SingularValueFunction, p) -> float:
    """Weak norm ``sup_t t^{1/p} mu_t``, exact on step functions."""
    p = float(p)
    if not p >= 1:  # NaN too
        raise ValueError("weak norm requires p >= 1")
    return float(np.max(s.values * s.cums ** (1.0 / p)))


def distribution(s: SingularValueFunction, lam):
    """Trace of the spectral projection of ``|x|`` above level ``lam``.

    ``lam`` is one level, giving a float, or an array of levels, giving an
    array of the same shape.  Every level must be positive.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("level must be positive")
    above = np.searchsorted(-s.values, -lam)  # pieces with value > lam
    out = np.append(0.0, s.cums)[above]
    return float(out) if out.ndim == 0 else out
