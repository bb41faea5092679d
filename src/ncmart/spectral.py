"""Generalized singular value functions and scalar norms.

The singular value function of an operator ``x`` is the decreasing
rearrangement of the spectrum of ``|x|`` weighted by the trace; on a finite
tower it is a right-continuous decreasing step function on ``[0, 1)`` stored
as ``(value, cumulative weight)`` breakpoints, one piece per distinct value.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularValueFunction",
    "singular_value_function",
    "lp_norm",
    "lorentz_norm",
    "weak_norm",
    "weak_norm_distribution",
    "distribution",
    "operator_norm",
]

# Above this exponent, power sums are evaluated in log space.
LOG_SPACE_EXPONENT = 32.0


@dataclass(frozen=True)
class SingularValueFunction:
    """Step function ``mu_t``: ``values[j]`` on ``[cums[j-1], cums[j])``."""

    values: np.ndarray  # nonincreasing, >= 0
    cums: np.ndarray  # strictly increasing, ends at 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        c = np.asarray(self.cums, dtype=float)
        if v.shape != c.shape or v.ndim != 1 or v.size == 0:
            raise ValueError("breakpoints must be two equal-length 1-d arrays")
        if np.any(np.diff(v) > 0) or np.any(v < 0):
            raise ValueError("values must be nonnegative and nonincreasing")
        if np.any(np.diff(c) <= 0) or abs(c[-1] - 1.0) > 1e-9:
            raise ValueError("cumulative weights must increase strictly to 1")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "cums", c)

    @property
    def piece_weights(self):
        return np.diff(self.cums, prepend=0.0)

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
        running total of the weights at its last sample.  A value or weight
        that is NaN or infinite raises ``ArithmeticError``: it comes from a
        computation that overflowed, so it is a numerical failure.
        """
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(weights))):
            raise ArithmeticError("spectrum has a NaN or infinite value or weight")
        order = np.argsort(values)[::-1]
        order = order[weights[order] > 0]
        values, weights = values[order], weights[order]
        if values.size == 0:
            return SingularValueFunction(np.zeros(1), np.ones(1))
        last = np.append(values[1:] != values[:-1], True)
        cums = np.cumsum(weights)[last]
        cums[-1] = 1.0  # weights sum to tau(1) = 1 up to rounding
        return SingularValueFunction(np.maximum(values[last], 0.0), cums)


def _solver_failure(x):
    digest = hashlib.sha256(np.ascontiguousarray(x)).hexdigest()[:16]
    return ArithmeticError(f"eigensolver failed on operator sha256:{digest}")


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


def _absolute_value_spectrum(tower, x):
    """Eigenvalues of ``|x|`` with their trace weights."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        return np.abs(x), tower.weights.copy()
    return _root_spectrum(tower, x.conj().T @ x, x)


def singular_value_function(tower, x) -> SingularValueFunction:
    """Generalized singular value function of ``x`` on ``tower``."""
    vals, weights = _absolute_value_spectrum(tower, x)
    return SingularValueFunction.from_spectrum(vals, weights)


def operator_norm(x) -> float:
    """Uniform norm: the largest singular value of the matrix."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 1:
        return float(np.max(np.abs(x))) if x.size else 0.0
    return float(np.linalg.norm(x, 2))


def _root_power_sum(values, weights, p, root):
    """``(sum w * v^p)^(1/root)`` with a log-space path for large exponents."""
    mask = (values > 0) & (weights > 0)
    if not np.any(mask):
        return 0.0
    v, w = values[mask], weights[mask]
    if p <= LOG_SPACE_EXPONENT and np.max(v) ** p < 1e300:
        return float(np.sum(w * v**p)) ** (1.0 / root)
    logs = p * np.log(v) + np.log(w)
    m = np.max(logs)
    log_total = m + math.log(float(np.sum(np.exp(logs - m))))
    return math.exp(log_total / root)


def lp_norm(s: SingularValueFunction, p) -> float:
    """``(integral mu_t^p dt)^(1/p)``; the top value for ``p = inf``."""
    if p == math.inf:
        return float(s.values[0])
    p = float(p)
    if p <= 0:
        raise ValueError("p must be positive")
    return _root_power_sum(s.values, s.piece_weights, p, p)


def lorentz_norm(s: SingularValueFunction, p, q) -> float:
    """Lorentz quasi-norm ``(integral (t^{1/p} mu_t)^q dt/t)^{1/q}``."""
    p = float(p)
    if p <= 0 or not math.isfinite(p):
        raise ValueError("p must be finite and positive")
    if q == math.inf:
        return weak_norm(s, p, check_range=False)
    q = float(q)
    if q <= 0:
        raise ValueError("q must be positive")
    r = q / p
    edges = np.concatenate([[0.0], s.cums])
    piece = edges[1:] ** r - edges[:-1] ** r
    return _root_power_sum(s.values, piece / r, q, q)


def weak_norm(s: SingularValueFunction, p, check_range=True) -> float:
    """Weak norm ``sup_t t^{1/p} mu_t``, exact on step functions."""
    p = float(p)
    if check_range and p < 1:
        raise ValueError("weak norm requires p >= 1")
    if p <= 0:
        raise ValueError("p must be positive")
    return float(np.max(s.values * s.cums ** (1.0 / p)))


def weak_norm_distribution(s: SingularValueFunction, p, lambdas=None) -> float:
    """Weak norm via ``sup_l l * d(l)^{1/p}`` over a level grid.

    Defaults to levels just below each breakpoint value, where the supremum
    of the distribution form is attained for a step function.
    """
    p = float(p)
    if p < 1:
        raise ValueError("weak norm requires p >= 1")
    if lambdas is None:
        lambdas = s.values[s.values > 0] * (1.0 - 1e-12)
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0:
        return 0.0
    return float(np.max(lambdas * distribution(s, lambdas) ** (1.0 / p)))


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
