"""Filtration constants and fractional integral transforms.

The constant of a difference subspace ``D_k`` is the inverse squared norm
of the formal identity from ``(D_k, uniform norm)`` to ``(D_k, L2 norm)``;
equivalently ``1 / r^2`` where ``r`` is the largest uniform norm on the
L2 unit sphere of ``D_k``: ``Tower.difference_constant``, cross-checked by
``zeta_optimize``.  Fractional integrals scale the k-th martingale
difference by that constant raised to the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Tower, TowerError, _integer
from .martingale import MartingaleSequence
from .spectral import _svd

__all__ = [
    "CoefficientSequence",
    "zeta_optimize",
    "zeta_sequence",
    "fractional_integral",
    "iterated_transform",
]

# Full alternating maximization runs only from the most promising basis
# starts; the remaining basis elements still enter as evaluated candidates.
BASIS_START_CAP = 64
# Iteration cap of each alternating maximization path.
MAX_ALTERNATING_STEPS = 500
# Relative excess over the level bound still taken as rounding.
CAP_ROUNDING = 1e-12


@dataclass(frozen=True)
class CoefficientSequence:
    """Positive scalars driving a martingale transform, with provenance."""

    values: tuple
    provenance: str  # closed_form_{tensor,abelian_dyadic,custom} | optimized | user
    certificates: tuple = ()

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(not 0 < v <= 1 for v in vals):
            raise ValueError("coefficients must lie in (0, 1]")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def to_json(self):
        out = {"values": list(self.values), "provenance": self.provenance}
        if self.certificates:
            out["certificates"] = [dict(c) for c in self.certificates]
        return out


# ---------------------------------------------------------------------------
# the subspace constant


def _top_singular_pairs(xs):
    """Top singular triples (sigma, u, v) of a stack of matrices."""
    u, s, vh = _svd(xs, True)
    return s[:, 0], u[:, :, 0], vh[:, 0, :].conj()


def _alternating_max(basis_flat, d, starts, tol, cap):
    """Maximize the top singular value over the unit coefficient sphere.

    ``basis_flat`` is the (m, d*d) flattened trace-orthonormal basis of the
    subspace; ``starts`` is an (s, m) array of unit coefficient vectors.
    A path stops when its objective gains less than the relative ``tol``,
    or after ``MAX_ALTERNATING_STEPS`` steps.  All paths stop once the best
    objective is within ``tol`` of ``cap``, a proven upper bound: no start can do better.
    Returns per-start objectives and the best coefficient vector.  The
    objective is nondecreasing along each iteration path by construction;
    this is asserted up to roundoff.
    """
    c = np.array(starts, dtype=complex)
    n_start = c.shape[0]
    obj = np.zeros(n_start)
    active = np.ones(n_start, dtype=bool)
    for _ in range(MAX_ALTERNATING_STEPS):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        xs = (c[idx] @ basis_flat).reshape(idx.size, d, d)
        sigma, u, v = _top_singular_pairs(xs)
        if np.any(sigma < obj[idx] - 1e-9 * np.maximum(1.0, obj[idx])):
            raise ArithmeticError("alternating maximization objective decreased")
        moved = sigma > obj[idx] * (1 + tol)
        obj[idx] = sigma
        active[idx] = moved
        live = idx[moved]
        if live.size == 0 or obj.max() * (1 + tol) >= cap:
            break
        # next coefficients maximize Re <u, X(c) v> over the unit sphere
        pos = np.searchsorted(idx, live)
        m_flat = np.einsum("sp,sq->spq", u[pos].conj(), v[pos]).reshape(live.size, -1)
        g = (m_flat @ basis_flat.T).conj()
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        c[live] = g / np.where(norms > 0, norms, 1.0)
    best = int(np.argmax(obj))
    return obj, c[best]


def zeta_optimize(tower: Tower, k, restarts=32, tol=1e-10, seed=0, return_details=False):
    """Subspace constant of ``D_k`` by alternating maximization.

    Every basis element of ``D_k`` is evaluated first (singular values
    only).  ``D_k`` lies in level ``k``, so the ratio is at most
    ``cap = tower.level_constant(k) ** -0.5``.  When a basis element reaches
    ``cap`` within ``tol``, the level is certified without a search: the
    ``restarts`` random Gaussian starts are evaluated once, as a check
    against the cap.  Otherwise the search iterates the most promising
    ``BASIS_START_CAP`` basis elements and the random starts to
    stationarity, and stops as soon as it reaches ``cap`` within ``tol``.
    The starts are drawn in the basis's own field: real on the real tensor
    bases, whose extremals are real, and complex otherwise.
    Returns an upper bound on the constant, a cross-check of the closed
    form ``tower.difference_constant(k)``.

    A ratio above ``cap`` by more than rounding raises ``ArithmeticError``.
    The details record the bound (``upper_bound``), whether it was reached
    (``certified``; then the constant equals the level constant), and what
    ran: the search's basis starts (``basis_starts``, 0 when the basis
    evaluation certified the level), the random starts (``restarts``) and
    the five best objectives of the starts (``per_start_top``: where the
    path stopped, or the single evaluation of each random start on a level
    certified without a search).
    """
    _integer(restarts, "restarts", 1)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    basis = tower.difference_basis(k)
    m = basis.shape[0]
    if m == 0:
        raise TowerError(f"difference subspace at level {k} is trivial")
    d = tower.dim
    basis_flat = basis.reshape(m, d * d)
    cap = tower.level_constant(k) ** -0.5

    base_obj = _svd(basis, False)[:, 0]
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal((restarts, m))
    if basis_flat.dtype != float:
        rand = rand + 1j * rng.standard_normal((restarts, m))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)

    if base_obj.max() * (1 + tol) >= cap:
        # a basis element is extremal; the random starts are only checked
        basis_starts = 0
        obj = _svd((rand @ basis_flat).reshape(restarts, d, d), False)[:, 0]
    else:
        # the best basis elements and the random starts iterate
        top = np.argsort(base_obj)[::-1][:BASIS_START_CAP]
        basis_starts = top.size
        starts = np.zeros((basis_starts + restarts, m), dtype=complex)
        starts[np.arange(basis_starts), top] = 1.0
        starts[basis_starts:] = rand
        obj, _ = _alternating_max(basis_flat, d, starts, tol, cap)
    best = max(float(np.max(obj)), float(np.max(base_obj)))
    if best > cap * (1 + CAP_ROUNDING):
        raise ArithmeticError(
            f"ratio {best!r} on D_{k} exceeds the level bound {cap!r}")
    zeta = 1.0 / best**2
    if return_details:
        details = {
            "level": k,
            "restarts": restarts,
            "basis_starts": basis_starts,
            "basis_dim": int(m),
            "best_ratio": best,
            "per_start_top": sorted((float(o) for o in obj), reverse=True)[:5],
            "upper_bound": cap,
            "certified": best * (1 + tol) >= cap,
        }
        return zeta, details
    return zeta


def zeta_sequence(tower: Tower, method="auto", restarts=32, tol=1e-10, seed=0):
    """Coefficient sequence for the tower.

    ``method`` is ``"auto"`` (``tower.difference_constant`` at every level)
    or ``"optimize"`` (``zeta_optimize`` at every level, on every call).
    A sequence of given values is ``CoefficientSequence(values, "user")``.
    """
    if method == "auto":
        values = tuple(tower.difference_constant(k) for k in range(1, tower.n_levels + 1))
        return CoefficientSequence(values, "closed_form_" + tower.spec.kind)
    if method != "optimize":
        raise ValueError(f"unknown coefficient method {method!r}")
    vals, certs = [], []
    for k in range(1, tower.n_levels + 1):
        z, det = zeta_optimize(tower, k, restarts=restarts, tol=tol, seed=seed, return_details=True)
        vals.append(min(z, 1.0))
        certs.append(tuple(sorted(det.items())))
    return CoefficientSequence(tuple(vals), "optimized", tuple(certs))


# ---------------------------------------------------------------------------
# transforms


def fractional_integral(m: MartingaleSequence, alpha, coeffs: CoefficientSequence):
    """Martingale transform with coefficients ``zeta_k^alpha``."""
    if not 0 < alpha < 1:
        raise ValueError("fractional order must lie in (0, 1); see iterated_transform")
    return iterated_transform(m, alpha, coeffs)


def iterated_transform(m: MartingaleSequence, gamma, coeffs: CoefficientSequence):
    """Transform of arbitrary positive order ``gamma``, ``dx_k -> zeta_k^gamma dx_k``:
    the one body of every fractional transform.

    Coincides with the fractional integral for ``gamma < 1`` and with the
    ``(floor(gamma) + 1)``-fold composition at order ``gamma / (floor(gamma)
    + 1)`` in general.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"order must be finite and positive, got {gamma!r}")
    d, n = m.differences, len(m)
    if len(coeffs) < n:
        raise TowerError("coefficient sequence shorter than martingale")
    factors = np.array([v**gamma for v in coeffs.values[:n]]).reshape((n,) + (1,) * (d.ndim - 1))
    return MartingaleSequence(m.tower, factors * d)
