"""Adapted martingale sequences, square functions and Hardy-type norms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Tower, TowerError
from .spectral import (
    _eigh,
    _root_power_sum,
    _root_spectrum,
    lp_norm,
    operator_norm,
    singular_value_function,
)

__all__ = [
    "MartingaleSequence",
    "adapt",
    "column_square_function",
    "row_square_function",
    "hardy_column_norm",
    "hardy_row_norm",
    "hardy_mixed_max",
    "hardy_mixed_upper",
    "hd_norm",
    "bmo_column_norm",
    "bmo_norm",
    "lipschitz_column_lower",
    "AtomCertificate",
    "validate_atom",
    "make_atom",
    "atom_constant",
]

PROJECTION_TOL = 1e-8
DIFFERENCE_TOL = 1e-9


def _adjoint(x):
    return x.conj() if x.ndim == 1 else x.conj().T


def _abs_squared(x):
    """``x^* x`` for dense operators, ``|x|^2`` for diagonal ones."""
    return np.abs(x) ** 2 if x.ndim == 1 else x.conj().T @ x


def _sqrt_psd(m):
    if m.ndim == 1:
        return np.sqrt(np.clip(m.real, 0.0, None)) + 0j
    vals, vecs = _eigh((m + m.conj().T) / 2, m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


@dataclass(frozen=True)
class MartingaleSequence:
    """Finite adapted sequence stored through its differences ``dx_1..dx_n``.

    ``differences`` is one C-contiguous complex array over the level axis:
    ``(n, d, d)``, or ``(n, d)`` when every difference is diagonal.  The
    constructor takes any sequence of operators and stacks it; a stack of
    that form is kept without a copy.  If diagonal and dense differences are
    mixed, all are made dense.
    """

    tower: Tower
    differences: np.ndarray

    def __post_init__(self):
        tower = self.tower
        try:
            diffs = np.ascontiguousarray(self.differences, dtype=complex)
        except ValueError:  # diagonal and dense differences mixed
            diffs = np.stack([tower._dense(tower._check(d)) for d in self.differences])
        rows = [tower._check(d) for d in diffs]
        if not rows:
            raise TowerError("a martingale needs at least one difference")
        if len(rows) > tower.n_levels:
            raise TowerError("more differences than tower levels")
        if rows[0].ndim != diffs.ndim - 1:  # a custom tower made diagonal rows dense
            diffs = np.stack(rows)
        object.__setattr__(self, "differences", diffs)

    def __len__(self):
        return len(self.differences)

    @property
    def final(self):
        return self.differences.sum(axis=0)

    def partial_sum(self, n):
        if not 0 <= n <= len(self):
            raise TowerError(f"partial sum index {n} out of range")
        return self.differences[:n].sum(axis=0)

    def adjoint(self) -> "MartingaleSequence":
        d = self.differences.conj()
        return MartingaleSequence(self.tower, d if d.ndim == 2 else d.swapaxes(1, 2))

    def scaled(self, factors) -> "MartingaleSequence":
        d = self.differences
        factors = np.asarray(list(factors))
        if factors.size < len(d):
            raise TowerError("coefficient sequence shorter than martingale")
        shape = (len(d),) + (1,) * (d.ndim - 1)
        return MartingaleSequence(self.tower, factors[: len(d)].reshape(shape) * d)


def adapt(tower: Tower, x, n_levels=None) -> MartingaleSequence:
    """Canonical martingale of ``x``: differences ``E_k(x) - E_{k-1}(x)``."""
    n = tower.n_levels if n_levels is None else n_levels
    if n < 1:
        raise TowerError(f"adapt needs at least one level, got {n}")
    x = tower._check(x)
    levels = [np.zeros_like(x)] + [tower.conditional_expectation(k, x) for k in range(1, n + 1)]
    return MartingaleSequence(tower, np.diff(levels, axis=0))


# ---------------------------------------------------------------------------
# square functions and Hardy norms


def column_square_function(m: MartingaleSequence, n=None):
    """``S_{c,n} = (sum_{k<=n} dx_k^* dx_k)^{1/2}``."""
    n = len(m) if n is None else n
    if not 1 <= n <= len(m):
        raise TowerError(f"square function index {n} out of range")
    d = m.differences[:n]
    grams = np.abs(d) ** 2 if d.ndim == 2 else d.conj().swapaxes(1, 2) @ d
    return _sqrt_psd(grams.sum(axis=0))


def row_square_function(m: MartingaleSequence, n=None):
    return column_square_function(m.adjoint(), n)


def hardy_column_norm(m: MartingaleSequence, p) -> float:
    """``||S_c(x)||_p`` at the final level."""
    s = column_square_function(m)
    return lp_norm(singular_value_function(m.tower, s), p)


def hardy_row_norm(m: MartingaleSequence, p) -> float:
    return hardy_column_norm(m.adjoint(), p)


def hardy_mixed_max(m: MartingaleSequence, p) -> float:
    """Mixed Hardy norm for ``p >= 2``: max of column and row norms."""
    if p < 2:
        raise ValueError("use hardy_mixed_upper for p < 2")
    return max(hardy_column_norm(m, p), hardy_row_norm(m, p))


def _split_candidates(tower, k, dx):
    """Column/row splits of one difference; all parts stay inside D_k."""
    zero = np.zeros_like(dx)
    cands = [(dx, zero), (zero, dx)]
    dense = tower._dense(dx)
    for part in (np.tril(dense), np.triu(dense, 1)):
        a = tower.project_difference(k, part)
        cands.append((a, dx - a))
    s = _sqrt_psd(_abs_squared(dense))
    vals, vecs = _eigh(s, dense)
    top = vals >= (vals[0] + vals[-1]) / 2
    e_top = (vecs[:, top]) @ (vecs[:, top].conj().T)
    a = tower.project_difference(k, dense @ e_top)
    cands.append((a, dx - a))
    return cands


def _gram_pair(a, b):
    """Column Gram ``a^* a`` and row Gram ``b b^*`` of one split ``dx = a + b``."""
    return _abs_squared(a), _abs_squared(_adjoint(b))


def _gram_lp_norm(tower, g, p):
    """``||g^{1/2}||_p`` of a positive Gram sum from one eigendecomposition.

    ``g^{1/2}`` and ``g`` share eigenvectors, so the eigenvalues of the
    Hermitian part of ``g`` give the singular values of ``g^{1/2}`` and
    their trace weights at once.  The norm is the weighted power sum
    ``(sum w * v^p)^(1/p)`` of those samples; no step function is built,
    since merging near-tied samples changes the sum only by rounding.
    """
    if g.ndim == 1:
        vals, weights = np.sqrt(np.clip(g.real, 0.0, None)), tower.weights
    else:
        vals, weights = _root_spectrum(tower, (g + g.conj().T) / 2, g)
    return _root_power_sum(vals, weights, p, p)


def hardy_mixed_upper(m: MartingaleSequence, p, refine=True):
    """Certified upper bound on the mixed Hardy norm for ``0 < p < 2``.

    Minimizes ``||y||_{H^c_p} + ||z||_{H^r_p}`` over a finite family of
    decompositions ``dx_k = a_k + b_k`` (column/row, triangular and
    polar-support splits, each projected back onto ``D_k``), optionally
    refined by coordinate-wise interpolation.  Returns the bound and the
    achieving decomposition.

    The Grams ``a_k^* a_k`` and ``b_k b_k^*`` of every candidate are formed
    once per call (only the interpolation step forms its own).  An
    evaluation sums the chosen Grams level by level and takes each side's
    norm as a weighted power sum of the eigenvalues of one eigendecomposition
    of the sum, without building a singular value function, so it agrees
    with ``hardy_column_norm(y, p) + hardy_row_norm(z, p)`` up to rounding.
    """
    if not 0 < p < 2:
        raise ValueError("hardy_mixed_upper requires 0 < p < 2")
    tower = m.tower
    per_k = [_split_candidates(tower, k + 1, dx) for k, dx in enumerate(m.differences)]
    grams = [[_gram_pair(a, b) for a, b in cands] for cands in per_k]

    def objective(pairs):
        col, row = pairs[0]
        for c, r in pairs[1:]:
            col, row = col + c, row + r
        return _gram_lp_norm(tower, col, p) + _gram_lp_norm(tower, row, p)

    def chosen(choice):
        return [grams[k][i] for k, i in enumerate(choice)]

    n = len(m)
    best_choice = [0] * n
    best = objective(chosen(best_choice))
    for i in range(1, len(per_k[0])):
        uniform = [i] * n
        val = objective(chosen(uniform))
        if val < best:
            best, best_choice = val, uniform
    if refine and n > 1:
        for _ in range(2):
            improved = False
            for k in range(n):
                for i in range(len(per_k[k])):
                    if i == best_choice[k]:
                        continue
                    trial = list(best_choice)
                    trial[k] = i
                    val = objective(chosen(trial))
                    if val < best - 1e-15:
                        best, best_choice, improved = val, trial, True
            if not improved:
                break
    decomposition = [per_k[k][i] for k, i in enumerate(best_choice)]
    if refine:
        # convex interpolation between the chosen split and the pure splits
        current = chosen(best_choice)
        for k in range(n):
            a0, b0 = decomposition[k]
            for alt in (per_k[k][0], per_k[k][1]):
                for t in (0.25, 0.5, 0.75):
                    a = (1 - t) * a0 + t * alt[0]
                    b = (1 - t) * b0 + t * alt[1]
                    trial = list(current)
                    trial[k] = _gram_pair(a, b)
                    val = objective(trial)
                    if val < best - 1e-15:
                        best, current = val, trial
                        decomposition[k] = (a, b)
    return best, decomposition


def hd_norm(m: MartingaleSequence, p) -> float:
    """Diagonal Hardy norm ``(sum_k ||dx_k||_p^p)^{1/p}``."""
    p = float(p)
    if p <= 0:
        raise ValueError("p must be positive")
    total = 0.0
    for dx in m.differences:
        total += lp_norm(singular_value_function(m.tower, dx), p) ** p
    return total ** (1.0 / p)


def bmo_column_norm(m: MartingaleSequence) -> float:
    """``sup_n || E_n |a - a_{n-1}|^2 ||_inf ^ {1/2}`` with ``a_0 = 0``."""
    tower = m.tower
    a = m.final
    best = 0.0
    for n in range(1, len(m) + 1):
        y = a - tower.conditional_expectation(n - 1, a)
        best = max(best, operator_norm(tower.conditional_expectation(n, _abs_squared(y))))
    return math.sqrt(best)


def bmo_norm(m: MartingaleSequence) -> float:
    return max(bmo_column_norm(m), bmo_column_norm(m.adjoint()))


# ---------------------------------------------------------------------------
# Lipschitz lower bounds


def _cluster_prefix_projections(h, tol=1e-10):
    """Prefix unions of the spectral subspaces of a Hermitian ``h``.

    Eigenvalue clusters are kept whole so each projection stays inside any
    *-subalgebra containing ``h``.
    """
    vals, vecs = _eigh(h, h)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    cuts = [0]
    for i in range(1, vals.size):
        if vals[i - 1] - vals[i] > tol * max(1.0, abs(vals[0])):
            cuts.append(i)
    cuts.append(vals.size)
    out = []
    for stop in cuts[1:]:
        v = vecs[:, :stop]
        out.append(v @ v.conj().T)
    return out


def _random_level_projections(tower, n, rng, count):
    out = []
    for _ in range(count):
        g = tower.random_element(rng)
        h = tower.conditional_expectation(n, g)
        h = tower._dense(h)
        h = (h + h.conj().T) / 2
        projs = _cluster_prefix_projections(h)
        if projs:
            out.append(projs[rng.integers(0, len(projs))])
    return out


def _abelian_subset_projections(tower, n, y):
    """Candidate diagonal projections: atoms sorted by column mass."""
    block = tower._block_size(n)
    yd = np.abs(tower._dense(y)) ** 2 if y.ndim == 2 else None
    if yd is not None:
        col_mass = yd.sum(axis=0)
    else:
        col_mass = np.abs(y) ** 2
    atom_mass = col_mass.reshape(-1, block).sum(axis=1)
    order = np.argsort(atom_mass)[::-1]
    out = []
    sel = np.zeros(tower.dim)
    for idx in order:
        sel[idx * block : (idx + 1) * block] = 1.0
        out.append(np.diag(sel.astype(complex)))
    return out


def lipschitz_column_lower(m: MartingaleSequence, beta, strategy="auto", n_random=16, seed=0):
    """Certified lower bound on the column Lipschitz norm of order ``beta``.

    Takes the max of ``||E_1(x)||_inf`` and ``||(x - E_n x) e||_2 /
    tau(e)^(beta + 1/2)`` over a candidate family of projections ``e`` in
    each level: spectral prefixes of ``E_n((x - E_n x)^*(x - E_n x))``,
    atom unions on abelian towers, and random level projections.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    tower = m.tower
    x = m.final
    best = operator_norm(tower.conditional_expectation(1, x))
    rng = np.random.default_rng(seed)
    for n in range(1, tower.n_levels + 1):
        y = x - tower.conditional_expectation(n, x)
        if tower.norm2(y) < 1e-14:
            continue
        cands = []
        if strategy in ("auto", "spectral"):
            h = tower._dense(tower.conditional_expectation(n, _abs_squared(y)))
            cands += _cluster_prefix_projections((h + h.conj().T) / 2)
        if strategy in ("auto", "exhaustive") and tower.spec.kind in ("abelian_dyadic", "tensor"):
            cands += _abelian_subset_projections(tower, n, y)
        if strategy in ("auto", "random"):
            cands += _random_level_projections(tower, n, rng, n_random)
        yd = tower._dense(y)
        for e in cands:
            te = tower.trace(e).real
            if te < 1e-14:
                continue
            val = tower.norm2(yd @ e) / te ** (beta + 0.5)
            best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# atoms


@dataclass(frozen=True)
class AtomCertificate:
    """Residuals of the three column-atom conditions at a given level."""

    level: int
    projection: np.ndarray = field(repr=False)
    p: float
    side: str
    mean_zero_residual: float
    support_residual: float
    l2_slack: float
    degenerate: bool = False

    @property
    def valid(self) -> bool:
        return (
            self.mean_zero_residual <= 1e-8
            and self.support_residual <= 1e-8
            and self.l2_slack >= -1e-8
        )

    def to_json(self):
        return {
            "level": self.level,
            "p": self.p,
            "side": self.side,
            "mean_zero_residual": self.mean_zero_residual,
            "support_residual": self.support_residual,
            "l2_slack": self.l2_slack,
            "degenerate": self.degenerate,
            "valid": self.valid,
        }


def _check_projection_in_level(tower, n, e):
    e = tower._dense(tower._check(e))
    herm = np.linalg.norm(e - e.conj().T)
    idem = np.linalg.norm(e @ e - e)
    if herm > PROJECTION_TOL or idem > PROJECTION_TOL:
        raise TowerError("support operator is not a projection")
    if tower.norm2(e - tower.conditional_expectation(n, e)) > PROJECTION_TOL:
        raise TowerError(f"projection does not belong to level {n}")
    return e


def validate_atom(tower: Tower, a, n, e, p, side="column") -> AtomCertificate:
    """Certificate for the three ``(p,2)``-atom conditions of ``a``."""
    if not 0 < p < 2:
        raise ValueError("atom exponent must satisfy 0 < p < 2")
    if side not in ("column", "row"):
        raise ValueError("side must be 'column' or 'row'")
    e = _check_projection_in_level(tower, n, e)
    a = tower._dense(tower._check(a))
    mean_zero = tower.norm2(tower.conditional_expectation(n, a))
    supported = a @ e if side == "column" else e @ a
    support = tower.norm2(supported - a)
    l2 = tower.norm2(a)
    slack = tower.trace(e).real ** (0.5 - 1.0 / p) - l2
    return AtomCertificate(
        level=n,
        projection=e,
        p=float(p),
        side=side,
        mean_zero_residual=mean_zero,
        support_residual=support,
        l2_slack=slack,
        degenerate=l2 <= 1e-14,
    )


def make_atom(tower: Tower, rng, n, e, deep_level, p, side="column"):
    """Construct an exact ``(p,2)`` atom: a deep difference cut by ``e``.

    Draws ``v`` in ``D_m`` for ``m = deep_level > n``, supports it on ``e``
    and normalizes to equality in the L2 size condition.
    """
    if deep_level <= n:
        raise TowerError("atom generator needs deep_level > n")
    e = _check_projection_in_level(tower, n, e)
    for _ in range(8):
        v = tower._dense(tower.random_element(rng, difference=deep_level))
        a = v @ e if side == "column" else e @ v
        nrm = tower.norm2(a)
        if nrm > 1e-12:
            break
    else:
        raise TowerError("could not draw a nondegenerate atom")
    target = tower.trace(e).real ** (0.5 - 1.0 / p)
    return a * (target / nrm)


def atom_constant(tower: Tower, a, n, e, p, q, coeffs, side="column") -> float:
    """Minimal ``C`` making ``C^{-1} (transformed a)`` a ``(q,2)`` atom.

    Applies the coefficient transform of order ``1/p - 1/q`` and rescales
    against the same support projection; the mean-zero and support
    conditions are re-verified (they are preserved exactly).
    """
    gamma = 1.0 / p - 1.0 / q
    if gamma <= 0:
        raise ValueError("atom mapping requires p < q")
    cert = validate_atom(tower, a, n, e, p, side)
    if not cert.valid:
        raise TowerError("input is not a valid atom")
    if cert.degenerate:
        return 0.0
    from .fractional import iterated_transform

    out = iterated_transform(adapt(tower, a), gamma, coeffs)
    y = out.final
    post = validate_atom(tower, y / max(tower.norm2(y), 1e-300), n, e, min(q, 1.999), side)
    if post.mean_zero_residual > DIFFERENCE_TOL or post.support_residual > DIFFERENCE_TOL:
        raise ArithmeticError("transform did not preserve atom structure")
    return tower.norm2(y) / tower.trace(e).real ** (0.5 - 1.0 / q)
