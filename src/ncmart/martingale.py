"""Adapted martingale sequences, square functions and Hardy-type norms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Tower, TowerError
from .spectral import (
    _adjoint,
    _eigh,
    _eigvalsh,
    _root_power_sum,
    _root_spectrum,
    lp_norm,
    operator_norm,
    singular_value_function,
)

__all__ = [
    "MartingaleSequence",
    "adapt",
    "level_differences",
    "column_square_function",
    "hardy_column_norm",
    "hardy_row_norm",
    "hardy_mixed_max",
    "hardy_mixed_upper",
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
# Weights t of the mixed-Hardy refinement's splits (1 - t) * best + t * pure.
INTERPOLATION_STEPS = (0.25, 0.5, 0.75)
# Relative eigenvalue gap above which two spectral clusters are kept apart.
CLUSTER_GAP = 1e-10
# Random level projections drawn per level by lipschitz_column_lower.
RANDOM_PROJECTIONS = 16


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


def adapt(tower: Tower, x) -> MartingaleSequence:
    """Canonical martingale of ``x``: differences ``E_k(x) - E_{k-1}(x)``, ``k = 1..n_levels``."""
    x = tower._check(x)
    out = np.empty((1, tower.n_levels) + x.shape, dtype=complex)
    return MartingaleSequence(tower, level_differences(tower, x[None, None], out)[0])


def level_differences(tower: Tower, sources, out):
    """The differences ``E_k s_k - E_{k-1} s_k``, ``k = 1..n_levels``, of each
    row of a (b, c, ...) stack of operators, written into the (b, n_levels,
    ...) array ``out`` and returned.

    ``s_k`` is ``sources[:, k-1]`` when ``c`` is ``n_levels``, and
    ``sources[:, 0]`` at every level when ``c`` is 1, which makes the row the
    differences of ``adapt``.  Level ``k`` takes ``E_k`` of ``s_k`` and
    ``s_{k+1}`` of every row before it writes ``out[:, k-1]``, so ``out``
    may be ``sources`` itself, and only one level's expectations are held.
    Dense operators go through one ``conditional_expectation`` call per
    level.  Diagonal operators (a (b, c, d) stack, on a tensor or abelian
    tower) take their block means all at once.
    """
    per_level = sources.shape[1] > 1
    below = 0.0  # E_{k-1} s_k
    for k in range(1, tower.n_levels + 1):
        s = sources[:, k - 1 : k + 1] if per_level else sources[:, :1]
        if s.ndim == 3:
            e = tower._diag_expectation(k, s)
        else:
            e = tower.conditional_expectation(k, s.reshape(-1, *s.shape[2:])).reshape(s.shape)
        np.subtract(e[:, 0], below, out=out[:, k - 1])
        below = e[:, -1]
    return out


# ---------------------------------------------------------------------------
# square functions and Hardy norms


def column_square_function(m: MartingaleSequence):
    """``S_c = (sum_k dx_k^* dx_k)^{1/2}`` over all differences of ``m``.

    ``S_{c,n}`` is the square function of the first ``n`` differences:
    ``column_square_function(MartingaleSequence(m.tower, m.differences[:n]))``.
    """
    d = m.differences
    grams = np.abs(d) ** 2 if d.ndim == 2 else d.conj().swapaxes(1, 2) @ d
    return _sqrt_psd(grams.sum(axis=0))


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


def _interpolate(split, alt, t):
    """The split ``(1 - t) * split + t * alt`` of the same difference."""
    (a0, b0), (a1, b1) = split, alt
    return (1 - t) * a0 + t * a1, (1 - t) * b0 + t * b1


def _gram_lp_norms(tower, grams, p):
    """``||g^{1/2}||_p`` of each positive Gram sum ``g`` in a stack.

    ``grams`` is ``(b, d)`` for diagonal sums or ``(b, d, d)`` for the
    Hermitian parts of dense ones.  ``g^{1/2}`` and ``g`` share eigenvectors,
    so each norm is the weighted power sum ``(sum w * v^p)^(1/p)`` over the
    square roots ``v`` of the eigenvalues of ``g`` and their trace weights
    ``w``; no step function is built, since merging near-tied samples changes
    the sum only by rounding.  On a uniform trace every unit vector has
    weight ``weights[0]``, so one ``eigvalsh`` call serves the whole stack;
    otherwise each sum's weights come from the eigenvectors of its ``eigh``.
    A failed solver names the Hermitian part of the sum it failed on.
    """
    if grams.ndim == 3 and not tower.uniform_trace:
        spectra = [_root_spectrum(tower, g, g) for g in grams]
    else:
        eigvals = grams.real if grams.ndim == 2 else _eigvalsh(grams, grams)
        spectra = [(np.sqrt(np.clip(v, 0.0, None)), tower.weights) for v in eigvals]
    return np.array([_root_power_sum(v, w, p) for v, w in spectra])


def hardy_mixed_upper(m: MartingaleSequence, p, refine=True):
    """Certified upper bound on the mixed Hardy norm for ``1 <= p < 2``.

    Minimizes ``||y||_{H^c_p} + ||z||_{H^r_p}`` over a finite family of
    decompositions ``dx_k = a_k + b_k`` (column/row, triangular and
    polar-support splits, each projected back onto ``D_k``), optionally
    refined by coordinate-wise interpolation.  Returns the bound and the
    achieving decomposition.

    The Grams ``a_k^* a_k`` and ``b_k b_k^*`` of every candidate are formed
    once per call (only the interpolation step forms its own).  The search
    runs in phases: the uniform candidates, one coordinate step, or the
    interpolations at one level.  The trials of a phase differ from the
    current choice at one level only, so their values do not depend on which
    of them the phase accepts: they are evaluated together and then accepted
    in order under the sequential rules.  Values are memoized per choice,
    since the second coordinate round revisits choices.  An evaluation sums
    the chosen Grams level by level; the Hermitian parts of a phase's dense
    sums share one stack, and one ``eigvalsh`` call gives the eigenvalues
    whose power sums are the norms (``_gram_lp_norms``; on a non-uniform
    trace, an ``eigh`` of each sum gives the trace weights).  No singular
    value function is built, and the bound agrees with
    ``hardy_column_norm(y, p) + hardy_row_norm(z, p)`` up to rounding.
    Stacked calls also let worker threads overlap where single-matrix calls
    do not.
    """
    if not 1 <= p < 2:
        raise ValueError("hardy_mixed_upper requires 1 <= p < 2")
    tower = m.tower
    # Of each candidate split only the column part is kept; the row part is
    # ``dx - a`` again when the split is needed.
    grams, columns = [], []
    for k, dx in enumerate(m.differences):
        cands = _split_candidates(tower, k + 1, dx)
        grams.append([_gram_pair(a, b) for a, b in cands])
        columns.append([a for a, _ in cands])

    def split(k, i):
        a = columns[k][i]
        return a, m.differences[k] - a

    # One stack, made at the first dense sum, serves every phase of the call:
    # a fresh stack per phase kept about 1 MB more resident on the mixed-hardy
    # benchmark (two threads).
    stack = None

    def evaluate(count, trials):
        """Objectives of ``count`` trials, each a list of per-level Gram pairs."""
        nonlocal stack
        norms = np.empty(2 * count)
        dense, diagonal = [], []
        for j, pairs in enumerate(trials):
            for side in (0, 1):
                g = pairs[0][side]
                for pair in pairs[1:]:
                    g = g + pair[side]
                if g.ndim == 1:
                    diagonal.append((2 * j + side, g))
                    continue
                if stack is None:
                    phase_max = max(len(grams[0]), 2 * len(INTERPOLATION_STEPS))
                    stack = np.empty((2 * phase_max, tower.dim, tower.dim), dtype=complex)
                h = stack[len(dense)]
                np.add(g, g.conj().T, out=h)
                h *= 0.5
                dense.append(2 * j + side)
        if dense:
            norms[dense] = _gram_lp_norms(tower, stack[: len(dense)], p)
        if diagonal:
            slots, sums = zip(*diagonal)
            norms[list(slots)] = _gram_lp_norms(tower, np.stack(sums), p)
        return norms[0::2] + norms[1::2]

    memo = {}

    def values(choices):
        new = [c for c in choices if c not in memo]
        if new:
            trials = ([grams[k][i] for k, i in enumerate(c)] for c in new)
            memo.update(zip(new, evaluate(len(new), trials).tolist()))
        return [memo[c] for c in choices]

    n = len(m)
    uniform = [(i,) * n for i in range(len(grams[0]))]
    vals = values(uniform)
    best_choice, best = uniform[0], vals[0]
    for choice, val in zip(uniform[1:], vals[1:]):
        if val < best:
            best, best_choice = val, choice
    if refine and n > 1:
        for _ in range(2):
            improved = False
            for k in range(n):
                # an accepted index lies behind the loop, so only the
                # phase's starting index is ever skipped as current
                others = [i for i in range(len(grams[k])) if i != best_choice[k]]
                trials = [best_choice[:k] + (i,) + best_choice[k + 1 :] for i in others]
                for trial, val in zip(trials, values(trials)):
                    if val < best - 1e-15:
                        best, best_choice, improved = val, trial, True
            if not improved:
                break
    decomposition = [split(k, i) for k, i in enumerate(best_choice)]
    if refine:
        # convex interpolation between the chosen split and the pure splits
        current = [grams[k][i] for k, i in enumerate(best_choice)]
        for k in range(n):
            base = decomposition[k]
            moves = [(alt, t) for alt in (split(k, 0), split(k, 1)) for t in INTERPOLATION_STEPS]
            trials = (current[:k] + [_gram_pair(*_interpolate(base, *mv))] + current[k + 1 :]
                      for mv in moves)
            accepted = None
            for mv, val in zip(moves, evaluate(len(moves), trials).tolist()):
                if val < best - 1e-15:
                    best, accepted = val, mv
            if accepted is not None:
                decomposition[k] = _interpolate(base, *accepted)
                current[k] = _gram_pair(*decomposition[k])
    return best, decomposition


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


def _cluster_prefix_projections(h):
    """Prefix unions of the spectral subspaces of a Hermitian ``h``.

    Eigenvalues closer than ``CLUSTER_GAP`` (relative) form one cluster, and
    clusters are kept whole so each projection stays inside any
    *-subalgebra containing ``h``.
    """
    vals, vecs = _eigh(h, h)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    cuts = [0]
    for i in range(1, vals.size):
        if vals[i - 1] - vals[i] > CLUSTER_GAP * max(1.0, abs(vals[0])):
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


def lipschitz_column_lower(m: MartingaleSequence, beta):
    """Certified lower bound on the column Lipschitz norm of order ``beta``.

    Takes the max of ``||E_1(x)||_inf`` and ``||(x - E_n x) e||_2 /
    tau(e)^(beta + 1/2)`` over a fixed candidate family of projections ``e``
    in each level: spectral prefixes of ``E_n((x - E_n x)^*(x - E_n x))``,
    unions of diagonal level atoms on tensor and abelian towers, and
    ``RANDOM_PROJECTIONS`` random level projections drawn from one generator
    seeded 0.  Every candidate gives a lower bound, so a smaller family only
    gives a weaker one.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    tower = m.tower
    x = m.final
    best = operator_norm(tower.conditional_expectation(1, x))
    rng = np.random.default_rng(0)
    for n in range(1, tower.n_levels + 1):
        y = x - tower.conditional_expectation(n, x)
        if tower.norm2(y) < 1e-14:
            continue
        h = tower._dense(tower.conditional_expectation(n, _abs_squared(y)))
        cands = _cluster_prefix_projections((h + h.conj().T) / 2)
        if tower.spec.kind in ("abelian_dyadic", "tensor"):
            cands += _abelian_subset_projections(tower, n, y)
        cands += _random_level_projections(tower, n, rng, RANDOM_PROJECTIONS)
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


def _check_projection_in_level(tower, n, e):
    e = tower._dense(tower._check(e))
    herm = np.linalg.norm(e - e.conj().T)
    idem = np.linalg.norm(e @ e - e)
    if herm > PROJECTION_TOL or idem > PROJECTION_TOL:
        raise TowerError("support operator is not a projection")
    if tower.norm2(e - tower.conditional_expectation(n, e)) > PROJECTION_TOL:
        raise TowerError(f"projection does not belong to level {n}")
    return e


def validate_atom(tower: Tower, a, n, e, p) -> AtomCertificate:
    """Certificate for the column ``(p,2)``-atom conditions of ``a``: ``E_n a = 0``,
    ``a e = a`` and ``||a||_2 <= tau(e)^(1/2 - 1/p)``.  A row atom ``b``
    (``e b = b``) is checked as the column atom ``b^*``, exactly."""
    if not 0 < p < 2:
        raise ValueError("atom exponent must satisfy 0 < p < 2")
    e = _check_projection_in_level(tower, n, e)
    a = tower._dense(tower._check(a))
    mean_zero = tower.norm2(tower.conditional_expectation(n, a))
    support = tower.norm2(a @ e - a)
    l2 = tower.norm2(a)
    slack = tower.trace(e).real ** (0.5 - 1.0 / p) - l2
    return AtomCertificate(
        mean_zero_residual=mean_zero,
        support_residual=support,
        l2_slack=slack,
        degenerate=l2 <= 1e-14,
    )


def make_atom(tower: Tower, rng, n, e, deep_level, p):
    """Construct an exact column ``(p,2)`` atom: a deep difference cut by ``e``.

    Draws ``v`` in ``D_m`` for ``m = deep_level > n``, supports it on ``e``
    and normalizes to equality in the L2 size condition.  The adjoint of the
    result is a row atom on the same ``e``.
    """
    if deep_level <= n:
        raise TowerError("atom generator needs deep_level > n")
    e = _check_projection_in_level(tower, n, e)
    for _ in range(8):
        v = tower._dense(tower.random_element(rng, difference=deep_level))
        a = v @ e
        nrm = tower.norm2(a)
        if nrm > 1e-12:
            break
    else:
        raise TowerError("could not draw a nondegenerate atom")
    target = tower.trace(e).real ** (0.5 - 1.0 / p)
    return a * (target / nrm)


def atom_constant(tower: Tower, a, n, e, p, q, coeffs) -> float:
    """Minimal ``C`` making ``C^{-1} (transformed a)`` a column ``(q,2)`` atom.

    Applies the coefficient transform of order ``1/p - 1/q`` and rescales
    against the same support projection; the mean-zero and support
    conditions are re-verified (they are preserved exactly).  The transform
    commutes with the adjoint, so a row atom ``b`` has the constant of the
    column atom ``b^*``.
    """
    gamma = 1.0 / p - 1.0 / q
    if gamma <= 0:
        raise ValueError("atom mapping requires p < q")
    cert = validate_atom(tower, a, n, e, p)
    if not cert.valid:
        raise TowerError("input is not a valid atom")
    if cert.degenerate:
        return 0.0
    from .fractional import iterated_transform

    out = iterated_transform(adapt(tower, a), gamma, coeffs)
    y = out.final
    post = validate_atom(tower, y / max(tower.norm2(y), 1e-300), n, e, min(q, 1.999))
    if post.mean_zero_residual > DIFFERENCE_TOL or post.support_residual > DIFFERENCE_TOL:
        raise ArithmeticError("transform did not preserve atom structure")
    return tower.norm2(y) / tower.trace(e).real ** (0.5 - 1.0 / q)
