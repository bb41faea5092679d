"""Second formulas for norms of the package, which the tests compare against."""

import numpy as np

from ncmart.spectral import SingularValueFunction, distribution


def weak_norm_distribution(s: SingularValueFunction, p) -> float:
    """Weak norm via ``sup_l l * d(l)^{1/p}`` over the levels just below each
    breakpoint value, where the supremum of the distribution form is
    attained for a step function."""
    p = float(p)
    if p < 1:
        raise ValueError("weak norm requires p >= 1")
    lambdas = s.values[s.values > 0] * (1.0 - 1e-12)
    if lambdas.size == 0:
        return 0.0
    return float(np.max(lambdas * distribution(s, lambdas) ** (1.0 / p)))
