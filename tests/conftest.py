import numpy as np
import pytest

from ncmart.algebra import FiltrationSpec, build_tower


@pytest.fixture(scope="session")
def tensor22():
    return build_tower(FiltrationSpec.tensor([2, 2]))


@pytest.fixture(scope="session")
def tensor222():
    return build_tower(FiltrationSpec.tensor([2, 2, 2]))


@pytest.fixture(scope="session")
def tensor23():
    return build_tower(FiltrationSpec.tensor([2, 3]))


@pytest.fixture(scope="session")
def abelian3():
    return build_tower(FiltrationSpec.abelian_dyadic(3))


@pytest.fixture(scope="session")
def abelian4():
    return build_tower(FiltrationSpec.abelian_dyadic(4))


@pytest.fixture(scope="session")
def custom4():
    """Block-diagonal chain inside M_4: C + C, then diagonal, then all of M_4."""
    e = np.eye(4, dtype=complex)
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    level1 = [p, e - p]
    level2 = [np.diag(e[i]) for i in range(4)]
    units = [np.zeros((4, 4), dtype=complex) for _ in range(16)]
    for k, (i, j) in enumerate([(i, j) for i in range(4) for j in range(4)]):
        units[k][i, j] = 1.0
    return build_tower(FiltrationSpec.custom([level1, level2, units]))


@pytest.fixture(scope="session")
def weighted2():
    """One-level custom tower on C^2 with the non-uniform trace (1/4, 3/4)."""
    e = np.eye(2, dtype=complex)
    p = np.diag([1.0, 0.0]).astype(complex)
    return build_tower(FiltrationSpec.custom([[p, e - p]], weights=[0.25, 0.75]))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
