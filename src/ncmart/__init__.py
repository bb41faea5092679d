"""Noncommutative martingale fractional integrals on finite traced filtrations."""

from .algebra import (
    FiltrationSpec,
    Tower,
    TowerError,
    build_tower,
    gram_schmidt,
    operator_from_json,
    operator_to_json,
)
from .fractional import (
    CoefficientSequence,
    fractional_integral,
    iterated_transform,
    zeta_optimize,
    zeta_sequence,
)
from .harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    Report,
    centered_martingale,
    emit_report,
    extremal_example,
    random_martingale,
    run_ratio_experiment,
)
from .martingale import (
    AtomCertificate,
    MartingaleSequence,
    adapt,
    atom_constant,
    bmo_column_norm,
    bmo_norm,
    column_square_function,
    hardy_column_norm,
    hardy_mixed_max,
    hardy_mixed_upper,
    hardy_row_norm,
    level_differences,
    lipschitz_column_lower,
    make_atom,
    validate_atom,
)
from .spectral import (
    SingularValueFunction,
    distribution,
    lorentz_norm,
    lp_norm,
    operator_norm,
    singular_value_function,
    weak_norm,
)

__version__ = "0.1.0"

__all__ = [
    "FiltrationSpec", "Tower", "TowerError", "build_tower", "gram_schmidt",
    "operator_from_json", "operator_to_json",
    "SingularValueFunction", "singular_value_function", "lp_norm",
    "lorentz_norm", "weak_norm", "distribution",
    "operator_norm",
    "MartingaleSequence", "adapt", "level_differences", "column_square_function",
    "hardy_column_norm", "hardy_row_norm",
    "hardy_mixed_max", "hardy_mixed_upper", "bmo_column_norm",
    "bmo_norm", "lipschitz_column_lower", "AtomCertificate", "validate_atom",
    "make_atom", "atom_constant",
    "CoefficientSequence", "zeta_optimize", "zeta_sequence",
    "fractional_integral", "iterated_transform",
    "ExperimentConfig", "Report", "ConfigError", "random_martingale",
    "centered_martingale", "extremal_example", "run_ratio_experiment",
    "emit_report", "EXPERIMENTS",
    "__version__",
]
