"""Max-load experiments for the hash family ((a*x + b) mod p) mod m."""

# Set before the submodules load: experiments writes it into every CSV
# preamble, and pyproject.toml reads the package version from here.
__version__ = "0.1.0"

from .estimators import (
    GENERATOR_NAME,
    McConfig,
    McEstimate,
    ScalingRow,
    fully_random_exact_mean,
    max_load_distribution,
    mc_fully_random_maxload,
    mc_linear_maxload,
    scaling_study,
    tail_log_slope,
)
from .experiments import (
    AcceptanceReport,
    CheckRow,
    default_figure1_sweep,
    format_report,
    run_figure1,
    run_lemma_checks,
    run_scaling,
    run_transform_demo,
)
from .field import (
    MAX_MODULUS,
    Modulus,
    is_prime,
    mod_inverse,
    next_prime_at_least,
)
from .loads import (
    AffineImage,
    Explicit,
    Interval,
    KeySet,
    load_profile,
    materialize,
)
from .oracles import (
    DEFAULT_WORK_BUDGET,
    WorkBudgetError,
    canonicalize_triple,
    count_interval_collision,
    count_prescribed_triple,
    count_triple_collisions,
    exact_maxload_histogram,
    interval_lower_bound,
    maxloads_b_zero,
    maxloads_for_a,
    triple_bound_formula,
)

__all__ = [
    "AcceptanceReport",
    "AffineImage",
    "CheckRow",
    "DEFAULT_WORK_BUDGET",
    "Explicit",
    "GENERATOR_NAME",
    "Interval",
    "KeySet",
    "MAX_MODULUS",
    "McConfig",
    "McEstimate",
    "Modulus",
    "ScalingRow",
    "WorkBudgetError",
    "canonicalize_triple",
    "count_interval_collision",
    "count_prescribed_triple",
    "count_triple_collisions",
    "default_figure1_sweep",
    "exact_maxload_histogram",
    "format_report",
    "fully_random_exact_mean",
    "interval_lower_bound",
    "is_prime",
    "load_profile",
    "materialize",
    "max_load_distribution",
    "maxloads_b_zero",
    "maxloads_for_a",
    "mc_fully_random_maxload",
    "mc_linear_maxload",
    "mod_inverse",
    "next_prime_at_least",
    "run_figure1",
    "run_lemma_checks",
    "run_scaling",
    "run_transform_demo",
    "scaling_study",
    "tail_log_slope",
]
