"""Tail bounds for sparse quadratic forms, with Monte Carlo verification.

The random model throughout: xi_i = delta_i * zeta_i where delta_i is
Bernoulli(p_i) and zeta_i is a centered base variable whose alpha-th
absolute power has exponential tails (0 < alpha <= 2).  The library
evaluates several tail bounds for xi' A xi and its relatives, simulates
the corresponding empirical tails, and applies the machinery to inverse
probability weighted covariance estimation and sparsified sketching.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundConstants,
    BoundEval,
    DEFAULT_CONSTANTS,
    TailBound,
    bernstein_regimes,
    bound_report,
    comparison_bounds,
    f1_regimes,
    f2_regimes,
    f_sparse_regimes,
    functionals,
    hw_sparse_regimes,
    symmetrize,
)
from .covest import (
    MultivariateModel,
    RipBound,
    a_theta_p,
    expected_frob_sq_exact,
    expected_frob_sq_mc,
    generate_samples,
    ipw_estimator,
    ipw_replicate_stats,
    k1_k2_terms,
    rip_bound_rhs,
    rip_k,
    rip_k_lower_random,
    save_samples,
)
from .errors import BudgetExceededError, ConfigError
from .matrix_norms import (
    Functionals,
    OpnormResult,
    frobenius,
    gamma1,
    gamma2,
    load_matrix_bin,
    load_matrix_csv,
    max_abs,
    mixed_norm,
    opnorm,
    opnorm_detail,
    row_weighted_max,
    save_matrix_bin,
    save_matrix_csv,
    weighted_spectral,
)
from .quadform_mc import (
    EmpiricalTail,
    QuadFormInstance,
    decoupling_check_exhaustive,
    dominance_check,
    lower_bound_check,
    simulate_linear_tail,
    simulate_norm_tail,
    simulate_tail,
    tail_slope_fit,
    usable_window,
    wilson_interval,
)
from .rv_models import (
    AlphaParam,
    DistributionSpec,
    SparseModel,
    model_psi_alpha,
    psi_alpha_exact,
    psi_alpha_norm,
    sample_base,
    sample_sparse_matrix,
    sample_weibull,
)
from .sketchlr import (
    FactoredMatrix,
    SketchResult,
    SketchSpec,
    coherence,
    low_rank_approx,
    smallest_admissible_eps,
    sketch_admissible,
    sparsified_sketch,
    theorem_bound_22,
    thin_svd,
)
from .streams import stream

__all__ = [name for name in dir() if not name.startswith("_")]
