"""Exact chaos algebra with convergence diagnostics for chi-squared targets."""

from .chaos import (
    ChaosExpansion,
    apply_L,
    apply_L_inverse,
    evaluate,
    exact_cumulants,
    gamma_explicit,
    gamma_sequence,
    gamma_step,
    hermite,
    moments_from_cumulants,
    multiply,
)
from .criteria import (
    CriterionPolynomials,
    CriterionReport,
    build_polynomials,
    criterion_statistic,
    gamma_combination,
    power_sum_match,
    psi_functional,
    q_chaos_conditions,
    weighted_cumulant_sum,
)
from .errors import ConfigError, ConsistencyError, NumericalError, ResourceGuardError
from .montecarlo import (
    SampleBatch,
    TargetLaw,
    k_statistics,
    kolmogorov_distance,
    sample_chaos,
    sample_target,
    target_cf,
)
from .spectral2 import (
    SpectralForm,
    TargetSpec,
    cumulant_spectral,
    gamma_identity_defect,
    iterated_contraction,
    spectral,
    target_kernel,
)
from .sym_tensor import SymmetricKernel, contract, inner, sym_contract, symmetrize

__version__ = "0.1.0"
