"""High-dimensional Bayesian Gaussian mixture clustering under NIW priors.

Exact cluster marginal likelihoods in primal (p x p) and dual (n x n)
forms, the merge/split posterior ratio split into interpretable terms,
its analytic large-p limits under the scaled robust prior, a collapsed
Gibbs sampler for the Dirichlet-process mixture, and small utilities
for data generation, CSV I/O, and SVG plotting.
"""

__version__ = "0.1.0"

from .datagen import RNG_NAME, GenSpec, generate
from .errors import (
    ConstantRow,
    DomainError,
    InvalidConfig,
    InvalidSpec,
    NoConvergenceWarning,
    NotPositiveDefinite,
    ParseError,
    RaggedRows,
    SameLabel,
    UnknownLabel,
)
from .gammafn import (
    GammaRatioSpec,
    gamma_term_log,
    gamma_term_log_limit,
    log_gamma,
    log_multigamma,
    log_multigamma_ratio,
)
from .io import CsvTable, read_csv, write_csv
from .linalg import CholFactor, cholesky, log_det, spectral_norm
from .niw import (
    ClusterView,
    NiwPrior,
    RobustPriorSpec,
    cluster_log_marginal,
    cluster_log_marginal_dual,
    robust_prior,
    row_standardize,
    transform_data,
)
from .partition import CrpPrior, Partition, adjusted_rand_index, eppf_log_ratio
from .ratio import (
    MergeRatioBreakdown,
    TermLimits,
    analytic_limits,
    det_gram_term_log,
    det_kappa_term_log,
    kappa_term_log,
    merge_log_ratio,
    projector_residual,
    trace_approx_log,
)
from .sampler import (
    PosteriorSummary,
    SamplerState,
    gibbs_sweep,
    init_state,
    run_chain,
)
from .svg import line_plot

__all__ = [
    "__version__",
    "RNG_NAME",
    "GenSpec",
    "generate",
    "ConstantRow",
    "DomainError",
    "InvalidConfig",
    "InvalidSpec",
    "NoConvergenceWarning",
    "NotPositiveDefinite",
    "ParseError",
    "RaggedRows",
    "SameLabel",
    "UnknownLabel",
    "GammaRatioSpec",
    "gamma_term_log",
    "gamma_term_log_limit",
    "log_gamma",
    "log_multigamma",
    "log_multigamma_ratio",
    "CsvTable",
    "read_csv",
    "write_csv",
    "CholFactor",
    "cholesky",
    "log_det",
    "spectral_norm",
    "ClusterView",
    "NiwPrior",
    "RobustPriorSpec",
    "cluster_log_marginal",
    "cluster_log_marginal_dual",
    "robust_prior",
    "row_standardize",
    "transform_data",
    "CrpPrior",
    "Partition",
    "adjusted_rand_index",
    "eppf_log_ratio",
    "MergeRatioBreakdown",
    "TermLimits",
    "analytic_limits",
    "det_gram_term_log",
    "det_kappa_term_log",
    "kappa_term_log",
    "merge_log_ratio",
    "projector_residual",
    "trace_approx_log",
    "PosteriorSummary",
    "SamplerState",
    "gibbs_sweep",
    "init_state",
    "run_chain",
    "line_plot",
]
