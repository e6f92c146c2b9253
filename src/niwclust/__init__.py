"""High-dimensional Bayesian Gaussian mixture clustering under NIW priors.

Exact cluster marginal likelihoods in primal (p x p) and dual (n x n)
forms, the merge/split posterior ratio split into interpretable terms,
its analytic large-p limits under the scaled robust prior, a collapsed
Gibbs sampler for the Dirichlet-process mixture, and small utilities
for data generation, CSV I/O, and SVG plotting.

The package namespace holds what the README quick start uses; every
other name is imported from its submodule.
"""

__version__ = "0.1.0"

from .datagen import GenSpec, generate
from .niw import ClusterView, RobustPriorSpec, cluster_log_marginal, robust_prior
from .partition import CrpPrior, Partition
from .ratio import merge_log_ratio
from .sampler import run_chain

__all__ = [
    "__version__",
    "ClusterView",
    "CrpPrior",
    "GenSpec",
    "Partition",
    "RobustPriorSpec",
    "cluster_log_marginal",
    "generate",
    "merge_log_ratio",
    "robust_prior",
    "run_chain",
]
