"""Merge-ratio decomposition and its dimension limits.

For a partition psi and the partition psi' obtained by merging clusters
h1 and h2, the posterior ratio Pi(psi|Y) / Pi(psi'|Y) factors into the
EPPF ratio and a marginal-likelihood ratio.  The likelihood ratio in
turn splits into four log terms:

  term_gamma      the four-Gamma_p factor (sizes and nu0 only)
  term_kappa      the (kappa0/(kappa0+n))^{p/2} factor (sizes, kappa0, p)
  term_det_kappa  the ratio of the dual-form scalar factors
  term_det_gram   the ratio of |I_n + G| powers

The last two carry all the data dependence.  Under the robust prior
(kappa0 = c1 sqrt(p), nu0 = c2 p, Lambda0 = p^2 I) each term stays
bounded as p grows.  :func:`analytic_limits` returns one constant per
term, each for the data regime named in its docstring.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .niw import (
    NiwPrior,
    RobustPriorSpec,
    check_finite,
    check_nu0,
    factor_gram,
    gram_matrix,
    log_scalar_factor,
    transform_data,
)
from .partition import CrpPrior, Partition, eppf_log_ratio

__all__ = [
    "MergeRatioBreakdown",
    "TermLimits",
    "merge_log_ratio",
    "gamma_term_log",
    "kappa_term_log",
    "det_kappa_term_log",
    "analytic_limits",
    "projector_residual",
]


@dataclass(frozen=True)
class MergeRatioBreakdown:
    """Log-scale decomposition of one merge ratio.

    total_likelihood is the sum of the four terms and equals the direct
    difference of cluster log marginals; total_posterior adds the EPPF
    ratio.
    """

    term_gamma: float
    term_kappa: float
    term_det_kappa: float
    term_det_gram: float
    total_likelihood: float
    eppf: float
    total_posterior: float


@dataclass(frozen=True)
class TermLimits:
    """p -> infinity constants of the four terms under the robust prior.

    gamma_limit and kappa_limit hold for any data.  det_kappa_limit is
    the limit of :func:`det_kappa_term_log`, which applies when the
    whitened Gram matrix grows; on row-standardized rows the exact
    term_det_kappa instead vanishes like c2 n1 n2 / (c1^2 p).
    det_gram_limit holds on row-standardized rows.  total_limit is the
    sum of the four constants, not the limit of total_likelihood; on
    row-standardized rows that limit is gamma_limit + kappa_limit.
    """

    gamma_limit: float
    kappa_limit: float
    det_kappa_limit: float
    det_gram_limit: float
    total_limit: float


def gamma_term_log(p: int, nu0: float, n1: int, n2: int) -> float:
    """Exact log of the four-Gamma_p factor of the merge ratio.

    The factor Gamma_p((nu0+n1)/2) Gamma_p((nu0+n2)/2) /
    [Gamma_p((nu0+n1+n2)/2) Gamma_p(nu0/2)] reduces to a product over
    j = 1..n2 of two univariate gamma ratios, i.e. a sum of 2*n2
    log-gamma differences.  Like the marginals it needs nu0 >= p
    (``niw.check_nu0``).

    Either count may be 0, giving the empty product (0 in log space).
    """
    if n1 < 0 or n2 < 0:
        raise DomainError("cluster sizes must be nonnegative")
    if n1 == 0 or n2 == 0:
        return 0.0
    check_nu0(nu0, p)
    j = np.arange(1, n2 + 1, dtype=float)
    up = gammaln((nu0 + j) / 2.0) - gammaln((nu0 + j - p) / 2.0)
    down = gammaln((nu0 + j + n1 - p) / 2.0) - gammaln((nu0 + j + n1) / 2.0)
    return float((up + down).sum())


def kappa_term_log(p: int, kappa0: float, n1: int, n2: int) -> float:
    """-(p/2) * log(1 + n1 n2 / (kappa0^2 + (n1+n2) kappa0)).

    This is the log of the precision-scale factor of the merge ratio.
    With kappa0 = c1 sqrt(p) it tends to -n1 n2 / (2 c1^2).
    """
    if not kappa0 > 0:
        raise DomainError(f"kappa0 must be positive, got {kappa0}")
    if n1 < 0 or n2 < 0:
        raise DomainError("cluster sizes must be nonnegative")
    if n1 == 0 or n2 == 0:
        return 0.0
    return float(-p / 2.0 * np.log1p(n1 * n2 / (kappa0**2 + (n1 + n2) * kappa0)))


def det_kappa_term_log(p: int, kappa0: float, nu0: float, n1: int, n2: int) -> float:
    """Closed asymptotic form of the scalar-factor ratio across a merge.

    Exact log of

        { (1 + n2/(kappa0+n1))^{-n1} (1 + n1/(kappa0+n2))^{-n2}
          (1 + n1 n2/(kappa0^2 + kappa0 (n1+n2)))^{nu0} }^{1/2}

    which is the limit of the data-dependent scalar factors once the
    projector residual of the transformed rows vanishes, that is, once
    the whitened Gram matrix grows without bound.  Under Lambda0 = p^2 I
    the projector residual of row-standardized rows tends to 1, not 0,
    and this form does not apply to them.  p enters only through
    kappa0(p) and nu0(p); the display itself is p-free.
    """
    if not kappa0 > 0 or not nu0 > 0:
        raise DomainError("kappa0 and nu0 must be positive")
    if n1 < 0 or n2 < 0:
        raise DomainError("cluster sizes must be nonnegative")
    if n1 == 0 or n2 == 0:
        return 0.0
    return float(
        0.5
        * (
            -n1 * np.log1p(n2 / (kappa0 + n1))
            - n2 * np.log1p(n1 / (kappa0 + n2))
            + nu0 * np.log1p(n1 * n2 / (kappa0**2 + kappa0 * (n1 + n2)))
        )
    )


def analytic_limits(spec: RobustPriorSpec, n1: int, n2: int) -> TermLimits:
    """Term-by-term p -> infinity constants under the robust prior.

    gamma:     (n1 n2 / 2) log(1 - 1/c2), for any data
    kappa:     -n1 n2 / (2 c1^2), for any data
    det_kappa: c2 n1 n2 / (2 c1^2), the limit of det_kappa_term_log,
               valid when the whitened Gram matrix grows; on
               row-standardized rows the exact term vanishes like
               c2 n1 n2 / (c1^2 p)
    det_gram:  0, valid for row-standardized data with independent rows
    total:     the sum of the four constants.  No data regime makes all
               four hold at once; on row-standardized rows the total
               tends to gamma + kappa.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError("cluster sizes must be nonnegative")
    gamma = float(n1 * n2 / 2.0 * np.log1p(-1.0 / spec.c2))
    kappa = -n1 * n2 / (2.0 * spec.c1**2)
    det_kappa = spec.c2 * n1 * n2 / (2.0 * spec.c1**2)
    det_gram = 0.0
    return TermLimits(
        gamma_limit=gamma,
        kappa_limit=kappa,
        det_kappa_limit=det_kappa,
        det_gram_limit=det_gram,
        total_limit=gamma + kappa + det_kappa + det_gram,
    )


def merge_log_ratio(
    data,
    part: Partition,
    h1: int,
    h2: int,
    prior: NiwPrior,
    crp: CrpPrior,
) -> MergeRatioBreakdown:
    """Evaluate the merge ratio for clusters h1, h2 of a partition.

    Parameters
    ----------
    data : (n, p) array_like
        All observations; the partition indexes its rows.
    part : Partition
    h1, h2 : int
        Labels of the clusters whose merge is evaluated.
    prior : NiwPrior
    crp : CrpPrior

    Returns
    -------
    MergeRatioBreakdown
        Exact decomposition; total_likelihood always equals the direct
        difference log_marginal(h1) + log_marginal(h2) -
        log_marginal(merged).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-d, got shape {data.shape}")
    if data.shape[0] != part.n:
        raise ValueError(
            f"data has {data.shape[0]} rows but partition covers {part.n}"
        )
    p = data.shape[1]
    if p != prior.p:
        raise ValueError(f"data width {p} does not match prior p={prior.p}")
    idx1 = part.members(h1)
    idx2 = part.members(h2)
    n1, n2 = idx1.size, idx2.size

    term_gamma = gamma_term_log(p, prior.nu0, n1, n2)
    term_kappa = kappa_term_log(p, prior.kappa0, n1, n2)

    def dual_parts(rows):
        """(log scalar factor, log|I + G|) of rows of the transformed data."""
        f = factor_gram(gram_matrix(ytilde[rows], rows))
        return float(log_scalar_factor(prior, rows.size, f.z @ f.z)), f.log_det

    ytilde = transform_data(data, prior)
    sf1, ld1 = dual_parts(idx1)
    sf2, ld2 = dual_parts(idx2)
    sfm, ldm = dual_parts(np.concatenate([idx1, idx2]))

    def half(nh):
        return (prior.nu0 + nh) / 2.0

    term_det_kappa = half(n1 + n2) * sfm - half(n1) * sf1 - half(n2) * sf2
    term_det_gram = half(n1 + n2) * ldm - half(n1) * ld1 - half(n2) * ld2

    total_likelihood = term_gamma + term_kappa + term_det_kappa + term_det_gram
    eppf = eppf_log_ratio(part, h1, h2, crp)
    return MergeRatioBreakdown(
        term_gamma=term_gamma,
        term_kappa=term_kappa,
        term_det_kappa=term_det_kappa,
        term_det_gram=term_det_gram,
        total_likelihood=total_likelihood,
        eppf=eppf,
        total_posterior=eppf + total_likelihood,
    )


def projector_residual(y) -> float:
    """Spectral norm of Y (I_p + Y^T Y)^{-1} Y^T - I_n.

    By the Woodbury identity the residual matrix equals
    -(I_n + Y Y^T)^{-1}, so the norm is exactly 1 / (1 + lambda_min),
    lambda_min the smallest eigenvalue of the n x n Gram matrix Y Y^T.
    The value lies in (0, 1] and vanishes as lambda_min grows.  An
    eigenvalue within the rounding of forming Y Y^T and its spectrum,
    max(n, p) * eps * lambda_max, counts as 0, so rows that are
    linearly dependent (duplicate rows, n > p) give exactly 1.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    n = y.shape[0]
    if n < 1:
        raise ValueError("need at least one row")
    check_finite(y)
    eig = np.linalg.eigvalsh(gram_matrix(y))
    lam_min = float(eig[0])
    if lam_min <= max(y.shape) * np.finfo(float).eps * eig[-1]:
        lam_min = 0.0
    return 1.0 / (1.0 + lam_min)
