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

from .errors import DomainError
from .niw import (
    NiwPrior,
    RobustPriorSpec,
    _standardize_rows,
    _transform_rows,
    as_observations,
    check_nu0,
    gram_matrix,
    gram_parts,
    log_gamma,
    log_scalar_factor,
    transform_data,
)
from .partition import CrpPrior, Partition, eppf_log_ratio

__all__ = [
    "MergeRatioBreakdown",
    "TermLimits",
    "merge_log_ratio",
    "standardized_merge_log_ratio",
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
    up = log_gamma((nu0 + j) / 2.0) - log_gamma((nu0 + j - p) / 2.0)
    down = log_gamma((nu0 + j + n1 - p) / 2.0) - log_gamma((nu0 + j + n1) / 2.0)
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
        All observations; the partition indexes its rows.  data itself
        is never modified.
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
    # rows as transform_data counts them (a 1-d array is one); it checks the rest
    n = len(np.atleast_2d(data))
    if n != part.n:
        raise ValueError(f"data has {n} rows but partition covers {part.n}")
    eppf = eppf_log_ratio(part, h1, h2, crp)
    idx1 = part.members(h1)
    # only the merged rows are transformed, once; the two clusters are
    # row slices (views) of that block
    merged = np.concatenate([idx1, part.members(h2)])
    return _merge_breakdown(transform_data(data, prior, merged), idx1.size, merged,
                            prior, eppf)


def standardized_merge_log_ratio(
    y: np.ndarray,
    n1: int,
    prior: NiwPrior,
    crp: CrpPrior,
) -> MergeRatioBreakdown:
    """The merge ratio of row-standardized rows, computed in y's own memory.

    The result equals, bit for bit, ``merge_log_ratio(row_standardize(y),
    Partition([1] * n1 + [2] * (n - n1)), 1, 2, prior, crp)``: the first
    n1 rows form one cluster and the rest the other.  **y is
    overwritten**: it is checked finite, then row-standardized and
    transformed in place, so besides y the call holds only one row
    block's finite mask and one row, where the copying path holds two
    copies of y.

    Parameters
    ----------
    y : (n, p) float64 ndarray
        The raw rows; their values are lost.
    n1 : int
        Size of the first cluster, 0 < n1 < n.
    prior : NiwPrior
    crp : CrpPrior

    Raises
    ------
    ValueError
        If y is not a 2-d float64 array of prior.p columns, or n1 is
        out of range.
    ConstantRow, DomainError
        As :func:`~niwclust.niw.row_standardize` and
        :func:`merge_log_ratio` raise them.
    """
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64 and y.ndim == 2):
        raise ValueError("y must be a 2-d float64 array")
    n, p = y.shape
    if p != prior.p:
        raise ValueError(f"data width {p} does not match prior p={prior.p}")
    if not 0 < n1 < n:
        raise ValueError(f"n1 must split the {n} rows, got {n1}")
    y = as_observations(y)  # y itself: it is float64 and 2-d
    _standardize_rows(y)
    _transform_rows(y, prior)
    eppf = eppf_log_ratio(Partition([1] * n1 + [2] * (n - n1)), 1, 2, crp)
    return _merge_breakdown(y, n1, np.arange(n), prior, eppf)


def _merge_breakdown(
    ytilde, n1: int, rows, prior: NiwPrior, eppf: float
) -> MergeRatioBreakdown:
    """The MergeRatioBreakdown of transformed rows ytilde split after row n1.

    rows[i] is the data row of ytilde[i], which overflow errors name.
    """
    n, p = ytilde.shape
    n2 = n - n1
    term_gamma = gamma_term_log(p, prior.nu0, n1, n2)
    term_kappa = kappa_term_log(p, prior.kappa0, n1, n2)

    def log_parts(block, idx):
        """(log scalar factor, log|I + G|) of transformed rows, smaller side."""
        log_det, s = gram_parts(block, idx)
        return float(log_scalar_factor(prior, idx.size, s)), log_det

    sf1, ld1 = log_parts(ytilde[:n1], rows[:n1])
    sf2, ld2 = log_parts(ytilde[n1:], rows[n1:])
    sfm, ldm = log_parts(ytilde, rows)

    def half(nh):
        return (prior.nu0 + nh) / 2.0

    term_det_kappa = half(n) * sfm - half(n1) * sf1 - half(n2) * sf2
    term_det_gram = half(n) * ldm - half(n1) * ld1 - half(n2) * ld2

    total_likelihood = term_gamma + term_kappa + term_det_kappa + term_det_gram
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
    linearly dependent (duplicate rows, n > p) give exactly 1.  y is
    checked by :func:`~niwclust.niw.as_observations` and needs a row.
    """
    y = as_observations(y)
    if y.shape[0] < 1:
        raise ValueError("need at least one row")
    eig = np.linalg.eigvalsh(gram_matrix(y))
    lam_min = float(eig[0])
    if lam_min <= max(y.shape) * np.finfo(float).eps * eig[-1]:
        lam_min = 0.0
    return 1.0 / (1.0 + lam_min)
