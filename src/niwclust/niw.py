"""Normal-Inverse-Wishart priors and cluster marginal likelihoods.

A cluster of rows y_1..y_n with NIW prior (mu0, kappa0, nu0, Lambda0)
has the closed-form marginal likelihood

    pi^{-np/2} * Gamma_p((nu0+n)/2) / Gamma_p(nu0/2)
    * (kappa0 / (kappa0 + n))^{p/2}
    * |Lambda0|^{nu0/2} / |Lambda0 + S + (n kappa0/(n+kappa0)) d d^T|^{(nu0+n)/2}

with S the centered scatter and d = ybar - mu0 (see e.g. Murphy [1]).
The primal evaluation factorizes the p x p matrix directly.  For p much
larger than n the same value is computed in n x n space: every prior
here has Lambda0 = lambda0 * I, and after the transformation
ytilde = (y - mu0) / sqrt(lambda0) the determinant splits
into |I_n + G| for the Gram matrix G = Ytilde Ytilde^T and a scalar
factor obtained from the Woodbury identity, so the cost is
O(p n^2 + n^3) instead of O(p^3).

References
----------
.. [1] K. P. Murphy, "Conjugate Bayesian analysis of the Gaussian
   distribution", technical note, 2007.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import ConstantRow, DomainError, NotPositiveDefinite

__all__ = [
    "LOG_PI",
    "lgam",
    "log_gamma",
    "spd_log_det",
    "NiwPrior",
    "RobustPriorSpec",
    "ClusterView",
    "GramFactor",
    "robust_prior",
    "check_finite",
    "transform_data",
    "gram_matrix",
    "forward_solve",
    "factor_gram",
    "check_nu0",
    "size_constants",
    "log_scalar_factor",
    "dual_log_marginal",
    "cluster_log_marginal",
    "row_standardize",
]

# Dual evaluation pays off once the Gram side is decisively smaller.
_DUAL_RATIO = 4

LOG_PI = float(np.log(np.pi))

# Pivot below PIVOT_RTOL * max(diag) counts as numerically singular.
# A fixed relative threshold keeps the PD test stable across platforms.
PIVOT_RTOL = 1e-12


# Cephes lgam polynomials, highest power first: the Stirling correction
# in 1/x^2 (the short form from x = 1000 on) and the numerator and
# denominator of the rational approximation of log Gamma on [2, 3).
_LGAM_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_LGAM_STIRLING_SHORT = (7.9365079365079365079365e-4,
                        -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LGAM_NUM = (-1.37825152569120859100e3, -3.88016315134637840924e4,
             -3.31612992738871184744e5, -1.16237097492762307383e6,
             -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_DEN = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
             -2.20528590553854454839e5, -1.13933444367982507207e6,
             -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _polevl(x: float, coef: tuple) -> float:
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """log Gamma(x) for x > 0, a port of the Cephes routine ``lgam``.

    Cephes (S. L. Moshier, 1989) is what scipy's ``gammaln`` is built
    on.  The port repeats its floating-point operations in order, with
    ``math.log`` (the C library log), so its results are the same bits.
    Below 13 the argument is shifted into [2, 3) by the recurrence
    Gamma(x + 1) = x Gamma(x) and a rational approximation applies; from
    13 on Stirling's series does, its correction dropped above 1e8.  NaN
    passes through and x > 2.556348e305 gives inf.  The package only
    passes arguments >= 1/2 (:func:`check_nu0`), so the reflection
    branch for negative x is left out: x <= 0 is outside the domain.
    """
    if x != x or x == math.inf:
        return x
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x = x + (p - 2.0)
        return math.log(z) + x * _polevl(x, _LGAM_NUM) / _polevl(x, _LGAM_DEN)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    series = _LGAM_STIRLING_SHORT if x >= 1000.0 else _LGAM_STIRLING
    return q + _polevl(1.0 / (x * x), series) / x


def log_gamma(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """:func:`lgam` of each entry of a 1-d array."""
    return np.fromiter(map(lgam, a.tolist()), dtype=float, count=a.size)


def spd_log_det(m) -> float:
    """log|M| of a symmetric positive definite matrix, from its Cholesky factor.

    Every determinant here is raised to a power of order (nu0 + n) / 2,
    which overflows raw determinants at a few hundred dimensions, so
    they stay in log space: log|M| = 2 * sum(log diag(L)) for M = L L^T.

    Raises
    ------
    ValueError
        If m is not a square, symmetric matrix.
    NotPositiveDefinite
        If the diagonal is not positive, the factorization fails or any
        pivot falls below ``PIVOT_RTOL * max(diag(m))``.  A failure here
        usually signals a prior scale lambda0 negligible against a
        degenerate scatter matrix.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-10, atol=0.0):
        raise ValueError("matrix is not symmetric")
    max_diag = float(np.max(np.diag(a)))
    if not np.isfinite(max_diag) or max_diag <= 0.0:
        raise NotPositiveDefinite("matrix diagonal is not positive")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    pivots = np.diag(lower) ** 2
    if np.min(pivots) < PIVOT_RTOL * max_diag:
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below tolerance "
            f"{PIVOT_RTOL * max_diag:.3e}"
        )
    return float(2.0 * np.log(np.diag(lower)).sum())


@dataclass(frozen=True, eq=False)
class NiwPrior:
    """Normal-Inverse-Wishart prior (mu0, kappa0, nu0, Lambda0).

    Parameters
    ----------
    mu0 : (p,) ndarray
        Prior mean.
    kappa0 : float
        Prior precision scale, > 0.
    nu0 : float
        Inverse-Wishart degrees of freedom, > p - 1.
    lambda0 : float
        Inverse-Wishart scale: Lambda0 is the scalar matrix lambda0 * I_p,
        with lambda0 positive and finite.  A 0-d array is accepted; an
        array of any other shape is rejected.
    """

    mu0: NDArray[np.float64]
    kappa0: float
    nu0: float
    lambda0: float

    def __post_init__(self):
        mu0 = np.asarray(self.mu0, dtype=float)
        if mu0.ndim != 1 or mu0.size < 1:
            raise DomainError(f"mu0 must be a vector, got shape {mu0.shape}")
        bad = np.flatnonzero(~np.isfinite(mu0))
        if bad.size:
            raise DomainError(f"mu0[{bad[0]}] is {mu0[bad[0]]}; mu0 must be finite")
        object.__setattr__(self, "mu0", mu0)
        p = mu0.size
        if not 0 < self.kappa0 < np.inf:
            raise DomainError(f"kappa0 must be positive and finite, got {self.kappa0}")
        if not p - 1 < self.nu0 < np.inf:
            raise DomainError(f"nu0 must be finite and > p-1={p - 1}, got {self.nu0}")
        if np.ndim(self.lambda0) != 0:
            raise DomainError(
                f"lambda0 must be a scalar (Lambda0 = lambda0 * I), "
                f"got shape {np.shape(self.lambda0)}"
            )
        lam = float(self.lambda0)
        if not 0 < lam < np.inf:
            raise DomainError(f"scalar lambda0 must be positive and finite, got {lam}")
        object.__setattr__(self, "lambda0", lam)

    @property
    def p(self) -> int:
        return self.mu0.size

    @cached_property
    def lambda0_log_det(self) -> float:
        return self.p * float(np.log(self.lambda0))


@dataclass(frozen=True)
class RobustPriorSpec:
    """Constants of the dimension-robust prior family.

    The family sets kappa0 = c1 * sqrt(p), nu0 = c2 * p and
    Lambda0 = p^2 * I with mu0 = 0.  c2 must exceed 1 so that the
    degrees of freedom keep a linear excess over the dimension;
    at c2 = 1 the gamma-term limit degenerates.
    """

    c1: float
    c2: float

    def __post_init__(self):
        if not 0 < self.c1 < np.inf:
            raise DomainError(f"c1 must be positive and finite, got {self.c1}")
        if not 1 < self.c2 < np.inf:
            raise DomainError(f"c2 must be finite and exceed 1, got {self.c2}")


def robust_prior(p: int, spec: RobustPriorSpec) -> NiwPrior:
    """Instantiate the robust prior at dimension p.

    kappa0 = c1 * sqrt(p), nu0 = c2 * p, Lambda0 = p^2 * I, mu0 = 0.
    """
    if p < 2:
        raise DomainError(f"robust prior needs p >= 2, got {p}")
    return NiwPrior(
        mu0=np.zeros(p),
        kappa0=spec.c1 * float(np.sqrt(p)),
        nu0=spec.c2 * float(p),
        lambda0=float(p) ** 2,
    )


def check_finite(y: NDArray[np.float64]) -> None:
    """Reject a 2-d data array with a NaN or infinite cell.

    Raises
    ------
    DomainError
        Naming the first such cell by its 1-based row and column.
    """
    finite = np.isfinite(y)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise DomainError(
            f"data row {r + 1}, column {c + 1} is {y[r, c]}; "
            "observations must be finite"
        )


class ClusterView:
    """One cluster's observations with lazily cached summaries.

    Parameters
    ----------
    rows : (n, p) array_like
        The cluster's observations, one per row.  An empty cluster is
        an array of shape (0, p).  Every cell must be finite.

    The mean and the centered scatter (p x p) are each computed on
    first use and cached; only the primal marginal form reads the
    scatter.
    """

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError(f"rows must be 2-d, got shape {rows.shape}")
        if rows.shape[1] < 1:
            raise ValueError("rows must have at least one column")
        check_finite(rows)
        self.rows = rows

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def mean(self) -> NDArray[np.float64]:
        if self.n == 0:
            return np.zeros(self.p)
        return self.rows.mean(axis=0)

    @cached_property
    def scatter(self) -> NDArray[np.float64]:
        """Centered scatter S = sum (y - ybar)(y - ybar)^T, p x p PSD."""
        if self.n == 0:
            return np.zeros((self.p, self.p))
        centered = self.rows - self.mean
        return centered.T @ centered


def transform_data(y, prior: NiwPrior, rows=None) -> NDArray[np.float64]:
    """Apply ytilde_i = (y_i - mu0) / sqrt(lambda0) row-wise.

    Under the transformed data the prior has mu0 = 0 and Lambda0 = I.
    Rejects non-finite data anywhere in y with :func:`check_finite`,
    naming the cell by its row in y.  A cell that overflows in the
    transform becomes infinite without a warning; every caller forms the
    Gram matrix with :func:`gram_matrix`, which rejects its row.

    rows, an integer index array, selects the rows to transform, in its
    order; the result equals ``transform_data(y, prior)[rows]`` bit for
    bit.  Only the selected rows (all of y by default) are copied, once,
    then centered and scaled in place, so the call holds one copy of
    them.  y itself is never modified.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.shape[1] != prior.p:
        raise ValueError(f"data width {y.shape[1]} does not match prior p={prior.p}")
    check_finite(y)
    # np.take always copies; it refuses a slice, whose view the
    # in-place steps would write through to y
    out = y.copy() if rows is None else np.take(y, rows, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        out -= prior.mu0
        out /= np.sqrt(prior.lambda0)
    return out


def gram_matrix(ytilde: NDArray[np.float64], rows=None) -> NDArray[np.float64]:
    """The Gram matrix Ytilde Ytilde^T of finite rows, checked for overflow.

    Finite data can still overflow here (a cell of 1e200 squares to
    inf), and a non-finite Gram entry would otherwise come out of the
    dual marginal as nan.  rows gives the 0-based data row of each row
    of ytilde for the error message; by default row i is data row i.

    Raises
    ------
    DomainError
        Naming, 1-based, the first data row whose squared norm overflows
        (its cross terms with other rows can overflow too), else the
        first whose Gram row is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = ytilde @ ytilde.T
    finite = np.isfinite(gram)
    if not finite.all():
        diag = ~finite.diagonal()
        bad = np.flatnonzero(diag if diag.any() else ~finite.all(axis=1))
        r = bad[0] if rows is None else rows[bad[0]]
        raise DomainError(
            f"data row {r + 1} overflows the Gram matrix; rescale the data"
        )
    return gram


class GramFactor(NamedTuple):
    """Cholesky factor of I + G for an n x n Gram block G.

    lower is L with L L^T = I + G, log_det = log|I + G| and z = L^-1 1,
    so that 1^T (I + G)^-1 1 = z @ z.
    """

    lower: NDArray[np.float64]
    log_det: float
    z: NDArray[np.float64]


def forward_solve(lower: NDArray[np.float64], rhs: NDArray[np.float64]):
    """Solve L Z = rhs for a lower-triangular L by forward substitution.

    Row i is (rhs[i] - L[i, :i] @ Z[:i]) / L[i, i]; rhs may be a vector
    or a matrix.  Unlike a general solve it does not pivot; with
    OpenBLAS a vector rhs gives LAPACK's triangular-solve result bit
    for bit up to n = 50, and within 1e-15 relative beyond.
    """
    z = np.empty(rhs.shape)
    for i in range(lower.shape[0]):
        z[i] = (rhs[i] - lower[i, :i] @ z[:i]) / lower[i, i]
    return z


def factor_gram(gram: NDArray[np.float64]) -> GramFactor:
    """Factor I + G, the n x n matrix of every dual-form evaluation.

    Cluster marginals, both determinant terms of the merge ratio and
    the sampler's per-cluster factors all read their |I_n + G| and
    1^T (I_n + G)^-1 1 from here.
    """
    n = gram.shape[0]
    try:
        lower = np.linalg.cholesky(gram + np.eye(n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - G is PSD
        raise NotPositiveDefinite(str(exc)) from None
    z = forward_solve(lower, np.ones(n))
    return GramFactor(lower, float(2.0 * np.log(np.diag(lower)).sum()), z)


def check_nu0(nu0: float, p: int) -> None:
    """Raise DomainError unless nu0 >= p, which every marginal needs.

    The marginals and the merge ratio's gamma term telescope Gamma_p
    ratios into univariate log-gamma terms whose smallest argument,
    (nu0 + 1 - p)/2, the package keeps at 1/2 or more, although the
    prior itself allows nu0 > p - 1.
    """
    if not (nu0 + 1 - p) / 2.0 >= 0.5:
        raise DomainError(f"marginals need nu0 >= p, got nu0={nu0}, p={p}")


def size_constants(prior: NiwPrior, n: int) -> NDArray[np.float64]:
    """The part of the log marginal fixed by the cluster size, for sizes 0..n.

    Entry m is

        -m p/2 log pi + log[Gamma_p((nu0+m)/2) / Gamma_p(nu0/2)]
        + p/2 log(kappa0/(kappa0+m)) - m/2 log|Lambda0|

    with the gamma ratio telescoped into m univariate terms, which needs
    nu0 >= p (:func:`check_nu0`).
    """
    p = prior.p
    check_nu0(prior.nu0, p)
    sizes = np.arange(1, n + 1, dtype=float)
    gamma_ratio = np.cumsum(
        log_gamma((prior.nu0 + sizes) / 2.0)
        - log_gamma((prior.nu0 + sizes - p) / 2.0)
    )
    return np.concatenate(
        [
            [0.0],
            -sizes * p / 2.0 * LOG_PI
            + gamma_ratio
            + p / 2.0 * np.log(prior.kappa0 / (prior.kappa0 + sizes))
            - sizes / 2.0 * prior.lambda0_log_det,
        ]
    )


def log_scalar_factor(prior: NiwPrior, n: int, s):
    """log((kappa0 + s) / (n + kappa0)) for s = 1^T (I_n + G)^-1 1.

    By Woodbury, |I_p + Ytilde^T Ytilde - Ytilde^T 1 1^T Ytilde / (n + kappa0)|
    is this scalar factor times |I_n + G|.
    """
    return np.log((prior.kappa0 + s) / (n + prior.kappa0))


def dual_log_marginal(consts, prior: NiwPrior, n: int, log_det, s):
    """Log marginal of n points from log|I_n + G| and s = 1^T (I_n + G)^-1 1.

    consts comes from :func:`size_constants`.  log_det and s may be
    arrays holding several clusters of the same size n.
    """
    return consts[n] - (prior.nu0 + n) / 2.0 * (
        log_scalar_factor(prior, n, s) + log_det
    )


def cluster_log_marginal(c: ClusterView, prior: NiwPrior, form: str = "auto") -> float:
    """Log marginal likelihood of a cluster under the NIW prior.

    Parameters
    ----------
    c : ClusterView
    prior : NiwPrior
    form : {"auto", "primal", "dual"}
        "primal" factorizes the p x p posterior scale matrix, "dual"
        works in n x n space.  "auto" picks the dual route when
        p > 4 * n.

    Returns
    -------
    float
        log of the integral of the Gaussian likelihood of the rows
        against the prior.  An empty cluster integrates an empty
        product, so the result is 0.

    Raises
    ------
    NotPositiveDefinite
        If the inner p x p matrix is numerically singular.
    DomainError
        If nu0 < p (see :func:`check_nu0`) or if the Gram matrix of the
        dual form overflows.
    """
    if c.n == 0:
        return 0.0
    if c.p != prior.p:
        raise ValueError(f"cluster width {c.p} does not match prior p={prior.p}")
    if form not in ("auto", "primal", "dual"):
        raise ValueError(f"unknown form {form!r}")
    n = c.n
    dual = form == "dual" or (form == "auto" and c.p > _DUAL_RATIO * n)
    consts = size_constants(prior, n)
    if dual:
        f = factor_gram(gram_matrix(transform_data(c.rows, prior)))
        return float(dual_log_marginal(consts, prior, n, f.log_det, f.z @ f.z))

    d = c.mean - prior.mu0
    inner = prior.lambda0 * np.eye(c.p) + c.scatter
    inner += (n * prior.kappa0 / (n + prior.kappa0)) * np.outer(d, d)
    log_det_inner = spd_log_det(inner)
    return float(
        consts[n] - (prior.nu0 + n) / 2.0 * (log_det_inner - prior.lambda0_log_det)
    )


def row_standardize(y) -> NDArray[np.float64]:
    """Center and scale each row to mean 0 and sample variance 1.

    The variance divisor is p - 1, so every output row satisfies
    sum_j y_ij^2 = p - 1.  The result is the one full-size array made:
    the sums of squares are taken a row at a time and the scaling is in
    place, so peak memory is about one copy of y plus one row.

    Raises
    ------
    ConstantRow
        If some row has zero sample variance.
    DomainError
        If p < 2 (sample variance needs two entries).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.shape[1] < 2:
        raise DomainError("row standardization needs p >= 2")
    centered = y - y.mean(axis=1, keepdims=True)
    # one row's square at a time; each row sum is the same pairwise sum
    # that (centered**2).sum(axis=1) takes, so the result is bit-identical
    sumsq = np.array([(r * r).sum() for r in centered])
    sd = np.sqrt(sumsq / (y.shape[1] - 1))
    bad = np.flatnonzero(~(sd > 0))
    if bad.size:
        raise ConstantRow(f"row {bad[0]} has zero sample variance")
    centered /= sd[:, None]
    return centered
