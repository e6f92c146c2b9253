"""Normal-Inverse-Wishart priors and cluster marginal likelihoods.

A cluster of rows y_1..y_n with NIW prior (mu0, kappa0, nu0, Lambda0)
has the closed-form marginal likelihood

    pi^{-np/2} * Gamma_p((nu0+n)/2) / Gamma_p(nu0/2)
    * (kappa0 / (kappa0 + n))^{p/2}
    * |Lambda0|^{nu0/2} / |Lambda0 + S + (n kappa0/(n+kappa0)) d d^T|^{(nu0+n)/2}

with S the centered scatter and d = ybar - mu0 (see e.g. Murphy [1]).
Every prior here has Lambda0 = lambda0 * I, and after the transformation
ytilde = (y - mu0) / sqrt(lambda0) the determinant splits into
|I_n + G| for the Gram matrix G = Ytilde Ytilde^T and a scalar factor
in s = 1^T (I_n + G)^-1 1, from the Woodbury identity.  Every marginal
reads those two numbers from :func:`gram_parts`, which factors the
smaller side: the n x n matrix I_n + G, or the p x p matrix
I_p + Ytilde^T Ytilde of the same determinant, so the cost is
O(n p min(n, p) + min(n, p)^3).

References
----------
.. [1] K. P. Murphy, "Conjugate Bayesian analysis of the Gaussian
   distribution", technical note, 2007.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import ConstantRow, DomainError, NotPositiveDefinite

__all__ = [
    "LOG_PI",
    "lgam",
    "log_gamma",
    "NiwPrior",
    "RobustPriorSpec",
    "robust_prior",
    "as_observations",
    "transform_data",
    "gram_matrix",
    "forward_solve",
    "factor_gram",
    "gram_parts",
    "check_nu0",
    "size_constants",
    "log_scalar_factor",
    "dual_log_marginal",
    "cluster_log_marginal",
    "row_standardize",
]

LOG_PI = float(np.log(np.pi))


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


# The most cells :func:`as_observations` tests for finiteness at once.
_FINITE_CELLS = 1 << 16


def as_observations(y) -> NDArray[np.float64]:
    """y as a 2-d float array of finite observations, one per row.

    A 1-d array is one row.  Nothing is copied that ``np.asarray`` does
    not copy.  The finite test scans blocks of rows, at most 2^16 cells
    or one row each, so besides y it holds one block's boolean mask, not
    an n x p one; the first block that fails names its first bad cell.

    Raises
    ------
    ValueError
        Naming y's shape, if it is not 2-d or has no column.
    DomainError
        Naming the first NaN or infinite cell by its 1-based row and column.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.shape[1] < 1:
        raise ValueError(f"observations must be 2-d with a column, got shape {y.shape}")
    rows = max(1, _FINITE_CELLS // y.shape[1])
    for lo in range(0, y.shape[0], rows):
        finite = np.isfinite(y[lo : lo + rows])
        if not finite.all():
            r, c = np.argwhere(~finite)[0] + (lo, 0)
            raise DomainError(
                f"data row {r + 1}, column {c + 1} is {y[r, c]}; "
                "observations must be finite"
            )
    return y


def transform_data(y, prior: NiwPrior, rows=None) -> NDArray[np.float64]:
    """Apply ytilde_i = (y_i - mu0) / sqrt(lambda0) row-wise.

    Under the transformed data the prior has mu0 = 0 and Lambda0 = I.
    y is checked whole by :func:`as_observations` and must be prior.p
    wide (else ValueError).  A cell that overflows in the transform
    becomes infinite without a warning; every caller hands the result to
    :func:`gram_matrix` or :func:`gram_parts`, which reject its row.

    rows, an integer index array, selects the rows to transform, in its
    order; the result equals ``transform_data(y, prior)[rows]`` bit for
    bit.  Only the selected rows (all of y by default) are copied, once,
    then centered and scaled in place by :func:`_transform_rows`, so the
    call holds one copy of them.  y itself is never modified.
    """
    y = as_observations(y)
    if y.shape[1] != prior.p:
        raise ValueError(f"data width {y.shape[1]} does not match prior p={prior.p}")
    # np.take always copies; it refuses a slice, whose view the
    # in-place steps would write through to y
    out = y.copy() if rows is None else np.take(y, rows, axis=0)
    _transform_rows(out, prior)
    return out


def _transform_rows(y: NDArray[np.float64], prior: NiwPrior) -> None:
    """Overwrite the float rows y with (y - mu0) / sqrt(lambda0), the
    body of :func:`transform_data`, which leaves the checks to its caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        y -= prior.mu0
        y /= np.sqrt(prior.lambda0)


def _overflow(i: int, rows, what: str) -> DomainError:
    """The error naming row i, data row rows[i] (i by default), as overflowing what."""
    r = i if rows is None else rows[i]
    return DomainError(f"data row {r + 1} overflows {what}; rescale the data")


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
        raise _overflow(bad[0], rows, "the Gram matrix")
    return gram


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


def _cholesky(a: NDArray[np.float64]):
    """(L, log|a|) with L L^T = a, for a = I + a PSD matrix."""
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - a >= I
        raise NotPositiveDefinite(str(exc)) from None
    return lower, float(2.0 * np.log(np.diag(lower)).sum())


def factor_gram(gram: NDArray[np.float64]):
    """(L, log|I + G|, z) with L L^T = I + G and z = L^-1 1, for n x n G.

    1^T (I + G)^-1 1 = z @ z.  The n x n side of :func:`gram_parts` and
    the sampler's per-cluster factors are read from here.
    """
    n = gram.shape[0]
    lower, log_det = _cholesky(gram + np.eye(n))
    return lower, log_det, forward_solve(lower, np.ones(n))


def gram_parts(ytilde: NDArray[np.float64], rows=None, dual=None):
    """(log|I_n + G|, s = 1^T (I_n + G)^-1 1) of transformed rows ytilde.

    These are the only numbers of the data that a marginal reads.
    dual=True factors I_n + G (:func:`factor_gram`), which loses accuracy
    as the rows' mean outgrows their spread.  dual=False factors the
    p x p side on the centred rows: with m their mean,
    A_c = I_p + (Y - m)^T (Y - m) = L L^T and nq = n |L^-1 m|^2 give
    log|I_n + G| = log|A_c| + log1p(nq) and s = n / (1 + nq), free of
    cancellation.  None, the default, picks the smaller side, p x p from
    n = p on.  Overflow raises DomainError naming the data row (rows as
    in :func:`gram_matrix`); on the p x p side, the first row whose
    squared norm overflows, else the one of largest norm.
    """
    n, p = ytilde.shape
    if n < p if dual is None else dual:
        _, log_det, z = factor_gram(gram_matrix(ytilde, rows))
        return log_det, float(z @ z)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ytilde.mean(axis=0)
        centered = ytilde - mean
        scatter = centered.T @ centered
        if np.isfinite(scatter).all():
            lower, log_det = _cholesky(scatter + np.eye(p))
            w = forward_solve(lower, mean)
            nq = n * float(w @ w)
            if math.isfinite(nq):
                return log_det + math.log1p(nq), n / (1.0 + nq)
        sq_norms = np.einsum("ij,ij->i", ytilde, ytilde)
    raise _overflow(int(np.argmax(sq_norms)), rows, "the scatter matrix")


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


def cluster_log_marginal(rows, prior: NiwPrior, form: str = "auto") -> float:
    """Log marginal likelihood of a cluster under the NIW prior.

    Parameters
    ----------
    rows : (n, p) array_like
        The cluster's observations, one per row; a 1-d array is one
        observation.  An empty cluster is an array of shape (0, p).
    prior : NiwPrior
    form : {"auto", "primal", "dual"}
        The side that :func:`gram_parts` factors: "dual" the n x n
        matrix I_n + G, "primal" the p x p matrix of the same
        determinant, and "auto" the smaller one (n < p is n x n).

    Returns
    -------
    float
        log of the integral of the Gaussian likelihood of the rows
        against the prior.  An empty cluster integrates an empty
        product, so the result is 0.

    Raises
    ------
    ValueError
        If form is unknown, or as :func:`transform_data` raises it, also
        for an empty cluster.
    DomainError
        If some cell is not finite (see :func:`as_observations`), if
        nu0 < p (see :func:`check_nu0`) or if the factored matrix
        overflows; the message names the row (see :func:`gram_parts`).
    """
    if form not in ("auto", "primal", "dual"):
        raise ValueError(f"unknown form {form!r}")
    ytilde = transform_data(rows, prior)
    n = ytilde.shape[0]
    if n == 0:
        return 0.0
    consts = size_constants(prior, n)
    dual = None if form == "auto" else form == "dual"
    log_det, s = gram_parts(ytilde, dual=dual)
    return float(dual_log_marginal(consts, prior, n, log_det, s))


def row_standardize(y) -> NDArray[np.float64]:
    """Center and scale each row to mean 0 and sample variance 1.

    The variance divisor is p - 1, so every output row satisfies
    sum_j y_ij^2 = p - 1.  y is copied once, and
    :func:`_standardize_rows` works on the copy in place, so peak memory
    is about one copy of y plus one row.  y itself is never modified.

    Raises
    ------
    ValueError, DomainError
        As :func:`as_observations` raises them.
    ConstantRow
        If some row has zero sample variance: its entries are all equal,
        whatever their mean rounds to.  A row of tiny spread (1e-200
        apart, say) is not constant; it is rescaled by a power of two and
        standardized.
    DomainError
        If p < 2 (sample variance needs two entries), or if some row's
        sum of squares overflows; the row is named.
    """
    out = as_observations(y).copy()
    _standardize_rows(out)
    return out


def _standardize_rows(y: NDArray[np.float64]) -> None:
    """Row-standardize the 2-d float array y in place, the body of
    :func:`row_standardize`; it raises as that function documents, but
    leaves :func:`as_observations` to its caller.

    Besides y it holds one row and the row means: the sums of squares
    are taken a row at a time in one buffer, each the same pairwise sum
    that (y**2).sum(axis=1) takes, so the result is bit-identical to the
    two-pass formula.  A row of equal entries centres to the residue of
    its rounded mean, equal entries of at most a few eps |mean|; so a row
    whose root mean square is within 16 eps |mean|, or whose sum of
    squares is below the smallest normal double, is constant if its
    centred entries are all equal.  (Those entries are then exact
    differences, so they are equal only if the row's entries are.)
    Other rows take no extra pass.  A row whose squares underflow and
    that is not constant is scaled by the exact power of two that brings
    its largest |entry| into [0.5, 1), and centred again.
    """
    p = y.shape[1]
    if p < 2:
        raise DomainError("row standardization needs p >= 2")
    buf = np.empty(p)
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore", invalid="ignore"):
        mean = y.mean(axis=1, keepdims=True)
        y -= mean
        sumsq = np.array([np.multiply(r, r, out=buf).sum() for r in y])
        # the rounded mean of p equal entries measured within 3 eps |mean|
        # up to p = 1e5; 16 leaves room for numpy's pairwise sum
        near = np.sqrt(sumsq / p) <= 16.0 * np.finfo(float).eps * np.abs(mean[:, 0])
        for i in np.flatnonzero((sumsq < tiny) | near):
            if y[i].min() == y[i].max():  # equal entries: the residue of a rounded mean
                y[i] = 0.0
                sumsq[i] = 0.0
            elif sumsq[i] < tiny:  # the mean of subnormal entries is rounded coarsely
                np.ldexp(y[i], -np.frexp(np.abs(y[i]).max())[1], out=y[i])
                y[i] -= y[i].mean()
                sumsq[i] = np.multiply(y[i], y[i], out=buf).sum()
    bad = np.flatnonzero(~np.isfinite(sumsq))
    if bad.size:
        raise _overflow(bad[0], None, "its sum of squares")
    sd = np.sqrt(sumsq / (p - 1))
    bad = np.flatnonzero(sd == 0)
    if bad.size:
        raise ConstantRow(f"row {bad[0] + 1} has zero sample variance")
    y /= sd[:, None]
