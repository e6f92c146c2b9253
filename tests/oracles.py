"""Independent reference implementations backing the test suite.

Everything here recomputes target quantities through a different route
than the package does (high-precision arithmetic, adaptive quadrature,
predictive-density chains, brute-force enumeration), so agreement is
evidence of correctness rather than a tautology.
"""

from functools import lru_cache
from math import lgamma, log, pi

import mpmath
import numpy as np
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln, logsumexp
from scipy.stats import multivariate_t

from niwclust.errors import DomainError, SameLabel
from niwclust.niw import NiwPrior, cluster_log_marginal
from niwclust.partition import Partition

mpmath.mp.dps = 50


# ------------------------------------------------------------ gamma

def log_multigamma(p: int, a: float) -> float:
    """log Gamma_p(a) = p(p-1)/4 * log pi + sum_j log Gamma(a - (j-1)/2).

    The package never forms Gamma_p itself: ``niw.size_constants`` and
    ``ratio.gamma_term_log`` telescope its ratios on the package's own
    log-gamma port.  This direct form, on scipy's ``gammaln``, is the
    reference their telescoped sums are checked against.

    Raises
    ------
    DomainError
        If p < 1 or a <= (p - 1) / 2 (the pole region).
    """
    if p < 1:
        raise DomainError(f"dimension must be >= 1, got {p}")
    if not a > (p - 1) / 2.0:
        raise DomainError(f"log_multigamma needs a > (p-1)/2, got a={a}, p={p}")
    shifts = a - 0.5 * np.arange(p)
    return float(p * (p - 1) / 4.0 * np.log(np.pi) + gammaln(shifts).sum())


def log_multigamma_mp(p: int, a: float) -> float:
    """Multivariate log gamma at 50 decimal digits.

    Direct product definition: pi^(p(p-1)/4) * prod_j Gamma(a+(1-j)/2).
    """
    total = mpmath.mpf(p * (p - 1)) / 4 * mpmath.log(mpmath.pi)
    for j in range(1, p + 1):
        total += mpmath.loggamma(mpmath.mpf(a) + mpmath.mpf(1 - j) / 2)
    return float(total)


# -------------------------------------------------- marginal oracles

def niw_marginal_quad_p1(ys, mu0: float, kappa0: float, nu0: float,
                         lam0: float) -> float:
    """One-dimensional cluster marginal by 2-d adaptive quadrature.

    At p=1 the prior factorizes as s2 ~ InvGamma(nu0/2, lam0/2) and
    mu | s2 ~ N(mu0, s2/kappa0); the integrand is likelihood * prior
    over (mu, s2).  Slow but assumption-free.
    """
    ys = np.asarray(ys, dtype=float).ravel()
    n = ys.size
    a, b = nu0 / 2.0, lam0 / 2.0
    lognorm = a * log(b) - lgamma(a)

    def integrand(mu, s2):
        loglik = -0.5 * n * np.log(2 * pi * s2) - np.sum((ys - mu) ** 2) / (2 * s2)
        logmu = -0.5 * np.log(2 * pi * s2 / kappa0) - kappa0 * (mu - mu0) ** 2 / (2 * s2)
        logs2 = lognorm - (a + 1) * np.log(s2) - b / s2
        return np.exp(loglik + logmu + logs2)

    val, _ = integrate.dblquad(integrand, 0.0, np.inf,
                               lambda s2: -np.inf, lambda s2: np.inf,
                               epsabs=1e-13, epsrel=1e-10)
    return log(val)


# One two-dimensional single-point marginal evaluated offline by 3-d
# adaptive quadrature over the Cholesky parameterization of the
# covariance (tplquad, integration box 30, epsrel 1e-9; quadpack error
# estimate 8.9e-10, roughly four minutes of wall time).  Frozen here so
# the suite does not pay that cost on every run.
QUAD_P2_MU0 = (0.1, 0.0)
QUAD_P2_KAPPA0 = 1.5
QUAD_P2_NU0 = 5.0
QUAD_P2_LAMBDA0 = ((1.2, 0.3), (0.3, 0.9))
QUAD_P2_Y = (0.4, -0.7)
QUAD_P2_LOG = -2.137192672863


def t_chain_log_marginal(ys, mu0, kappa0: float, nu0: float, lam0) -> float:
    """Cluster marginal as a chain of multivariate-t predictive densities.

    Sequential conjugate updating; each factor is evaluated with
    scipy.stats.multivariate_t, so none of the package's determinant
    algebra is involved.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[None, :]
    p = ys.shape[1]
    mu = np.array(mu0, dtype=float)
    kap = float(kappa0)
    nu = float(nu0)
    lam = (np.array(lam0, dtype=float) if np.ndim(lam0) == 2
           else float(lam0) * np.eye(p))
    total = 0.0
    for y in ys:
        df = nu - p + 1
        shape = lam * (kap + 1) / (kap * df)
        total += float(multivariate_t(loc=mu, shape=shape, df=df).logpdf(y))
        lam = lam + kap / (kap + 1) * np.outer(y - mu, y - mu)
        mu = (kap * mu + y) / (kap + 1)
        kap += 1.0
        nu += 1.0
    return total


def full_scale_log_marginal(ys, mu0, kappa0: float, nu0: float, lam0) -> float:
    """The package's cluster marginal under a full p x p scale Lambda0.

    The package's priors all have Lambda0 = lambda0 * I.  With
    L L^T = Lambda0, the change of variables z = L^-1 (y - mu0) maps
    the prior (mu0, kappa0, nu0, Lambda0) to (0, kappa0, nu0, I), and
    its Jacobian |L|^-n gives exactly

        log m(Y | mu0, kappa0, nu0, Lambda0)
            = log m(Z | 0, kappa0, nu0, 1) - n/2 log|Lambda0|.

    Unlike the rest of this module this evaluates the package; it is
    how the full-matrix oracles here still check it.
    """
    ys = np.asarray(ys, dtype=float)
    lower = np.linalg.cholesky(np.asarray(lam0, dtype=float))
    z = np.linalg.solve(lower, (ys - mu0).T).T
    prior = NiwPrior(np.zeros(ys.shape[1]), kappa0, nu0, 1.0)
    log_det = 2.0 * float(np.log(np.diag(lower)).sum())
    return cluster_log_marginal(z, prior) - ys.shape[0] / 2.0 * log_det


def mp_log_marginal(ys, mu0, kappa0: float, nu0: float, lam0: float) -> float:
    """Cluster marginal by the textbook posterior-scale formula at 50 digits.

    Murphy's closed form with Lambda0 = lam0 * I:

        -np/2 log pi + log Gamma_p(nu_n/2) - log Gamma_p(nu0/2)
        + p/2 log(kappa0/kappa_n) + nu0/2 log|Lambda0| - nu_n/2 log|Lambda_n|

    with Lambda_n = Lambda0 + S + (n kappa0/kappa_n) d d^T, S the centred
    scatter and d = ybar - mu0.  Every step, the mean, the scatter and
    the p x p determinant, runs in mpmath, so rows far from mu0 or far
    above sqrt(lam0) in scale lose nothing to cancellation.
    """
    ys = np.asarray(ys, dtype=float)
    n, p = ys.shape
    mpf = mpmath.mpf
    y = [[mpf(v) for v in row] for row in ys.tolist()]
    mean = [sum(row[j] for row in y) / n for j in range(p)]
    d = [mean[j] - mpf(float(mu0[j])) for j in range(p)]
    kappa_n = mpf(kappa0) + n
    c = n * mpf(kappa0) / kappa_n
    lam_n = mpmath.matrix(p, p)
    for i in range(p):
        for j in range(i + 1):
            v = sum((row[i] - mean[i]) * (row[j] - mean[j]) for row in y)
            v += c * d[i] * d[j] + (mpf(lam0) if i == j else 0)
            lam_n[i, j] = lam_n[j, i] = v

    def log_gamma_p(a):
        return mpf(p * (p - 1)) / 4 * mpmath.log(mpmath.pi) + sum(
            mpmath.loggamma(a - mpf(j) / 2) for j in range(p))

    nu_n = mpf(nu0) + n
    total = (-mpf(n * p) / 2 * mpmath.log(mpmath.pi)
             + log_gamma_p(nu_n / 2) - log_gamma_p(mpf(nu0) / 2)
             + mpf(p) / 2 * mpmath.log(mpf(kappa0) / kappa_n)
             + mpf(nu0) * p / 2 * mpmath.log(mpf(lam0))
             - nu_n / 2 * mpmath.log(mpmath.det(lam_n)))
    return float(total)


@st.composite
def rows_and_scalar_prior(draw, min_n=1):
    """(rows, (mu0, kappa0, nu0, lam0)) for the marginal properties.

    n and p go down to 1, and the rows are drawn with replacement from a
    pool of n random rows, so duplicate rows are common.  lam0 is a
    scalar, as every package prior is, and nu0 >= p, which every
    marginal needs.
    """
    p = draw(st.integers(1, 4))
    n = draw(st.integers(min_n, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.standard_normal((n, p)) * draw(st.floats(0.1, 3.0))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    prior = (rng.standard_normal(p), draw(st.floats(0.2, 5.0)),
             p + draw(st.floats(0.0, 6.0)), draw(st.floats(0.2, 5.0)))
    return pool[picks], prior


# ------------------------------------------------------- partitions

def set_partitions(n: int) -> list:
    """All partitions of n items as canonical label tuples.

    Restricted-growth enumeration, so labels follow first appearance:
    every tuple starts with 1 and never jumps by more than one.
    """
    out = []

    def grow(prefix, kmax):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for lab in range(1, kmax + 2):
            grow(prefix + [lab], max(kmax, lab))

    grow([], 0)
    return out


def merge(part: Partition, h1: int, h2: int) -> Partition:
    """part with clusters h1 and h2 unioned and relabeled canonically, so
    it has k - 1 clusters."""
    if h1 == h2:
        raise SameLabel(f"cannot merge label {h1} with itself")
    lo = min(h1, h2)
    return Partition(lo if lab in (h1, h2) else lab for lab in part.labels)


def log_crp(labels, alpha: float) -> float:
    """Log CRP probability of a full partition given as labels."""
    sizes = {}
    for lab in labels:
        sizes[lab] = sizes.get(lab, 0) + 1
    k = len(sizes)
    n = len(labels)
    return (k * log(alpha) + sum(lgamma(s) for s in sizes.values())
            + lgamma(alpha) - lgamma(alpha + n))


@lru_cache(maxsize=None)
def _partition_terms(n: int, alpha: float) -> tuple:
    """(partitions, log CRP of each, their clusters as row bitmasks).

    Data-free, so it is computed once per (n, alpha).  Row r of the
    (partitions, n) bitmask array holds the mask of label j + 1 in
    column j, and 0 where partition r has fewer than j + 1 clusters.
    """
    parts = set_partitions(n)
    masks = np.zeros((len(parts), n), dtype=np.intp)
    for idx, labels in enumerate(parts):
        for i, lab in enumerate(labels):
            masks[idx, lab - 1] |= 1 << i
    return parts, np.array([log_crp(labels, alpha) for labels in parts]), masks


def exact_partition_posterior(data, log_marginal_fn, alpha: float) -> dict:
    """Posterior over every partition of the rows, by enumeration.

    log_marginal_fn maps a (m, p) row block to its cluster log
    marginal.  It is called once per nonempty row subset (2^n - 1
    times, keyed by the subset's bitmask), not once per cluster of
    every partition.  Returns {canonical labels: probability},
    normalized.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    parts, crp, masks = _partition_terms(n, alpha)
    subset_log_ml = np.zeros(1 << n)  # the empty mask adds 0
    for mask in range(1, 1 << n):
        rows = [i for i in range(n) if mask >> i & 1]
        subset_log_ml[mask] = log_marginal_fn(data[rows])
    logs = crp.copy()
    for column in masks.T:  # one cluster at a time, labels ascending
        logs += subset_log_ml[column]
    probs = np.exp(logs - logsumexp(logs))
    return dict(zip(parts, probs))


def ari_pairs(a, b) -> float:
    """Adjusted Rand index by explicit pair counting.

    Quadratic in n and completely naive on purpose.
    """
    a = list(a)
    b = list(b)
    n = len(a)
    ss = sd = ds = dd = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                ss += 1
            elif same_a:
                sd += 1
            elif same_b:
                ds += 1
            else:
                dd += 1
    denom = (ss + sd) * (sd + dd) + (ss + ds) * (ds + dd)
    if denom == 0:
        return 1.0
    return 2.0 * (ss * dd - sd * ds) / denom


# ---------------------------------------------------------- spectra

def projector_residual_svd(y) -> float:
    """Spectral norm of Y (I + Y^T Y)^(-1) Y^T - I_n via singular values.

    The residual matrix is symmetric with eigenvalues
    s_i^2/(1+s_i^2) - 1, so its norm is 1/(1 + s_min^2).
    """
    y = np.asarray(y, dtype=float)
    s = np.linalg.svd(y, compute_uv=False)
    smin = s[-1] if s.size == min(y.shape) else 0.0
    return 1.0 / (1.0 + smin * smin)
