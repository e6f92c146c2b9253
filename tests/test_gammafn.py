"""Multivariate gamma machinery against high-precision references."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from niwclust.errors import DomainError
from niwclust.niw import LOG_PI, RobustPriorSpec, lgam
from niwclust.ratio import analytic_limits, gamma_term_log
from oracles import log_multigamma, log_multigamma_mp


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def test_lgam_port_is_bit_identical_to_scipy_gammaln():
    # limits.csv is byte-pinned, so the port must reproduce scipy's Cephes
    # lgam exactly, not just closely (math.lgamma differs in the last bits)
    rng = np.random.default_rng(11)
    edges = [x for b in (2.0, 3.0, 13.0, 1000.0, 1e8)
             for x in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf),
                       b * (1 - 1e-9), b * (1 + 1e-9))]
    args = np.concatenate([
        rng.uniform(0.5, 2e5, 60_000),
        rng.uniform(0.5, 13.0, 20_000),  # the rational branch
        rng.uniform(13.0, 1000.0, 10_000),  # the long Stirling correction
        np.arange(1, 4000) / 2.0,  # every half-integer 0.5 .. 1999.5
        edges,
        [0.5, 1.0, 1e300, 3e305, np.inf],
    ])
    mine = np.array([lgam(x) for x in args.tolist()])
    ref = gammaln(args)
    bad = np.flatnonzero(mine != ref)
    assert bad.size == 0, list(zip(args[bad][:5], mine[bad][:5], ref[bad][:5]))
    assert lgam(np.inf) == np.inf and lgam(3e305) == np.inf
    assert math.isnan(lgam(math.nan)) and math.isnan(gammaln(math.nan))


def test_log_multigamma_matches_mpmath():
    rng = np.random.default_rng(1)
    for p in (1, 2, 3, 5, 11, 24, 50):
        for _ in range(4):
            a = (p - 1) / 2.0 + 0.5 + 8.0 * rng.random()
            assert rel(log_multigamma(p, a), log_multigamma_mp(p, a)) < 1e-12


def test_log_multigamma_p1_is_loggamma():
    for a in (0.5, 1.0, 2.25, 17.0):
        assert log_multigamma(1, a) == pytest.approx(gammaln(a), rel=1e-15)


def test_recurrence_up_to_p300():
    # Gamma_p(a) = pi^((p-1)/2) Gamma(a) Gamma_{p-1}(a - 1/2) in the
    # standard peeled form; equivalently peeling the last factor:
    # Gamma_p(a) = pi^((p-1)/2) Gamma_{p-1}(a) Gamma(a - (p-1)/2).
    for a_off in (0.75, 1.5, 9.25):
        for p in range(2, 301):
            a = (p - 1) / 2.0 + a_off
            lhs = log_multigamma(p, a)
            rhs = (log_multigamma(p - 1, a) + gammaln(a - (p - 1) / 2.0)
                   + (p - 1) / 2.0 * LOG_PI)
            assert rel(lhs, rhs) < 1e-10, (p, a)


def test_gamma_term_equals_four_multigamma_combination():
    rng = np.random.default_rng(3)
    for p in (1, 3, 17, 48):
        for _ in range(4):
            nu0 = p + 0.5 + 7.0 * rng.random()
            n1 = int(rng.integers(0, 6))
            n2 = int(rng.integers(0, 6))
            direct = (log_multigamma(p, (nu0 + n1) / 2.0)
                      + log_multigamma(p, (nu0 + n2) / 2.0)
                      - log_multigamma(p, (nu0 + n1 + n2) / 2.0)
                      - log_multigamma(p, nu0 / 2.0))
            assert rel(gamma_term_log(p, nu0, n1, n2), direct) < 1e-10


def test_gamma_term_symmetric_in_cluster_sizes():
    assert gamma_term_log(20, 45.0, 3, 5) == pytest.approx(
        gamma_term_log(20, 45.0, 5, 3), rel=1e-13)


def test_gamma_term_empty_cluster_is_zero():
    assert gamma_term_log(10, 25.0, 0, 4) == 0.0
    assert gamma_term_log(10, 25.0, 4, 0) == 0.0


def gamma_limit(c2, n1, n2):
    return analytic_limits(RobustPriorSpec(1.0, c2), n1, n2).gamma_limit


def test_gamma_term_limit_value():
    # (n1 n2 / 2) log(1 - 1/c2)
    assert gamma_limit(2.0, 1, 1) == pytest.approx(0.5 * np.log(0.5), rel=1e-12)
    assert gamma_limit(4.0, 2, 3) == pytest.approx(3.0 * np.log(0.75), rel=1e-12)


def test_gamma_term_converges_at_rate_one_over_p():
    for n1, n2 in ((1, 1), (2, 2), (3, 4)):
        limit = gamma_limit(2.0, n1, n2)
        for p in (10 ** 3, 10 ** 4, 10 ** 5):
            err = abs(gamma_term_log(p, 2.0 * p, n1, n2) - limit)
            assert err < 5.0 * n1 * n2 / p, (n1, n2, p, err)


def test_domain_errors():
    with pytest.raises(DomainError):
        log_multigamma(5, 1.9)  # needs a > (p-1)/2
    with pytest.raises(DomainError, match="marginals need nu0 >= p"):
        gamma_term_log(10, 8.0, 1, 1)  # nu0 + 1 - p <= 0
    with pytest.raises(DomainError, match="marginals need nu0 >= p"):
        gamma_term_log(10, 9.5, 1, 1)  # p - 1 < nu0 < p
    with pytest.raises(DomainError):
        gamma_term_log(10, 12.0, -1, 2)
    with pytest.raises(DomainError):
        RobustPriorSpec(1.0, 1.0)  # the gamma limit needs c2 > 1
