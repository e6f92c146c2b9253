"""Log-determinants and triangular solves."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from niwclust.errors import NotPositiveDefinite
from niwclust.niw import forward_solve, spd_log_det


def random_spd(rng, dim, jitter=1.0):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + jitter * np.eye(dim)


def test_spd_log_det_matches_slogdet():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 12, 40):
        a = random_spd(rng, dim)
        sign, ref = np.linalg.slogdet(a)
        assert sign == 1.0
        assert spd_log_det(a) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_not_positive_definite_raises():
    with pytest.raises(NotPositiveDefinite):
        spd_log_det(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotPositiveDefinite):
        spd_log_det(np.zeros((3, 3)))
    with pytest.raises(NotPositiveDefinite):
        ones = np.ones((2, 2))
        spd_log_det(ones)  # rank 1, pivot collapses


def gram_cholesky(rng, n):
    # the factor every dual-form evaluation solves with: I + G = L L^T
    y = rng.standard_normal((n, n + 5)) * rng.uniform(0.1, 3.0)
    return np.linalg.cholesky(y @ y.T + np.eye(n))


def test_forward_solve_matches_lapack():
    rng = np.random.default_rng(4)
    # z = L^-1 1 of factor_gram: the same bits as LAPACK for every limits size
    for n in list(range(1, 30)) * 3 + [50] * 5:
        lower = gram_cholesky(rng, n)
        z = forward_solve(lower, np.ones(n))
        assert np.array_equal(z, solve_triangular(lower, np.ones(n), lower=True)), n
    # L^-1 of the sampler's factors, and larger vectors: rounding-level only
    for n in (2, 10, 29, 50, 100, 200):
        lower = gram_cholesky(rng, n)
        for rhs in (np.eye(n), np.ones(n)):
            ref = solve_triangular(lower, rhs, lower=True)
            err = np.linalg.norm(forward_solve(lower, rhs) - ref) / np.linalg.norm(ref)
            assert err <= 1e-15, (n, rhs.ndim, err)
