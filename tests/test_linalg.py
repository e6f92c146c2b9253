"""Cholesky plumbing: factorization, determinants, norms."""

import numpy as np
import pytest

from niwclust.errors import NotPositiveDefinite
from niwclust.linalg import cholesky, log_det, spectral_norm


def random_spd(rng, dim, jitter=1.0):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + jitter * np.eye(dim)


def test_cholesky_reconstructs():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 12, 40):
        a = random_spd(rng, dim)
        f = cholesky(a)
        assert np.allclose(f.reconstruct(), a, rtol=1e-12, atol=1e-12)
        assert np.allclose(np.triu(f.lower, 1), 0.0)


def test_log_det_matches_slogdet():
    rng = np.random.default_rng(1)
    for dim in (1, 3, 8, 25):
        a = random_spd(rng, dim)
        sign, ref = np.linalg.slogdet(a)
        assert sign == 1.0
        assert log_det(a) == pytest.approx(ref, rel=1e-11)


def test_solve_matches_numpy():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 9)
    b = rng.standard_normal(9)
    x = cholesky(a).solve(b)
    assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-9)


def test_not_positive_definite_raises():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.zeros((3, 3)))
    with pytest.raises(NotPositiveDefinite):
        ones = np.ones((2, 2))
        cholesky(ones)  # rank 1, pivot collapses


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (4, 4), (3, 10), (10, 3), (20, 20)):
        m = rng.standard_normal(shape)
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(ref, rel=1e-7)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 6))) == 0.0
