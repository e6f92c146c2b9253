"""Cholesky plumbing: factorization and determinants."""

import numpy as np
import pytest

from niwclust.errors import NotPositiveDefinite
from niwclust.linalg import cholesky


def random_spd(rng, dim, jitter=1.0):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + jitter * np.eye(dim)


def test_cholesky_reconstructs():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 12, 40):
        a = random_spd(rng, dim)
        f = cholesky(a)
        assert np.allclose(f.lower @ f.lower.T, a, rtol=1e-12, atol=1e-12)
        assert np.allclose(np.triu(f.lower, 1), 0.0)


def test_not_positive_definite_raises():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.zeros((3, 3)))
    with pytest.raises(NotPositiveDefinite):
        ones = np.ones((2, 2))
        cholesky(ones)  # rank 1, pivot collapses
